//! The daily MalNet loop (paper §2): collect → vet → activate → extract
//! → cross-validate → track.
//!
//! For every study day with new feed items the pipeline:
//!
//! 1. records each binary's AV detection count (the paper's §2.2 vetting
//!    signal; no sample is dropped on it) and labels it (YARA +
//!    AVClass2),
//! 2. activates it in the **contained** sandbox (InetSim-faked Internet)
//!    to extract C2 candidates (§2.1 mode 1) and exploit payloads via the
//!    handshaker (§2.4),
//! 3. queries the intelligence feeds for each C2 address on the discovery
//!    day (§2.3a / §3.3),
//! 4. checks day-0 liveness against the real (simulated) Internet and
//!    keeps probing known C2s daily to measure observed lifespans (§3.2),
//! 5. for samples with a live, engaging C2, runs a **restricted** session
//!    (C2-only egress) and extracts DDoS commands (§2.5),
//! 6. runs the D-PC2 probing study in its two-week window (§2.3b),
//! 7. re-queries the feeds at the end ("May 7th") for Table 3.
//!
//! ## Day-epoch sharding
//!
//! Days no longer execute as one sequential walk. The study plan (which
//! sample runs on which day) is computed up front, partitioned into
//! [`PipelineOpts::day_shards`] contiguous day-ranges ("epochs"), and
//! each epoch runs as an independent unit over `crate::par::fan_out`:
//! phase A (contained activation), phase B (world-effect merge +
//! restricted sessions) and the epoch's own [`VendorDb`] knowledge delta
//! and [`Datasets`] slice, all pure functions of `(world, opts, epoch
//! days)`. Cross-day state — the C2 liveness-tracking table and the
//! merged vendor knowledge — is owned exclusively by the deterministic
//! reduce ([`merge_epoch_results`]): it folds epoch deltas in canonical
//! day order, re-resolves every liveness transition (including ones that
//! straddle an epoch edge) through a pure per-`(day, address)` oracle,
//! and emits the entire `malnet.events` day stream from the fold, so the
//! stream and every dataset byte are independent of how many shards (or
//! worker threads) executed the study. DESIGN.md §8 states the ownership
//! rules; `crates/core/tests/parallel_determinism.rs` proves the
//! byte-identity across day-shards × parallelism × chaos.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::panic::AssertUnwindSafe;

use malnet_prng::{fnv1a, sub_seed};
use malnet_telemetry::{Field as EventField, SpanCtx, Telemetry};

use malnet_botgen::exploitdb;
use malnet_botgen::world::World;
use malnet_intel::engines::EngineModel;
use malnet_intel::{avclass2_label, yara_label, VendorDb};
use malnet_netsim::net::Network;
use malnet_netsim::stack::SockEvent;
use malnet_netsim::time::{SimDuration, SimTime, STUDY_DAYS};
use malnet_protocols::Family;
use malnet_sandbox::{AnalysisMode, EmuFaultTally, Sandbox, SandboxConfig};
use malnet_wire::dns::{DnsMessage, DomainName};
use malnet_wire::pcap;

use crate::c2detect::detect_c2;
use crate::chaos::FaultPlan;
use crate::datasets::{
    C2Record, Datasets, DdosRecord, ExploitRecord, HealthKind, HealthRecord, SampleRecord,
    TriageRecord,
};
use crate::ddos;
use crate::prober::{self, add_nonzero, syn_sweep, ProbeConfig, Sweep};

/// The monitor host used for liveness probes and DNS lookups.
pub const MONITOR_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 7);
/// The sandboxed device address.
pub const BOT_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
/// Days to keep re-probing a discovered C2 after it stops answering.
const TRACK_GRACE_DAYS: u32 = 2;

/// Pipeline knobs. Defaults follow the paper; tests shrink durations.
#[derive(Debug, Clone)]
pub struct PipelineOpts {
    /// RNG seed for sandbox runs.
    pub seed: u64,
    /// Virtual seconds of the contained (C2 + exploit extraction) run.
    pub contained_secs: u64,
    /// Virtual seconds of the restricted DDoS-observation session
    /// (paper: 2 hours).
    pub restricted_secs: u64,
    /// Handshaker engagement threshold (paper: 20 distinct addresses).
    pub handshaker_threshold: usize,
    /// Behavioural DDoS threshold in packets/second (paper: 100).
    pub pps_threshold: u64,
    /// Upper bound on tracked days per C2.
    pub track_max_days: u32,
    /// Run the D-PC2 probing study.
    pub run_probing: bool,
    /// Probing rounds (paper: 84 = 14 days × 6).
    pub probe_rounds: u32,
    /// Hosts swept per probing subnet (paper: the full /24).
    pub probe_hosts_per_subnet: u32,
    /// Analyze at most this many samples (tests); `None` = all.
    pub max_samples: Option<usize>,
    /// Day of the final feed re-query (paper: 2022-05-07 ≈ day 432).
    pub late_query_day: u32,
    /// Worker threads for the fan-out stages (contained activation,
    /// restricted sessions, the epoch pool and the liveness oracle).
    /// `1` (the default) keeps every stage a plain sequential loop.
    /// Every value produces byte-identical datasets: each unit of work
    /// draws from its own [`sub_seed`]-derived RNG and results are
    /// merged back in canonical order (see DESIGN.md §8).
    pub parallelism: usize,
    /// Contiguous day-ranges ("epochs") the study plan is split into.
    /// `1` (the default) runs the whole study as a single epoch; larger
    /// values let epochs execute concurrently on the epoch pool. Every
    /// value produces byte-identical datasets and event streams: all
    /// cross-day state lives in the deterministic epoch reduce
    /// ([`merge_epoch_results`]), never inside an epoch.
    pub day_shards: usize,
    /// Deterministic chaos-engineering fault plan. [`FaultPlan::none`]
    /// (the default) injects nothing, draws no randomness, and leaves
    /// every byte of the datasets untouched; any other plan perturbs the
    /// run identically at every parallelism level (enforced by the
    /// determinism suite).
    pub faults: FaultPlan,
    /// Bounded SYN re-probes (with linear backoff) before the daily
    /// liveness sweep or the D-PC2 prober declares a listener dead.
    /// Defaults to `2`: the legacy single-probe behaviour (`0`) let a
    /// one-packet loss window kill a live C2's tracking entry, skewing
    /// the lifespan study toward short lives (see the
    /// `syn_retry_survives_transient_loss` regression test).
    pub syn_retries: u32,
    /// Run guests on the block-cached interpreter (default) or the
    /// legacy stepping oracle. Bit-exact either way — the determinism
    /// suite diffs full dataset dumps across both settings — so this is
    /// purely a speed/differential-testing knob.
    pub block_engine: bool,
}

impl Default for PipelineOpts {
    fn default() -> Self {
        PipelineOpts {
            seed: 22,
            contained_secs: 420,
            restricted_secs: 7200,
            handshaker_threshold: 20,
            pps_threshold: 100,
            track_max_days: 60,
            run_probing: true,
            probe_rounds: 84,
            probe_hosts_per_subnet: 254,
            max_samples: None,
            late_query_day: STUDY_DAYS + 45,
            parallelism: 1,
            day_shards: 1,
            faults: FaultPlan::none(),
            syn_retries: 2,
            block_engine: true,
        }
    }
}

impl PipelineOpts {
    /// A configuration small enough for unit/integration tests while
    /// exercising every stage.
    pub fn fast() -> Self {
        PipelineOpts {
            contained_secs: 150,
            restricted_secs: 4200,
            handshaker_threshold: 5,
            probe_rounds: 12,
            probe_hosts_per_subnet: 30,
            ..Default::default()
        }
    }
}

/// Cross-day tracking state for one C2 — owned exclusively by the epoch
/// reduce's chronological fold.
struct TrackState {
    ip: Ipv4Addr,
    port: u16,
    misses: u32,
    days: u32,
}

/// The pipeline engine.
pub struct Pipeline {
    opts: PipelineOpts,
    tel: Telemetry,
}

impl Pipeline {
    /// Create a pipeline with telemetry disabled.
    pub fn new(opts: PipelineOpts) -> Self {
        Self::with_telemetry(opts, Telemetry::disabled())
    }

    /// Create a pipeline that records spans/counters into `tel`. The
    /// instrumentation is observation-only — it never draws from any
    /// RNG or reads the simulated clock — so the returned datasets are
    /// byte-identical to an uninstrumented run (enforced by
    /// `crates/core/tests/parallel_determinism.rs`). Snapshot the
    /// results with [`Telemetry::report`] after [`Pipeline::run`].
    pub fn with_telemetry(opts: PipelineOpts, tel: Telemetry) -> Self {
        Pipeline { opts, tel }
    }

    /// Run the full study over a world and return the datasets.
    ///
    /// Orchestration only: the per-day work happens inside the epoch
    /// pool ([`run_day_epochs`]) and every cross-day effect inside the
    /// reduce ([`merge_epoch_results`]); this method wraps them with the
    /// study lifecycle (events, late feed re-query, D-PC2 probing).
    pub fn run(self, world: &World) -> (Datasets, VendorDb) {
        let Pipeline { opts, tel } = self;
        let _run_span = tel.span("pipeline.run");
        let plans = day_plans(world, &opts);
        let analyzed: usize = plans.iter().map(|p| p.batch.len()).sum();
        let bound = study_bound(world, &opts);

        // Event-stream lifecycle: every emission happens on this
        // coordinator thread at a deterministic point (the reduce's
        // day-ordered fold, post-join milestones), with payloads derived
        // only from simulation state and recorded per-day deltas — so
        // the stream itself is deterministic and provably inert across
        // parallelism AND day-shard counts (see telemetry::events).
        tel.event(
            "study_start",
            None,
            &[
                ("seed", EventField::U(opts.seed)),
                ("parallelism", EventField::U(opts.parallelism as u64)),
                ("day_shards", EventField::U(opts.day_shards.max(1) as u64)),
                ("samples", EventField::U(world.samples.len() as u64)),
                ("last_day", EventField::U(u64::from(bound))),
            ],
        );

        let epochs = run_day_epochs(world, &opts, &tel);
        let (mut data, vendors) = merge_epoch_results(world, &opts, epochs, &tel);

        // Final feed re-query ("May 7th 2022").
        {
            let _late_span = tel.span("pipeline.late_query");
            let late = opts.late_query_day;
            for rec in data.c2s.values_mut() {
                let v = vendors.query(&rec.addr, late);
                rec.vt_late = v.is_malicious();
                rec.vt_late_vendors = v.count();
            }
        }

        // D-PC2 probing study.
        if opts.run_probing {
            let weapons = prober::weapons(world);
            if !weapons.is_empty() {
                let _probe_span = tel.span("pipeline.probing");
                let cfg = ProbeConfig {
                    rounds: opts.probe_rounds,
                    hosts_per_subnet: opts.probe_hosts_per_subnet,
                    syn_retries: opts.syn_retries,
                    parallelism: opts.parallelism,
                    block_engine: opts.block_engine,
                    ..ProbeConfig::from_world(world)
                };
                data.probed = prober::run_probing(world, &weapons, &cfg, opts.seed, &tel);
            }
        }

        // The final counter snapshot comes after ALL counter movement
        // (probing included) so the stream's fold reconstructs the final
        // report's counters exactly; then the stream is sealed. Both are
        // no-ops without an attached sink.
        tel.counters_event();
        tel.event(
            "study_end",
            None,
            &[
                ("samples_analyzed", EventField::U(analyzed as u64)),
                ("c2s_known", EventField::U(data.c2s.len() as u64)),
                ("probed_c2s", EventField::U(data.probed.len() as u64)),
            ],
        );
        tel.finish_events();

        (data, vendors)
    }
}

// ---------------------------------------------------------------------
// Study planning: which sample runs on which day, and which epoch owns
// which day. All pure functions of (world, opts).
// ---------------------------------------------------------------------

/// One study day's planned phase-A batch (sample ids in ascending
/// order, after the global `max_samples` truncation).
#[derive(Debug, Clone)]
struct DayPlan {
    day: u32,
    batch: Vec<usize>,
}

/// Last day the chronological fold walks: tracking may outlive the feed
/// by up to `track_max_days`.
fn study_bound(world: &World, opts: &PipelineOpts) -> u32 {
    let last_publish = world.publish_days().into_iter().max().unwrap_or(0);
    (last_publish + opts.track_max_days).min(STUDY_DAYS + opts.track_max_days)
}

/// The study plan: every day with a non-empty batch, in day order. The
/// `max_samples` cap is applied here — on the *plan*, before any epoch
/// runs — so the cap is a global property of the study, not of whichever
/// epoch happens to execute first.
fn day_plans(world: &World, opts: &PipelineOpts) -> Vec<DayPlan> {
    let bound = study_bound(world, opts);
    let mut days: Vec<u32> = world.publish_days();
    days.sort_unstable();
    let mut analyzed = 0usize;
    let mut plans = Vec::new();
    for day in days {
        if day > bound {
            continue;
        }
        // `samples_published_on` returns ids in ascending order, so the
        // batch — and everything the merge stages do — is canonical.
        let mut batch: Vec<usize> = world
            .samples_published_on(day)
            .iter()
            .map(|s| s.id)
            .collect();
        if let Some(max) = opts.max_samples {
            batch.truncate(max.saturating_sub(analyzed));
        }
        analyzed += batch.len();
        if batch.is_empty() {
            continue;
        }
        plans.push(DayPlan { day, batch });
    }
    plans
}

/// Partition the plan into `shards` contiguous day-ranges, balanced by
/// cumulative sample count (an epoch's cost is dominated by its sandbox
/// runs, not its day count). Deterministic, order-preserving, and never
/// produces an empty epoch.
fn partition_epochs(plans: Vec<DayPlan>, shards: usize) -> Vec<Vec<DayPlan>> {
    let shards = shards.max(1);
    let total: usize = plans.iter().map(|p| p.batch.len()).sum::<usize>().max(1);
    let mut parts: Vec<Vec<DayPlan>> = Vec::new();
    let mut cum = 0usize;
    let mut last_shard = usize::MAX;
    for plan in plans {
        cum += plan.batch.len();
        let shard = ((cum - 1) * shards / total).min(shards - 1);
        if shard != last_shard {
            parts.push(Vec::new());
            last_shard = shard;
        }
        if let Some(cur) = parts.last_mut() {
            cur.push(plan);
        }
    }
    parts
}

// ---------------------------------------------------------------------
// Epoch execution: everything a contiguous day-range produces on its
// own, as plain mergeable data.
// ---------------------------------------------------------------------

/// A stream-event payload value recorded inside an epoch for the reduce
/// to replay. Owned mirror of [`EventField`].
#[derive(Debug, Clone)]
enum RecVal {
    U(u64),
    S(String),
}

/// One stream event an epoch recorded instead of emitting: epochs run
/// concurrently, so only the reduce's day-ordered fold may write to the
/// event sink.
#[derive(Debug, Clone)]
struct RecordedEvent {
    kind: &'static str,
    fields: Vec<(&'static str, RecVal)>,
}

impl RecordedEvent {
    fn emit(&self, tel: &Telemetry) {
        let fields: Vec<(&str, EventField<'_>)> = self
            .fields
            .iter()
            .map(|(name, v)| {
                let f = match v {
                    RecVal::U(u) => EventField::U(*u),
                    RecVal::S(s) => EventField::S(s.as_str()),
                };
                (*name, f)
            })
            .collect();
        tel.event(self.kind, None, &fields);
    }
}

/// A day-0 liveness hit recorded by an epoch: the reduce replays it to
/// update `C2Record::live_days`/`ip` and to seed the tracking table —
/// the two cross-day effects an epoch must not apply itself.
#[derive(Debug, Clone)]
struct Day0Live {
    addr: String,
    ip: Ipv4Addr,
    port: u16,
}

/// One day's mergeable residue inside an [`EpochResult`].
#[derive(Debug, Clone)]
struct EpochDay {
    day: u32,
    batch_len: usize,
    /// Instructions retired by this day's contained + restricted runs
    /// (the reduce reconstructs heartbeat totals from these, so the
    /// stream is independent of scheduling).
    instructions: u64,
    /// Wall time of the epoch-side day work (masked in determinism
    /// comparisons, like every wall-clock value).
    wall_us: u64,
    events: Vec<RecordedEvent>,
    day0_live: Vec<Day0Live>,
}

/// Everything one epoch (a contiguous run of batch days) produced: its
/// dataset slice, its vendor-knowledge delta, and per-day residues for
/// the reduce. Opaque outside this module — tests treat it as a value
/// to shuffle and merge.
#[derive(Debug, Clone)]
pub struct EpochResult {
    start_day: u32,
    days: Vec<EpochDay>,
    data: Datasets,
    vendors: VendorDb,
}

/// One epoch's running state while its days execute.
struct EpochRun<'a> {
    world: &'a World,
    opts: &'a PipelineOpts,
    tel: Telemetry,
    engines: EngineModel,
    vendors: VendorDb,
    data: Datasets,
}

/// Run the study plan as [`PipelineOpts::day_shards`] epochs on the
/// epoch pool and return their results in epoch (day) order.
///
/// Each epoch is a pure function of `(world, opts, its days)`: every
/// network it touches is detached ([`World::network_for_day_detached`],
/// per-day `DOMAIN_WORLD_NET` sub-seeds), every RNG stream is
/// per-sample or per-address, and no epoch reads the tracking table or
/// another epoch's vendor knowledge. Public so the epoch-merge
/// permutation proptest can drive [`merge_epoch_results`] with shuffled
/// inputs.
pub fn run_day_epochs(world: &World, opts: &PipelineOpts, tel: &Telemetry) -> Vec<EpochResult> {
    let plans = day_plans(world, opts);
    let parts = partition_epochs(plans, opts.day_shards);
    // Workers re-attach their epoch spans under the coordinator's run
    // span, same as every other fan-out in the workspace.
    let parent = tel.current_span();
    crate::par::fan_out(parts.len(), opts.parallelism, |i| {
        run_epoch(world, opts, &parts[i], tel, &parent)
    })
}

/// Execute one epoch's days in order. Runs on an epoch-pool worker; the
/// only shared state it touches is (commutative) telemetry.
fn run_epoch(
    world: &World,
    opts: &PipelineOpts,
    plans: &[DayPlan],
    tel: &Telemetry,
    parent: &SpanCtx,
) -> EpochResult {
    let _epoch_span = tel.span_under("pipeline.epoch", parent);
    let mut run = EpochRun {
        world,
        opts,
        tel: tel.clone(),
        engines: EngineModel::new(opts.seed),
        vendors: VendorDb::new(opts.seed),
        data: Datasets::default(),
    };
    let mut days = Vec::with_capacity(plans.len());
    for plan in plans {
        days.push(run.run_day(plan));
    }
    EpochResult {
        start_day: plans.first().map_or(0, |p| p.day),
        days,
        data: run.data,
        vendors: run.vendors,
    }
}

impl EpochRun<'_> {
    /// One epoch day: phase A fan-out, then the B1/B2/B3 split from
    /// PR 5, recording cross-day effects instead of applying them.
    fn run_day(&mut self, plan: &DayPlan) -> EpochDay {
        let tel = self.tel.clone();
        let day = plan.day;
        let day_span = tel.span("pipeline.day");
        let watch = tel.stopwatch();
        let mut eday = EpochDay {
            day,
            batch_len: plan.batch.len(),
            instructions: 0,
            wall_us: 0,
            events: Vec::new(),
            day0_live: Vec::new(),
        };
        tel.add("pipeline.samples_analyzed", plan.batch.len() as u64);
        // The epoch's own network for this day: identical topology to
        // what any other shard layout would build, private RNG and
        // responsiveness chains ([`DOMAIN_WORLD_NET`]).
        let (mut net, _logs) = self
            .world
            .network_for_day_detached(day, sub_seed(self.opts.seed ^ DOMAIN_WORLD_NET, day, 0));
        net.set_telemetry(&tel);
        apply_world_chaos(&self.opts.faults, self.world, &mut net, day, &tel);
        let outcomes = {
            let _phase_a = tel.span("pipeline.phase_a");
            run_contained_batch(self.world, self.opts, day, &plan.batch, &tel)
        };
        {
            // Phase B splits in three: B1 replays every world-network
            // effect in sample-id order on the epoch's day network, B2
            // fans restricted sessions out over detached per-sample
            // networks, B3 folds their evidence back in sample-id
            // order. Only B2 is parallel; B1/B3 own the epoch state.
            let _phase_b = tel.span("pipeline.phase_b");
            let mut jobs: Vec<RestrictedJob> = Vec::new();
            for outcome in outcomes {
                match outcome {
                    Ok(out) => {
                        eday.instructions += out.instructions;
                        if let Some(job) = self.merge_world_effects(&mut net, day, out, &mut eday) {
                            jobs.push(job);
                        }
                    }
                    Err(q) => self.quarantine_sample(day, q, &mut eday),
                }
            }
            let sessions = run_restricted_batch(self.world, self.opts, day, &jobs, &tel);
            for session in sessions {
                eday.instructions += session.instructions;
                self.merge_ddos_evidence(day, session);
            }
        }
        drop(day_span);
        eday.wall_us = watch.elapsed_us();
        eday
    }

    /// Phase-B handling of a sample whose phase-A worker panicked: the
    /// casualty is recorded in D-Health and the study continues. This
    /// replaces the old abort-on-panic behaviour — one crashing sample
    /// must not cost a multi-day study.
    fn quarantine_sample(&mut self, day: u32, q: Quarantined, eday: &mut EpochDay) {
        self.tel.add("pipeline.samples_quarantined", 1);
        let sha = self.world.samples[q.sample_id].sha256.clone();
        // Recorded in sample-id order from the B1 merge loop, so the
        // replayed stream position is deterministic.
        eday.events.push(RecordedEvent {
            kind: "quarantine",
            fields: vec![
                ("sha256", RecVal::S(sha.clone())),
                ("day", RecVal::U(u64::from(day))),
                ("kind", RecVal::S("worker-panic".to_string())),
                ("detail", RecVal::S(q.detail.clone())),
            ],
        });
        for ctx in &q.fault_context {
            eday.events.push(RecordedEvent {
                kind: "chaos",
                fields: vec![
                    ("day", RecVal::U(u64::from(day))),
                    ("sha256", RecVal::S(sha.clone())),
                    ("detail", RecVal::S(ctx.clone())),
                ],
            });
        }
        *self
            .data
            .health
            .exit_counts
            .entry("worker-panic".to_string())
            .or_insert(0) += 1;
        self.data.health.rows.push(HealthRecord {
            sha256: sha,
            day,
            kind: HealthKind::WorkerPanic,
            detail: q.detail,
            fault_context: q.fault_context,
        });
    }

    /// Phase B1: merge one sample's contained-activation outcome into
    /// the epoch state in sample-id order.
    ///
    /// Every *order-sensitive* effect lives here — vendor registration
    /// and feed queries (against the epoch's own delta), DNS resolution
    /// and day-0 liveness probes on the epoch's day network, and all
    /// record pushes. The two effects that cross days — tracking-table
    /// inserts and `live_days`/`ip` updates — are **recorded** into the
    /// epoch day ([`Day0Live`]) for the reduce to replay, because only
    /// the reduce owns cross-day state.
    fn merge_world_effects(
        &mut self,
        net: &mut Network,
        day: u32,
        outcome: ContainedOutcome,
        eday: &mut EpochDay,
    ) -> Option<RestrictedJob> {
        let tel = self.tel.clone();
        let _merge_span = tel.span("pipeline.merge");
        let ContainedOutcome {
            sample_id,
            yara,
            avclass,
            activated,
            exploits,
            candidates,
            instructions,
            triage,
            exit,
            fault_context,
            emu_faults,
        } = outcome;
        self.data.triage.push(triage);
        let sample = &self.world.samples[sample_id];
        // Chaos that touched this sample's contained run (binary
        // mutation, injected faults), recorded here — the B1 merge runs
        // in sample-id order — rather than from the racing phase-A
        // workers that observed it.
        for ctx in &fault_context {
            eday.events.push(RecordedEvent {
                kind: "chaos",
                fields: vec![
                    ("day", RecVal::U(u64::from(day))),
                    ("sha256", RecVal::S(sample.sha256.clone())),
                    ("detail", RecVal::S(ctx.clone())),
                ],
            });
        }
        // D-Health accounting: every contained run's exit reason is
        // tallied; sandbox faults (including malformed-ELF rejects) and
        // budget exhaustion get full degradation rows.
        let class = exit_class(&exit);
        *self
            .data
            .health
            .exit_counts
            .entry(class.to_string())
            .or_insert(0) += 1;
        if emu_faults.any() {
            tel.add("chaos.emu_faulted_samples", 1);
        }
        if let Some(kind) = degraded_kind(class, emu_faults.any()) {
            let kind_label = if kind == HealthKind::EmuFault {
                "emu-fault"
            } else {
                class
            };
            eday.events.push(RecordedEvent {
                kind: "quarantine",
                fields: vec![
                    ("sha256", RecVal::S(sample.sha256.clone())),
                    ("day", RecVal::U(u64::from(day))),
                    ("kind", RecVal::S(kind_label.to_string())),
                    ("detail", RecVal::S(exit.clone())),
                ],
            });
            self.data.health.rows.push(HealthRecord {
                sha256: sample.sha256.clone(),
                day,
                kind,
                detail: exit.clone(),
                fault_context: fault_context.clone(),
            });
        }
        // Pure per-(day, sample) AV-consensus draw: no shared RNG, so
        // every shard layout sees the same count.
        let av = self
            .engines
            .detections_for_malware(day, sample_id as u64)
            .max(sample.av_detections.min(60));

        // Exploits (D-Exploits).
        self.data.exploits.extend(exploits);

        let yara_family = yara
            .as_deref()
            .and_then(|l| Family::ALL.into_iter().find(|f| f.label() == l));
        let mut live_c2_ips: Vec<(String, Ipv4Addr, u16, Option<Family>)> = Vec::new();
        let mut c2_addrs = Vec::new();
        for cand in &candidates {
            c2_addrs.push(cand.addr.clone());
            // Resolve DNS candidates against the real resolver.
            let real_ip = if cand.dns {
                tel.add("pipeline.dns_resolutions", 1);
                resolve_on(net, &cand.addr)
            } else {
                Some(cand.ip)
            };
            // Epoch-local knowledge accrual: records are pure per
            // address, so if this is the address's globally-earliest
            // sighting the record (and the verdict below) is exactly
            // what the merged database derives; if an earlier epoch saw
            // it first, that epoch's C2Record wins the merge and this
            // one's feed fields are discarded.
            self.vendors.register(&cand.addr, cand.dns, day);
            let verdict = self.vendors.query(&cand.addr, day);
            let asn = real_ip
                .and_then(|ip| self.world.asdb.asn_of(ip))
                .map(|a| a.0);
            let family_label = cand.family_from_traffic.or(yara_family);
            let rec = self
                .data
                .c2s
                .entry(cand.addr.clone())
                .or_insert_with(|| C2Record {
                    addr: cand.addr.clone(),
                    ip: real_ip.unwrap_or(cand.ip),
                    port: cand.port,
                    dns: cand.dns,
                    asn,
                    first_seen_day: day,
                    samples: vec![],
                    live_days: vec![],
                    vt_day0: verdict.is_malicious(),
                    vt_day0_vendors: verdict.count(),
                    vt_late: false,
                    vt_late_vendors: 0,
                    protocol_verified: cand.family_from_traffic.is_some(),
                    families: vec![],
                });
            if !rec.samples.contains(&sample.sha256) {
                rec.samples.push(sample.sha256.clone());
            }
            if let Some(f) = family_label {
                if !rec.families.contains(&f) {
                    rec.families.push(f);
                }
            }
            rec.protocol_verified |= cand.family_from_traffic.is_some();

            // Day-0 liveness probe on the real network. The hit itself
            // is pure — the epoch's day net is a function of (world,
            // opts, day) — but its consequences (tracking entry,
            // live-day/ip bookkeeping) cross days, so they are recorded
            // for the reduce instead of applied here.
            if let Some(ip) = real_ip {
                let live = tcp_probe(net, ip, cand.port);
                if live {
                    eday.day0_live.push(Day0Live {
                        addr: cand.addr.clone(),
                        ip,
                        port: cand.port,
                    });
                    live_c2_ips.push((cand.addr.clone(), ip, cand.port, family_label));
                }
            }
        }
        tel.add("pipeline.c2_live_day0", live_c2_ips.len() as u64);

        self.data.samples.push(SampleRecord {
            sha256: sample.sha256.clone(),
            day,
            yara_family: yara,
            avclass_family: avclass,
            av_detections: av,
            activated,
            c2_addrs,
            instructions,
        });

        // Restricted DDoS-observation session (§2.5): eligible samples
        // become worker-pool jobs instead of running inline here.
        if activated && !live_c2_ips.is_empty() {
            Some(RestrictedJob {
                sample_id,
                live: live_c2_ips,
            })
        } else {
            None
        }
    }

    /// Phase B3: fold one restricted session's DDoS evidence into the
    /// epoch's datasets in sample-id order. The duplicate-command gate
    /// is day-local and a day belongs to exactly one epoch, so the gate
    /// sees exactly the records the sequential pipeline would have. The
    /// feed-knowledge flag is provisional (epoch-local knowledge); the
    /// reduce recomputes it against the merged database.
    fn merge_ddos_evidence(&mut self, day: u32, session: RestrictedOutcome) {
        let _merge_span = self.tel.span("pipeline.merge");
        let sample = &self.world.samples[session.sample_id];
        for (addr, ip, fam, cmds) in session.evidence {
            for c in cmds {
                if !c.verified {
                    continue; // manual verification gate (§2.5)
                }
                // One command = one record: the same command relayed
                // through a second bot of the same botnet is not a
                // new attack.
                let dup = self
                    .data
                    .ddos
                    .iter()
                    .any(|d| d.c2_addr == addr && d.day == day && d.command == c.command);
                if dup {
                    continue;
                }
                let known = self.vendors.query(&addr, day).is_malicious();
                self.data.ddos.push(DdosRecord {
                    sha256: sample.sha256.clone(),
                    family: fam.unwrap_or(Family::Mirai),
                    c2_addr: addr.clone(),
                    c2_ip: ip,
                    day,
                    command: c.command,
                    detection: c.detection,
                    measured_pps: c.measured_pps,
                    verified: c.verified,
                    target_protocol: c
                        .command
                        .target_protocol(fam.map(|f| f.tls_over_tcp()).unwrap_or(true)),
                    c2_known_to_feeds: known,
                });
                self.tel.add("pipeline.ddos_commands_recorded", 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The epoch reduce: the only owner of cross-day state.
// ---------------------------------------------------------------------

/// Stitch epoch results into the study's datasets and vendor database,
/// and emit the canonical day-event stream.
///
/// Deterministic and **order-invariant**: epochs are first sorted by
/// their start day (they cover disjoint contiguous day-ranges), then
///
/// 1. vendor-knowledge deltas fold with earliest-discovery-day-wins
///    semantics ([`VendorDb::absorb`] — order-invariant because records
///    are pure per address),
/// 2. dataset slices concatenate in day order; C2 records merge with
///    earliest-sighting-wins for the per-address fields and day-ordered
///    concatenation for sample/family lists,
/// 3. a chronological fold walks every study day, owning the tracking
///    table: it re-resolves each tracked C2's liveness through a pure
///    per-`(day, address)` oracle (`DOMAIN_LIVENESS_NET`) — which is
///    what re-resolves transitions straddling an epoch edge — replays
///    the epochs' recorded day-0 hits, and emits the day's events
///    (day_start, chaos windows, phase markers, rollup, heartbeat) from
///    recorded per-day deltas, never from live counters.
///
/// The permutation proptest in `crates/core/tests/proptests.rs` feeds
/// this shuffled epoch vectors and asserts byte-identical dumps.
pub fn merge_epoch_results(
    world: &World,
    opts: &PipelineOpts,
    mut epochs: Vec<EpochResult>,
    tel: &Telemetry,
) -> (Datasets, VendorDb) {
    let _reduce_span = tel.span("pipeline.reduce");
    epochs.sort_by_key(|e| e.start_day);

    // 1. Vendor knowledge: fold every epoch's delta.
    let mut vendors = VendorDb::new(opts.seed);
    for e in &epochs {
        vendors.absorb(&e.vendors.delta());
    }

    // 2. Dataset slices, in day (= sorted epoch) order.
    let mut data = Datasets::default();
    for e in &mut epochs {
        data.samples.append(&mut e.data.samples);
        data.triage.append(&mut e.data.triage);
        data.exploits.append(&mut e.data.exploits);
        data.ddos.append(&mut e.data.ddos);
        data.health.rows.append(&mut e.data.health.rows);
        for (class, n) in std::mem::take(&mut e.data.health.exit_counts) {
            *data.health.exit_counts.entry(class).or_insert(0) += n;
        }
        for (addr, rec) in std::mem::take(&mut e.data.c2s) {
            match data.c2s.entry(addr) {
                Entry::Vacant(slot) => {
                    // Earliest epoch wins the address-level fields
                    // (first sighting, feed verdicts, endpoint data) —
                    // identical to what the sequential insert saw.
                    slot.insert(rec);
                }
                Entry::Occupied(mut slot) => {
                    let dst = slot.get_mut();
                    for sha in rec.samples {
                        if !dst.samples.contains(&sha) {
                            dst.samples.push(sha);
                        }
                    }
                    for fam in rec.families {
                        if !dst.families.contains(&fam) {
                            dst.families.push(fam);
                        }
                    }
                    dst.protocol_verified |= rec.protocol_verified;
                }
            }
        }
    }
    // Feed-knowledge flags recomputed against the *merged* database:
    // an epoch only knew its own registrations, so its provisional
    // flags can miss knowledge an earlier epoch accrued.
    for d in &mut data.ddos {
        d.c2_known_to_feeds = vendors.query(&d.c2_addr, d.day).is_malicious();
    }
    // Every merged C2 record was a new detection exactly once.
    tel.add("pipeline.c2_detected", data.c2s.len() as u64);

    // 3. Chronological fold: tracking, liveness, and the day stream.
    let eday_by_day: BTreeMap<u32, &EpochDay> = epochs
        .iter()
        .flat_map(|e| e.days.iter())
        .map(|d| (d.day, d))
        .collect();
    let bound = study_bound(world, opts);
    let mut tracking: BTreeMap<String, TrackState> = BTreeMap::new();
    let mut analyzed = 0u64;
    let mut instructions = 0u64;
    for day in 0..=bound {
        let eday = eday_by_day.get(&day).copied();
        if eday.is_none() && tracking.is_empty() {
            continue;
        }
        let fold_watch = tel.stopwatch();
        let batch_len = eday.map_or(0, |d| d.batch_len);
        tel.event(
            "day_start",
            None,
            &[
                ("day", EventField::U(u64::from(day))),
                ("new_samples", EventField::U(batch_len as u64)),
            ],
        );
        emit_chaos_downtime_events(&opts.faults, world, day, tel);
        // Daily liveness sweep over the tracked set — before the day's
        // phase replay, mirroring the sequential schedule. Each target
        // is re-resolved through the pure per-(day, address) oracle, so
        // a transition on an epoch-boundary day resolves exactly as it
        // would have in any other shard layout.
        if !tracking.is_empty() {
            let _sweep_span = tel.span("pipeline.liveness_sweep");
            tel.add("pipeline.liveness_probes", tracking.len() as u64);
            // BTreeMap iteration order: the probe order is canonical.
            let targets: Vec<(String, Ipv4Addr, u16)> = tracking
                .iter()
                .map(|(addr, t)| (addr.clone(), t.ip, t.port))
                .collect();
            let parent = tel.current_span();
            let alive: Vec<bool> = crate::par::fan_out(targets.len(), opts.parallelism, |i| {
                let _span = tel.span_under("pipeline.liveness_probe", &parent);
                liveness_oracle(world, opts, day, &targets[i], tel)
            });
            let mut drop_list = Vec::new();
            for ((addr, _, _), is_live) in targets.iter().zip(&alive) {
                let Some(t) = tracking.get_mut(addr) else {
                    continue;
                };
                t.days += 1;
                if *is_live {
                    t.misses = 0;
                    if let Some(rec) = data.c2s.get_mut(addr) {
                        rec.live_days.push(day);
                    }
                } else {
                    t.misses += 1;
                }
                if t.misses > TRACK_GRACE_DAYS || t.days > opts.track_max_days {
                    drop_list.push(addr.clone());
                }
            }
            for addr in drop_list {
                tracking.remove(&addr);
            }
        }
        if let Some(d) = eday {
            // Replay the epoch's recorded B1/B3 stream events, then its
            // day-0 liveness hits (in occurrence order): live-day and
            // endpoint updates on the merged records, and the tracking
            // inserts that start tomorrow's sweeps.
            for ev in &d.events {
                ev.emit(tel);
            }
            for hit in &d.day0_live {
                if let Some(rec) = data.c2s.get_mut(&hit.addr) {
                    if !rec.live_days.contains(&day) {
                        rec.live_days.push(day);
                    }
                    rec.ip = hit.ip;
                }
                tracking.entry(hit.addr.clone()).or_insert(TrackState {
                    ip: hit.ip,
                    port: hit.port,
                    misses: 0,
                    days: 0,
                });
            }
            analyzed += d.batch_len as u64;
            instructions += d.instructions;
        }
        let c2s_known = data
            .c2s
            .values()
            .filter(|r| r.first_seen_day <= day)
            .count() as u64;
        tel.rollup(
            "day",
            &[
                ("day", u64::from(day)),
                ("new_samples", batch_len as u64),
                ("tracked_c2s", tracking.len() as u64),
                ("c2s_known", c2s_known),
                (
                    "wall_us",
                    eday.map_or(0, |d| d.wall_us) + fold_watch.elapsed_us(),
                ),
            ],
        );
        // Progress heartbeat at the day boundary, reconstructed from
        // recorded per-day deltas — pure functions of (world, opts) —
        // so the stream is identical at every shard/thread count.
        tel.event(
            "heartbeat",
            None,
            &[
                ("day", EventField::U(u64::from(day))),
                ("samples_completed", EventField::U(analyzed)),
                ("instructions_retired", EventField::U(instructions)),
                ("tracked_c2s", EventField::U(tracking.len() as u64)),
            ],
        );
    }

    (data, vendors)
}

/// The pure per-`(day, address)` liveness oracle the reduce's daily
/// sweep consults: a single-target probe (with the usual bounded SYN
/// retries) against a detached day network derived from the address's
/// own [`DOMAIN_LIVENESS_NET`] sub-seed, with the day's fault plan
/// applied — chaos downtime windows affect the oracle exactly as they
/// affect every other view of the world.
fn liveness_oracle(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    target: &(String, Ipv4Addr, u16),
    tel: &Telemetry,
) -> bool {
    let (mut net, _logs) = world.network_for_day_detached(
        day,
        sub_seed(
            opts.seed ^ DOMAIN_LIVENESS_NET,
            day,
            fnv1a(target.0.as_bytes()),
        ),
    );
    net.set_telemetry(tel);
    apply_world_chaos(&opts.faults, world, &mut net, day, tel);
    let live = liveness_probe_rounds(
        &mut net,
        std::slice::from_ref(target),
        opts.syn_retries,
        tel,
    );
    !live.is_empty()
}

/// Emit the day's scheduled C2-downtime chaos events. The reduce calls
/// this once per active day; the *application* of those windows happens
/// on every network that models the day (epoch day nets, restricted
/// nets, oracle nets) via [`apply_world_chaos`], which never emits.
fn emit_chaos_downtime_events(plan: &FaultPlan, world: &World, day: u32, tel: &Telemetry) {
    if plan.is_none() {
        return;
    }
    for c2 in &world.c2s {
        if !c2.alive_on(day) {
            continue;
        }
        if let Some((start, dur)) = plan.downtime_window(day, c2.host_ip) {
            let ip = c2.host_ip.to_string();
            tel.event(
                "chaos",
                None,
                &[
                    ("day", EventField::U(u64::from(day))),
                    ("kind", EventField::S("c2_downtime")),
                    ("ip", EventField::S(&ip)),
                    ("start_secs", EventField::U(start)),
                    ("duration_secs", EventField::U(dur)),
                ],
            );
        }
    }
}

/// Apply the day's share of the fault plan to a world-derived network:
/// link faults, DNS failure injection, and scheduled C2 downtime
/// windows. A no-op (that draws no randomness) for the empty plan.
///
/// A free function because every kind of day network needs it — the
/// epoch's day network, each restricted session's detached network
/// ([`run_restricted_batch`]) and each liveness-oracle network — and
/// the same day must see the same faults on all of them, or a
/// restricted session would observe a C2 the liveness sweep saw go
/// down. Never emits events: the stream's chaos announcements come from
/// the reduce ([`emit_chaos_downtime_events`]), exactly once per day.
fn apply_world_chaos(
    plan: &FaultPlan,
    world: &World,
    net: &mut Network,
    day: u32,
    tel: &Telemetry,
) {
    if plan.is_none() {
        return;
    }
    net.faults = plan.world_link(day);
    net.dns_faults = plan.dns_faults(day);
    for c2 in &world.c2s {
        if !c2.alive_on(day) {
            continue;
        }
        if let Some((start, dur)) = plan.downtime_window(day, c2.host_ip) {
            let down_at = SimTime::from_day(day, start);
            net.schedule_host_state(c2.host_ip, down_at, false);
            net.schedule_host_state(c2.host_ip, down_at + SimDuration::from_secs(dur), true);
            tel.add("chaos.c2_downtime_windows", 1);
        }
    }
}

/// One sample's pending restricted DDoS-observation session: emitted by
/// [`EpochRun::merge_world_effects`] (phase B1) and consumed by the
/// phase-B worker pool ([`run_restricted_batch`]).
#[derive(Debug, Clone)]
struct RestrictedJob {
    /// The sample's id in `world.samples`.
    sample_id: usize,
    /// The sample's C2s that answered the day-0 liveness probe:
    /// `(addr, ip, port, family)` in candidate order.
    live: Vec<(String, Ipv4Addr, u16, Option<Family>)>,
}

/// Everything one restricted session produced, as plain data the epoch
/// merges in sample-id order (phase B3).
struct RestrictedOutcome {
    /// The sample's id in `world.samples`.
    sample_id: usize,
    /// Instructions the restricted run retired (feeds the reduce's
    /// heartbeat reconstruction).
    instructions: u64,
    /// Per live C2: `(addr, ip, family, extracted commands)` in the
    /// job's candidate order.
    evidence: Vec<(
        String,
        Ipv4Addr,
        Option<Family>,
        Vec<ddos::ExtractedCommand>,
    )>,
}

/// Phase B2: run every pending restricted session, returning outcomes in
/// job (= sample-id) order.
///
/// Each session runs against its **own detached network** built by
/// [`World::network_for_day_detached`] from a [`SeedStream::RestrictedNet`]
/// sub-seed: same topology and day as the epoch's day network, but
/// private RNG state and private C2 responsiveness chains, so one
/// session's traffic can never perturb another's — the property that
/// makes the fan-out byte-deterministic (DESIGN.md §8). The day's fault
/// plan is re-applied to every detached network so chaos runs see
/// identical outage windows on both sides of the split.
fn run_restricted_batch(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    jobs: &[RestrictedJob],
    tel: &Telemetry,
) -> Vec<RestrictedOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // Workers re-attach their spans under the epoch's phase-B span.
    let parent = tel.current_span();
    crate::par::fan_out(jobs.len(), opts.parallelism, |i| {
        let job = &jobs[i];
        let session = {
            let _span = tel.span_under("pipeline.restricted_session", &parent);
            tel.add("pipeline.restricted_sessions", 1);
            let (mut net, _logs) = world.network_for_day_detached(
                day,
                sample_seed(opts.seed, day, job.sample_id, SeedStream::RestrictedNet),
            );
            net.set_telemetry(tel);
            apply_world_chaos(&opts.faults, world, &mut net, day, tel);
            let mut allowed: Vec<Ipv4Addr> = job.live.iter().map(|(_, ip, _, _)| *ip).collect();
            allowed.push(malnet_botgen::world::WORLD_RESOLVER);
            let mut sb = Sandbox::new(
                net,
                SandboxConfig {
                    bot_ip: BOT_IP,
                    mode: AnalysisMode::Restricted { allowed },
                    handshaker_threshold: None,
                    instruction_budget: 2_000_000_000,
                    seed: sample_seed(opts.seed, day, job.sample_id, SeedStream::Restricted),
                    block_engine: opts.block_engine,
                    // Emulator faults target the contained run only;
                    // restricted sessions keep the honest fd cap.
                    fd_cap: malnet_sandbox::process::DEFAULT_FD_CAP,
                    emu_faults: malnet_sandbox::EmuFaults::none(),
                },
            )
            .with_telemetry(tel);
            sb.execute(
                &world.samples[job.sample_id].elf,
                SimDuration::from_secs(opts.restricted_secs),
            )
        };
        let _eavesdrop_span = tel.span_under("pipeline.ddos_eavesdrop", &parent);
        // One walk of the capture serves every live C2 of the session.
        let c2s: Vec<(Ipv4Addr, Option<Family>)> =
            job.live.iter().map(|(_, ip, _, fam)| (*ip, *fam)).collect();
        let packets = pcap::packets(&session.pcap);
        let commands = ddos::extract_session(packets, BOT_IP, &c2s, opts.pps_threshold);
        let evidence = job
            .live
            .iter()
            .zip(commands)
            .map(|((addr, ip, _port, fam), cmds)| {
                tel.add("pipeline.ddos_commands_seen", cmds.len() as u64);
                (addr.clone(), *ip, *fam, cmds)
            })
            .collect();
        RestrictedOutcome {
            sample_id: job.sample_id,
            instructions: session.instructions,
            evidence,
        }
    })
}

/// Sub-seed domain for the contained run's isolated [`Network`]. Zero
/// by historical accident (the first stream predates the domain
/// registry) and pinned forever: changing it would shift every
/// published dataset byte-for-byte.
const DOMAIN_CONTAINED_NET: u64 = 0;
/// Sub-seed domain for the contained [`Sandbox`] (emulator jitter,
/// handshaker).
const DOMAIN_CONTAINED_SANDBOX: u64 = 0x5eed_0000_0000_0001;
/// Sub-seed domain for the restricted DDoS-observation [`Sandbox`].
const DOMAIN_RESTRICTED: u64 = 0x5eed_0000_0000_0002;
/// Sub-seed domain for the restricted session's detached world-derived
/// [`Network`] ([`World::network_for_day_detached`]): same topology as
/// the epoch's day net, private RNG + responsiveness chains.
const DOMAIN_RESTRICTED_NET: u64 = 0x5eed_0000_0000_0003;
/// Sub-seed domain for an epoch's per-day world [`Network`] — the net
/// that hosts B1's DNS resolutions and day-0 liveness probes. Keyed by
/// day only, so every shard layout derives the identical network.
const DOMAIN_WORLD_NET: u64 = 0x5eed_0000_0000_0006;
/// Sub-seed domain for the reduce's per-`(day, address)` liveness-oracle
/// [`Network`]s (the address hashes in through [`fnv1a`]).
const DOMAIN_LIVENESS_NET: u64 = 0x5eed_0000_0000_0007;

/// The per-sample RNG streams derived from the master seed. Each stream
/// gets its own [`sub_seed`] domain so the contained network, contained
/// sandbox, and restricted sandbox never share a generator. The domain
/// constants live in the workspace-wide `0x5eed_…` family whose
/// uniqueness `malnet-lint` checks across crates.
#[derive(Debug, Clone, Copy)]
enum SeedStream {
    /// [`DOMAIN_CONTAINED_NET`].
    ContainedNet,
    /// [`DOMAIN_CONTAINED_SANDBOX`].
    ContainedSandbox,
    /// [`DOMAIN_RESTRICTED`].
    Restricted,
    /// [`DOMAIN_RESTRICTED_NET`].
    RestrictedNet,
}

/// Derive the seed for one per-sample RNG stream.
///
/// Built on [`sub_seed`] (splitmix64 chaining) so seeds are well mixed
/// across `(day, sample, stream)` even for adjacent master seeds — unlike
/// the old `master ^ id << k` scheme, which collided across days.
fn sample_seed(master: u64, day: u32, sample_id: usize, stream: SeedStream) -> u64 {
    let domain = match stream {
        SeedStream::ContainedNet => DOMAIN_CONTAINED_NET,
        SeedStream::ContainedSandbox => DOMAIN_CONTAINED_SANDBOX,
        SeedStream::Restricted => DOMAIN_RESTRICTED,
        SeedStream::RestrictedNet => DOMAIN_RESTRICTED_NET,
    };
    sub_seed(master ^ domain, day, sample_id as u64)
}

/// Every sub-seed stream a study over `(world, opts)` can draw, each
/// labelled by its coordinates: the four per-`(day, sample)` streams,
/// the per-sample AV-consensus stream, the per-day world networks, the
/// per-`(day, address)` liveness-oracle networks and the per-address
/// vendor-feed streams.
///
/// Input to the `sub_seed_domains_never_collide` proptest: two entries
/// with different labels must never share a seed — the domain-
/// separation property the epoch refactor leans on (a collision would
/// let one stream's draws echo into another, silently correlating
/// "independent" runs).
pub fn seed_inventory(world: &World, opts: &PipelineOpts) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let plans = day_plans(world, opts);
    let bound = study_bound(world, opts);
    for plan in &plans {
        let day = plan.day;
        out.push((
            format!("world_net/{day}"),
            sub_seed(opts.seed ^ DOMAIN_WORLD_NET, day, 0),
        ));
        for &id in &plan.batch {
            for (name, stream) in [
                ("contained_net", SeedStream::ContainedNet),
                ("contained_sandbox", SeedStream::ContainedSandbox),
                ("restricted", SeedStream::Restricted),
                ("restricted_net", SeedStream::RestrictedNet),
            ] {
                out.push((
                    format!("{name}/{day}/{id}"),
                    sample_seed(opts.seed, day, id, stream),
                ));
            }
            out.push((
                format!("av_engines/{day}/{id}"),
                malnet_intel::engines::engine_seed(opts.seed, day, id as u64),
            ));
        }
    }
    // Every address form a study can register or track: the C2s'
    // carried endpoints (IP or domain) and their host addresses.
    let mut addrs: Vec<String> = Vec::new();
    for c2 in &world.c2s {
        addrs.push(c2.endpoint.to_string());
        addrs.push(c2.host_ip.to_string());
    }
    addrs.sort_unstable();
    addrs.dedup();
    for addr in &addrs {
        out.push((
            format!("vendor_addr/{addr}"),
            malnet_intel::feeds::vendor_addr_seed(opts.seed, addr),
        ));
        for day in 0..=bound {
            out.push((
                format!("liveness_net/{day}/{addr}"),
                sub_seed(opts.seed ^ DOMAIN_LIVENESS_NET, day, fnv1a(addr.as_bytes())),
            ));
        }
    }
    out
}

/// Everything the contained-activation stage (phase A) produces for one
/// sample. Plain data: safe to compute on a worker thread and ship back
/// to the merge stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainedOutcome {
    /// The analyzed sample's id in `world.samples`.
    pub sample_id: usize,
    /// YARA family label of the binary.
    pub yara: Option<String>,
    /// AVClass2 family label of the binary.
    pub avclass: Option<String>,
    /// Did the sample activate (run and speak) in the sandbox?
    pub activated: bool,
    /// Classified exploit payloads captured by the handshaker.
    pub exploits: Vec<ExploitRecord>,
    /// C2 candidates extracted from the capture (empty for P2P samples).
    pub candidates: Vec<crate::c2detect::C2Candidate>,
    /// Instructions the emulator retired.
    pub instructions: u64,
    /// Phase-0 static triage result.
    pub triage: TriageRecord,
    /// Exit label of the contained run (`"exited(0)"`, `"fault: …"`,
    /// `"deadline"`, `"budget"`) — input to D-Health accounting.
    pub exit: String,
    /// Injected-fault context active during this sample's contained run
    /// (empty outside chaos runs).
    pub fault_context: Vec<String>,
    /// Syscall-boundary faults actually injected into the contained run
    /// (all-zero outside chaos runs) — when the run degraded, this is
    /// what reclassifies it as [`HealthKind::EmuFault`].
    pub emu_faults: EmuFaultTally,
}

/// A phase-A casualty: the worker analyzing this sample panicked. The
/// pipeline quarantines it into D-Health instead of aborting the study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The sample's id in `world.samples`.
    pub sample_id: usize,
    /// Panic message (best effort).
    pub detail: String,
    /// Injected-fault context, when the panic was chaos-forced.
    pub fault_context: Vec<String>,
}

// Compile-time guarantee: phase-A outcomes can ship across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ContainedOutcome>();
};

/// Phase A of per-sample analysis: the contained sandbox run and every
/// derivation that depends only on it.
///
/// This is a pure function of `(world, opts, day, sample_id)`: the run
/// executes against a fresh, isolated [`Network`] seeded by
/// [`sub_seed`], touches no pipeline state, and so can execute on any
/// thread in any order. The pipeline fans these out when
/// [`PipelineOpts::parallelism`] > 1.
pub fn contained_activation(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    sample_id: usize,
    tel: &Telemetry,
) -> ContainedOutcome {
    let plan = &opts.faults;
    if plan.forced_panic(day, sample_id) {
        tel.add("chaos.forced_panics", 1);
        // Deliberate: the chaos layer's injected crash. lint: panic-ok
        panic!("chaos: forced phase-A worker panic (day {day}, sample {sample_id})");
    }
    let sample = &world.samples[sample_id];
    let mut fault_context: Vec<String> = Vec::new();
    // Binary mutation (truncation / bit flip) models a corrupted feed
    // download; the analysis sees the mutated bytes end to end.
    let mutated = plan.mutate_binary(day, sample_id, &sample.elf);
    let elf: &[u8] = match &mutated {
        Some((bytes, desc)) => {
            tel.add("chaos.binaries_mutated", 1);
            fault_context.push(desc.clone());
            bytes
        }
        None => &sample.elf,
    };
    let yara_hit = yara_label(elf);
    let yara = yara_hit.map(str::to_string);
    let avclass = avclass2_label(yara_hit).map(str::to_string);

    // --- phase 0: static triage (no instruction executed) ---
    let triage = {
        let _triage_span = tel.span("pipeline.static_triage");
        static_triage(elf, day, &sample.sha256, tel)
    };

    // --- contained activation: C2 + exploit extraction ---
    let mut contained_net = Network::new(
        SimTime::from_day(day, 0),
        sample_seed(opts.seed, day, sample_id, SeedStream::ContainedNet),
    );
    contained_net.set_telemetry(tel);
    if !plan.is_none() {
        let link = plan.contained_link(day, sample_id);
        if link.loss > 0.0 || link.corrupt > 0.0 {
            fault_context.push(format!(
                "contained link loss={:.4} corrupt={:.4}",
                link.loss, link.corrupt
            ));
            contained_net.faults = link;
        }
        // The sandbox's fake resolver is a DnsService like any other:
        // the day's DNS fault policy applies to it too. Decisions draw
        // from the contained net's per-sample RNG, so they are a pure
        // function of (fault_seed, day, sample_id).
        let dns = plan.dns_faults(day);
        if dns.any() {
            fault_context.push(format!(
                "dns drop={:.4} servfail={:.4} nxdomain={:.4}",
                dns.drop_rate, dns.servfail_rate, dns.nxdomain_rate
            ));
            contained_net.dns_faults = dns;
        }
    }
    // Emulator fault sub-plan: syscall-boundary chaos injected inside
    // the guest's kernel view (short I/O, EINTR, ENOMEM, fd-cap
    // squeeze). Inert — and RNG-free — unless the plan enables it.
    let emu = plan.emu_faults(day, sample_id);
    if !emu.is_none() {
        fault_context.push(format!(
            "emu faults armed: short={:.4} eintr={:.4} enomem={:.4} fd_cap={}",
            emu.short_rate,
            emu.eintr_rate,
            emu.enomem_rate,
            emu.fd_cap
                .map_or_else(|| "default".to_string(), |c| c.to_string()),
        ));
    }
    let mut sb = Sandbox::new(
        contained_net,
        SandboxConfig {
            bot_ip: BOT_IP,
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(opts.handshaker_threshold),
            instruction_budget: 400_000_000,
            seed: sample_seed(opts.seed, day, sample_id, SeedStream::ContainedSandbox),
            block_engine: opts.block_engine,
            fd_cap: malnet_sandbox::process::DEFAULT_FD_CAP,
            emu_faults: emu,
        },
    )
    .with_telemetry(tel);
    let art = sb.execute(elf, SimDuration::from_secs(opts.contained_secs));
    drop(sb);
    if art.emu_faults.any() {
        fault_context.push(art.emu_faults.describe());
    }
    let activated = !matches!(art.exit, malnet_sandbox::ExitReason::Fault(_))
        && art.syscalls > 0
        && !matches!(art.exit, malnet_sandbox::ExitReason::Exited(126 | 127));

    // Exploits (D-Exploits).
    let mut exploits = Vec::new();
    for cap in &art.exploits {
        let vulns = exploitdb::classify(&cap.payload);
        if vulns.is_empty() {
            continue;
        }
        let dl = exploitdb::extract_downloader(&cap.payload);
        exploits.push(ExploitRecord {
            sha256: sample.sha256.clone(),
            day,
            vulns,
            port: cap.port,
            downloader: dl.as_ref().map(|(ip, _)| *ip),
            loader: dl.map(|(_, l)| l),
            payload: cap.payload.clone(),
        });
    }

    // C2 candidates — skip P2P-labelled samples (§2.3a).
    let is_p2p = matches!(yara_hit, Some("mozi" | "hajime"));
    let candidates = if is_p2p {
        Vec::new()
    } else {
        detect_c2(&art, BOT_IP)
    };

    if activated {
        tel.add("pipeline.samples_activated", 1);
    }
    tel.add("pipeline.c2_candidates", candidates.len() as u64);
    tel.add("pipeline.exploits_classified", exploits.len() as u64);

    ContainedOutcome {
        sample_id,
        yara,
        avclass,
        activated,
        exploits,
        candidates,
        instructions: art.instructions,
        triage,
        exit: exit_label(&art.exit),
        fault_context,
        emu_faults: art.emu_faults,
    }
}

/// Canonical string form of a sandbox exit reason.
fn exit_label(exit: &malnet_sandbox::ExitReason) -> String {
    match exit {
        malnet_sandbox::ExitReason::Exited(code) => format!("exited({code})"),
        malnet_sandbox::ExitReason::Fault(msg) => format!("fault: {msg}"),
        malnet_sandbox::ExitReason::Deadline => "deadline".to_string(),
        malnet_sandbox::ExitReason::Budget => "budget".to_string(),
    }
}

/// Coarse exit class an `exit_label` string belongs to — the
/// D-Health `exit_counts` key.
pub fn exit_class(label: &str) -> &'static str {
    if label.starts_with("exited") {
        "exited"
    } else if label.starts_with("fault") {
        "fault"
    } else if label == "budget" {
        "budget"
    } else {
        "deadline"
    }
}

/// D-Health classification of a contained run's [`exit_class`]: which
/// degradation row (if any) the run earns. Total over every class the
/// pipeline produces — `crates/core/tests/health_classification.rs`
/// proves no label falls through.
///
/// A degraded run (`fault` or `budget`) that had syscall-boundary
/// faults injected (`emu_injected`) is attributed to the emulator fault
/// domain ([`HealthKind::EmuFault`]) rather than blamed on the binary:
/// the casualty's proximate cause is chaos we inflicted. Clean exits and
/// deadlines are never reclassified — running out the clock is normal
/// bot behaviour, faults or not.
pub fn degraded_kind(class: &str, emu_injected: bool) -> Option<HealthKind> {
    match class {
        "fault" | "budget" if emu_injected => Some(HealthKind::EmuFault),
        "fault" => Some(HealthKind::SandboxFault),
        "budget" => Some(HealthKind::BudgetExhausted),
        _ => None,
    }
}

/// Run `malnet-xray` over one binary and fold the result into a
/// [`TriageRecord`]. Pure (no RNG, no simulated clock) and
/// per-sample-independent, so it parallelizes with the rest of phase A.
fn static_triage(elf: &[u8], day: u32, sha256: &str, tel: &Telemetry) -> TriageRecord {
    let rep = malnet_xray::analyze(elf);
    tel.add("xray.samples_triaged", 1);
    tel.add("xray.endpoints_extracted", rep.endpoints.len() as u64);
    if !rep.valid_elf {
        tel.add("xray.invalid_elf", 1);
    }
    let mut candidates: Vec<String> = rep.c2_candidates().map(|e| e.addr.clone()).collect();
    candidates.sort_unstable();
    candidates.dedup();
    TriageRecord {
        sha256: sha256.to_string(),
        day,
        valid_elf: rep.valid_elf,
        lints: rep.lints.iter().map(|l| l.code.to_string()).collect(),
        net_capable: rep.text.net_capable(),
        bytecode_records: rep.bytecode_records,
        bytecode_skipped: rep.bytecode_skipped,
        candidates,
        endpoints: rep.endpoints.len(),
    }
}

/// Run phase A for a day's batch, returning outcomes in batch order.
///
/// With `opts.parallelism <= 1` this is a plain sequential loop (the
/// legacy path). Otherwise a scoped thread pool pulls sample indices
/// from a shared counter and hands each outcome back with its batch
/// index, so the returned order — and therefore everything the merge
/// stage does — is independent of thread scheduling.
///
/// A panic inside any sample's contained run is caught on the worker
/// and returned as a [`Quarantined`] casualty in that sample's place in
/// the batch — the rest of the batch is unaffected and the pipeline's
/// merge stage records the casualty in D-Health instead of aborting the
/// study.
///
/// Public so a test can drive the contained stage in isolation
/// (`tests/telemetry_report.rs` quarantines one sample of a batch);
/// pipeline callers go through [`Pipeline::run`].
pub fn run_contained_batch(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    batch: &[usize],
    tel: &Telemetry,
) -> Vec<Result<ContainedOutcome, Quarantined>> {
    // Workers re-attach their per-sample spans under the epoch's
    // phase-A span (or wherever the caller sits — a direct caller with
    // no span open degrades to a root span).
    let parent = tel.current_span();
    crate::par::fan_out(batch.len(), opts.parallelism, |i| {
        let id = batch[i];
        let _span = tel.span_under("pipeline.contained_sample", &parent);
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            contained_activation(world, opts, day, id, tel)
        }))
        .map_err(|payload| Quarantined {
            sample_id: id,
            detail: panic_message(payload.as_ref()),
            fault_context: if opts.faults.forced_panic(day, id) {
                vec!["forced worker panic".to_string()]
            } else {
                Vec::new()
            },
        })
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One liveness sweep over `targets` (`(addr, ip, port)`, distinct) from
/// the monitor host: every target gets a SYN; misses are re-probed up to
/// `syn_retries` more times with linear backoff (8 s, 16 s, 24 s, …).
/// Returns the addresses that completed a TCP handshake in any round,
/// in the order their handshakes completed.
///
/// The retry loop is the defence against transient loss: with
/// `syn_retries == 0` a single dropped SYN (or a C2 mid-reboot) reads
/// as "dead", and under the tracking grace policy a couple of such
/// windows erases a live C2's entry — the bug the
/// `syn_retry_survives_transient_loss` regression test pins down.
///
/// The `pipeline.liveness_retries` counter counts the re-probe SYNs
/// actually sent (retry-round connections for still-pending targets) —
/// semantics pinned by the `liveness_retry_counter_counts_actual_reprobes`
/// regression test.
///
/// Public so the regression suite can drive the sweep against a
/// hand-built network; the pipeline calls it from the reduce's daily
/// sweep (via the per-address liveness oracle).
pub fn liveness_probe_rounds(
    net: &mut Network,
    targets: &[(String, Ipv4Addr, u16)],
    syn_retries: u32,
    tel: &Telemetry,
) -> Vec<String> {
    let endpoints: Vec<(Ipv4Addr, u16)> =
        targets.iter().map(|(_, ip, port)| (*ip, *port)).collect();
    let sweep = monitor_sweep(net, &endpoints, syn_retries);
    add_nonzero(tel, "pipeline.liveness_retries", sweep.retries);
    sweep
        .answered
        .into_iter()
        .map(|t| targets[t].0.clone())
        .collect()
}

/// Single-SYN TCP liveness probe from the monitor host.
fn tcp_probe(net: &mut Network, ip: Ipv4Addr, port: u16) -> bool {
    !monitor_sweep(net, &[(ip, port)], 0).answered.is_empty()
}

/// [`syn_sweep`] from the monitor host, which is added for the sweep
/// when the network lacks it.
fn monitor_sweep(net: &mut Network, endpoints: &[(Ipv4Addr, u16)], syn_retries: u32) -> Sweep {
    let added = !net.has_host(MONITOR_IP);
    if added {
        net.add_external_host(MONITOR_IP);
    }
    let sweep = syn_sweep(net, MONITOR_IP, endpoints, syn_retries);
    if added {
        net.remove_host(MONITOR_IP);
    }
    sweep
}

/// Resolve a domain against the world resolver.
fn resolve_on(net: &mut Network, domain: &str) -> Option<Ipv4Addr> {
    let name = DomainName::new(domain).ok()?;
    let added = !net.has_host(MONITOR_IP);
    if added {
        net.add_external_host(MONITOR_IP);
    }
    net.with_external(MONITOR_IP, |s| {
        s.udp_bind(45353);
        ((), vec![])
    });
    let q = DnsMessage::query(7, name);
    net.ext_udp_send(
        MONITOR_IP,
        45353,
        malnet_botgen::world::WORLD_RESOLVER,
        53,
        q.encode(),
    );
    net.run_for(SimDuration::from_secs(3));
    let mut answer = None;
    for ev in net.ext_events(MONITOR_IP) {
        if let SockEvent::UdpData { data, .. } = ev {
            if let Ok(msg) = DnsMessage::decode(&data) {
                if let Some((_, ip, _)) = msg.answers.first() {
                    answer = Some(*ip);
                }
            }
        }
    }
    if added {
        net.remove_host(MONITOR_IP);
    }
    answer
}
