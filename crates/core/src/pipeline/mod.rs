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
//! The study plan (which sample runs on which day) is split into
//! [`PipelineOpts::day_shards`] contiguous day-ranges ("epochs"), each a
//! pure function of `(world, opts, epoch days)` that yields its own
//! [`VendorDb`] delta and [`Datasets`] slice. Cross-day state belongs to
//! the reduce ([`merge_epoch_results`]), which folds the epochs in day
//! order, so every byte is independent of the shard and thread counts
//! (`crates/core/tests/parallel_determinism.rs`).
//!
//! The submodules follow DESIGN.md §8's ownership lines: `epochs` (the
//! plan, the day epochs and the reduce), `contained` (phase A),
//! `restricted` (phase B2's sessions, [`restricted_sandbox`]),
//! `liveness` (probes from [`MONITOR_IP`] and the tracking table) and
//! `seeds` (one function per sub-seed stream, [`seed_inventory`]).

use std::net::Ipv4Addr;

use malnet_telemetry::{Field as EventField, Telemetry};

use malnet_botgen::world::World;
use malnet_intel::VendorDb;
use malnet_netsim::time::STUDY_DAYS;

use crate::chaos::FaultPlan;
use crate::datasets::Datasets;
use crate::prober::{self, ProbeConfig};

mod contained;
mod epochs;
mod liveness;
mod restricted;
mod seeds;

pub use contained::{
    contained_activation, degraded_kind, exit_class, run_contained_batch, ContainedOutcome,
    Quarantined,
};
pub use epochs::{merge_epoch_results, run_day_epochs, EpochResult};
pub use liveness::{liveness_probe_rounds, MONITOR_IP};
pub use restricted::restricted_sandbox;
pub use seeds::seed_inventory;

/// The sandboxed device address.
pub const BOT_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);

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
    /// draws from its own `sub_seed`-derived RNG and results are
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
    /// Defaults to `2`: with `0`, one lost packet could end a live C2's
    /// tracking and shorten its lifespan
    /// (`syn_retry_survives_transient_loss`).
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
        let plans = epochs::day_plans(world, &opts);
        let analyzed: usize = plans.iter().map(|p| p.batch.len()).sum();
        let bound = epochs::study_bound(world, &opts);

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
                let cfg = probe_config(world, &opts);
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

/// The D-PC2 probing study's configuration under `opts`: the paper's
/// cadence, with the rounds, sweep width, SYN retries, worker count and
/// interpreter taken from the pipeline's options.
pub fn probe_config(world: &World, opts: &PipelineOpts) -> ProbeConfig {
    ProbeConfig {
        rounds: opts.probe_rounds,
        hosts_per_subnet: opts.probe_hosts_per_subnet,
        syn_retries: opts.syn_retries,
        parallelism: opts.parallelism,
        block_engine: opts.block_engine,
        ..ProbeConfig::from_world(world)
    }
}
