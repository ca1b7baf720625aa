//! The study plan, the day epochs and the reduce (DESIGN.md §8, §8a).
//! The plan is a pure function of `(world, opts)`. An epoch day runs
//! phase A, then B1, B2 and B3, and leaves plain mergeable data. The
//! reduce is the only owner of cross-day state and emits the day
//! stream. Every network that models a day gets the day's faults.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use malnet_telemetry::events::FieldValue;
use malnet_telemetry::{Field as EventField, SpanCtx, Telemetry};

use malnet_botgen::world::World;
use malnet_intel::engines::EngineModel;
use malnet_intel::VendorDb;
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime, STUDY_DAYS};
use malnet_protocols::Family;

use super::contained::{
    degraded_kind, exit_class, exit_label, run_contained_batch, ContainedOutcome, Quarantined,
};
use super::liveness::{resolve_on, tcp_probe, Day0Live, Tracking};
use super::restricted::{run_restricted_batch, RestrictedJob, RestrictedOutcome};
use super::{seeds, PipelineOpts};
use crate::chaos::FaultPlan;
use crate::datasets::{C2Record, Datasets, DdosRecord, HealthKind, HealthRecord, SampleRecord};

/// One study day's planned phase-A batch (sample ids in ascending
/// order, after the global `max_samples` truncation).
#[derive(Debug, Clone)]
pub(super) struct DayPlan {
    pub(super) day: u32,
    pub(super) batch: Vec<usize>,
}

/// Last day the chronological fold walks: tracking may outlive the feed
/// by up to `track_max_days`.
pub(super) fn study_bound(world: &World, opts: &PipelineOpts) -> u32 {
    let last_publish = world.publish_days().into_iter().max().unwrap_or(0);
    (last_publish + opts.track_max_days).min(STUDY_DAYS + opts.track_max_days)
}

/// The study plan: every day with a non-empty batch, in day order. The
/// `max_samples` cap is applied here — on the *plan*, before any epoch
/// runs — so the cap is a global property of the study, not of whichever
/// epoch happens to execute first.
pub(super) fn day_plans(world: &World, opts: &PipelineOpts) -> Vec<DayPlan> {
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

/// One stream event an epoch recorded instead of emitting, with owned
/// field values: epochs run concurrently, so only the reduce's
/// day-ordered fold may write to the event sink.
#[derive(Debug, Clone)]
struct RecordedEvent {
    kind: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl RecordedEvent {
    fn emit(&self, tel: &Telemetry) {
        let fields: Vec<(&str, EventField<'_>)> = self
            .fields
            .iter()
            .map(|(name, v)| {
                let f = match v {
                    FieldValue::U64(u) => EventField::U(*u),
                    FieldValue::Str(s) => EventField::S(s),
                };
                (*name, f)
            })
            .collect();
        tel.event(self.kind, None, &fields);
    }
}

/// One day's mergeable residue inside an [`EpochResult`].
#[derive(Debug, Clone, Default)]
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

impl EpochDay {
    /// Record one stream event, with its fields in the order given, for
    /// the reduce to emit when its fold reaches this day.
    fn record(&mut self, kind: &'static str, fields: &[(&'static str, EventField<'_>)]) {
        let fields = fields
            .iter()
            .map(|&(name, f)| {
                let v = match f {
                    EventField::U(u) => FieldValue::U64(u),
                    EventField::S(s) => FieldValue::Str(s.to_string()),
                };
                (name, v)
            })
            .collect();
        self.events.push(RecordedEvent { kind, fields });
    }
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
/// per-day world-net sub-seeds), every RNG stream is per-sample or
/// per-address, and no epoch reads the tracking table or another
/// epoch's vendor knowledge. Public so the epoch-merge permutation
/// proptest can drive [`merge_epoch_results`] with shuffled inputs.
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
    let days = plans.iter().map(|plan| run.run_day(plan)).collect();
    EpochResult {
        start_day: plans.first().map_or(0, |p| p.day),
        days,
        data: run.data,
        vendors: run.vendors,
    }
}

impl EpochRun<'_> {
    /// One epoch day: phase A fan-out, then B1, B2 and B3, recording
    /// cross-day effects instead of applying them.
    fn run_day(&mut self, plan: &DayPlan) -> EpochDay {
        let tel = self.tel.clone();
        let day = plan.day;
        let day_span = tel.span("pipeline.day");
        let watch = tel.stopwatch();
        let mut eday = EpochDay {
            day,
            batch_len: plan.batch.len(),
            ..EpochDay::default()
        };
        tel.add("pipeline.samples_analyzed", plan.batch.len() as u64);
        // The epoch's own network for this day: identical topology to
        // what any other shard layout would build, private RNG and
        // responsiveness chains.
        let (mut net, _logs) = self
            .world
            .network_for_day_detached(day, seeds::world_net_seed(self.opts.seed, day));
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

    /// Count a run's exit `class` in D-Health. A degraded run also adds
    /// its row, announced by a `quarantine` event of kind `label`.
    /// Called in sample-id order from the B1 merge loop, so the replayed
    /// stream position is deterministic.
    fn tally_exit(&mut self, eday: &mut EpochDay, class: &str, row: Option<(&str, HealthRecord)>) {
        *self
            .data
            .health
            .exit_counts
            .entry(class.to_string())
            .or_insert(0) += 1;
        if let Some((label, row)) = row {
            eday.record(
                "quarantine",
                &[
                    ("sha256", EventField::S(&row.sha256)),
                    ("day", EventField::U(u64::from(row.day))),
                    ("kind", EventField::S(label)),
                    ("detail", EventField::S(&row.detail)),
                ],
            );
            self.data.health.rows.push(row);
        }
    }

    /// Phase-B handling of a sample whose phase-A worker panicked: the
    /// casualty is recorded in D-Health and the study continues — one
    /// crashing sample must not cost a multi-day study.
    fn quarantine_sample(&mut self, day: u32, q: Quarantined, eday: &mut EpochDay) {
        self.tel.add("pipeline.samples_quarantined", 1);
        let sha = &self.world.samples[q.sample_id].sha256;
        let row = HealthRecord {
            sha256: sha.clone(),
            day,
            kind: HealthKind::WorkerPanic,
            detail: q.detail,
            fault_context: q.fault_context.clone(),
        };
        self.tally_exit(eday, "worker-panic", Some(("worker-panic", row)));
        for ctx in &q.fault_context {
            eday.record(
                "chaos",
                &[
                    ("day", EventField::U(u64::from(day))),
                    ("sha256", EventField::S(sha)),
                    ("detail", EventField::S(ctx)),
                ],
            );
        }
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
        out: ContainedOutcome,
        eday: &mut EpochDay,
    ) -> Option<RestrictedJob> {
        let tel = self.tel.clone();
        let _merge_span = tel.span("pipeline.merge");
        self.data.triage.push(out.triage);
        let world = self.world;
        let sample = &world.samples[out.sample_id];
        // Chaos that touched this sample's contained run (binary
        // mutation, injected faults), recorded here — the B1 merge runs
        // in sample-id order — rather than from the racing phase-A
        // workers that observed it.
        for ctx in &out.fault_context {
            eday.record(
                "chaos",
                &[
                    ("day", EventField::U(u64::from(day))),
                    ("sha256", EventField::S(&sample.sha256)),
                    ("detail", EventField::S(ctx)),
                ],
            );
        }
        // D-Health accounting: every contained run's exit reason is
        // tallied; sandbox faults (including malformed-ELF rejects) and
        // budget exhaustion get full degradation rows.
        if out.emu_faults.any() {
            tel.add("chaos.emu_faulted_samples", 1);
        }
        let class = exit_class(&out.exit);
        let row = degraded_kind(&out.exit, out.emu_faults.any()).map(|kind| {
            let label = if kind == HealthKind::EmuFault {
                "emu-fault"
            } else {
                class
            };
            let row = HealthRecord {
                sha256: sample.sha256.clone(),
                day,
                kind,
                detail: exit_label(&out.exit),
                fault_context: out.fault_context.clone(),
            };
            (label, row)
        });
        self.tally_exit(eday, class, row);
        // Pure per-(day, sample) AV-consensus draw: no shared RNG, so
        // every shard layout sees the same count.
        let av = self
            .engines
            .detections_for_malware(day, out.sample_id as u64)
            .max(sample.av_detections.min(60));

        // Exploits (D-Exploits).
        self.data.exploits.extend(out.exploits);

        let yara_family = out
            .yara
            .as_deref()
            .and_then(|l| Family::ALL.into_iter().find(|f| f.label() == l));
        let mut live_c2s: Vec<(String, Ipv4Addr, Option<Family>)> = Vec::new();
        let mut c2_addrs = Vec::new();
        for cand in &out.candidates {
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
            let asn = real_ip.and_then(|ip| world.asdb.asn_of(ip)).map(|a| a.0);
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
                if tcp_probe(net, ip, cand.port) {
                    eday.day0_live.push(Day0Live {
                        addr: cand.addr.clone(),
                        ip,
                        port: cand.port,
                    });
                    live_c2s.push((cand.addr.clone(), ip, family_label));
                }
            }
        }
        tel.add("pipeline.c2_live_day0", live_c2s.len() as u64);

        self.data.samples.push(SampleRecord {
            sha256: sample.sha256.clone(),
            day,
            yara_family: out.yara,
            avclass_family: out.avclass,
            av_detections: av,
            activated: out.activated,
            c2_addrs,
            instructions: out.instructions,
        });

        // Restricted DDoS-observation session (§2.5): eligible samples
        // become worker-pool jobs instead of running inline here.
        (out.activated && !live_c2s.is_empty()).then_some(RestrictedJob {
            sample_id: out.sample_id,
            live: live_c2s,
        })
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
///    table: its daily sweep re-resolves each tracked C2's liveness
///    through a pure per-`(day, address)` oracle — which is what
///    re-resolves transitions straddling an epoch edge — then the fold
///    replays the epochs' recorded day-0 hits, and emits the day's
///    events (day_start, chaos windows, recorded events, rollup,
///    heartbeat) from recorded per-day deltas, never from live
///    counters.
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
    let mut tracking = Tracking::default();
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
        // The day's scheduled C2-downtime windows, announced once here;
        // `apply_world_chaos` applies them to every network that models
        // the day and never emits.
        if !opts.faults.is_none() {
            for (ip, start, dur) in downtime_windows(&opts.faults, world, day) {
                let ip = ip.to_string();
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
        // Daily liveness sweep over the tracked set — before the day's
        // phase replay, mirroring the sequential schedule.
        tracking.sweep(world, opts, day, &mut data.c2s, tel);
        if let Some(d) = eday {
            // Replay the epoch's recorded B1 stream events, then its
            // day-0 liveness hits (in occurrence order).
            for ev in &d.events {
                ev.emit(tel);
            }
            for hit in &d.day0_live {
                tracking.day0_hit(day, hit, &mut data.c2s);
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

/// The day's scheduled C2 downtime windows under `plan`: `(host, start
/// secs into the day, duration secs)` for each C2 alive on `day` that
/// draws one, in world order.
fn downtime_windows<'a>(
    plan: &'a FaultPlan,
    world: &'a World,
    day: u32,
) -> impl Iterator<Item = (Ipv4Addr, u64, u64)> + 'a {
    world
        .c2s
        .iter()
        .filter(move |c2| c2.alive_on(day))
        .filter_map(move |c2| {
            let (start, dur) = plan.downtime_window(day, c2.host_ip)?;
            Some((c2.host_ip, start, dur))
        })
}

/// Apply the day's share of the fault plan to a world-derived network:
/// link faults, DNS failure injection, and scheduled C2 downtime
/// windows. A no-op (that draws no randomness) for the empty plan.
///
/// Every kind of day network needs it — the epoch's day network, each
/// restricted session's detached network and each liveness-oracle
/// network — and the same day must see the same faults on all of them,
/// or a restricted session would observe a C2 the liveness sweep saw go
/// down. Never emits events: the stream's chaos announcements come from
/// the reduce, exactly once per day.
pub(super) fn apply_world_chaos(
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
    for (ip, start, dur) in downtime_windows(plan, world, day) {
        let down_at = SimTime::from_day(day, start);
        net.schedule_host_state(ip, down_at, false);
        net.schedule_host_state(ip, down_at + SimDuration::from_secs(dur), true);
        tel.add("chaos.c2_downtime_windows", 1);
    }
}
