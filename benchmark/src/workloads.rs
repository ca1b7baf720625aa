//! The workload and metric tables. `BENCHMARK.json` at the repository
//! root mirrors them; a unit test keeps the two in step.

use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{FaultPlan, PipelineOpts};

/// Seconds one run measures when `--seconds` is absent
/// (`run_seconds` in `BENCHMARK.json`).
pub(crate) const RUN_SECONDS: u64 = 20;

/// The `--seed` at which each workload's recorded digest holds.
pub(crate) const DEFAULT_SEED: u64 = 22;

/// World seed of every workload's corpus: the paper-scale corpus and the
/// CI corpus are both generated at seed 22. The corpus stays fixed and
/// `--seed` seeds the study's measurement randomness instead
/// ([`PipelineOpts::seed`]: sandbox, network, liveness and feed draws).
/// Corpus seeds change the work itself: the 48-sample study takes 0.3 s
/// at one corpus seed and 6 s at another, because a single restricted
/// session is its critical path.
const CORPUS_SEED: u64 = 22;

/// Fault seed of `chaos_study` (the CI chaos run's plan).
const FAULT_SEED: u64 = 7;

/// Pipeline settings a workload starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scale {
    /// The paper's parameters, as `malnet_bench::run_study` sets them.
    Paper,
    /// [`PipelineOpts::fast`], the CI study.
    Fast,
}

/// One study configuration the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Workload {
    /// Name passed to `--workload`.
    pub(crate) name: &'static str,
    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub(crate) why: &'static str,
    /// Corpus size.
    pub(crate) samples: usize,
    /// Pipeline settings the workload starts from.
    pub(crate) scale: Scale,
    /// Worker threads asked for; a run uses at most the host's CPU count.
    pub(crate) parallelism: usize,
    /// Day-epoch shards.
    pub(crate) day_shards: usize,
    /// Run under `FaultPlan::chaos`.
    pub(crate) chaos: bool,
    /// `fnv1a` of the datasets' canonical dump at [`DEFAULT_SEED`]. Moving
    /// it on purpose is a change to the benchmark.
    pub(crate) digest: u64,
}

/// Datasets digest of the paper-scale study at [`DEFAULT_SEED`]; worker
/// count and day shards leave the bytes unchanged.
const PAPER_DIGEST: u64 = 0x1d5b_905c_761f_c5f5;

/// Every workload, in `BENCHMARK.json` order.
pub(crate) const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_study",
        why: "The paper's 1447-sample study. Time spreads over the prober, restricted sessions, \
              contained activation and the liveness reduce, so their optimisations show here.",
        samples: 1447,
        scale: Scale::Paper,
        parallelism: 1,
        day_shards: 1,
        chaos: false,
        digest: PAPER_DIGEST,
    },
    Workload {
        name: "fast_study",
        why: "The 48-sample CI study. One restricted session with its pcap parse and DDoS \
              extraction is most of the time; prober, contained and reduce changes should not move it.",
        samples: 48,
        scale: Scale::Fast,
        parallelism: 1,
        day_shards: 1,
        chaos: false,
        digest: 0x23b3_e79a_10a7_d08d,
    },
    Workload {
        name: "paper_study_par",
        why: "paper_study on 2 workers and 2 day shards. The same layers run concurrently, so \
              added contention or a longer slowest session shows here and not in paper_study.",
        samples: 1447,
        scale: Scale::Paper,
        parallelism: 2,
        day_shards: 2,
        chaos: false,
        digest: PAPER_DIGEST,
    },
    Workload {
        name: "chaos_study",
        why: "paper_study under FaultPlan::chaos(7): loss, corruption, jitter, DNS faults, binary \
              mutation, worker panics and emulator faults drive the failure paths.",
        samples: 1447,
        scale: Scale::Paper,
        parallelism: 1,
        day_shards: 1,
        chaos: true,
        digest: 0x3128_ed2b_6d50_3f84,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub(crate) fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generate the workload's corpus.
    pub(crate) fn world(&self) -> World {
        World::generate(WorldConfig {
            seed: CORPUS_SEED,
            n_samples: self.samples,
            cal: Calibration::default(),
        })
    }

    /// The study settings for one run at `seed` on a host with `nproc`
    /// CPUs.
    pub(crate) fn opts(&self, seed: u64, nproc: usize) -> PipelineOpts {
        let base = match self.scale {
            Scale::Paper => PipelineOpts {
                contained_secs: 420,
                restricted_secs: 4200,
                probe_rounds: 84,
                probe_hosts_per_subnet: 120,
                ..PipelineOpts::default()
            },
            Scale::Fast => PipelineOpts::fast(),
        };
        PipelineOpts {
            seed,
            parallelism: self.parallelism.min(nproc).max(1),
            day_shards: self.day_shards,
            faults: if self.chaos {
                FaultPlan::chaos(FAULT_SEED)
            } else {
                FaultPlan::none()
            },
            ..base
        }
    }
}

/// One metric: its name, unit, which direction is better, and for an
/// end-to-end metric the share of the baseline median by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spec {
    /// Metric name.
    pub(crate) name: &'static str,
    /// Unit.
    pub(crate) unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub(crate) better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub(crate) bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: what a user of the study sees, its cost and the
/// fidelity of its instruments. Run mode (`--trace 0`) reports these,
/// measured with telemetry off.
///
/// The time and memory bounds are the largest allowed: on the 2-CPU host
/// the benchmark was sized on, ten consecutive runs of one workload
/// spread by up to 29% (first to third quartile, as a share of the
/// median) from host load alone, and `paper_study_par`'s peak memory
/// depends on which restricted sessions overlap.
pub(crate) const END_TO_END: [Spec; 7] = [
    e2e("study_s", "s", "lower", 0.25),
    e2e("samples_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("c2_recall", "%", "higher", 0.05),
    e2e("c2_precision", "%", "higher", 0.05),
    e2e("exploit_recall", "%", "higher", 0.05),
];

/// Per-layer metrics. Trace mode (`--trace 1`) reports these; README.md
/// names the end-to-end metric and workload each one should move.
pub(crate) const PER_LAYER: [Spec; 36] = [
    layer("botgen.generate_s", "s", "lower"),
    layer("pipeline.epochs_s", "s", "lower"),
    layer("pipeline.reduce_s", "s", "lower"),
    layer("pipeline.contained_s", "s", "lower"),
    layer("pipeline.contained_p50_ms", "ms", "lower"),
    layer("pipeline.contained_p99_ms", "ms", "lower"),
    layer("pipeline.critical_day_share", "ratio", "lower"),
    layer("pipeline.restricted_sessions", "count", "lower"),
    layer("pipeline.liveness_probes", "count", "lower"),
    layer("pipeline.liveness_retries", "count", "lower"),
    layer("pipeline.failed_frac", "ratio", "lower"),
    layer("sandbox.restricted_s", "s", "lower"),
    layer("sandbox.restricted_max_s", "s", "lower"),
    layer("sandbox.ns_per_instr", "ns", "lower"),
    layer("sandbox.guest_instructions", "count", "lower"),
    layer("sandbox.syscalls", "count", "lower"),
    layer("wire.pcap_parse_s", "s", "lower"),
    layer("wire.pcap_encode_s", "s", "lower"),
    layer("wire.pcap_records", "count", "lower"),
    layer("wire.pcap_bytes", "bytes", "lower"),
    layer("ddos.extract_s", "s", "lower"),
    layer("ddos.commands", "count", "higher"),
    layer("ddos.c2_packet_share", "ratio", "higher"),
    layer("ddos.recall", "%", "higher"),
    layer("xray.analyze_s", "s", "lower"),
    layer("prober.run_s", "s", "lower"),
    layer("prober.probes_sent", "count", "lower"),
    layer("prober.syn_retries", "count", "lower"),
    layer("prober.engagements", "count", "higher"),
    layer("prober.engagement_ratio", "ratio", "higher"),
    layer("netsim.packets_delivered", "count", "lower"),
    layer("netsim.packets_dropped", "count", "lower"),
    layer("netsim.drop_frac", "ratio", "lower"),
    layer("analysis.render_s", "s", "lower"),
    layer("analysis.evaluate_s", "s", "lower"),
    layer("telemetry.trace_overhead_frac", "ratio", "lower"),
];

/// Look a metric spec up by name in either table.
pub(crate) fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}
