//! Run mode: whole studies through `Pipeline::run`, telemetry off.

use std::time::Duration;

use malnet_core::datasets::HealthKind;
use malnet_core::{eval, Pipeline, PipelineOpts};

use crate::workloads::{Workload, DEFAULT_SEED};
use crate::{another_rep, digest, median, now, nproc, ratio, setup, timed, Measured, Metric};

/// Timed studies a run makes at least, whatever `--seconds` says, so
/// `study_s` is always a median.
pub(crate) const MIN_REPS: usize = 3;

/// Time studies of `w` at `seed` for about `budget`, then check that
/// every study produced the same datasets, that those match the recorded
/// digest at the default seed, and that every planned sample is
/// accounted for.
pub(crate) fn measure(w: &Workload, seed: u64, budget: Duration) -> Measured {
    let (world, generate_s) = setup(w);
    let opts = w.opts(seed, nproc());
    let planned = world.samples.len();
    let mut m = Measured {
        samples_planned: planned as u64,
        parallelism: opts.parallelism,
        ..Measured::default()
    };

    let start = now();
    let mut study_s = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    while another_rep(start, study_s.len(), MIN_REPS, median(&study_s), budget) {
        let ((data, _vendors), s) = timed(|| Pipeline::new(opts.clone()).run(&world));
        study_s.push(s);
        digests.push(digest(&data));
        first.get_or_insert(data);
    }
    let data = first.expect("at least one rep ran");
    m.reps = study_s.len();
    m.studies = study_s.len() as u64;
    m.digest = digests[0];

    if digests.iter().any(|d| *d != m.digest) {
        m.problems
            .push(format!("reps produced different datasets: {digests:016x?}"));
    }
    if seed == DEFAULT_SEED && m.digest != w.digest {
        m.problems.push(format!(
            "datasets digest {:016x} differs from the recorded {:016x}",
            m.digest, w.digest
        ));
    }
    if opts.parallelism > 1 || opts.day_shards > 1 {
        // Parallel determinism: the sequential study must produce the
        // same bytes. Untimed.
        let sequential = PipelineOpts {
            parallelism: 1,
            day_shards: 1,
            ..opts.clone()
        };
        m.studies += 1;
        let (data, _) = Pipeline::new(sequential).run(&world);
        if digest(&data) != m.digest {
            m.problems
                .push("the sequential study produced different datasets".to_string());
        }
    }
    let quarantined = data
        .health
        .rows
        .iter()
        .filter(|r| r.kind == HealthKind::WorkerPanic)
        .count();
    if data.samples.len() + quarantined != planned {
        m.problems.push(format!(
            "{} sample records and {quarantined} quarantined samples for {planned} planned",
            data.samples.len()
        ));
    }
    let degraded = data.health.rows.len();
    if opts.faults.is_none() && degraded > 0 {
        m.problems
            .push(format!("{degraded} D-Health rows without injected faults"));
    }
    m.notes.push(format!(
        "samples_planned {planned} samples_failed {degraded} failed_frac {}",
        ratio(degraded as f64, planned as f64)
    ));

    let scores = eval::evaluate(&world, &data);
    let rates = study_s.iter().map(|s| ratio(planned as f64, *s)).collect();
    m.metrics = vec![
        Metric::new("study_s", study_s),
        Metric::new("samples_per_s", rates),
        Metric::new("setup_s", generate_s),
        Metric::new("peak_rss_mb", vec![peak_rss_mb(&mut m.problems)]),
        Metric::new("c2_recall", vec![scores.c2_recall]),
        Metric::new("c2_precision", vec![scores.c2_precision]),
        Metric::new("exploit_recall", vec![scores.exploit_recall]),
    ];
    m
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb(problems: &mut Vec<String>) -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kib {
        Some(k) => k / 1024.0,
        None => {
            problems.push("no VmHWM in /proc/self/status".to_string());
            0.0
        }
    }
}
