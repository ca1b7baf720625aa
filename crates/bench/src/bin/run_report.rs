//! Run the pipeline's `fast()` config with telemetry enabled, write the
//! JSON run report to `results/run_report.json` (plus the live
//! `malnet.events` stream to `results/events.jsonl` and a Chrome
//! trace-event export of the span tree to `results/trace.json`), and
//! verify the report: it must parse (with `malnet_telemetry::json`),
//! contain every stage the pipeline is supposed to instrument, and its
//! rollup rows must be well-formed (`day` keys present and strictly
//! increasing, no duplicate field names) so a mis-merged day-shard is
//! caught here instead of during analysis. CI runs this on every push,
//! validates the stream with `study_watch --validate`, and uploads the
//! artifacts; any failure fails the build.
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin run_report -- [--samples N] [--seed S]`

use malnet_bench::parse_args;
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_telemetry::{json, trace, EventSink, RunReport, Telemetry};

/// Spans the instrumented pipeline must have entered at least once on a
/// corpus that exercises every stage.
const EXPECTED_SPANS: &[&str] = &[
    "pipeline.run",
    "pipeline.day",
    "pipeline.phase_a",
    "pipeline.phase_b",
    "pipeline.contained_sample",
    "pipeline.static_triage",
    "pipeline.merge",
    "pipeline.restricted_session",
    "pipeline.ddos_eavesdrop",
    "pipeline.liveness_sweep",
    "pipeline.probing",
    "pipeline.late_query",
    "prober.round",
    "sandbox.exec",
];

/// Counters that must be present and non-zero.
const EXPECTED_COUNTERS: &[&str] = &[
    "pipeline.samples_analyzed",
    "pipeline.samples_activated",
    "pipeline.c2_candidates",
    "pipeline.c2_detected",
    "xray.samples_triaged",
    "xray.endpoints_extracted",
    "prober.probes_sent",
    "prober.dark_syns",
    "sandbox.instructions_retired",
    "sandbox.syscalls_serviced",
    "sandbox.idle_steps_skipped",
    "netsim.packets_delivered",
    "netsim.dns_queries",
    "netsim.hosts_built",
    "wire.pcap_bytes_encoded",
    "wire.pcap_records_encoded",
];

/// Rollup well-formedness: no row may carry a duplicate field name, and
/// the `day`-keyed rows (one per study day with activity) must each
/// carry a `day` field whose values strictly increase in arrival order.
/// A mis-merged day-shard (duplicated or reordered rows) trips this in
/// CI instead of surfacing as a silent analysis artifact.
fn rollup_failures(report: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut last_day: Option<u64> = None;
    for (i, (key, fields)) in report.rollups.iter().enumerate() {
        for (j, (name, _)) in fields.iter().enumerate() {
            if fields[..j].iter().any(|(n, _)| n == name) {
                failures.push(format!(
                    "rollup row {i} (key {key:?}) has duplicate field {name:?}"
                ));
            }
        }
        if key == "day" {
            match fields.iter().find(|(n, _)| n == "day").map(|&(_, v)| v) {
                None => failures.push(format!("day rollup row {i} lacks a \"day\" field")),
                Some(day) => {
                    if last_day.is_some_and(|prev| day <= prev) {
                        failures.push(format!(
                            "day rollup row {i}: day {day} does not increase (previous {last_day:?})"
                        ));
                    }
                    last_day = Some(day);
                }
            }
        }
    }
    failures
}

fn main() {
    let opts = parse_args();
    let samples = opts.samples.unwrap_or(48); // CI-sized corpus; still hits every stage
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: samples,
        cal: Calibration::default(),
    });
    let events_path = std::path::Path::new("results/events.jsonl");
    let sink = EventSink::create(events_path).expect("create event stream");
    let tel = Telemetry::enabled_with_events(sink);
    let popts = PipelineOpts {
        seed: opts.seed,
        parallelism: 2,
        max_samples: Some(samples),
        ..PipelineOpts::fast()
    };
    let (data, _vendors) = Pipeline::with_telemetry(popts, tel.clone()).run(&world);
    println!(
        "pipeline done: {} samples, {} C2s, {} exploits, {} DDoS records",
        data.samples.len(),
        data.c2s.len(),
        data.exploits.len(),
        data.ddos.len()
    );

    let report = tel.report();
    let json_text = report.to_json();
    let path = std::path::Path::new("results/run_report.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, &json_text).expect("write run report");
    println!("wrote {} ({} bytes)", path.display(), json_text.len());
    println!("wrote {} (live event stream)", events_path.display());

    let trace_path = std::path::Path::new("results/trace.json");
    let trace_text = trace::chrome_trace(&report);
    std::fs::write(trace_path, &trace_text).expect("write trace export");
    println!(
        "wrote {} ({} bytes)",
        trace_path.display(),
        trace_text.len()
    );

    // --- verification: re-read from disk, parse, check stage coverage ---
    let reread = std::fs::read_to_string(path).expect("re-read run report");
    let v = match json::parse(&reread) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: run report is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = Vec::new();
    if v.get("schema").and_then(|s| s.as_str()) != Some("malnet.run_report") {
        failures.push("schema field missing or wrong".to_string());
    }
    if v.get("version").and_then(|n| n.as_u64()) != Some(1) {
        failures.push("version field missing or wrong".to_string());
    }
    let span_names: Vec<String> = v
        .get("spans")
        .and_then(|a| a.as_array())
        .map(|spans| {
            spans
                .iter()
                .filter_map(|s| s.get("name").and_then(|n| n.as_str()).map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    for name in EXPECTED_SPANS {
        if !span_names.iter().any(|s| s == name) {
            failures.push(format!("missing span {name:?}"));
        }
    }
    for name in EXPECTED_COUNTERS {
        match report.counter(name) {
            None => failures.push(format!("missing counter {name:?}")),
            Some(0) => failures.push(format!("counter {name:?} is zero")),
            Some(_) => {}
        }
    }
    if report.histogram("sandbox.instructions_per_run").is_none() {
        failures.push("missing histogram \"sandbox.instructions_per_run\"".to_string());
    }
    if report.rollups.is_empty() {
        failures.push("no per-day rollups".to_string());
    }
    failures.extend(rollup_failures(&report));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    println!(
        "run report OK: {} spans, {} counters, {} histograms, {} rollups",
        report.spans.len(),
        report.counters.len(),
        report.histograms.len(),
        report.rollups.len()
    );
    for name in EXPECTED_SPANS {
        if let Some(s) = report.span(name) {
            println!(
                "  {:<28} calls {:>6}  total {:>10} µs  self {:>10} µs",
                s.name, s.calls, s.total_us, s.self_us
            );
        }
    }
}
