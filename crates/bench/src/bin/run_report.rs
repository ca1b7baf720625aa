//! Run the pipeline's `fast()` config with telemetry enabled and write
//! its three artifacts: the JSON run report to
//! `results/run_report.json` (checked as read back by
//! [`write_artifact`]), the live `malnet.events` stream to
//! `results/events.jsonl`, and a Chrome trace-event export of the span
//! tree to `results/trace.json`. Which stages the report must cover is
//! tested by `crates/core/tests/telemetry_report.rs`; CI runs this
//! binary, checks the stream against the report with
//! `study_watch --validate --report results/run_report.json`, and
//! uploads all three.
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin run_report -- [--samples N] [--seed S]`

use std::path::Path;

use malnet_bench::{exit_on_failures, parse_args, write_artifact};
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_telemetry::{report, trace, EventSink, Telemetry};

fn main() {
    let opts = parse_args();
    let samples = opts.samples.unwrap_or(48); // CI-sized corpus; still hits every stage
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: samples,
        cal: Calibration::default(),
    });
    let events_path = Path::new("results/events.jsonl");
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
    println!("wrote {} (live event stream)", events_path.display());

    let run_report = tel.report();
    if let Err(e) = write_artifact(
        Path::new("results/run_report.json"),
        &run_report.to_json(),
        report::SCHEMA,
        u64::from(report::VERSION),
    ) {
        exit_on_failures(&[e]);
    }

    let trace_path = Path::new("results/trace.json");
    let trace_text = trace::chrome_trace(&run_report);
    std::fs::write(trace_path, &trace_text).expect("write trace export");
    println!(
        "wrote {} ({} bytes)",
        trace_path.display(),
        trace_text.len()
    );
}
