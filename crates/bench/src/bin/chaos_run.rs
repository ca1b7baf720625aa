//! Run the pipeline under the standard chaos fault plan, write the
//! graceful-degradation health report to `results/health_report.json`
//! (`malnet.health_report` v1, documented in EXPERIMENTS.md), and
//! verify it: the report must parse, at least one injected failure must
//! have been quarantined into D-Health, and the study must still have
//! produced data. CI runs this on every push and uploads the artifact;
//! a chaos run that aborts — or that degrades *silently* — fails the
//! build.
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin chaos_run -- [--samples N] [--seed S] [--fault-seed N]`

use std::fmt::Write as _;

use malnet_bench::parse_chaos_args;
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::chaos::FaultPlan;
use malnet_core::{Pipeline, PipelineOpts};
use malnet_telemetry::{json, Telemetry};
use malnet_xray::report::json_escape;

/// Default fault seed of the CI chaos run (fixed: the injected faults —
/// and therefore the report — are byte-reproducible). Override with
/// `--fault-seed N`.
const FAULT_SEED: u64 = 7;

/// Fault-injection and degradation counters the report snapshots.
const FAULT_COUNTERS: &[&str] = &[
    "chaos.forced_panics",
    "chaos.binaries_mutated",
    "chaos.c2_downtime_windows",
    "chaos.emu_faults_injected",
    "chaos.emu_faulted_samples",
    "netsim.dns_faults_injected",
    "netsim.dns_queries",
    "pipeline.dns_resolutions",
    "netsim.packets_dropped",
    "pipeline.samples_quarantined",
    "pipeline.liveness_retries",
    "prober.syn_retries",
];

/// JSON object echoing every knob of the active [`FaultPlan`], so the
/// report alone reproduces the run (`chaos_run --seed S --fault-seed F`
/// against the recorded sample count).
fn fault_plan_json(p: &FaultPlan) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"fault_seed\":{},\"world_loss\":{},\"world_corrupt\":{},\
         \"contained_loss\":{},\"contained_corrupt\":{},\"dns_drop\":{},\
         \"dns_servfail\":{},\"dns_nxdomain\":{},\"c2_downtime_rate\":{},\
         \"c2_downtime_secs\":[{},{}],\"truncate_rate\":{},\"bitflip_rate\":{},\
         \"panic_rate\":{},\"link_jitter_rate\":{},\"link_jitter_ms\":[{},{}],\
         \"emu_short_rate\":{},\"emu_eintr_rate\":{},\"emu_enomem_rate\":{},\
         \"emu_fd_cap_rate\":{},\"emu_fd_cap\":[{},{}]}}",
        p.fault_seed,
        p.world_loss,
        p.world_corrupt,
        p.contained_loss,
        p.contained_corrupt,
        p.dns_drop,
        p.dns_servfail,
        p.dns_nxdomain,
        p.c2_downtime_rate,
        p.c2_downtime_secs.0,
        p.c2_downtime_secs.1,
        p.truncate_rate,
        p.bitflip_rate,
        p.panic_rate,
        p.link_jitter_rate,
        p.link_jitter_ms.0,
        p.link_jitter_ms.1,
        p.emu_short_rate,
        p.emu_eintr_rate,
        p.emu_enomem_rate,
        p.emu_fd_cap_rate,
        p.emu_fd_cap.0,
        p.emu_fd_cap.1,
    );
    s
}

fn main() {
    let (mut opts, fault_seed) = parse_chaos_args();
    if opts.samples == 1447 {
        opts.samples = 48; // CI-sized corpus; still hits every stage
    }
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: opts.samples,
        cal: Calibration::default(),
    });
    // Stream the chaos run's lifecycle (quarantine and chaos events
    // included) so CI can validate a fault-heavy event stream too.
    let events_path = std::path::Path::new("results/events_chaos.jsonl");
    let sink = malnet_telemetry::EventSink::create(events_path).expect("create event stream");
    let tel = Telemetry::enabled_with_events(sink);
    let fault_seed = fault_seed.unwrap_or(FAULT_SEED);
    let plan = FaultPlan::chaos(fault_seed);
    let popts = PipelineOpts {
        seed: opts.seed,
        parallelism: 2,
        max_samples: Some(opts.samples),
        faults: plan,
        syn_retries: 1,
        ..PipelineOpts::fast()
    };
    let (data, _vendors) = Pipeline::with_telemetry(popts, tel.clone()).run(&world);
    let report = tel.report();
    println!("wrote {} (live event stream)", events_path.display());
    println!(
        "chaos run done: {} samples profiled, {} quarantined, {} degradation rows, {} C2s",
        data.samples.len(),
        data.health.quarantined(),
        data.health.rows.len(),
        data.c2s.len()
    );

    // --- assemble malnet.health_report v1 ---
    let mut out = String::new();
    out.push_str("{\"schema\":\"malnet.health_report\",\"version\":1,");
    let _ = write!(
        out,
        "\"samples\":{},\"seed\":{},\"fault_seed\":{fault_seed},",
        opts.samples, opts.seed
    );
    let _ = write!(out, "\"fault_plan\":{},", fault_plan_json(&plan));
    let _ = write!(
        out,
        "\"profiled\":{},\"quarantined\":{},",
        data.samples.len(),
        data.health.quarantined()
    );
    out.push_str("\"rows\":[");
    for (i, r) in data.health.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ctx = r
            .fault_context
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            "{{\"sha256\":\"{}\",\"day\":{},\"kind\":\"{:?}\",\"detail\":\"{}\",\"fault_context\":[{ctx}]}}",
            json_escape(&r.sha256),
            r.day,
            r.kind,
            json_escape(&r.detail)
        );
    }
    out.push_str("],\"exit_counts\":{");
    for (i, (reason, n)) in data.health.exit_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", json_escape(reason));
    }
    out.push_str("},\"fault_counters\":{");
    for (i, name) in FAULT_COUNTERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{}", report.counter(name).unwrap_or(0));
    }
    out.push_str("}}");

    let path = std::path::Path::new("results/health_report.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, &out).expect("write health report");
    println!("wrote {} ({} bytes)", path.display(), out.len());

    // --- verification: re-read from disk, parse, check degradation ---
    let reread = std::fs::read_to_string(path).expect("re-read health report");
    let v = match json::parse(&reread) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: health report is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = Vec::new();
    if v.get("schema").and_then(|s| s.as_str()) != Some("malnet.health_report") {
        failures.push("schema field missing or wrong".to_string());
    }
    if v.get("version").and_then(|n| n.as_u64()) != Some(1) {
        failures.push("version field missing or wrong".to_string());
    }
    let quarantined = v.get("quarantined").and_then(|n| n.as_u64()).unwrap_or(0);
    if quarantined == 0 {
        failures.push("chaos run quarantined no samples (injection inert?)".to_string());
    }
    let profiled = v.get("profiled").and_then(|n| n.as_u64()).unwrap_or(0);
    if profiled == 0 {
        failures.push("chaos run profiled no samples (study degraded to nothing)".to_string());
    }
    let rows = v
        .get("rows")
        .and_then(|a| a.as_array())
        .map(<[_]>::len)
        .unwrap_or(0);
    if rows != data.health.rows.len() {
        failures.push(format!(
            "rows round-trip mismatch: wrote {}, re-read {rows}",
            data.health.rows.len()
        ));
    }
    if v.get("exit_counts").and_then(|o| o.get("exited")).is_none() {
        failures.push("exit_counts lost the healthy-exit tally".to_string());
    }
    for name in [
        "chaos.forced_panics",
        "netsim.dns_faults_injected",
        "chaos.emu_faults_injected",
    ] {
        if report.counter(name).unwrap_or(0) == 0 {
            failures.push(format!("fault counter {name:?} is zero — injection inert"));
        }
    }
    let echoed_seed = v
        .get("fault_plan")
        .and_then(|p| p.get("fault_seed"))
        .and_then(|n| n.as_u64());
    if echoed_seed != Some(fault_seed) {
        failures.push(format!(
            "fault_plan echo lost the seed: wrote {fault_seed}, re-read {echoed_seed:?}"
        ));
    }
    if v.get("fault_plan")
        .and_then(|p| p.get("emu_short_rate"))
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0)
        <= 0.0
    {
        failures.push("fault_plan echo lost the emulator rates".to_string());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "health report OK: {quarantined} quarantined, {rows} degradation rows, {} exit classes",
        data.health.exit_counts.len()
    );
    for r in &data.health.rows {
        println!(
            "  day {:>3} {:<16} {:?} {}",
            r.day,
            &r.sha256[..16.min(r.sha256.len())],
            r.kind,
            r.detail
        );
    }
}
