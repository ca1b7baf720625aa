//! Cross-validate the static triage against the dynamic pipeline.
//!
//! Runs the `fast()` pipeline, scores its D-Triage static C2 candidates
//! against the dynamically observed per-sample C2 addresses
//! (`malnet_core::eval::static_cross_validation`), writes
//! `results/static_report.json` (schema `malnet.static_report` v1:
//! per-family precision/recall plus overall) through [`write_artifact`],
//! and checks it. Exits 1 if the artifact does not read back, or if the
//! static pass recovered < 90% of the hardcoded-IP C2s the sandbox
//! observed — the acceptance bar for endpoint extraction "without
//! executing an instruction".
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin static_xval -- [--samples N] [--seed S]`

use malnet_bench::{exit_on_failures, parse_args, write_artifact};
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::eval::{static_cross_validation, XvalScore};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_xray::report::json_escape;

/// Minimum acceptable recall of hardcoded-IP C2s (percent).
const IP_RECALL_BAR: f64 = 90.0;

fn score_json(s: &XvalScore) -> String {
    format!(
        "{{\"family\":\"{}\",\"samples\":{},\"static_candidates\":{},\"dynamic_c2s\":{},\
         \"agreed\":{},\"dynamic_ips\":{},\"ip_agreed\":{},\"precision\":{:.2},\
         \"recall\":{:.2},\"ip_recall\":{:.2}}}",
        json_escape(&s.family),
        s.samples,
        s.static_candidates,
        s.dynamic_c2s,
        s.agreed,
        s.dynamic_ips,
        s.ip_agreed,
        s.precision(),
        s.recall(),
        s.ip_recall()
    )
}

fn main() {
    let opts = parse_args();
    let samples = opts.samples.unwrap_or(48); // CI-sized corpus; still hits every family
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: samples,
        cal: Calibration::default(),
    });
    let popts = PipelineOpts {
        seed: opts.seed,
        parallelism: 2,
        max_samples: Some(samples),
        ..PipelineOpts::fast()
    };
    let (data, _vendors) = Pipeline::new(popts).run(&world);
    println!(
        "pipeline done: {} samples, {} triage records, {} C2s",
        data.samples.len(),
        data.triage.len(),
        data.c2s.len()
    );

    let xval = static_cross_validation(&data);
    print!("{xval}");

    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"version\":{},\"seed\":{},\"samples\":{},",
        malnet_xray::SCHEMA,
        malnet_xray::VERSION,
        opts.seed,
        data.samples.len()
    ));
    out.push_str("\"per_family\":[");
    for (i, s) in xval.per_family.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&score_json(s));
    }
    out.push_str("],\"overall\":");
    out.push_str(&score_json(&xval.overall));
    out.push('}');

    let mut failures = Vec::new();
    let path = std::path::Path::new("results/static_report.json");
    match write_artifact(path, &out, malnet_xray::SCHEMA, malnet_xray::VERSION) {
        Err(e) => failures.push(e),
        Ok(v) => {
            if v.get("per_family")
                .and_then(|a| a.as_array())
                .is_none_or(<[_]>::is_empty)
            {
                failures.push("per_family missing or empty".to_string());
            }
        }
    }
    let overall = &xval.overall;
    if overall.samples == 0 || overall.dynamic_ips == 0 {
        failures.push("nothing to cross-validate (no triaged samples with dynamic IP C2s)".into());
    }
    if overall.ip_recall() < IP_RECALL_BAR {
        failures.push(format!(
            "hardcoded-IP C2 recall {:.1}% below the {IP_RECALL_BAR}% bar \
             ({} of {} dynamic IPs recovered statically)",
            overall.ip_recall(),
            overall.ip_agreed,
            overall.dynamic_ips
        ));
    }
    exit_on_failures(&failures);
    println!(
        "static xval OK: ip-recall {:.1}% (bar {IP_RECALL_BAR}%), precision {:.1}%, recall {:.1}%",
        overall.ip_recall(),
        overall.precision(),
        overall.recall()
    );
}
