//! Integration coverage for the instrumented pipeline.
//!
//! Runs the `fast()` study with telemetry enabled and checks the run
//! report names every stage the pipeline claims to instrument, that the
//! JSON serialization round-trips through `malnet_telemetry::json`, and
//! that a worker panic in the phase-A fan-out is quarantined into its
//! own batch slot instead of aborting the batch.

use malnet_botgen::world::{World, WorldConfig};
use malnet_core::pipeline::{run_contained_batch, Pipeline, PipelineOpts};
use malnet_telemetry::{json, Telemetry};

fn test_world(seed: u64, n_samples: usize) -> World {
    World::generate(WorldConfig {
        seed,
        n_samples,
        ..WorldConfig::default()
    })
}

/// Every stage span and counter the full study must populate: the one
/// list of the stages the pipeline instruments, so a new stage span or
/// counter belongs here.
#[test]
fn run_report_covers_every_stage() {
    let world = test_world(11, 48);
    let tel = Telemetry::enabled();
    let opts = PipelineOpts {
        seed: 11,
        parallelism: 2,
        max_samples: Some(48),
        ..PipelineOpts::fast()
    };
    Pipeline::with_telemetry(opts, tel.clone()).run(&world);
    let report = tel.report();

    for span in [
        "pipeline.run",
        "pipeline.epoch",
        "pipeline.day",
        "pipeline.phase_a",
        "pipeline.phase_b",
        "pipeline.contained_sample",
        "pipeline.static_triage",
        "pipeline.merge",
        "pipeline.restricted_session",
        "pipeline.ddos_eavesdrop",
        "pipeline.reduce",
        "pipeline.liveness_sweep",
        "pipeline.liveness_probe",
        "pipeline.probing",
        "pipeline.late_query",
        "prober.round",
        "sandbox.exec",
    ] {
        let s = report
            .span(span)
            .unwrap_or_else(|| panic!("missing span {span:?}"));
        assert!(s.calls > 0, "span {span:?} never entered");
        assert!(s.self_us <= s.total_us, "span {span:?} self > total");
    }

    // Span-tree nesting: worker spans must land *under* their
    // coordinator phase span, not as top-level siblings — the bug was
    // that crossing the fan-out thread boundary dropped the parent.
    for (span, parent) in [
        ("pipeline.epoch", "pipeline.run"),
        ("pipeline.day", "pipeline.epoch"),
        ("pipeline.phase_a", "pipeline.day"),
        ("pipeline.phase_b", "pipeline.day"),
        ("pipeline.contained_sample", "pipeline.phase_a"),
        ("pipeline.merge", "pipeline.phase_b"),
        ("pipeline.restricted_session", "pipeline.phase_b"),
        ("pipeline.ddos_eavesdrop", "pipeline.phase_b"),
        ("pipeline.reduce", "pipeline.run"),
        ("pipeline.liveness_sweep", "pipeline.reduce"),
        ("pipeline.liveness_probe", "pipeline.liveness_sweep"),
        ("pipeline.probing", "pipeline.run"),
        ("prober.round", "pipeline.probing"),
    ] {
        let s = report
            .span(span)
            .unwrap_or_else(|| panic!("missing span {span:?}"));
        assert_eq!(
            s.parent.as_deref(),
            Some(parent),
            "span {span:?} is not nested under {parent:?}"
        );
    }
    // And the re-attached child time is actually credited: the phase
    // spans spend most of their time inside worker spans, so their self
    // time must be strictly below their total.
    for phase in ["pipeline.phase_a", "pipeline.phase_b"] {
        let s = report.span(phase).unwrap();
        assert!(
            s.self_us < s.total_us,
            "{phase}: worker child time was not credited (self {} >= total {})",
            s.self_us,
            s.total_us
        );
    }
    for counter in [
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
    ] {
        let v = report
            .counter(counter)
            .unwrap_or_else(|| panic!("missing counter {counter:?}"));
        assert!(v > 0, "counter {counter:?} is zero");
    }
    let hist = report
        .histogram("sandbox.instructions_per_run")
        .expect("instructions histogram");
    assert_eq!(
        hist.count,
        report.counter("sandbox.runs").unwrap(),
        "one histogram observation per sandbox run"
    );
    assert!(!report.rollups.is_empty(), "no per-day rollups");

    // The serialized report is valid, versioned JSON.
    let v = json::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("malnet.run_report")
    );
    assert_eq!(v.get("version").and_then(|n| n.as_u64()), Some(1));
}

/// A panicking contained run must be quarantined into its own batch
/// slot — the other samples' outcomes are unaffected and the batch does
/// not abort (and must not die as a `PoisonError` on the slot mutex).
#[test]
fn phase_a_panic_is_quarantined_per_sample() {
    let world = test_world(5, 8);
    let opts = PipelineOpts {
        seed: 5,
        parallelism: 4,
        ..PipelineOpts::fast()
    };
    // An out-of-range sample id makes exactly one worker's run panic.
    let batch = vec![0usize, 1, 9999, 2];
    let tel = Telemetry::disabled();
    let outcomes = run_contained_batch(&world, &opts, 3, &batch, &tel);
    assert_eq!(outcomes.len(), batch.len());
    for (i, out) in outcomes.iter().enumerate() {
        if batch[i] == 9999 {
            let q = out.as_ref().expect_err("bad sample id must quarantine");
            assert_eq!(q.sample_id, 9999);
            assert!(
                !q.detail.is_empty(),
                "quarantine detail must carry the panic"
            );
        } else {
            let ok = out
                .as_ref()
                .unwrap_or_else(|q| panic!("sample {} quarantined: {q:?}", batch[i]));
            assert_eq!(ok.sample_id, batch[i]);
        }
    }

    // The sequential path (parallelism 1) reports identically.
    let opts_seq = PipelineOpts {
        parallelism: 1,
        ..opts
    };
    let seq = run_contained_batch(&world, &opts_seq, 3, &batch, &tel);
    assert_eq!(
        seq, outcomes,
        "quarantine outcomes differ across parallelism"
    );
}
