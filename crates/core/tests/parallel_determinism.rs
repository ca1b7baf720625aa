//! Differential proof of the parallel pipeline's determinism.
//!
//! The contained-activation stage may fan out over worker threads
//! (`PipelineOpts::parallelism`), but the study's outputs must not
//! depend on scheduling. These tests run the same world through the
//! pipeline at parallelism 1 (the legacy sequential path), 2, 4 and 8,
//! across several master seeds, and require the canonical serializations
//! of both the datasets and the vendor-feed state to be byte-identical.
//!
//! Telemetry rides the same differential: an instrumented run
//! (`Pipeline::with_telemetry`) must produce the same bytes as an
//! uninstrumented one at every parallelism level, and the telemetry
//! *counters* themselves — being commutative atomic adds driven only by
//! simulation events — must agree across parallelism levels too.
//!
//! The day-shard axis (`PipelineOpts::day_shards`) joins the matrix at
//! the bottom of the file: splitting the study into mergeable day-range
//! epochs must be invisible in the datasets, the vendor state, and the
//! (wall-clock-masked) event stream.

use malnet_botgen::world::{World, WorldConfig};
use malnet_core::chaos::FaultPlan;
use malnet_core::pipeline::{Pipeline, PipelineOpts};
use malnet_telemetry::Telemetry;

/// A world small enough to run three times per seed in a test, with
/// enough samples per day that the parallel batches are non-trivial.
fn test_world(seed: u64) -> World {
    World::generate(WorldConfig {
        seed,
        n_samples: 40,
        ..WorldConfig::default()
    })
}

fn run_dumps_with(
    world: &World,
    seed: u64,
    parallelism: usize,
    tel: Telemetry,
) -> (String, String) {
    let opts = PipelineOpts {
        seed,
        parallelism,
        max_samples: Some(30),
        ..PipelineOpts::fast()
    };
    let (data, vendors) = Pipeline::with_telemetry(opts, tel).run(world);
    (data.canonical_dump(), vendors.canonical_dump())
}

fn run_dumps(world: &World, seed: u64, parallelism: usize) -> (String, String) {
    run_dumps_with(world, seed, parallelism, Telemetry::disabled())
}

/// Mask the digits after every `"<field>":` occurrence — for comparing
/// event streams across configurations that legitimately differ in a
/// wall-clock or echoed-config field.
fn mask_field(stream: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let mut out = String::with_capacity(stream.len());
    let mut rest = stream;
    while let Some(at) = rest.find(&needle) {
        let digits_at = at + needle.len();
        out.push_str(&rest[..digits_at]);
        out.push('X');
        rest = rest[digits_at..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Everything schedule- or config-variant in the stream: the day
/// rollup's `wall_us` (the stream's one wall-clock field) and
/// `study_start`'s echo of the configured parallelism and day-shard
/// count.
fn mask_variant_fields(stream: &str) -> String {
    mask_field(
        &mask_field(&mask_field(stream, "wall_us"), "parallelism"),
        "day_shards",
    )
}

/// The core differential: for each master seed, parallelism ∈ {1, 2, 4,
/// 8} produce byte-identical datasets and vendor state.
#[test]
fn parallelism_is_invisible_in_output() {
    for seed in [7u64, 22, 1009] {
        let world = test_world(seed);
        let (base_data, base_vendors) = run_dumps(&world, seed, 1);
        assert!(
            base_data.contains("== D-Samples =="),
            "dump looks malformed"
        );
        // The phase-0 static triage runs on every sample, so its rows
        // ride the same differential.
        let triage_rows = base_data
            .split("== D-Triage ==")
            .nth(1)
            .expect("D-Triage section present");
        assert!(!triage_rows.trim().is_empty(), "no triage records produced");
        for par in [2usize, 4, 8] {
            let (data, vendors) = run_dumps(&world, seed, par);
            assert_eq!(
                base_data, data,
                "datasets diverged at parallelism={par}, seed={seed}"
            );
            assert_eq!(
                base_vendors, vendors,
                "vendor state diverged at parallelism={par}, seed={seed}"
            );
        }
    }
}

/// Re-running the *same* configuration twice is also byte-stable (no
/// hidden global state, time, or address-based ordering anywhere).
#[test]
fn repeat_runs_are_byte_stable() {
    let world = test_world(501);
    let first = run_dumps(&world, 501, 4);
    let second = run_dumps(&world, 501, 4);
    assert_eq!(first, second);
}

/// A parallelism knob far larger than the batch is clamped to the batch
/// and still deterministic (workers simply find the queue drained).
#[test]
fn oversubscribed_parallelism_is_safe() {
    let world = test_world(90);
    let base = run_dumps(&world, 90, 1);
    let over = run_dumps(&world, 90, 64);
    assert_eq!(base, over);
}

/// Telemetry is provably inert: with instrumentation enabled, every
/// parallelism level in {1, 2, 8, 64} produces the same bytes as the
/// uninstrumented parallelism-1 baseline. This is the ISSUE's
/// acceptance differential — telemetry reads only the host monotonic
/// clock and atomic state of its own, never the sim clock or RNG, so
/// turning it on cannot perturb a single output byte.
#[test]
fn telemetry_is_inert_across_parallelism() {
    let seed = 4242;
    let world = test_world(seed);
    let baseline = run_dumps_with(&world, seed, 1, Telemetry::disabled());
    for par in [1usize, 2, 8, 64] {
        let instrumented = run_dumps_with(&world, seed, par, Telemetry::enabled());
        assert_eq!(
            baseline, instrumented,
            "telemetry perturbed output at parallelism={par}"
        );
    }
}

/// The phase-B acceptance matrix: parallelism {1, 2, 8, 64} ×
/// fault plan {none, fixed-seed chaos} × telemetry {off, on} — every
/// cell of a fault arm produces the bytes of that arm's sequential,
/// uninstrumented baseline. This is the differential that pins the
/// phase-B split (restricted sessions and prober rounds fanning out
/// over detached networks) to the canonical sequential semantics.
#[test]
fn phase_b_matrix_is_byte_identical() {
    let seed = 6060;
    let world = test_world(seed);
    for plan in [FaultPlan::none(), FaultPlan::chaos(11)] {
        let run = |par: usize, tel: Telemetry| {
            let opts = PipelineOpts {
                seed,
                parallelism: par,
                max_samples: Some(12),
                faults: plan,
                ..PipelineOpts::fast()
            };
            let (data, vendors) = Pipeline::with_telemetry(opts, tel).run(&world);
            (data.canonical_dump(), vendors.canonical_dump())
        };
        let baseline = run(1, Telemetry::disabled());
        // Phase B actually has parallel work to disagree on: the run
        // discovered C2s (restricted-session jobs) and probed servers.
        assert!(
            baseline.0.contains("== D-C2s ==") && !baseline.0.is_empty(),
            "matrix baseline looks degenerate"
        );
        for par in [1usize, 2, 8, 64] {
            for instrumented in [false, true] {
                if par == 1 && !instrumented {
                    continue; // that cell *is* the baseline
                }
                let tel = if instrumented {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let cell = run(par, tel);
                assert_eq!(
                    baseline,
                    cell,
                    "phase-B matrix diverged at parallelism={par}, \
                     telemetry={instrumented}, chaos={}",
                    !plan.is_none()
                );
            }
        }
    }
}

/// The block-engine axis: the block-cached MIPS interpreter (the
/// default) is an observationally exact replacement for the stepping
/// oracle, so parallelism {1, 2, 8, 64} × chaos {none, fixed-seed} ×
/// block-engine {off, on} all produce the bytes of the sequential
/// oracle baseline. This is what lets the speedup default to ON without
/// an accuracy asterisk anywhere in the study.
#[test]
fn block_engine_matrix_is_byte_identical() {
    let seed = 4141;
    let world = test_world(seed);
    for plan in [FaultPlan::none(), FaultPlan::chaos(23)] {
        let run = |par: usize, block: bool| {
            let opts = PipelineOpts {
                seed,
                parallelism: par,
                max_samples: Some(12),
                faults: plan,
                block_engine: block,
                ..PipelineOpts::fast()
            };
            let (data, vendors) = Pipeline::new(opts).run(&world);
            (data.canonical_dump(), vendors.canonical_dump())
        };
        // Baseline: sequential, legacy stepping interpreter.
        let baseline = run(1, false);
        assert!(
            baseline.0.contains("== D-Samples ==") && !baseline.0.is_empty(),
            "matrix baseline looks degenerate"
        );
        for par in [1usize, 2, 8, 64] {
            for block in [false, true] {
                if par == 1 && !block {
                    continue; // that cell *is* the baseline
                }
                let cell = run(par, block);
                assert_eq!(
                    baseline,
                    cell,
                    "block-engine matrix diverged at parallelism={par}, \
                     block_engine={block}, chaos={}",
                    !plan.is_none()
                );
            }
        }
    }
}

/// Faults-off ≡ seed bytes: a `FaultPlan` whose rates are all zero —
/// even with a non-zero `fault_seed` — draws no randomness and perturbs
/// nothing, so the run is byte-identical to the chaos-unaware baseline
/// at every parallelism level.
#[test]
fn empty_fault_plan_is_invisible() {
    let seed = 2024;
    let world = test_world(seed);
    let baseline = run_dumps(&world, seed, 1);
    for par in [1usize, 2, 8, 64] {
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            max_samples: Some(30),
            faults: FaultPlan {
                fault_seed: 99,
                ..FaultPlan::none()
            },
            ..PipelineOpts::fast()
        };
        let (data, vendors) = Pipeline::new(opts).run(&world);
        assert_eq!(
            baseline,
            (data.canonical_dump(), vendors.canonical_dump()),
            "empty fault plan changed bytes at parallelism={par}"
        );
    }
}

/// The emulator fault domain at rate zero is invisible: an `emu_sweep`
/// plan at intensity 0.0 — fault seed set, every rate zero — is exactly
/// `FaultPlan::none()` plus a seed, draws no RNG anywhere (including
/// inside the sandbox's syscall layer), and reproduces the chaos-unaware
/// baseline's bytes across parallelism {1, 2, 8, 64} × block-engine
/// {off, on}.
#[test]
fn emu_fault_domain_is_inert_at_zero_rates() {
    let seed = 3131;
    let world = test_world(seed);
    let run = |par: usize, block: bool, plan: FaultPlan| {
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            max_samples: Some(20),
            faults: plan,
            block_engine: block,
            ..PipelineOpts::fast()
        };
        let (data, vendors) = Pipeline::new(opts).run(&world);
        (data.canonical_dump(), vendors.canonical_dump())
    };
    let baseline = run(1, true, FaultPlan::none());
    let zero = FaultPlan::emu_sweep(77, 0.0);
    assert!(zero.is_none(), "intensity 0.0 should be the empty plan");
    for par in [1usize, 2, 8, 64] {
        for block in [false, true] {
            assert_eq!(
                baseline,
                run(par, block, zero),
                "zero-rate emu plan changed bytes at parallelism={par}, \
                 block_engine={block}"
            );
        }
    }
}

/// The emulator fault axis of the determinism matrix: a fixed-seed,
/// emulator-only plan (syscall-boundary short I/O, EINTR, ENOMEM,
/// fd-cap squeeze — no world-side chaos at all) produces byte-identical
/// datasets and vendor state across parallelism {1, 2, 8, 64} ×
/// block-engine {off, on}, because every injection decision is a pure
/// function of `(fault_seed, day, sample, syscall-index)` and the
/// guest's syscall stream is itself deterministic. And the plan is not
/// a no-op: the faulted run's bytes differ from the chaos-free
/// baseline's.
#[test]
fn emu_fault_matrix_is_byte_identical() {
    let seed = 5252;
    let world = test_world(seed);
    let plan = FaultPlan::emu_sweep(9, 1.0);
    let run = |par: usize, block: bool| {
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            max_samples: Some(20),
            faults: plan,
            block_engine: block,
            ..PipelineOpts::fast()
        };
        let (data, vendors) = Pipeline::new(opts).run(&world);
        (data, vendors)
    };
    // Baseline: sequential, legacy stepping interpreter, faults armed.
    // Run it with telemetry to prove the sub-plans really reached the
    // sandbox (telemetry is observation-only; a sibling test pins that).
    let tel = Telemetry::enabled();
    let (base_data, base_vendors) = {
        let opts = PipelineOpts {
            seed,
            parallelism: 1,
            max_samples: Some(20),
            faults: plan,
            block_engine: false,
            ..PipelineOpts::fast()
        };
        Pipeline::with_telemetry(opts, tel.clone()).run(&world)
    };
    let baseline = (base_data.canonical_dump(), base_vendors.canonical_dump());
    assert!(
        tel.report()
            .counter("chaos.emu_faults_injected")
            .unwrap_or(0)
            > 0,
        "no emulator faults injected — sub-plans never reached the sandbox"
    );
    for par in [1usize, 2, 8, 64] {
        for block in [false, true] {
            if par == 1 && !block {
                continue; // that cell *is* the baseline
            }
            let (data, vendors) = run(par, block);
            assert_eq!(
                baseline,
                (data.canonical_dump(), vendors.canonical_dump()),
                "emu fault matrix diverged at parallelism={par}, block_engine={block}"
            );
        }
    }
    // Not a no-op: the same study without the plan reads differently.
    let clean = {
        let opts = PipelineOpts {
            seed,
            parallelism: 1,
            max_samples: Some(20),
            ..PipelineOpts::fast()
        };
        let (data, _) = Pipeline::new(opts).run(&world);
        data.canonical_dump()
    };
    assert_ne!(
        clean, baseline.0,
        "full-intensity emu faults left the datasets untouched"
    );
}

/// The chaos differential: with a fixed fault seed the study (1) always
/// completes instead of aborting, (2) produces well-formed datasets,
/// (3) quarantines at least one injected failure into D-Health, and
/// (4) is byte-identical across parallelism {1, 2, 8, 64}.
#[test]
fn chaos_runs_are_deterministic_and_complete() {
    let seed = 909;
    let world = test_world(seed);
    let run = |par: usize| {
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            max_samples: Some(30),
            faults: FaultPlan::chaos(7),
            syn_retries: 1,
            ..PipelineOpts::fast()
        };
        Pipeline::new(opts).run(&world)
    };
    let (base_data, base_vendors) = run(1);
    let base = base_data.canonical_dump();
    // Well-formed: every section header present, in canonical order.
    let mut at = 0;
    for header in [
        "== D-Samples ==",
        "== D-C2s ==",
        "== D-PC2 ==",
        "== D-Exploits ==",
        "== D-DDOS ==",
        "== D-Health ==",
        "== D-Triage ==",
    ] {
        let pos = base[at..]
            .find(header)
            .unwrap_or_else(|| panic!("chaos dump lost section {header}"));
        at += pos;
    }
    // Degradation is visible, and the study still produced data.
    assert!(
        base_data.health.quarantined() >= 1,
        "chaos run quarantined nothing: {:?}",
        base_data.health
    );
    assert!(!base_data.health.exit_counts.is_empty());
    assert!(
        !base_data.samples.is_empty(),
        "chaos run profiled no samples at all"
    );
    for par in [2usize, 8, 64] {
        let (data, vendors) = run(par);
        assert_eq!(
            base,
            data.canonical_dump(),
            "chaos datasets diverged at parallelism={par}"
        );
        assert_eq!(
            base_vendors.canonical_dump(),
            vendors.canonical_dump(),
            "chaos vendor state diverged at parallelism={par}"
        );
    }
    // And the plan actually perturbed the run.
    let clean = run_dumps(&world, seed, 1);
    assert_ne!(clean.0, base, "chaos plan left the datasets untouched");
}

/// Regression for the old abort-on-panic behaviour: a forced phase-A
/// worker panic must quarantine only its own sample — every other
/// sample of the day is still profiled and lands in D-Samples.
#[test]
fn phase_a_panic_no_longer_aborts_the_run() {
    let seed = 31;
    let world = test_world(seed);
    let opts = PipelineOpts {
        seed,
        parallelism: 4,
        max_samples: Some(30),
        faults: FaultPlan {
            fault_seed: 5,
            panic_rate: 0.3,
            ..FaultPlan::none()
        },
        ..PipelineOpts::fast()
    };
    let (data, _) = Pipeline::new(opts).run(&world);
    let quarantined = data.health.quarantined();
    assert!(
        quarantined >= 1,
        "panic_rate=0.3 over 30 samples forced no panic"
    );
    assert!(
        !data.samples.is_empty(),
        "a worker panic still takes out the whole study"
    );
    // Conservation: every analyzed sample either was profiled or sits in
    // quarantine — none silently vanished.
    assert_eq!(data.samples.len() + quarantined, 30);
    for row in &data.health.rows {
        assert!(
            row.detail.contains("chaos: forced"),
            "unexpected row {row:?}"
        );
        assert_eq!(row.fault_context, vec!["forced worker panic".to_string()]);
    }
}

/// Even under heavy link faults, the sandbox's capture artifacts stay
/// parseable: corruption is injected *semantically* (payload bytes) so
/// the pcap container itself never breaks.
#[test]
fn chaos_pcaps_stay_parseable() {
    use malnet_netsim::net::Network;
    use malnet_netsim::time::{SimDuration, SimTime};
    use malnet_sandbox::{AnalysisMode, Sandbox, SandboxConfig};

    let world = test_world(64);
    for (i, sample) in world.samples.iter().take(8).enumerate() {
        let mut net = Network::new(SimTime::from_day(0, 0), 900 + i as u64);
        net.faults.loss = 0.3;
        net.faults.corrupt = 0.4;
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                bot_ip: std::net::Ipv4Addr::new(100, 64, 0, 2),
                mode: AnalysisMode::Contained,
                handshaker_threshold: Some(5),
                instruction_budget: 100_000_000,
                seed: 77 + i as u64,
                ..Default::default()
            },
        );
        let art = sb.execute(&sample.elf, SimDuration::from_secs(60));
        let parsed = malnet_wire::pcap::parse_capture(&art.pcap);
        assert!(
            parsed.is_ok(),
            "sample {i}: capture unparseable under faults: {parsed:?}"
        );
    }
}

/// The telemetry counters themselves are schedule-independent: every
/// counter driven by simulation events (samples activated, C2s
/// detected, packets delivered, instructions retired, ...) totals the
/// same at parallelism 1 and 8. Only wall-clock span durations may
/// differ between runs.
#[test]
fn telemetry_counters_are_parallelism_invariant() {
    let seed = 77;
    let world = test_world(seed);
    let mut reports = Vec::new();
    for par in [1usize, 8] {
        let tel = Telemetry::enabled();
        run_dumps_with(&world, seed, par, tel.clone());
        reports.push(tel.report());
    }
    let (seq, par) = (&reports[0], &reports[1]);
    assert!(
        !seq.counters.is_empty(),
        "instrumented run recorded nothing"
    );
    assert_eq!(
        seq.counters, par.counters,
        "counter totals diverged between parallelism 1 and 8"
    );
    // Histogram *contents* (bucket populations, not timings) must agree too.
    assert_eq!(seq.histograms.len(), par.histograms.len());
    for (a, b) in seq.histograms.iter().zip(&par.histograms) {
        assert_eq!(a, b, "histogram {} diverged across parallelism", a.name);
    }
    // Per-day rollups are emitted by the sequential coordinator and carry
    // a wall-time field; compare everything but that.
    assert_eq!(seq.rollups.len(), par.rollups.len());
    let strip = |fields: &[(String, u64)]| {
        fields
            .iter()
            .filter(|(k, _)| k != "wall_us")
            .cloned()
            .collect::<Vec<_>>()
    };
    for ((ak, af), (bk, bf)) in seq.rollups.iter().zip(&par.rollups) {
        assert_eq!(ak, bk);
        assert_eq!(strip(af), strip(bf), "rollup {ak} diverged");
    }
}

/// The event-streaming axis: attaching a `malnet.events` sink is
/// provably inert — parallelism {1, 2, 8, 64} × chaos {none, fixed}
/// with the sink attached all reproduce the sink-less sequential
/// baseline's bytes — and the stream itself upholds the consistency
/// contract: it validates structurally and its fold reconstructs the
/// final report's counters and rollup rows exactly. Because every event
/// is emitted at a coordinator sync point from deterministic state, the
/// stream is also byte-identical across parallelism levels once its two
/// variant fields are masked: the day rollup's `wall_us` (wall clock)
/// and `study_start`'s echo of the configured parallelism.
#[test]
fn event_streaming_is_inert_and_foldable() {
    use malnet_telemetry::events::{fold_matches_report, validate_stream};
    use malnet_telemetry::EventSink;

    let seed = 8181;
    let world = test_world(seed);
    for plan in [FaultPlan::none(), FaultPlan::chaos(17)] {
        let run = |par: usize, tel: Telemetry| {
            let opts = PipelineOpts {
                seed,
                parallelism: par,
                max_samples: Some(12),
                faults: plan,
                ..PipelineOpts::fast()
            };
            let (data, vendors) = Pipeline::with_telemetry(opts, tel).run(&world);
            (data.canonical_dump(), vendors.canonical_dump())
        };
        let baseline = run(1, Telemetry::disabled());
        assert!(
            baseline.0.contains("== D-Health =="),
            "baseline dump lacks the health section the stream narrates"
        );
        let mut masked_streams: Vec<String> = Vec::new();
        let mut folded_reports = Vec::new();
        for par in [1usize, 2, 8, 64] {
            let sink = EventSink::in_memory();
            let tel = Telemetry::enabled_with_events(sink.clone());
            let cell = run(par, tel.clone());
            assert_eq!(
                baseline,
                cell,
                "event streaming perturbed output at parallelism={par}, chaos={}",
                !plan.is_none()
            );
            let stream = sink.contents().expect("in-memory sink");
            let summary = validate_stream(&stream)
                .unwrap_or_else(|e| panic!("invalid stream at parallelism={par}: {e}"));
            let report = tel.report();
            fold_matches_report(&summary, &report)
                .unwrap_or_else(|e| panic!("fold mismatch at parallelism={par}: {e}"));
            if !plan.is_none() {
                assert!(
                    summary.chaos_events > 0,
                    "chaos run streamed no chaos events"
                );
            }
            masked_streams.push(mask_variant_fields(&stream));
            let rollups_no_wall: Vec<(String, Vec<(String, u64)>)> = summary
                .rollups
                .into_iter()
                .map(|(key, fields)| {
                    (
                        key,
                        fields.into_iter().filter(|(n, _)| n != "wall_us").collect(),
                    )
                })
                .collect();
            folded_reports.push((summary.final_counters, rollups_no_wall));
        }
        for (i, stream) in masked_streams.iter().enumerate().skip(1) {
            assert_eq!(
                &masked_streams[0],
                stream,
                "event stream (wall_us masked) diverged between parallelism 1 \
                 and {}, chaos={}",
                [1usize, 2, 8, 64][i],
                !plan.is_none()
            );
            assert_eq!(&folded_reports[0], &folded_reports[i]);
        }
    }
}

/// The day-epoch acceptance matrix: day-shards {1, 2, 4, 8} ×
/// parallelism {1, 8} × fault plan {none, fixed-seed chaos} — every
/// cell produces the bytes of that fault arm's unsharded, sequential
/// baseline. This is the headline differential of the epoch refactor:
/// splitting the study into mergeable day-range epochs (each carrying
/// its own vendor-knowledge delta and C2 tracking residue, stitched by
/// the deterministic reduce) must be invisible in every dataset and
/// vendor-state byte, including liveness transitions that straddle an
/// epoch boundary.
#[test]
fn day_shard_matrix_is_byte_identical() {
    let seed = 7272;
    let world = test_world(seed);
    for plan in [FaultPlan::none(), FaultPlan::chaos(29)] {
        let run = |shards: usize, par: usize| {
            let opts = PipelineOpts {
                seed,
                parallelism: par,
                day_shards: shards,
                max_samples: Some(24),
                faults: plan,
                ..PipelineOpts::fast()
            };
            let (data, vendors) = Pipeline::new(opts).run(&world);
            (data.canonical_dump(), vendors.canonical_dump())
        };
        let baseline = run(1, 1);
        // The matrix must have cross-day state to disagree on: tracked
        // C2s with observed live days, spread over several study days.
        assert!(
            baseline.0.contains("== D-C2s ==") && baseline.0.contains("live_days"),
            "baseline has no liveness tracking to stitch"
        );
        for shards in [1usize, 2, 4, 8] {
            for par in [1usize, 8] {
                if shards == 1 && par == 1 {
                    continue; // that cell *is* the baseline
                }
                let cell = run(shards, par);
                assert_eq!(
                    baseline,
                    cell,
                    "day-shard matrix diverged at day_shards={shards}, \
                     parallelism={par}, chaos={}",
                    !plan.is_none()
                );
            }
        }
    }
}

/// The epoch-sharded event stream upholds the same contracts as the
/// unsharded one: it validates structurally, its fold reconstructs the
/// final report's counters and rollup rows exactly
/// (`fold_matches_report`), and — with the wall-clock and echoed-config
/// fields masked — the stream is byte-identical across day-shard and
/// parallelism choices, because every day event is emitted by the
/// reduce's chronological fold from recorded per-day deltas.
#[test]
fn epoch_sharded_stream_is_foldable_and_shard_invariant() {
    use malnet_telemetry::events::{fold_matches_report, validate_stream};
    use malnet_telemetry::EventSink;

    let seed = 9393;
    let world = test_world(seed);
    let run = |shards: usize, par: usize| {
        let sink = EventSink::in_memory();
        let tel = Telemetry::enabled_with_events(sink.clone());
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            day_shards: shards,
            max_samples: Some(24),
            ..PipelineOpts::fast()
        };
        let (data, vendors) = Pipeline::with_telemetry(opts, tel.clone()).run(&world);
        let stream = sink.contents().expect("in-memory sink");
        (
            stream,
            tel.report(),
            (data.canonical_dump(), vendors.canonical_dump()),
        )
    };
    let (base_stream, base_report, base_dumps) = run(1, 1);
    let base_summary = validate_stream(&base_stream).expect("baseline stream invalid");
    fold_matches_report(&base_summary, &base_report).expect("baseline fold mismatch");
    assert!(
        base_summary.days.len() > 2,
        "study too short to exercise epoch boundaries"
    );
    for shards in [2usize, 8] {
        for par in [1usize, 8] {
            let (stream, report, dumps) = run(shards, par);
            let summary = validate_stream(&stream).unwrap_or_else(|e| {
                panic!("invalid stream at day_shards={shards}, parallelism={par}: {e}")
            });
            fold_matches_report(&summary, &report).unwrap_or_else(|e| {
                panic!("fold mismatch at day_shards={shards}, parallelism={par}: {e}")
            });
            assert_eq!(base_dumps, dumps, "dumps diverged at day_shards={shards}");
            assert_eq!(
                mask_variant_fields(&base_stream),
                mask_variant_fields(&stream),
                "masked stream diverged at day_shards={shards}, parallelism={par}"
            );
        }
    }
}

/// Three work counters are functions of the simulation alone:
/// `sandbox.idle_steps_skipped` counts the polling steps blocking
/// `connect`/`recv` calls skipped because nothing was due in them,
/// `netsim.hosts_built` counts the world hosts built on first touch, and
/// `prober.dark_syns` counts the sweep SYNs settled at send. Each is
/// non-zero and identical at every parallelism × day-shard
/// cell, with and without an event sink, while the datasets stay those
/// of the uninstrumented baseline.
#[test]
fn idle_step_counter_is_schedule_invariant() {
    use malnet_telemetry::EventSink;

    const COUNTERS: [&str; 3] = [
        "sandbox.idle_steps_skipped",
        "netsim.hosts_built",
        "prober.dark_syns",
    ];
    let seed = 6161;
    let world = test_world(seed);
    let run = |shards: usize, par: usize, tel: Telemetry| {
        let opts = PipelineOpts {
            seed,
            parallelism: par,
            day_shards: shards,
            max_samples: Some(24),
            ..PipelineOpts::fast()
        };
        let (data, vendors) = Pipeline::with_telemetry(opts, tel).run(&world);
        (data.canonical_dump(), vendors.canonical_dump())
    };
    let baseline = run(1, 1, Telemetry::disabled());
    let mut counts = Vec::new();
    for (shards, par, sink) in [
        (1usize, 1usize, false),
        (1, 8, true),
        (2, 1, true),
        (2, 8, false),
        (8, 1, false),
        (8, 8, true),
    ] {
        let tel = if sink {
            Telemetry::enabled_with_events(EventSink::in_memory())
        } else {
            Telemetry::enabled()
        };
        assert_eq!(
            baseline,
            run(shards, par, tel.clone()),
            "instrumented run diverged at day_shards={shards}, parallelism={par}"
        );
        let report = tel.report();
        counts.push(COUNTERS.map(|c| report.counter(c).unwrap_or(0)));
    }
    for (i, counter) in COUNTERS.iter().enumerate() {
        assert!(counts[0][i] > 0, "{counter} is zero: {counts:?}");
    }
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "a work counter varies with the schedule ({COUNTERS:?}): {counts:?}"
    );
}
