//! D-Health classification totality and ordering.
//!
//! Two contracts the degradation accounting must keep:
//!
//! * **totality** — every sandbox `ExitReason` variant has a defined
//!   exit class and D-Health classification, with and without injected
//!   emulator faults, and every `HealthKind` variant (including
//!   `EmuFault`) is reachable;
//! * **merge order** — D-Health rows are appended by the coordinator's
//!   B1 merge loop in `(day, sample-id)` order, so the section reads
//!   chronologically no matter how phase A was scheduled.

use malnet_botgen::world::{World, WorldConfig};
use malnet_core::chaos::FaultPlan;
use malnet_core::datasets::HealthKind;
use malnet_core::pipeline::{degraded_kind, exit_class, Pipeline, PipelineOpts};
use malnet_sandbox::ExitReason;

#[test]
fn every_exit_class_has_a_total_classification() {
    let exits = [
        ExitReason::Exited(0),
        ExitReason::Exited(7),
        ExitReason::Exited(127),
        ExitReason::Fault("unloadable ELF".to_string()),
        ExitReason::Fault("segfault @0x0".to_string()),
        ExitReason::Budget,
        ExitReason::Deadline,
    ];
    for exit in exits {
        // Exhaustive over the variants: a new one fails to compile here.
        let expected_class = match exit {
            ExitReason::Exited(_) => "exited",
            ExitReason::Fault(_) => "fault",
            ExitReason::Budget => "budget",
            ExitReason::Deadline => "deadline",
        };
        let class = exit_class(&exit);
        assert_eq!(class, expected_class, "{exit:?} misclassified");
        for emu_injected in [false, true] {
            let expected = match (class, emu_injected) {
                ("fault", true) | ("budget", true) => Some(HealthKind::EmuFault),
                ("fault", false) => Some(HealthKind::SandboxFault),
                ("budget", false) => Some(HealthKind::BudgetExhausted),
                ("exited", _) | ("deadline", _) => None,
                other => panic!("unhandled exit class {other:?}"),
            };
            assert_eq!(
                degraded_kind(&exit, emu_injected),
                expected,
                "degraded_kind({exit:?}, emu_injected={emu_injected}) drifted"
            );
        }
    }
}

/// Injected emulator faults reclassify only genuine degradation: a run
/// that exits cleanly or runs out the clock is never blamed on chaos.
#[test]
fn emu_faults_never_reclassify_healthy_exits() {
    assert_eq!(degraded_kind(&ExitReason::Exited(0), true), None);
    assert_eq!(degraded_kind(&ExitReason::Deadline, true), None);
    let fault = ExitReason::Fault("segfault @0x0".to_string());
    assert_eq!(degraded_kind(&fault, true), Some(HealthKind::EmuFault));
    assert_eq!(
        degraded_kind(&ExitReason::Budget, true),
        Some(HealthKind::EmuFault)
    );
}

/// D-Health rows arrive in `(day, sample-id)` merge order at every
/// parallelism level, and the order is identical across levels.
#[test]
fn health_rows_stay_in_merge_order_under_parallelism() {
    let world = World::generate(WorldConfig {
        seed: 909,
        n_samples: 40,
        ..WorldConfig::default()
    });
    let run = |par: usize| {
        let opts = PipelineOpts {
            seed: 909,
            parallelism: par,
            max_samples: Some(30),
            faults: FaultPlan::chaos(7),
            syn_retries: 1,
            ..PipelineOpts::fast()
        };
        Pipeline::new(opts).run(&world).0
    };
    let sample_idx = |sha: &str| {
        world
            .samples
            .iter()
            .position(|s| s.sha256 == sha)
            .unwrap_or_else(|| panic!("D-Health row for unknown sample {sha}"))
    };
    let base_rows = run(1).health.rows;
    assert!(
        base_rows.len() >= 2,
        "chaos run produced too few degradation rows to order-check"
    );
    let keys: Vec<(u32, usize)> = base_rows
        .iter()
        .map(|r| (r.day, sample_idx(&r.sha256)))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "D-Health rows out of (day, sample-id) order");
    for par in [2usize, 8] {
        assert_eq!(
            base_rows,
            run(par).health.rows,
            "D-Health rows diverged at parallelism={par}"
        );
    }
}
