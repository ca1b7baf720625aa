//! Command-line tests for `repro`, the one entry point for the paper's
//! tables and figures, and for the flags only some binaries take.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn bin")
}

/// A bad `--only` exits 2 before any study runs, so nothing reaches
/// stdout; an unknown name gets the list of valid ones.
#[test]
fn bad_only_exits_2_before_a_study() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--only", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("\"nope\""), "{err}");
    for name in malnet_bench::render::names() {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--fast", "--only"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--only needs a value"));
}

#[test]
fn only_prints_that_artefact_alone() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--only", "table5", "--samples", "4", "--fast"],
    );
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        malnet_bench::render::table5()
    );
}

/// `repro` takes `--only` out of argv itself; the common flags stay
/// strict, so no other bin accepts it.
#[test]
fn other_bins_reject_only() {
    let out = run(env!("CARGO_BIN_EXE_chaos_run"), &["--only", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// Only the chaos binaries read `--fault-seed`; the others reject it
/// before any study runs.
#[test]
fn bins_without_a_fault_plan_reject_fault_seed() {
    for bin in [
        env!("CARGO_BIN_EXE_repro"),
        env!("CARGO_BIN_EXE_run_report"),
        env!("CARGO_BIN_EXE_static_xval"),
    ] {
        let out = run(bin, &["--fault-seed", "9"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
        assert!(out.stdout.is_empty(), "{bin}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--fault-seed"), "{bin}: {err}");
    }
}
