//! Run `malnet-lint` over the workspace and emit the CI artifact.
//!
//! This is the determinism/robustness gate: the token-aware rule set in
//! `malnet-lint` (wall-clock reads, hash-ordered iteration feeding
//! serialized output, unjustified panic sites, computed wire indexing,
//! seed-domain discipline, stale suppressions — see `crates/lint` and
//! DESIGN.md §static analysis) runs over every `.rs` file, writes the
//! versioned `malnet.lint_report` v1 artifact to
//! `results/lint_report.json` through [`write_artifact`], checks that
//! the written report says what this process observed, and exits 1
//! listing every violation.
//!
//! Usage: `cargo run -p malnet-bench --bin lint_report` from the
//! workspace root.

use std::path::Path;

use malnet_bench::{exit_on_failures, write_artifact};
use malnet_lint::report::{SCHEMA, VERSION};

fn main() {
    let root = std::env::current_dir().expect("cwd");
    let lint = malnet_lint::lint_workspace(&root);
    if lint.files_scanned == 0 {
        eprintln!(
            "FAIL: no .rs files found under {} — run from the workspace root",
            root.display()
        );
        std::process::exit(1);
    }

    // A report that cannot be read back, or that says something other
    // than what this process observed, is worse than no report:
    // downstream tooling would trust it.
    let mut failures = Vec::new();
    let out_path = Path::new("results/lint_report.json");
    match write_artifact(out_path, &lint.to_json(), SCHEMA, u64::from(VERSION)) {
        Err(e) => failures.push(e),
        Ok(v) => {
            let len = |k: &str| v.get(k).and_then(|x| x.as_array()).map(<[_]>::len);
            if v.get("files_scanned").and_then(|x| x.as_u64()) != Some(lint.files_scanned as u64) {
                failures.push("files_scanned mismatch".to_string());
            }
            if len("violations") != Some(lint.findings.len()) {
                failures.push("violations mismatch".to_string());
            }
            if v.get("clean").and_then(|x| x.as_bool()) != Some(lint.clean()) {
                failures.push("clean flag mismatch".to_string());
            }
            if len("seed_domains") != Some(lint.domains.len()) {
                failures.push("seed_domains mismatch".to_string());
            }
        }
    }
    exit_on_failures(&failures);

    if lint.clean() {
        println!(
            "lint OK: {} files, 0 violations, {} suppression(s) all load-bearing, \
             {} seed domain(s) unique -> {}",
            lint.files_scanned,
            lint.markers,
            lint.domains.len(),
            out_path.display()
        );
        return;
    }
    for f in &lint.findings {
        eprintln!("FAIL: {f}");
    }
    eprintln!(
        "{} violation(s); see {} and DESIGN.md §static analysis for the rule \
         catalog and the `lint: <rule>-ok` suppression grammar.",
        lint.findings.len(),
        out_path.display()
    );
    std::process::exit(1);
}
