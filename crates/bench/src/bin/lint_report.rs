//! Run `malnet-lint` over the workspace and emit the CI artifact.
//!
//! This is the determinism/robustness gate: the token-aware rule set in
//! `malnet-lint` (wall-clock reads, hash-ordered iteration feeding
//! serialized output, unjustified panic sites, computed wire indexing,
//! seed-domain discipline, stale suppressions — see `crates/lint` and
//! DESIGN.md §static analysis) runs over every `.rs` file, writes the
//! versioned `malnet.lint_report` v1 artifact to
//! `results/lint_report.json`, self-validates the written JSON, and
//! exits non-zero listing every violation.
//!
//! Usage: `cargo run -p malnet-bench --bin lint_report` from the
//! workspace root.

use std::path::Path;

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

    let json = lint.to_json();
    let out_path = Path::new("results/lint_report.json");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create results/");
    }
    std::fs::write(out_path, &json).expect("write lint report");

    // Self-validate the artifact: re-read, parse, and check that the
    // written report says exactly what this process observed. A report
    // that cannot be parsed back is worse than no report — downstream
    // tooling would trust it.
    let readback = std::fs::read_to_string(out_path).expect("read back lint report");
    let v = malnet_telemetry::json::parse(&readback)
        .unwrap_or_else(|e| panic!("lint report does not parse: {e}"));
    let field_str = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
    let field_u64 = |k: &str| v.get(k).and_then(|x| x.as_u64());
    assert_eq!(
        field_str("schema").as_deref(),
        Some(malnet_lint::report::SCHEMA),
        "bad schema field"
    );
    assert_eq!(
        field_u64("version"),
        Some(u64::from(malnet_lint::report::VERSION)),
        "bad version field"
    );
    assert_eq!(
        field_u64("files_scanned"),
        Some(lint.files_scanned as u64),
        "files_scanned mismatch"
    );
    let violations = v
        .get("violations")
        .and_then(|x| x.as_array())
        .expect("violations array");
    assert_eq!(violations.len(), lint.findings.len(), "violations mismatch");
    assert_eq!(
        v.get("clean").and_then(|x| x.as_bool()),
        Some(lint.clean()),
        "clean flag mismatch"
    );
    let domains = v
        .get("seed_domains")
        .and_then(|x| x.as_array())
        .expect("seed_domains array");
    assert_eq!(domains.len(), lint.domains.len(), "seed_domains mismatch");

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
