//! `malnet-lint`: token-aware determinism and robustness analysis for
//! the MalNet workspace.
//!
//! The reproduction's core invariant — byte-identical datasets across
//! parallelism levels, chaos seeds, telemetry modes *and processes* —
//! is guarded here. Earlier PRs enforced it with a line-based substring
//! grep, which could not see strings, comments, scopes,
//! or cross-file facts; this crate replaces that with a real lexer
//! ([`lexer`]) feeding a rule engine ([`rules`]) and a versioned
//! machine-readable artifact ([`report`], `malnet.lint_report` v1).
//!
//! Entry points:
//!
//! * [`rules::lint_file`] — pure lint over one file's content;
//! * [`lint_workspace`] — walk a tree, lint every `.rs` file, run the
//!   cross-file seed-domain uniqueness check, aggregate;
//! * [`report::WorkspaceLint::to_json`] — the CI artifact.
//!
//! The crate is dependency-free (it lints the tree that builds it, so
//! it must not drag anything in) and is driven by the `malnet-bench`
//! bin `lint_report` (CI gate + artifact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use report::WorkspaceLint;
pub use rules::{Finding, RULES};

/// Collect every `.rs` file under `root`, skipping `target/`, hidden
/// directories, and `fixtures/` directories (the lint's own test corpus
/// of deliberately dirty files). Returned paths are sorted for stable
/// output.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lint a whole workspace rooted at `root`: every `.rs` file plus the
/// cross-file seed-domain uniqueness check.
pub fn lint_workspace(root: &Path) -> WorkspaceLint {
    let files = collect_rs_files(root);
    let mut agg = WorkspaceLint {
        files_scanned: files.len(),
        ..WorkspaceLint::default()
    };
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = std::fs::read_to_string(file) else {
            continue;
        };
        let lint = rules::lint_file(&rel, &content);
        agg.findings.extend(lint.findings);
        agg.domains.extend(lint.domains);
        agg.markers += lint.markers;
        agg.markers_used += lint.markers_used;
    }
    agg.findings
        .extend(rules::check_domain_uniqueness(&agg.domains));
    agg.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    agg.domains.sort_by_key(|d| d.value);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_directories_are_not_scanned() {
        // The test corpus under crates/lint/tests/fixtures/ is
        // deliberately dirty; the walker must never feed it to the
        // workspace lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect_rs_files(root);
        assert!(!files.is_empty());
        assert!(
            files
                .iter()
                .all(|f| f.components().all(|c| c.as_os_str() != "fixtures")),
            "fixtures leaked into the scan set"
        );
    }
}
