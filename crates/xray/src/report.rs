//! What the static pass learned about one binary, and the schema tag of
//! the aggregate `results/static_report.json`.
//!
//! The pipeline folds each [`StaticReport`] into a D-Triage row;
//! `static_xval` scores those rows against the dynamic observations and
//! writes the aggregate under [`SCHEMA`] v[`VERSION`]. [`json_escape`]
//! is the string escaper that writer and the study's other hand-rolled
//! JSON writers share (no external deps).

use crate::cfg::TextAnalysis;
use crate::extract::{Endpoint, Role};
use crate::lint::Lint;

/// Schema identifier of the aggregate static report.
pub const SCHEMA: &str = "malnet.static_report";
/// Current schema version.
pub const VERSION: u64 = 1;

/// Everything the static pass learned about one binary.
#[derive(Debug, Clone, Default)]
pub struct StaticReport {
    /// Did the ELF parse at all?
    pub valid_elf: bool,
    /// Structural findings (empty for a clean file).
    pub lints: Vec<Lint>,
    /// `.text` CFG / syscall-reachability analysis.
    pub text: TextAnalysis,
    /// MNBC bytecode records decoded.
    pub bytecode_records: usize,
    /// MNBC bytecode records skipped as undecodable.
    pub bytecode_skipped: usize,
    /// Recovered endpoint candidates, sorted and deduplicated.
    pub endpoints: Vec<Endpoint>,
}

impl StaticReport {
    /// Endpoints classified as C2 check-in destinations — the set that
    /// `core::eval` cross-validates against the dynamic D-C2s dataset.
    pub fn c2_candidates(&self) -> impl Iterator<Item = &Endpoint> {
        self.endpoints.iter().filter(|e| e.role == Role::C2)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_survives_hostile_lint_messages() {
        let hostile = "bad \"quote\"\\\n\r\t\u{1}";
        let escaped = json_escape(hostile);
        assert_eq!(escaped, r#"bad \"quote\"\\\n\r\t\u0001"#);
        let v = malnet_telemetry::json::parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(v.as_str(), Some(hostile));
    }
}
