//! `malnet-xray` — static binary triage for the MalNet corpus.
//!
//! The dynamic pipeline (`malnet-core`) recovers every fact from
//! *behaviour*: emulate the sample, watch the wire. This crate is the
//! static counterpart (Anwar et al., "Understanding IoT Malware by
//! Analyzing Endpoints in their Static Artifacts"): it looks at the raw
//! ELF bytes and, **without executing a single instruction**, answers
//!
//! 1. *is this a well-formed MIPS32 executable?* — structural lints that
//!    are truncation-safe and never panic on malformed bytes
//!    ([`lint`]);
//! 2. *what can it do?* — a linear-sweep + recursive-descent CFG over
//!    `.text` (via `malnet-mips`'s structured decoder) with
//!    syscall-reachability: which `socket`/`connect`/`send` syscalls are
//!    reachable from the entry point ([`mod@cfg`]);
//! 3. *who does it talk to?* — candidate C2 endpoints from forward
//!    constant propagation through the sample's embedded MNBC bytecode
//!    ([`extract`]).
//!
//! The pipeline runs [`analyze`] as its phase-0 triage stage and keeps
//! the answers as one D-Triage row per binary; `core::eval`
//! cross-validates the static candidates against the dynamically
//! discovered D-C2s dataset, and `static_xval` writes that score as the
//! aggregate `malnet.static_report` ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod extract;
pub mod lint;
pub mod report;

pub use extract::{Endpoint, Proto, Role};
pub use lint::Lint;
pub use report::{StaticReport, SCHEMA, VERSION};

/// Run the full static triage over raw ELF bytes.
///
/// Total and panic-free on arbitrary input: malformed bytes produce a
/// report with `valid_elf == false` and the parse failure as a lint.
pub fn analyze(elf_bytes: &[u8]) -> StaticReport {
    let (parsed, lints) = lint::lint_bytes(elf_bytes);
    let Some(elf) = parsed else {
        return StaticReport {
            valid_elf: false,
            lints,
            ..StaticReport::default()
        };
    };
    let text = elf
        .segments
        .iter()
        .find(|s| s.executable)
        .map(|s| cfg::analyze_text(&s.data, s.vaddr, elf.entry))
        .unwrap_or_default();
    let bytecode = extract::scan_bytecode(&elf);
    StaticReport {
        valid_elf: true,
        lints,
        text,
        bytecode_records: bytecode.records,
        bytecode_skipped: bytecode.skipped,
        endpoints: bytecode.endpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_botgen::binary::emit_elf;
    use malnet_botgen::programs::compile;
    use malnet_botgen::spec::{BehaviorSpec, C2Endpoint};
    use std::net::Ipv4Addr;

    fn build(spec: &BehaviorSpec) -> Vec<u8> {
        emit_elf(&compile(spec), b"junkjunk")
    }

    #[test]
    fn recovers_hardcoded_ip_c2s_without_execution() {
        let spec = BehaviorSpec {
            c2: vec![
                (C2Endpoint::Ip(Ipv4Addr::new(185, 10, 20, 30)), 23),
                (C2Endpoint::Ip(Ipv4Addr::new(91, 44, 3, 9)), 8080),
            ],
            ..BehaviorSpec::default()
        };
        let r = analyze(&build(&spec));
        assert!(r.valid_elf, "lints: {:?}", r.lints);
        let c2: Vec<String> = r.c2_candidates().map(|e| e.addr.clone()).collect();
        assert!(c2.contains(&"185.10.20.30".to_string()), "{c2:?}");
        assert!(c2.contains(&"91.44.3.9".to_string()), "{c2:?}");
        // Ports ride along.
        assert!(r
            .c2_candidates()
            .any(|e| e.addr == "185.10.20.30" && e.port == 23));
        // The walk hands back its endpoints sorted and deduplicated.
        assert!(
            r.endpoints.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            r.endpoints
        );
    }

    #[test]
    fn recovers_domain_c2_and_resolver() {
        let spec = BehaviorSpec {
            c2: vec![(C2Endpoint::Domain("cnc.dark.example".into()), 6667)],
            resolver: Ipv4Addr::new(9, 9, 9, 9),
            ..BehaviorSpec::default()
        };
        let r = analyze(&build(&spec));
        assert!(r
            .c2_candidates()
            .any(|e| e.addr == "cnc.dark.example" && e.port == 6667 && e.dns));
        // The hardcoded resolver is classified as such, not as C2.
        assert!(r
            .endpoints
            .iter()
            .any(|e| e.addr == "9.9.9.9" && e.role == Role::Resolver));
        assert!(!r.c2_candidates().any(|e| e.addr == "9.9.9.9"));
    }

    #[test]
    fn scan_targets_are_not_candidates() {
        // Scan destinations are base|rand — unknowable statically, and
        // must not pollute the candidate list.
        let spec = BehaviorSpec {
            c2: vec![(C2Endpoint::Ip(Ipv4Addr::new(5, 6, 7, 8)), 23)],
            scan_base: Ipv4Addr::new(100, 70, 0, 0),
            ..BehaviorSpec::default()
        };
        let r = analyze(&build(&spec));
        assert!(
            !r.endpoints.iter().any(|e| e.addr.starts_with("100.70.")),
            "{:?}",
            r.endpoints
        );
    }

    #[test]
    fn text_analysis_sees_network_syscalls() {
        let elf = build(&BehaviorSpec::default());
        let r = analyze(&elf);
        assert!(r.text.net_capable(), "syscalls: {:?}", r.text.syscalls);
        let elf = malnet_mips::elf::ElfFile::parse(&elf).unwrap();
        let text = elf.segments.iter().find(|s| s.executable).unwrap();
        let insts = malnet_mips::dis::decode_all(&text.data, text.vaddr);
        assert!(insts.len() > 100);
        assert!(insts.iter().all(|i| i.known), "stub fully decodes");
    }

    #[test]
    fn malformed_input_never_panics() {
        assert!(!analyze(b"").valid_elf);
        assert!(!analyze(b"MZ\x90\x00").valid_elf);
        let good = build(&BehaviorSpec::default());
        for cut in [0, 1, 4, 51, 52, 80, good.len() / 2] {
            let _ = analyze(&good[..cut.min(good.len())]);
        }
        let mut bad = good.clone();
        for i in (0..bad.len()).step_by(7) {
            bad[i] ^= 0x55;
        }
        let _ = analyze(&bad);
    }
}
