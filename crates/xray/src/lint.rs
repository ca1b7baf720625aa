//! Structural ELF lints: the triage questions an analyst asks before
//! spending any emulation budget on a sample.
//!
//! All checks run on the output of `malnet-mips`'s hardened
//! [`ElfFile::parse`], which is itself truncation-safe; nothing here can
//! panic on malformed bytes.

use malnet_mips::elf::{ElfFile, ElfSegment};

/// One structural finding, by its stable, machine-matchable code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lint {
    /// Stable finding code (e.g. `elf.no_text`).
    pub code: &'static str,
}

/// Parse and structurally validate ELF bytes.
///
/// Returns the parsed file (when parseable at all) together with every
/// lint raised. A file that fails to parse yields `(None, [elf.parse])`.
pub fn lint_bytes(bytes: &[u8]) -> (Option<ElfFile>, Vec<Lint>) {
    let Ok(elf) = ElfFile::parse(bytes) else {
        return (None, vec![Lint { code: "elf.parse" }]);
    };
    let mut codes = Vec::new();
    let exec: Vec<&ElfSegment> = elf.segments.iter().filter(|s| s.executable).collect();
    if elf.segments.is_empty() {
        codes.push("elf.no_segments");
    }
    if exec.is_empty() {
        codes.push("elf.no_text");
    }
    if !elf
        .segments
        .iter()
        .any(|s| s.executable && segment_contains(s, elf.entry))
    {
        codes.push("elf.entry_outside_text");
    }
    for s in &exec {
        if s.data.len() % 4 != 0 {
            codes.push("elf.text_align");
        }
        if s.writable {
            codes.push("elf.wx");
        }
    }
    for s in &elf.segments {
        if (s.memsz as usize) < s.data.len() {
            codes.push("elf.memsz");
        }
    }
    // Overlapping vaddr ranges (by memsz) usually mean a corrupted or
    // deliberately confusing header.
    let mut spans: Vec<(u64, u64)> = elf
        .segments
        .iter()
        .map(|s| {
            let len = u64::from(s.memsz).max(s.data.len() as u64);
            (u64::from(s.vaddr), u64::from(s.vaddr) + len)
        })
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[1].0 < w[0].1 {
            codes.push("elf.overlap");
        }
    }
    // No read-only data segment: nothing to extract strings from.
    if !elf
        .segments
        .iter()
        .any(|s| !s.executable && !s.writable && !s.data.is_empty())
    {
        codes.push("elf.no_rodata");
    }
    let lints = codes.into_iter().map(|code| Lint { code }).collect();
    (Some(elf), lints)
}

fn segment_contains(s: &ElfSegment, addr: u32) -> bool {
    let len = (s.memsz as usize).max(s.data.len()) as u64;
    let a = u64::from(addr);
    a >= u64::from(s.vaddr) && a < u64::from(s.vaddr) + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_mips::elf::ElfSegment;

    fn minimal() -> ElfFile {
        ElfFile {
            entry: 0x0040_0000,
            segments: vec![
                ElfSegment {
                    vaddr: 0x0040_0000,
                    data: vec![0; 8],
                    memsz: 8,
                    writable: false,
                    executable: true,
                    name: ".text",
                },
                ElfSegment {
                    vaddr: 0x1000_0000,
                    data: vec![b'x'; 8],
                    memsz: 8,
                    writable: false,
                    executable: false,
                    name: ".rodata",
                },
            ],
        }
    }

    #[test]
    fn clean_file_has_no_lints() {
        let (elf, lints) = lint_bytes(&minimal().write());
        assert!(elf.is_some());
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn garbage_yields_parse_lint_only() {
        let (elf, lints) = lint_bytes(b"not an elf at all");
        assert!(elf.is_none());
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code, "elf.parse");
    }

    #[test]
    fn entry_outside_text_flagged() {
        let mut f = minimal();
        f.entry = 0x1000_0004; // points into rodata
        let (_, lints) = lint_bytes(&f.write());
        assert!(lints.iter().any(|l| l.code == "elf.entry_outside_text"));
    }

    #[test]
    fn wx_and_misalignment_flagged() {
        let mut f = minimal();
        f.segments[0].writable = true;
        f.segments[0].data = vec![0; 6];
        f.segments[0].memsz = 6;
        let (_, lints) = lint_bytes(&f.write());
        assert!(lints.iter().any(|l| l.code == "elf.wx"));
        assert!(lints.iter().any(|l| l.code == "elf.text_align"));
    }

    #[test]
    fn overlap_flagged() {
        let mut f = minimal();
        f.segments[1].vaddr = 0x0040_0004; // collides with .text
        let (_, lints) = lint_bytes(&f.write());
        assert!(lints.iter().any(|l| l.code == "elf.overlap"));
    }
}
