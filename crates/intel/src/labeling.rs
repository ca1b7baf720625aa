//! Family labeling: YARA-style rules over binary bytes and an AVClass2
//! mock, derived from the YARA label, with the paper's observed failure
//! mode.
//!
//! §2.2: "We use crowd-sourced YARA rules ... in addition to AVClass2 to
//! identify the malware family labels. Note that AVClass2 seems to be
//! often unreliable for MIPS binaries. For example, all the instances of
//! the Mozi family ... are wrongly classified as Mirai."

/// YARA-style rules: substring signatures over the raw file bytes, like
/// the crowd-sourced rules keying on banner strings and protocol
/// constants.
const YARA_RULES: [(&str, &[&[u8]]); 7] = [
    ("gafgyt", &[b"BUILD GAFGYT"]),
    ("daddyl33t", &[b"l33t ", b".hydrasyn"]),
    ("tsunami", &[b"NICK ", b"USER "]),
    ("mozi", &[b"Mozi.m"]),
    ("hajime", &[b"hajime"]),
    ("vpnfilter", &[b"vpnfilter", b"/update/check"]),
    ("mirai", &[b"/bin/busybox MIRAI", b"TSource Engine Query"]),
];

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && hay.windows(needle.len()).any(|w| w == needle)
}

/// Match the YARA-style rule set against raw binary bytes. Rules are
/// tried in specificity order; the first family with any matching
/// signature wins. Returns `None` for unlabeled binaries.
pub fn yara_label(binary: &[u8]) -> Option<&'static str> {
    for (family, sigs) in YARA_RULES {
        if sigs.iter().any(|s| contains(binary, s)) {
            return Some(family);
        }
    }
    None
}

/// AVClass2 mock: starts from the YARA label of the same binary (so a
/// caller scans the bytes once, with [`yara_label`]) and reproduces the
/// paper's MIPS quirk — P2P families collapse to "mirai".
pub fn avclass2_label(yara: Option<&str>) -> Option<&str> {
    match yara {
        Some("mozi") | Some("hajime") => Some("mirai"),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yara_rules_distinguish_families() {
        assert_eq!(yara_label(b"...BUILD GAFGYT mips..."), Some("gafgyt"));
        assert_eq!(yara_label(b"xx l33t 00001234"), Some("daddyl33t"));
        assert_eq!(yara_label(b"NICK botxyz\r\n"), Some("tsunami"));
        assert_eq!(yara_label(b"--Mozi.m--"), Some("mozi"));
        assert_eq!(yara_label(b"/bin/busybox MIRAI"), Some("mirai"));
        assert_eq!(yara_label(b"benign data"), None);
    }

    #[test]
    fn avclass2_mislabels_p2p_as_mirai() {
        let avclass = |bin: &[u8]| avclass2_label(yara_label(bin));
        assert_eq!(avclass(b"--Mozi.m--"), Some("mirai"));
        assert_eq!(avclass(b"...hajime..."), Some("mirai"));
        assert_eq!(avclass(b"BUILD GAFGYT"), Some("gafgyt"));
    }

    #[test]
    fn avclass2_remaps_only_the_p2p_families() {
        for (family, _) in YARA_RULES {
            let want = match family {
                "mozi" | "hajime" => "mirai",
                other => other,
            };
            assert_eq!(avclass2_label(Some(family)), Some(want), "{family}");
        }
        assert_eq!(avclass2_label(None), None);
    }

    #[test]
    fn specificity_order_prevents_vse_shadowing() {
        // A Gafgyt sample may embed the VSE probe string (one Gafgyt VSE
        // attack appears in the paper); the login string must win.
        let bin = b"BUILD GAFGYT mips ... TSource Engine Query";
        assert_eq!(yara_label(bin), Some("gafgyt"));
    }
}
