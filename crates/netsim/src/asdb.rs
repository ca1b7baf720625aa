//! The Autonomous System registry and address plan of the simulated
//! Internet.
//!
//! The paper's hosting analysis (§3.1, Table 2, Figure 1, Figure 13,
//! Appendix A) and the DDoS target analysis (§5.3, Figure 12) both reduce
//! to an IP→AS mapping plus per-AS attributes. We model an Internet of a
//! few hundred ASes: the ~13 organisations the paper names, plus synthetic
//! filler ASes so that C2s spread across 128 ASes as in Appendix A.
//!
//! Every AS owns one or more IPv4 /16 or /24 prefixes; IPs are allocated
//! sequentially within a prefix so allocation is deterministic.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// An Autonomous System Number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The business category of an AS, used in the paper's Q2 and Figure 12
/// analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsKind {
    /// Dedicated/VPS hosting provider.
    Hosting,
    /// Internet Service Provider (eyeball network).
    Isp,
    /// An end business (e.g. Google, Amazon, Roblox).
    Business,
    /// Hosting specialised for the computer-gaming industry.
    GamingHosting,
}

impl fmt::Display for AsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AsKind::Hosting => "Hosting",
            AsKind::Isp => "ISP",
            AsKind::Business => "Business",
            AsKind::GamingHosting => "Gaming-Hosting",
        };
        f.write_str(s)
    }
}

/// A /prefix-aligned IPv4 block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network base address.
    pub base: Ipv4Addr,
    /// Prefix length in bits (8..=30).
    pub len: u8,
}

impl Prefix {
    /// Create a prefix; the base is masked to the prefix boundary.
    pub fn new(base: Ipv4Addr, len: u8) -> Self {
        assert!((8..=30).contains(&len), "prefix length out of range");
        let mask = u32::MAX << (32 - len);
        Prefix {
            base: Ipv4Addr::from(u32::from(base) & mask),
            len,
        }
    }

    /// Does `ip` fall inside this prefix?
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        let mask = u32::MAX << (32 - self.len);
        (u32::from(ip) & mask) == u32::from(self.base)
    }

    /// Number of host addresses available (excluding network/broadcast).
    pub fn capacity(&self) -> u32 {
        (1u32 << (32 - self.len)) - 2
    }

    /// The `n`-th host address (1-based internally: .0 is skipped).
    pub fn host(&self, n: u32) -> Option<Ipv4Addr> {
        if n >= self.capacity() {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.base) + n + 1))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

/// A registered Autonomous System.
#[derive(Debug, Clone)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// Organisation name.
    pub name: String,
    /// ISO country code.
    pub country: &'static str,
    /// Business category.
    pub kind: AsKind,
    /// Does the organisation sell anti-DDoS protection? (`None` = unknown,
    /// like AS211252 in the paper which "does not provide any information
    /// on their website".)
    pub anti_ddos: Option<bool>,
    /// Does it accept cryptocurrency payments?
    pub crypto_payment: bool,
    /// Is it a top-100 AS by advertised IPv4 space?
    pub top100: bool,
    /// Owned prefixes.
    pub prefixes: Vec<Prefix>,
}

impl AsRecord {
    /// True for any flavour of hosting business.
    pub fn is_hosting(&self) -> bool {
        matches!(self.kind, AsKind::Hosting | AsKind::GamingHosting)
    }
}

/// The AS registry: lookup by ASN or by IP, plus deterministic IP
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct AsDb {
    records: Vec<AsRecord>,
    // Lookup-only indexes into `records`; never iterated. lint: hash-ok
    by_asn: HashMap<u32, usize>,
    // Per-AS allocation cursor, entry-accessed by ASN only. lint: hash-ok
    alloc_cursor: HashMap<u32, u32>,
}

impl AsDb {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS. Panics on duplicate ASN (programming error in world
    /// construction, not untrusted input).
    pub fn register(&mut self, rec: AsRecord) {
        let asn = rec.asn.0;
        assert!(
            self.by_asn.insert(asn, self.records.len()).is_none(),
            "duplicate ASN {asn}"
        );
        self.records.push(rec);
    }

    /// Look up by ASN.
    pub fn get(&self, asn: Asn) -> Option<&AsRecord> {
        self.by_asn.get(&asn.0).map(|&i| &self.records[i])
    }

    /// Longest-prefix lookup of the AS owning `ip`.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        let mut best: Option<(u8, Asn)> = None;
        for rec in &self.records {
            for p in &rec.prefixes {
                if p.contains(ip) {
                    match best {
                        Some((len, _)) if len >= p.len => {}
                        _ => best = Some((p.len, rec.asn)),
                    }
                }
            }
        }
        best.map(|(_, asn)| asn)
    }

    /// Deterministically allocate the next unused IP within the AS's
    /// prefixes. Returns `None` if the AS is unknown or full.
    pub fn alloc_ip(&mut self, asn: Asn) -> Option<Ipv4Addr> {
        let idx = *self.by_asn.get(&asn.0)?;
        let cursor = self.alloc_cursor.entry(asn.0).or_insert(0);
        let mut remaining = *cursor;
        for p in &self.records[idx].prefixes {
            let cap = p.capacity();
            if remaining < cap {
                let ip = p.host(remaining)?;
                *cursor += 1;
                return Some(ip);
            }
            remaining -= cap;
        }
        None
    }

    /// All registered records.
    pub fn records(&self) -> &[AsRecord] {
        &self.records
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One row of the paper's Table 2:
/// `(name, asn, country, hosting?, anti_ddos (None = N/A), crypto)`.
pub type Table2Row = (&'static str, u32, &'static str, bool, Option<bool>, bool);

/// The ten ASes of the paper's Table 2, in the paper's row order.
pub const TABLE2_ASES: [Table2Row; 10] = [
    ("ColoCrossing", 36352, "US", true, Some(true), false),
    ("Delis LLC", 211252, "US", true, None, false),
    ("DigitalOcean", 14061, "US", true, Some(true), false),
    ("FranTech Solutions", 53667, "LU", true, Some(true), true),
    ("HOSTGLOBAL", 202306, "RU", true, Some(true), true),
    ("Serverion LLC", 399471, "NL", true, Some(true), false),
    ("OVH SAS", 16276, "FR", true, Some(true), false),
    ("IP SERVER LLC", 44812, "RU", true, Some(true), true),
    ("Apeiron Global", 139884, "IN", true, Some(false), false),
    ("Serverius", 50673, "NL", true, Some(true), false),
];

/// Build the standard simulated-Internet AS plan:
///
/// * the 10 C2-hosting ASes of Table 2 (10.x.0.0/16 each),
/// * large businesses (Google AS15169, Amazon AS16509, Alibaba AS37963,
///   Roblox AS22697) which the paper notes appear both as C2 hosts
///   (Appendix A) and DDoS targets (§5.3),
/// * NFOservers (gaming, AS14586) targeted by the NFO attack,
/// * `extra_hosting` synthetic hosting ASes, `extra_isp` ISPs,
///   `extra_gaming` gaming hosts and `extra_business` businesses, spread
///   over countries in a fixed rotation.
pub fn standard_internet(
    extra_hosting: usize,
    extra_isp: usize,
    extra_gaming: usize,
    extra_business: usize,
) -> AsDb {
    let mut db = AsDb::new();
    for (i, (name, asn, country, _hosting, anti, crypto)) in TABLE2_ASES.iter().enumerate() {
        db.register(AsRecord {
            asn: Asn(*asn),
            name: (*name).to_string(),
            country,
            kind: AsKind::Hosting,
            anti_ddos: *anti,
            crypto_payment: *crypto,
            top100: false,
            prefixes: vec![Prefix::new(Ipv4Addr::new(10, i as u8 + 1, 0, 0), 16)],
        });
    }
    let big = [
        ("Google LLC", 15169u32, "US", AsKind::Business, true),
        ("Amazon.com Inc", 16509, "US", AsKind::Business, true),
        (
            "Hangzhou Alibaba Advertising",
            37963,
            "CN",
            AsKind::Business,
            true,
        ),
        ("Roblox", 22697, "US", AsKind::Business, false),
        ("NFOservers", 14586, "US", AsKind::GamingHosting, false),
    ];
    for (i, (name, asn, country, kind, top100)) in big.iter().enumerate() {
        db.register(AsRecord {
            asn: Asn(*asn),
            name: (*name).to_string(),
            country,
            kind: *kind,
            anti_ddos: Some(false),
            crypto_payment: false,
            top100: *top100,
            prefixes: vec![Prefix::new(Ipv4Addr::new(20, i as u8 + 1, 0, 0), 16)],
        });
    }
    let countries = [
        "US", "RU", "NL", "DE", "FR", "CN", "BR", "IN", "GB", "CZ", "UA", "KR",
    ];
    let mut third_octet = 0u8;
    let mut second = 30u8;
    let mut next_block = |db_len: usize| {
        let p = Prefix::new(Ipv4Addr::new(second, third_octet, 0, 0), 16);
        third_octet = third_octet.wrapping_add(1);
        if third_octet == 0 {
            second += 1;
        }
        let _ = db_len;
        p
    };
    let mut synth = |db: &mut AsDb, n: usize, kind: AsKind, base_asn: u32, tag: &str| {
        for i in 0..n {
            let asn = base_asn + i as u32;
            let p = next_block(db.len());
            db.register(AsRecord {
                asn: Asn(asn),
                name: format!("{tag}-{i:03}"),
                country: countries[i % countries.len()],
                kind,
                anti_ddos: Some(i % 3 != 0),
                crypto_payment: i % 5 == 0,
                top100: false,
                prefixes: vec![p],
            });
        }
    };
    synth(&mut db, extra_hosting, AsKind::Hosting, 60_000, "HostCo");
    synth(&mut db, extra_isp, AsKind::Isp, 61_000, "TelcoNet");
    synth(
        &mut db,
        extra_gaming,
        AsKind::GamingHosting,
        62_000,
        "GameHost",
    );
    synth(&mut db, extra_business, AsKind::Business, 63_000, "BizCorp");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_contains_and_capacity() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 24);
        assert_eq!(p.base, Ipv4Addr::new(10, 1, 2, 0));
        assert!(p.contains(Ipv4Addr::new(10, 1, 2, 200)));
        assert!(!p.contains(Ipv4Addr::new(10, 1, 3, 1)));
        assert_eq!(p.capacity(), 254);
        assert_eq!(p.host(0), Some(Ipv4Addr::new(10, 1, 2, 1)));
        assert_eq!(p.host(253), Some(Ipv4Addr::new(10, 1, 2, 254)));
        assert_eq!(p.host(254), None);
    }

    #[test]
    fn standard_internet_has_table2_ases() {
        let db = standard_internet(20, 10, 3, 3);
        for (name, asn, country, hosting, _, _) in TABLE2_ASES {
            let rec = db.get(Asn(asn)).expect("table2 AS registered");
            assert_eq!(rec.name, name);
            assert_eq!(rec.country, country);
            assert_eq!(rec.is_hosting(), hosting);
        }
        assert_eq!(db.len(), 10 + 5 + 20 + 10 + 3 + 3);
    }

    #[test]
    fn alloc_is_deterministic_and_unique() {
        let mut db = standard_internet(2, 2, 0, 0);
        let a = db.alloc_ip(Asn(36352)).unwrap();
        let b = db.alloc_ip(Asn(36352)).unwrap();
        assert_ne!(a, b);
        assert_eq!(db.asn_of(a), Some(Asn(36352)));
        let mut db2 = standard_internet(2, 2, 0, 0);
        assert_eq!(db2.alloc_ip(Asn(36352)).unwrap(), a);
    }

    #[test]
    fn asn_of_unknown_ip_is_none() {
        let db = standard_internet(1, 1, 1, 1);
        assert_eq!(db.asn_of(Ipv4Addr::new(250, 0, 0, 1)), None);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut db = AsDb::new();
        db.register(AsRecord {
            asn: Asn(1),
            name: "wide".into(),
            country: "US",
            kind: AsKind::Isp,
            anti_ddos: None,
            crypto_payment: false,
            top100: false,
            prefixes: vec![Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8)],
        });
        db.register(AsRecord {
            asn: Asn(2),
            name: "narrow".into(),
            country: "US",
            kind: AsKind::Hosting,
            anti_ddos: None,
            crypto_payment: false,
            top100: false,
            prefixes: vec![Prefix::new(Ipv4Addr::new(10, 5, 0, 0), 16)],
        });
        assert_eq!(db.asn_of(Ipv4Addr::new(10, 5, 1, 1)), Some(Asn(2)));
        assert_eq!(db.asn_of(Ipv4Addr::new(10, 6, 1, 1)), Some(Asn(1)));
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut db = AsDb::new();
        db.register(AsRecord {
            asn: Asn(9),
            name: "tiny".into(),
            country: "US",
            kind: AsKind::Hosting,
            anti_ddos: None,
            crypto_payment: false,
            top100: false,
            prefixes: vec![Prefix::new(Ipv4Addr::new(192, 0, 2, 0), 30)],
        });
        assert!(db.alloc_ip(Asn(9)).is_some());
        assert!(db.alloc_ip(Asn(9)).is_some());
        assert!(db.alloc_ip(Asn(9)).is_none());
    }

    #[test]
    fn synthetic_ases_have_distinct_prefixes() {
        let db = standard_internet(300, 100, 10, 10);
        let mut seen = std::collections::HashSet::new();
        for r in db.records() {
            for p in &r.prefixes {
                assert!(seen.insert((u32::from(p.base), p.len)), "dup prefix {p}");
            }
        }
    }
}
