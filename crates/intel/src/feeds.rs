//! The vendor-feed model: a VirusTotal-like "query at date" API.
//!
//! ## Model
//!
//! Each C2 address registered with the database gets:
//!
//! * a **public-knowledge day** `K`: the first day *any* feed flags it.
//!   Calibrated against Table 3: for IP addresses, 86.7% have `K ≤
//!   discovery day` (13.3% same-day miss) and 98.5% are flagged by the
//!   paper's late re-query; DNS names miss far more often (57.6% /
//!   65% eventually-flagged).
//! * a **visibility score** `s ∈ (0, 1]`: which vendors pick it up once
//!   public. Vendor `v` flags the address iff `s ≥ 1 - coverage(v)`,
//!   with a small per-vendor extra lag. Coverage values for the top 20
//!   vendors come straight from Table 7 (counts per 1000 C2 IPs);
//!   another 24 vendors get low coverage; the remaining 45 never flag
//!   IoT C2s — matching "only 44 vendors could flag ... at least 1 C2".

use std::collections::BTreeMap;

use malnet_prng::rngs::StdRng;
use malnet_prng::{fnv1a, sub_seed, Rng, SeedableRng};

/// Total vendor feeds on the VT-like service (paper: 89).
pub const TOTAL_VENDORS: usize = 89;

/// Sub-seed domain for per-address feed-knowledge draws. Lives in the
/// workspace-wide `0x5eed_…` family whose uniqueness `malnet-lint`
/// checks across crates.
const DOMAIN_VENDOR_ADDR: u64 = 0x5eed_0000_0000_0008;

/// The seed of one address's feed-knowledge RNG stream. Public so the
/// pipeline's seed-collision audit can enumerate it alongside every
/// other sub-seed a study draws.
pub fn vendor_addr_seed(master: u64, addr: &str) -> u64 {
    sub_seed(master ^ DOMAIN_VENDOR_ADDR, 0, fnv1a(addr.as_bytes()))
}

/// The top-20 vendors of Table 7 with their per-1000 detection counts.
pub const TABLE7_VENDORS: [(&str, u32); 20] = [
    ("0xSI_f33d", 799),
    ("Kaspersky", 798),
    ("PhishLabs", 798),
    ("Netcraft", 746),
    ("SafeToOpen", 799),
    ("Forcepoint ThreatSeeker", 745),
    ("AutoShun", 799),
    ("CRDF", 728),
    ("Lumu", 799),
    ("Comodo Valkyrie Verdict", 697),
    ("StopBadware", 798),
    ("Fortinet", 681),
    ("Cyan", 799),
    ("Webroot", 683),
    ("NotMining", 798),
    ("Avira", 568),
    ("CMC Threat Intelligence", 578),
    ("CyRadar", 387),
    ("G-Data", 324),
    ("ESTsecurity", 340),
];

/// P(an IP-based C2 is already known on its discovery day): Table 3's
/// 13.3% same-day miss.
const IP_SAME_DAY: f64 = 1.0 - 0.133;
/// P(an IP-based C2 is known by the late re-query).
const IP_EVENTUALLY: f64 = 1.0 - 0.015;
/// P(a DNS-based C2 is already known on its discovery day): Table 3's
/// 57.6% same-day miss.
const DNS_SAME_DAY: f64 = 1.0 - 0.576;
/// P(a DNS-based C2 is known by the late re-query).
const DNS_EVENTUALLY: f64 = 1.0 - 0.35;
/// Maximum lag (days) for late-flagged addresses.
const MAX_LAG_DAYS: u32 = 55;

/// A vendor feed.
#[derive(Debug, Clone)]
pub struct Vendor {
    /// Feed name.
    pub name: String,
    /// Fraction of publicly-known C2s this feed flags (0..=1).
    pub coverage: f64,
    /// Extra reporting lag of this feed, days.
    pub lag_days: u32,
}

#[derive(Debug, Clone)]
struct AddrRecord {
    /// Was the address registered as a DNS name (vs. a hardcoded IP)?
    is_dns: bool,
    /// The pipeline's discovery day the record was derived from — the
    /// earliest registration seen so far. A re-registration with an
    /// *earlier* day ([`VendorDb::absorb`]) re-derives the record.
    discovery_day: u32,
    /// First day any feed knows the address; `None` = never.
    known_day: Option<u32>,
    /// Visibility score in (0, 1].
    visibility: f64,
    /// Index of the vendor that first reported it (always flags it once
    /// known, regardless of visibility).
    discoverer: usize,
}

/// One epoch's worth of feed knowledge: every address the epoch
/// registered, with its earliest local discovery day. The payload of
/// [`VendorDb::delta`] / [`VendorDb::absorb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedDelta {
    /// `(addr, is_dns, discovery_day)` in address order.
    pub registrations: Vec<(String, bool, u32)>,
}

/// The result of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Vendors flagging the address as malicious at the query date.
    pub vendors: Vec<String>,
}

impl Verdict {
    /// Is the address flagged by at least one feed?
    pub fn is_malicious(&self) -> bool {
        !self.vendors.is_empty()
    }

    /// Number of flagging vendors.
    pub fn count(&self) -> usize {
        self.vendors.len()
    }
}

/// The vendor database.
///
/// Every record is a **pure function of `(seed, addr, is_dns,
/// discovery_day)`**: each address draws from its own
/// [`vendor_addr_seed`]-derived generator, never from shared RNG state.
/// Registration order therefore cannot influence any record, which is
/// what makes the day-epoch shards mergeable — each epoch accrues
/// knowledge into its own `VendorDb` and the coordinator folds the
/// [`FeedDelta`]s back together ([`VendorDb::absorb`]) with
/// earliest-discovery-day-wins semantics, reproducing the sequential
/// database exactly regardless of merge order.
#[derive(Debug, Clone)]
pub struct VendorDb {
    /// All feeds (89), in fixed order.
    pub vendors: Vec<Vendor>,
    seed: u64,
    /// Ordered so `canonical_dump` walks addresses in byte order with
    /// no explicit sort.
    records: BTreeMap<String, AddrRecord>,
}

impl VendorDb {
    /// Build the vendor universe, calibrated to Table 3 and Table 7.
    pub fn new(seed: u64) -> Self {
        let mut vendors: Vec<Vendor> = TABLE7_VENDORS
            .iter()
            .map(|(name, per1000)| Vendor {
                name: (*name).to_string(),
                coverage: f64::from(*per1000) / 1000.0,
                lag_days: 0,
            })
            .collect();
        // 24 long-tail feeds that occasionally flag IoT C2s.
        for i in 0..24 {
            vendors.push(Vendor {
                name: format!("TailIntel-{i:02}"),
                coverage: 0.02 + 0.01 * f64::from(i),
                lag_days: 1 + i % 5,
            });
        }
        // 45 feeds that never flag IoT C2s (web/phishing-focused).
        for i in 0..45 {
            vendors.push(Vendor {
                name: format!("WebRep-{i:02}"),
                coverage: 0.0,
                lag_days: 0,
            });
        }
        assert_eq!(vendors.len(), TOTAL_VENDORS);
        VendorDb {
            vendors,
            seed,
            records: BTreeMap::new(),
        }
    }

    /// Derive one address's record from its private RNG stream. The
    /// draw *sequence* (knowledge coin, day offset, visibility,
    /// discoverer pick) is fixed; only `discovery_day` shifts where the
    /// knowledge day lands, so re-deriving with an earlier day keeps
    /// every other property of the record.
    fn derive_record(&self, addr: &str, is_dns: bool, discovery_day: u32) -> AddrRecord {
        let (p_same, p_event) = if is_dns {
            (DNS_SAME_DAY, DNS_EVENTUALLY)
        } else {
            (IP_SAME_DAY, IP_EVENTUALLY)
        };
        let mut rng = StdRng::seed_from_u64(vendor_addr_seed(self.seed, addr));
        let u: f64 = rng.gen();
        let known_day = if u < p_same {
            // Known before or at discovery.
            Some(discovery_day.saturating_sub(rng.gen_range(0..30)))
        } else if u < p_event {
            // Flagged later with a lag.
            Some(discovery_day + 1 + rng.gen_range(0..MAX_LAG_DAYS))
        } else {
            None
        };
        let visibility = rng.gen_range(0.05f64..1.0);
        // Coverage-weighted choice of the feed that first reported it.
        let total: f64 = self.vendors.iter().map(|v| v.coverage).sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut discoverer = 0;
        for (i, v) in self.vendors.iter().enumerate() {
            if pick < v.coverage {
                discoverer = i;
                break;
            }
            pick -= v.coverage;
        }
        AddrRecord {
            is_dns,
            discovery_day,
            known_day,
            visibility,
            discoverer,
        }
    }

    /// Register a C2 address with its pipeline discovery day. Idempotent:
    /// re-registration keeps the first record (mirrors reality — the
    /// feeds don't care how often we look).
    pub fn register(&mut self, addr: &str, is_dns: bool, discovery_day: u32) {
        if self.records.contains_key(addr) {
            return;
        }
        let rec = self.derive_record(addr, is_dns, discovery_day);
        self.records.insert(addr.to_string(), rec);
    }

    /// Everything this database learned, as a mergeable delta: the
    /// registered addresses with their discovery days, in address order.
    pub fn delta(&self) -> FeedDelta {
        FeedDelta {
            registrations: self
                .records
                .iter()
                .map(|(a, r)| (a.clone(), r.is_dns, r.discovery_day))
                .collect(),
        }
    }

    /// Fold another database's [`FeedDelta`] into this one.
    ///
    /// Earliest-discovery-day wins: an address already present is
    /// re-derived only when the delta saw it strictly earlier. Because
    /// records are pure per address, absorbing any permutation of a set
    /// of deltas yields the identical database — the property the
    /// epoch-merge permutation proptest in `malnet-core` pins down.
    pub fn absorb(&mut self, delta: &FeedDelta) {
        for (addr, is_dns, day) in &delta.registrations {
            match self.records.get(addr) {
                Some(rec) if rec.discovery_day <= *day => {}
                _ => {
                    let rec = self.derive_record(addr, *is_dns, *day);
                    self.records.insert(addr.clone(), rec);
                }
            }
        }
    }

    /// A canonical, byte-stable serialization of the vendor state.
    ///
    /// The backing map is a `BTreeMap`, so records come out sorted by
    /// address with no per-process hasher influence. Two `VendorDb`s
    /// that produce identical dumps have registered the same addresses
    /// with the same RNG draws — the parallel-determinism suite compares
    /// these across `parallelism` settings.
    pub fn canonical_dump(&self) -> String {
        let mut out = String::new();
        for (k, r) in &self.records {
            out.push_str(&format!("{k} => {r:?}\n"));
        }
        out
    }

    /// Query the feeds as of `day` — the VT-equivalent call.
    pub fn query(&self, addr: &str, day: u32) -> Verdict {
        let Some(rec) = self.records.get(addr) else {
            return Verdict { vendors: vec![] };
        };
        let Some(known) = rec.known_day else {
            return Verdict { vendors: vec![] };
        };
        if day < known {
            return Verdict { vendors: vec![] };
        }
        let vendors = self
            .vendors
            .iter()
            .enumerate()
            .filter(|(i, v)| {
                *i == rec.discoverer
                    || (v.coverage > 0.0
                        && rec.visibility >= 1.0 - v.coverage
                        && day >= known + v.lag_days)
            })
            .map(|(_, v)| v.name.clone())
            .collect();
        Verdict { vendors }
    }

    /// Number of vendors with nonzero coverage (paper: 44).
    pub fn active_vendor_count(&self) -> usize {
        self.vendors.iter().filter(|v| v.coverage > 0.0).count()
    }

    /// Per-vendor detection counts over a set of addresses at `day`
    /// (regenerates Table 7).
    pub fn vendor_counts(&self, addrs: &[String], day: u32) -> Vec<(String, u32)> {
        let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
        for a in addrs {
            for v in self.query(a, day).vendors {
                // Count by name; names are unique.
                let name = self
                    .vendors
                    .iter()
                    .find(|x| x.name == v)
                    .map(|x| x.name.as_str())
                    .unwrap_or("?");
                *counts.entry(name).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(String, u32)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_addrs(n: usize, is_dns: bool) -> (VendorDb, Vec<String>) {
        let mut db = VendorDb::new(1);
        let addrs: Vec<String> = (0..n)
            .map(|i| {
                if is_dns {
                    format!("c2-{i}.example.net")
                } else {
                    format!("10.1.{}.{}", i / 250, i % 250 + 1)
                }
            })
            .collect();
        for a in &addrs {
            db.register(a, is_dns, 100);
        }
        (db, addrs)
    }

    #[test]
    fn vendor_universe_shape() {
        let db = VendorDb::new(0);
        assert_eq!(db.vendors.len(), 89);
        assert_eq!(db.active_vendor_count(), 44);
    }

    #[test]
    fn ip_same_day_miss_rate_near_13_percent() {
        let (db, addrs) = db_with_addrs(2000, false);
        let missed = addrs
            .iter()
            .filter(|a| !db.query(a, 100).is_malicious())
            .count();
        let rate = missed as f64 / addrs.len() as f64;
        assert!((0.10..0.17).contains(&rate), "ip same-day miss {rate}");
    }

    #[test]
    fn dns_same_day_miss_rate_near_58_percent() {
        let (db, addrs) = db_with_addrs(2000, true);
        let missed = addrs
            .iter()
            .filter(|a| !db.query(a, 100).is_malicious())
            .count();
        let rate = missed as f64 / addrs.len() as f64;
        assert!((0.52..0.64).contains(&rate), "dns same-day miss {rate}");
    }

    #[test]
    fn late_query_recovers_most_misses() {
        let (db, addrs) = db_with_addrs(2000, false);
        let missed_late = addrs
            .iter()
            .filter(|a| !db.query(a, 100 + 120).is_malicious())
            .count();
        let rate = missed_late as f64 / addrs.len() as f64;
        assert!(rate < 0.04, "late miss {rate}");
    }

    #[test]
    fn unknown_address_is_clean() {
        let db = VendorDb::new(5);
        assert!(!db.query("203.0.113.7", 400).is_malicious());
    }

    #[test]
    fn detection_is_monotone_in_time() {
        let (db, addrs) = db_with_addrs(300, false);
        for a in &addrs {
            let early = db.query(a, 100).count();
            let late = db.query(a, 300).count();
            assert!(late >= early, "{a}: {early} -> {late}");
        }
    }

    #[test]
    fn vendor_counts_follow_coverage_order() {
        let (db, addrs) = db_with_addrs(1000, false);
        let counts = db.vendor_counts(&addrs, 400);
        // Highest-coverage vendors top the table; the top count is near
        // the paper's ~800/1000 and clearly above the tail.
        let top = counts.first().unwrap();
        assert!(top.1 > 700, "{top:?}");
        let gdata = counts.iter().find(|(n, _)| n == "G-Data").unwrap();
        assert!(gdata.1 < top.1);
        assert!((250..450).contains(&gdata.1), "{gdata:?}");
    }

    #[test]
    fn registration_is_idempotent() {
        let mut db = VendorDb::new(9);
        db.register("1.2.3.4", false, 50);
        let v1 = db.query("1.2.3.4", 60);
        db.register("1.2.3.4", false, 55);
        assert_eq!(db.query("1.2.3.4", 60), v1);
    }

    #[test]
    fn registration_order_cannot_influence_records() {
        let mut a = VendorDb::new(7);
        a.register("1.2.3.4", false, 10);
        a.register("c2.example.net", true, 20);
        let mut b = VendorDb::new(7);
        b.register("c2.example.net", true, 20);
        b.register("1.2.3.4", false, 10);
        assert_eq!(a.canonical_dump(), b.canonical_dump());
    }

    #[test]
    fn absorb_merges_deltas_with_earliest_day_winning() {
        // The sequential reference: one db sees every registration in
        // day order.
        let mut seq = VendorDb::new(11);
        seq.register("5.6.7.8", false, 3);
        seq.register("bot.example.org", true, 5);
        seq.register("9.9.9.9", false, 8);
        // Two "epochs" that saw overlapping slices, folded in either
        // order.
        let mut e1 = VendorDb::new(11);
        e1.register("5.6.7.8", false, 3);
        e1.register("bot.example.org", true, 5);
        let mut e2 = VendorDb::new(11);
        e2.register("bot.example.org", true, 9);
        e2.register("9.9.9.9", false, 8);
        let mut fwd = VendorDb::new(11);
        fwd.absorb(&e1.delta());
        fwd.absorb(&e2.delta());
        let mut rev = VendorDb::new(11);
        rev.absorb(&e2.delta());
        rev.absorb(&e1.delta());
        assert_eq!(fwd.canonical_dump(), seq.canonical_dump());
        assert_eq!(rev.canonical_dump(), seq.canonical_dump());
    }

    #[test]
    fn before_discovery_unknown_addresses_mostly_known_already() {
        // Addresses flagged on day 0 were often known *before* discovery
        // (the known_day can precede it).
        let (db, addrs) = db_with_addrs(500, false);
        let known_before = addrs
            .iter()
            .filter(|a| db.query(a, 99).is_malicious())
            .count();
        assert!(known_before > 200);
    }
}
