//! The calibrated world model: the synthetic stand-in for "the Internet
//! plus one year of VirusTotal/MalwareBazaar feeds".
//!
//! [`World::generate`] builds, from a single seed:
//!
//! * an AS-level Internet ([`malnet_netsim::asdb`]) whose C2-hosting
//!   weights follow Table 2 / Figure 1 / Figure 13,
//! * a C2 population with calibrated lifespans (§3.2 / Figure 2),
//!   sample-sharing (Figure 5) and elusiveness (Figure 4),
//! * a corpus of MIPS ELF malware binaries arriving over the 31 study
//!   weeks (Table 1), with exploit arsenals matching Table 4 / Figure 8,
//!   loader names matching Figure 9, and downloader co-location (§3.1),
//! * a DDoS attack plan reproducing §5 (42 commands, 17 C2s, 20 samples,
//!   8 attack types, target ASes per Figure 12),
//! * the D-PC2 probing theatre: 6 suspicious /24s, 12 historical ports
//!   (Table 5), and 7 long-lived elusive C2s.
//!
//! Every calibration constant lives in [`Calibration`] and is documented
//! against the paper claim it reproduces. The pipeline never reads this
//! module's ground truth — only the evaluation harness does.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

use malnet_prng::rngs::StdRng;
use malnet_prng::seq::SliceRandom;
use malnet_prng::{Rng, SeedableRng};

use malnet_netsim::asdb::{standard_internet, AsDb, AsKind, Asn, Prefix};
use malnet_netsim::dns::{DnsHandle, DnsService};
use malnet_netsim::net::{HostSource, Network, Service};
use malnet_netsim::services::{BannerService, HttpFileServer, SinkService};
use malnet_netsim::time::{days_of_study_week, SimDuration, SimTime, STUDY_WEEKS};
use malnet_protocols::{AttackCommand, AttackMethod, Family};
use malnet_wire::dns::DomainName;

use crate::binary::emit_elf;
use crate::c2service::{C2Config, C2Log, C2Service, RespondMode};
use crate::exploitdb::VulnId;
use crate::programs::compile;
use crate::spec::{BehaviorSpec, C2Endpoint, ExploitPlan};

/// The resolver address every sample hard-codes (the world installs a
/// real DNS service here for live runs).
pub const WORLD_RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

/// The 12 probing ports of Table 5 (Appendix B).
pub const PROBE_PORTS: [u16; 12] = [
    1312, 666, 1791, 9506, 606, 6738, 5555, 1014, 3074, 6969, 42516, 81,
];

/// Loader filenames with Figure 9 frequencies.
pub const LOADERS: [(&str, u32); 7] = [
    ("t8UsA2.sh", 14),
    ("Tsunamix6", 12),
    ("ddns.sh", 10),
    ("8UsA.sh", 8),
    ("wget.sh", 6),
    ("zyxel.sh", 4),
    ("jaws.sh", 2),
];

/// All calibration constants, annotated with the paper claim they target.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Family mix (Table 1's seven families; Mirai-dominant feeds).
    pub family_weights: [(Family, f64); 7],
    /// P(a sample's primary C2 is alive on its publish day) — §3.2 finds
    /// 60% dead on day 0.
    pub primary_live_rate: f64,
    /// P(observed lifespan is one day | discovered live) — Figure 2: 80%.
    pub lifespan_one_day: f64,
    /// Geometric tail parameter for multi-day lifespans (mean ≈ 4 days
    /// overall, max ≈ 45).
    pub lifespan_tail_p: f64,
    /// Fraction of C2 endpoints that are DNS names (Table 3 implies ~5%).
    pub dns_endpoint_rate: f64,
    /// Fraction of samples carrying exploit arsenals (197/1447 succeed;
    /// generate a margin for activation losses).
    pub exploiter_rate: f64,
    /// Fraction of samples that fail to activate (corrupt/hostile) —
    /// §6f reports a 90% activation rate.
    pub corrupt_rate: f64,
    /// Fraction of samples with the DNS connectivity-check evasion.
    pub evasive_rate: f64,
    /// Per-sample count of C2 endpoints (primary + fallbacks) weights
    /// (index = count-1). Drives Figure 5 together with reuse.
    pub c2_refs_weights: [f64; 6],
    /// P(reuse an actively-recruiting C2) vs minting a new one.
    pub c2_reuse_rate: f64,
    /// Days a C2 keeps recruiting new samples after first reference.
    pub recruit_window: u32,
    /// Weekly arrival weights multiplier for 2022 weeks (paper: more
    /// samples since January 2022) and the week-28 peak.
    pub late_weeks_boost: f64,
    /// Extra boost for study week 28.
    pub week28_boost: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            family_weights: [
                (Family::Mirai, 0.42),
                (Family::Gafgyt, 0.27),
                (Family::Mozi, 0.12),
                (Family::Tsunami, 0.08),
                (Family::Daddyl33t, 0.05),
                (Family::Hajime, 0.04),
                (Family::VpnFilter, 0.02),
            ],
            primary_live_rate: 0.35,
            lifespan_one_day: 0.85,
            lifespan_tail_p: 0.075,
            dns_endpoint_rate: 0.047,
            exploiter_rate: 0.155,
            corrupt_rate: 0.06,
            evasive_rate: 0.10,
            c2_refs_weights: [0.06, 0.08, 0.12, 0.18, 0.26, 0.30],
            c2_reuse_rate: 0.87,
            recruit_window: 35,
            late_weeks_boost: 2.3,
            week28_boost: 5.0,
        }
    }
}

/// World generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Corpus size (paper: 1447).
    pub n_samples: usize,
    /// Calibration constants.
    pub cal: Calibration,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 22,
            n_samples: 1447,
            cal: Calibration::default(),
        }
    }
}

/// Ground truth for one C2 server.
#[derive(Debug, Clone)]
pub struct C2Truth {
    /// Index into [`World::c2s`].
    pub id: usize,
    /// The address samples carry (IP or domain).
    pub endpoint: C2Endpoint,
    /// The host's actual address.
    pub host_ip: Ipv4Addr,
    /// C2 listening port.
    pub port: u16,
    /// Protocol family.
    pub family: Family,
    /// Hosting AS.
    pub asn: Asn,
    /// First day the host is up.
    pub born_day: u32,
    /// First day the host is down again (up on `born..dead`).
    pub dead_day: u32,
    /// Session responsiveness.
    pub respond: RespondMode,
    /// Loader served on port 80, if this C2 doubles as a downloader.
    pub serves_loader: Option<String>,
}

impl C2Truth {
    /// Is the host up on `day`?
    pub fn alive_on(&self, day: u32) -> bool {
        (self.born_day..self.dead_day).contains(&day)
    }

    /// The address string the pipeline reports (IP or domain).
    pub fn addr_string(&self) -> String {
        self.endpoint.to_string()
    }

    /// Is the endpoint DNS-named?
    pub fn is_dns(&self) -> bool {
        matches!(self.endpoint, C2Endpoint::Domain(_))
    }
}

/// Ground truth for one sample.
#[derive(Debug, Clone)]
pub struct SampleTruth {
    /// Index into [`World::samples`].
    pub id: usize,
    /// Pseudo-SHA256 of the binary (hex).
    pub sha256: String,
    /// Family.
    pub family: Family,
    /// Day the sample appears on the feeds.
    pub publish_day: u32,
    /// Behaviour specification.
    pub spec: BehaviorSpec,
    /// The emitted ELF bytes.
    pub elf: Vec<u8>,
    /// C2 ids referenced (primary first).
    pub c2_ids: Vec<usize>,
    /// Binary is corrupt and fails to activate.
    pub corrupted: bool,
    /// AV engines flagging it (corpus-vetting model).
    pub av_detections: u32,
}

/// One designated DDoS observation: sample, C2 and commands.
#[derive(Debug, Clone)]
pub struct AttackPlan {
    /// The sample that receives the commands.
    pub sample_id: usize,
    /// The issuing C2.
    pub c2_id: usize,
    /// The commands (delay after login).
    pub commands: Vec<(SimDuration, AttackCommand)>,
}

/// The generated world.
pub struct World {
    /// Generation parameters.
    pub cfg: WorldConfig,
    /// The AS-level Internet.
    pub asdb: AsDb,
    /// All C2 servers.
    pub c2s: Vec<C2Truth>,
    /// The malware corpus in publish order.
    pub samples: Vec<SampleTruth>,
    /// Standalone (non-C2) downloader hosts.
    pub downloaders: Vec<(Ipv4Addr, String)>,
    /// The DDoS observation plan.
    pub attacks: Vec<AttackPlan>,
    /// Commands a C2 issues into engaged sessions on a given day.
    pub attack_schedule: BTreeMap<(usize, u32), Vec<(SimDuration, AttackCommand)>>,
    /// The 6 probing subnets (D-PC2).
    pub probe_subnets: Vec<Prefix>,
    /// Ids of the 7 C2s living in the probe subnets.
    pub probe_c2_ids: Vec<usize>,
    /// First day of the 2-week probing window.
    pub probe_start_day: u32,
    /// Every host a world network can hold, taken from the fields above
    /// once generation is done.
    roster: Arc<Roster>,
}

// Compile-time guarantee: worker threads running contained activations
// may share one `&World` (parallel pipeline stage).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<World>();
    assert_send::<World>();
};

/// Weighted reuse choice: linear rich-get-richer, saturating near the
/// paper's observed maximum (~18 samples per C2) so no runaway hubs form.
fn pick_weighted(rng: &mut StdRng, candidates: &[usize], ref_counts: &[u32]) -> usize {
    let weight = |cid: usize| -> u64 {
        let r = u64::from(ref_counts.get(cid).copied().unwrap_or(0));
        if r >= 17 {
            return 1; // saturated: as unlikely as a fresh C2
        }
        1 + 3 * r
    };
    let total: u64 = candidates.iter().map(|&c| weight(c)).sum();
    let mut pick = rng.gen_range(0..total.max(1));
    for &c in candidates {
        let w = weight(c);
        if pick < w {
            return c;
        }
        pick -= w;
    }
    candidates[0]
}

fn pseudo_sha256(bytes: &[u8]) -> String {
    // Four rounds of FNV-1a with different offsets — not cryptographic,
    // just a stable 64-hex-char identity for reports.
    let mut out = String::with_capacity(64);
    for salt in 0u64..4 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        out.push_str(&format!("{h:016x}"));
    }
    out
}

fn weighted_family(rng: &mut StdRng, weights: &[(Family, f64)]) -> Family {
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total);
    for (f, w) in weights {
        if pick < *w {
            return *f;
        }
        pick -= w;
    }
    weights[0].0
}

impl World {
    /// Generate the world.
    pub fn generate(cfg: WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0077_0a1d);
        Self::generate_inner(cfg, &mut rng)
    }

    fn generate_inner(cfg: WorldConfig, rng: &mut StdRng) -> World {
        let cal = cfg.cal.clone();
        // 128 ASes total: 10 Table-2 + 5 named + 95 hosting + 12 ISP +
        // 3 gaming + 3 business. Target-side ASes come extra.
        let mut asdb = standard_internet(95, 12, 3, 3);

        // --- arrival schedule ---
        let mut week_weights: Vec<(u32, f64)> = (1..=STUDY_WEEKS)
            .map(|w| {
                let mut wt = if w == 1 { 0.5 } else { 1.0 };
                if w >= 21 {
                    wt *= cal.late_weeks_boost;
                }
                if w == 28 {
                    wt *= cal.week28_boost / cal.late_weeks_boost;
                }
                (w, wt)
            })
            .collect();
        let total_w: f64 = week_weights.iter().map(|(_, w)| w).sum();
        for (_, w) in &mut week_weights {
            *w /= total_w;
        }
        let mut publish_days: Vec<u32> = Vec::with_capacity(cfg.n_samples);
        for _ in 0..cfg.n_samples {
            let mut pick = rng.gen_range(0.0..1.0);
            let mut week = 1;
            for (w, wt) in &week_weights {
                if pick < *wt {
                    week = *w;
                    break;
                }
                pick -= wt;
            }
            let days = days_of_study_week(week).expect("valid week");
            publish_days.push(rng.gen_range(days.start..days.end));
        }
        publish_days.sort_unstable();

        // --- C2-hosting AS weights (Table 2: top-10 host 69.7%) ---
        let mut as_weights: Vec<(Asn, f64)> = Vec::new();
        let table2_share = [
            0.135, 0.105, 0.09, 0.08, 0.07, 0.06, 0.055, 0.05, 0.03, 0.022,
        ];
        for (i, (_, asn, ..)) in malnet_netsim::asdb::TABLE2_ASES.iter().enumerate() {
            as_weights.push((Asn(*asn), table2_share[i]));
        }
        let rest: Vec<Asn> = asdb
            .records()
            .iter()
            .filter(|r| {
                !malnet_netsim::asdb::TABLE2_ASES
                    .iter()
                    .any(|t| t.1 == r.asn.0)
            })
            .map(|r| r.asn)
            .collect();
        let rest_share = (1.0 - 0.697) / rest.len() as f64;
        for asn in rest {
            as_weights.push((asn, rest_share));
        }

        let pick_asn = |rng: &mut StdRng| -> Asn {
            let total: f64 = as_weights.iter().map(|(_, w)| w).sum();
            let mut pick = rng.gen_range(0.0..total);
            for (a, w) in &as_weights {
                if pick < *w {
                    return *a;
                }
                pick -= w;
            }
            as_weights[0].0
        };

        // --- loader name pool (Figure 9 weights) ---
        let pick_loader = |rng: &mut StdRng| -> String {
            let total: u32 = LOADERS.iter().map(|(_, w)| w).sum();
            let mut pick = rng.gen_range(0..total);
            for (name, w) in LOADERS {
                if pick < w {
                    return name.to_string();
                }
                pick -= w;
            }
            LOADERS[0].0.to_string()
        };

        // --- build samples day by day, minting/reusing C2s ---
        let mut c2s: Vec<C2Truth> = Vec::new();
        let mut ref_counts: Vec<u32> = Vec::new();
        // "Infrastructure hubs": ~a fifth of C2s serve large sample
        // cohorts (Figure 5: ~20% of C2 IPs contacted by >10 binaries).
        // hub_targets[cid] > 0 marks a hub and its recruiting target.
        let mut hub_targets: Vec<u32> = Vec::new();
        let mut samples: Vec<SampleTruth> = Vec::new();
        // Recruiting pools per family: ids of C2s still taking samples.
        let mut recruiting: BTreeMap<Family, Vec<usize>> = BTreeMap::new();
        let mut dirty_ports = vec![23u16, 48101, 666, 1312, 3074, 6969, 42516, 9506, 1791, 6738];
        dirty_ports.shuffle(rng);

        let mint_c2 = |rng: &mut StdRng,
                       asdb: &mut AsDb,
                       c2s: &mut Vec<C2Truth>,
                       family: Family,
                       day: u32,
                       force_live: Option<bool>|
         -> usize {
            let id = c2s.len();
            let asn = pick_asn(rng);
            let host_ip = asdb
                .alloc_ip(asn)
                .unwrap_or_else(|| Ipv4Addr::new(44, (id >> 8) as u8, id as u8, 1));
            let endpoint = if rng.gen_bool(cal.dns_endpoint_rate) {
                C2Endpoint::Domain(format!("c{id}.dyn-{}.example-cdn.net", id % 97))
            } else {
                C2Endpoint::Ip(host_ip)
            };
            let port = dirty_ports[id % dirty_ports.len()];
            let live = force_live.unwrap_or_else(|| rng.gen_bool(cal.primary_live_rate));
            let (born_day, dead_day) = if live {
                let observed = if rng.gen_bool(cal.lifespan_one_day) {
                    1
                } else {
                    // Geometric tail, capped at 45 days (Figure 2 x-range).
                    let mut o = 2;
                    while o < 45 && !rng.gen_bool(cal.lifespan_tail_p) {
                        o += 1;
                    }
                    o
                };
                (day.saturating_sub(rng.gen_range(0..3)), day + observed)
            } else {
                // Died before the sample surfaced.
                let dead = day.saturating_sub(rng.gen_range(1..6)).max(1);
                (dead.saturating_sub(rng.gen_range(1..10)), dead)
            };
            c2s.push(C2Truth {
                id,
                endpoint,
                host_ip,
                port,
                family,
                asn,
                born_day,
                dead_day,
                respond: RespondMode::elusive(),
                serves_loader: None,
            });
            id
        };

        for (id, &publish_day) in publish_days.iter().enumerate() {
            let family = weighted_family(rng, &cal.family_weights);
            let mut c2_ids: Vec<usize> = Vec::new();
            if !family.is_p2p() {
                // Primary + fallbacks.
                let n_refs = {
                    let total: f64 = cal.c2_refs_weights.iter().sum();
                    let mut pick = rng.gen_range(0.0..total);
                    let mut n = 1;
                    for (i, w) in cal.c2_refs_weights.iter().enumerate() {
                        if pick < *w {
                            n = i + 1;
                            break;
                        }
                        pick -= w;
                    }
                    n
                };
                {
                    let pool = recruiting.entry(family).or_default();
                    // Drop C2s whose recruiting window lapsed.
                    pool.retain(|&cid| {
                        publish_day.saturating_sub(c2s[cid].born_day) <= cal.recruit_window
                    });
                }
                for k in 0..n_refs {
                    // A duplicate pick (same C2 chosen twice for one
                    // sample) retries once so hub pulls don't shrink the
                    // per-sample reference count.
                    for _attempt in 0..2 {
                        let pool_snapshot: Vec<usize> =
                            recruiting.get(&family).cloned().unwrap_or_default();
                        let cid = if k == 0 {
                            // The primary's liveness drives the §3.2 dead-on-
                            // arrival statistic: pin it to the target rate.
                            let want_live = rng.gen_bool(cal.primary_live_rate);
                            let candidates: Vec<usize> = pool_snapshot
                                .iter()
                                .copied()
                                .filter(|&cid| c2s[cid].alive_on(publish_day) == want_live)
                                .collect();
                            if !candidates.is_empty() && rng.gen_bool(cal.c2_reuse_rate) {
                                // Prefer an unfilled hub; else preferential
                                // attachment over the recruiting pool.
                                let hubs: Vec<usize> = candidates
                                    .iter()
                                    .copied()
                                    .filter(|&c| {
                                        hub_targets.get(c).copied().unwrap_or(0) > 0
                                            && ref_counts.get(c).copied().unwrap_or(0)
                                                < hub_targets[c]
                                    })
                                    .collect();
                                if !hubs.is_empty() && rng.gen_bool(0.65) {
                                    hubs[rng.gen_range(0..hubs.len())]
                                } else {
                                    pick_weighted(rng, &candidates, &ref_counts)
                                }
                            } else {
                                let new_id = mint_c2(
                                    rng,
                                    &mut asdb,
                                    &mut c2s,
                                    family,
                                    publish_day,
                                    Some(want_live),
                                );
                                recruiting.entry(family).or_default().push(new_id);
                                new_id
                            }
                        } else if !pool_snapshot.is_empty() && rng.gen_bool(cal.c2_reuse_rate) {
                            let hubs: Vec<usize> = pool_snapshot
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    hub_targets.get(c).copied().unwrap_or(0) > 0
                                        && ref_counts.get(c).copied().unwrap_or(0) < hub_targets[c]
                                })
                                .collect();
                            if !hubs.is_empty() && rng.gen_bool(0.75) {
                                hubs[rng.gen_range(0..hubs.len())]
                            } else {
                                pick_weighted(rng, &pool_snapshot, &ref_counts)
                            }
                        } else {
                            // Fallback endpoints are almost always stale.
                            let stale_live = rng.gen_bool(0.02);
                            let new_id = mint_c2(
                                rng,
                                &mut asdb,
                                &mut c2s,
                                family,
                                publish_day,
                                Some(stale_live),
                            );
                            recruiting.entry(family).or_default().push(new_id);
                            new_id
                        };
                        if !c2_ids.contains(&cid) {
                            c2_ids.push(cid);
                            while ref_counts.len() < c2s.len() {
                                ref_counts.push(0);
                            }
                            while hub_targets.len() < c2s.len() {
                                // Newly minted: a fraction become hubs.
                                let is_hub = rng.gen_bool(0.22);
                                hub_targets.push(if is_hub { 12 + rng.gen_range(0..9) } else { 0 });
                            }
                            ref_counts[cid] += 1;
                            break; // pick accepted; no retry needed
                        }
                    }
                }
            }

            samples.push(SampleTruth {
                id,
                sha256: String::new(),
                family,
                publish_day,
                spec: BehaviorSpec::default(), // filled below
                elf: Vec::new(),
                c2_ids,
                corrupted: rng.gen_bool(cal.corrupt_rate),
                av_detections: 0,
            });
        }

        // --- downloaders: 47 distinct; 35 co-located with C2s, 12 not ---
        let mut downloaders: Vec<(Ipv4Addr, String)> = Vec::new();
        let mut dl_pool: Vec<(Ipv4Addr, String)> = Vec::new();
        let candidate_c2s: Vec<usize> = (0..c2s.len().min(800)).collect();
        let co_located = candidate_c2s
            .choose_multiple(rng, 35.min(c2s.len()))
            .copied()
            .collect::<Vec<_>>();
        for cid in co_located {
            let loader = pick_loader(rng);
            c2s[cid].serves_loader = Some(loader.clone());
            dl_pool.push((c2s[cid].host_ip, loader));
        }
        for i in 0..12 {
            let asn = pick_asn(rng);
            let ip = asdb
                .alloc_ip(asn)
                .unwrap_or_else(|| Ipv4Addr::new(45, 0, i as u8, 7));
            let loader = pick_loader(rng);
            downloaders.push((ip, loader.clone()));
            dl_pool.push((ip, loader));
        }

        // --- exploit arsenals (Table 4 proportions) ---
        let group_reps: [(u8, VulnId, u32); 12] = [
            (1, VulnId::Gpon10561, 139),
            (2, VulnId::DlinkHnap, 132),
            (3, VulnId::Zyxel, 38),
            (4, VulnId::VacronNvr, 46),
            (5, VulnId::HuaweiHg532, 1),
            (6, VulnId::MvpowerDvr, 74),
            (7, VulnId::Dlink45382, 3),
            (8, VulnId::LinksysE, 2),
            (9, VulnId::EirD1000, 9),
            (10, VulnId::ThinkPhp, 2),
            (11, VulnId::Nuuo, 1),
            (12, VulnId::NetlinkGpon, 2),
        ];
        let group_total: u32 = group_reps.iter().map(|(_, _, w)| w).sum();
        let n_exploiters = ((cfg.n_samples as f64) * cal.exploiter_rate) as usize;
        let exploiter_ids: Vec<usize> = {
            let eligible: Vec<usize> = samples
                .iter()
                .filter(|s| !s.family.is_p2p() && s.family != Family::VpnFilter)
                .map(|s| s.id)
                .collect();
            eligible
                .choose_multiple(rng, n_exploiters.min(eligible.len()))
                .copied()
                .collect()
        };
        for &sid in &exploiter_ids {
            let k = 1 + rng.gen_range(0..3) + usize::from(rng.gen_bool(0.4));
            let mut groups: Vec<VulnId> = Vec::new();
            for _ in 0..k {
                let mut pick = rng.gen_range(0..group_total);
                for (_, v, w) in group_reps {
                    if pick < w {
                        if !groups.contains(&v) {
                            groups.push(v);
                        }
                        break;
                    }
                    pick -= w;
                }
            }
            let (dl_ip, loader) = dl_pool[rng.gen_range(0..dl_pool.len())].clone();
            let full_gpon = rng.gen_bool(129.0 / 139.0);
            samples[sid].spec.exploits = groups
                .into_iter()
                .map(|vuln| ExploitPlan {
                    vuln,
                    downloader: dl_ip,
                    loader: loader.clone(),
                    full_gpon,
                })
                .collect();
        }

        // --- DDoS plan (§5): 42 commands, 17 C2s, 20 samples ---
        let (attacks, attack_schedule) = plan_attacks(rng, &mut asdb, &mut c2s, &mut samples);

        // --- probing theatre (D-PC2) ---
        let probe_start_day = 340;
        let mut probe_subnets = Vec::new();
        let mut probe_c2_ids = Vec::new();
        for i in 0..6 {
            let base = Ipv4Addr::new(77, 99, i as u8, 0);
            probe_subnets.push(Prefix::new(base, 24));
        }
        for i in 0..7 {
            let subnet = &probe_subnets[i % 6];
            let host_ip = subnet.host(10 + i as u32 * 13).expect("room in /24");
            let id = c2s.len();
            let family = if i % 2 == 0 {
                Family::Gafgyt
            } else {
                Family::Mirai
            };
            c2s.push(C2Truth {
                id,
                endpoint: C2Endpoint::Ip(host_ip),
                host_ip,
                port: PROBE_PORTS[i % PROBE_PORTS.len()],
                family,
                asn: Asn(53667), // FranTech: a Table-2 hoster
                born_day: probe_start_day - 3,
                dead_day: probe_start_day + 17,
                respond: RespondMode::elusive(),
                serves_loader: None,
            });
            probe_c2_ids.push(id);
        }

        // --- finalize specs, compile and emit binaries ---
        let attack_sample_ids: std::collections::BTreeSet<usize> =
            attacks.iter().map(|a| a.sample_id).collect();
        for s in &mut samples {
            let mut spec = BehaviorSpec {
                family: s.family,
                bot_id: s.id as u32 + 1,
                // Evasive samples die under the real resolver; the DDoS
                // observation set must stay activatable end-to-end.
                evasive: !attack_sample_ids.contains(&s.id) && rng.gen_bool(cal.evasive_rate),
                banner: match s.family {
                    Family::Mirai => "/bin/busybox MIRAI".to_string(),
                    Family::Gafgyt => "BUILD GAFGYT".to_string(),
                    Family::Tsunami => "NICK iotbot".to_string(),
                    Family::Daddyl33t => "l33t botkit v6".to_string(),
                    Family::Mozi => "Mozi.m".to_string(),
                    Family::Hajime => "hajime-node".to_string(),
                    Family::VpnFilter => "vpnfilter stage2".to_string(),
                },
                exploits: std::mem::take(&mut s.spec.exploits),
                resolver: WORLD_RESOLVER,
                scan_base: Ipv4Addr::new(100, 70, (s.id % 40) as u8, 0),
                scan_mask: 0x0000_00ff,
                scan_burst: 3,
                syn_multi_sport: s.id % 2 == 0,
                attack_pps: 150 + (s.id as u32 % 4) * 50,
                ..Default::default()
            };
            if s.family.is_p2p() {
                spec.peers = (0..3 + s.id % 4)
                    .map(|k| {
                        (
                            Ipv4Addr::new(88, 10, (k % 7) as u8, 10 + (s.id % 200) as u8),
                            malnet_protocols::mozi::MOZI_PORT,
                        )
                    })
                    .collect();
            } else {
                spec.c2 = s
                    .c2_ids
                    .iter()
                    .map(|&cid| (c2s[cid].endpoint.clone(), c2s[cid].port))
                    .collect();
            }
            let program = compile(&spec);
            let junk: Vec<u8> = (0..64)
                .map(|k| {
                    let v = (s.id as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(k * 40503);
                    (v >> 16) as u8
                })
                .collect();
            let mut elf = emit_elf(&program, &junk);
            if s.corrupted {
                // Damage the first bytecode record (right after the MNBC
                // config header) so the stub hits an unknown opcode and
                // aborts — a failed activation (§6f).
                if let Some(pos) = elf.windows(4).position(|w| w == b"MNBC") {
                    elf[pos + 20] = 0xff;
                }
            }
            s.sha256 = pseudo_sha256(&elf);
            s.elf = elf;
            s.spec = spec;
            s.av_detections = malnet_intel_engine_stub(rng);
        }

        let mut world = World {
            cfg,
            asdb,
            c2s,
            samples,
            downloaders,
            attacks,
            attack_schedule,
            probe_subnets,
            probe_c2_ids,
            probe_start_day,
            roster: Arc::default(),
        };
        world.roster = Arc::new(Roster::new(&world));
        world
    }

    /// Samples published on `day`, in id order.
    pub fn samples_published_on(&self, day: u32) -> Vec<&SampleTruth> {
        self.samples
            .iter()
            .filter(|s| s.publish_day == day)
            .collect()
    }

    /// All publish days, sorted and deduplicated.
    pub fn publish_days(&self) -> Vec<u32> {
        let mut days: Vec<u32> = self.samples.iter().map(|s| s.publish_day).collect();
        days.sort_unstable();
        days.dedup();
        days
    }

    /// The world network of `day`: the resolver, every C2 host (up iff
    /// alive that day), the standalone downloaders, and the probing
    /// decoys while the probing window is open. The world's roster
    /// declares these hosts and the network builds each one the first
    /// time something touches it (DESIGN.md, "World hosts are built on
    /// first touch"), so a network costs only the hosts its traffic
    /// reaches.
    ///
    /// Every C2 service gets a fresh, private responsiveness chain in the
    /// "last session silent" state, and the network's RNG derives from
    /// `(seed, day)` alone, so the network is a pure function of
    /// `(world, day, seed)`: safe to build and run concurrently on any
    /// worker thread (DESIGN.md §8). The log vector is always empty; no
    /// caller reads C2 ground-truth logs from a world network.
    pub fn network_for_day_detached(&self, day: u32, seed: u64) -> (Network, Vec<C2Log>) {
        let mut net = Network::new(SimTime::from_day(day, 0), seed ^ u64::from(day) << 17);
        net.set_host_source(Box::new(DayHosts {
            roster: Arc::clone(&self.roster),
            day,
        }));
        (net, Vec::new())
    }
}

/// What lives at one world address.
#[derive(Debug, Clone, Copy)]
enum Resident {
    /// The resolver at [`WORLD_RESOLVER`].
    Resolver,
    /// A C2 server, by id.
    C2(usize),
    /// A standalone downloader, by index into [`World::downloaders`].
    Downloader(usize),
    /// A probing-theatre decoy presenting an Apache banner.
    BannerDecoy,
    /// A probing-theatre decoy that accepts and never responds.
    SinkDecoy,
}

/// What one C2's service needs.
#[derive(Debug)]
struct C2Host {
    family: Family,
    port: u16,
    respond: RespondMode,
    serves_loader: Option<String>,
    /// Days the host is up.
    alive: Range<u32>,
}

/// Every host a world network can hold, with what building each takes.
/// Built once per world and shared by all its day networks.
#[derive(Debug, Default)]
struct Roster {
    // Point queries by address only. lint: hash-ok
    residents: HashMap<Ipv4Addr, Resident>,
    /// The resolver's A records: each DNS-named C2 endpoint and its host.
    zone: Vec<(DomainName, Ipv4Addr)>,
    /// By C2 id.
    c2s: Vec<C2Host>,
    /// The loader each standalone downloader serves.
    loaders: Vec<String>,
    attack_schedule: AttackSchedule,
    /// Days the decoys exist.
    probe_window: Range<u32>,
}

impl Roster {
    fn new(world: &World) -> Roster {
        let mut residents = HashMap::new(); // lookup-only, see field. lint: hash-ok
        let hosts = std::iter::once((WORLD_RESOLVER, Resident::Resolver))
            .chain(world.c2s.iter().map(|c2| (c2.host_ip, Resident::C2(c2.id))))
            .chain(
                (world.downloaders.iter().enumerate())
                    .map(|(i, (ip, _))| (*ip, Resident::Downloader(i))),
            );
        for (ip, resident) in hosts {
            assert!(
                residents.insert(ip, resident).is_none(),
                "duplicate host {ip}"
            );
        }
        // Decoys only take addresses nothing else holds.
        for (i, subnet) in world.probe_subnets.iter().enumerate() {
            let banner_ip = subnet.host(60 + i as u32).expect("room");
            residents.entry(banner_ip).or_insert(Resident::BannerDecoy);
            let sink_ip = subnet.host(80 + i as u32).expect("room");
            residents.entry(sink_ip).or_insert(Resident::SinkDecoy);
        }
        Roster {
            residents,
            zone: world
                .c2s
                .iter()
                .filter_map(|c2| match &c2.endpoint {
                    C2Endpoint::Domain(d) => Some((DomainName::new(d).ok()?, c2.host_ip)),
                    C2Endpoint::Ip(_) => None,
                })
                .collect(),
            c2s: world
                .c2s
                .iter()
                .map(|c2| C2Host {
                    family: c2.family,
                    port: c2.port,
                    respond: c2.respond,
                    serves_loader: c2.serves_loader.clone(),
                    alive: c2.born_day..c2.dead_day,
                })
                .collect(),
            loaders: world.downloaders.iter().map(|(_, l)| l.clone()).collect(),
            attack_schedule: world.attack_schedule.clone(),
            probe_window: world.probe_start_day..world.probe_start_day + 14,
        }
    }
}

/// One day's view of a world's roster: the host source of that day's
/// networks.
struct DayHosts {
    roster: Arc<Roster>,
    day: u32,
}

impl HostSource for DayHosts {
    fn declared(&self, ip: Ipv4Addr) -> Option<bool> {
        match self.roster.residents.get(&ip)? {
            Resident::C2(id) => Some(self.roster.c2s[*id].alive.contains(&self.day)),
            Resident::BannerDecoy | Resident::SinkDecoy => {
                self.roster.probe_window.contains(&self.day).then_some(true)
            }
            Resident::Resolver | Resident::Downloader(_) => Some(true),
        }
    }

    fn build(&self, ip: Ipv4Addr) -> Box<dyn Service + Send> {
        let roster = &*self.roster;
        match roster.residents.get(&ip).expect("declared host") {
            Resident::Resolver => {
                let zone = DnsHandle::new();
                for (name, host) in &roster.zone {
                    zone.set(name.clone(), vec![*host]);
                }
                Box::new(DnsService::new(zone))
            }
            Resident::C2(id) => {
                let c2 = &roster.c2s[*id];
                let commands = roster
                    .attack_schedule
                    .get(&(*id, self.day))
                    .cloned()
                    .unwrap_or_default();
                let cfg = C2Config {
                    family: c2.family,
                    port: c2.port,
                    respond: if commands.is_empty() {
                        c2.respond
                    } else {
                        RespondMode::Always
                    },
                    commands_on_login: commands,
                    serve_loader: c2.serves_loader.clone(),
                };
                Box::new(C2Service::new(cfg, C2Log::default()))
            }
            Resident::Downloader(i) => {
                let loader = &roster.loaders[*i];
                // HttpFileServer's constructor takes a HashMap; one entry,
                // looked up by path only. lint: hash-ok
                let mut files = HashMap::new();
                files.insert(
                    format!("/{loader}"),
                    format!("#!/bin/sh\n# {loader}\n").into_bytes(),
                );
                Box::new(HttpFileServer::new(80, files))
            }
            Resident::BannerDecoy => Box::new(BannerService::apache(PROBE_PORTS.to_vec())),
            Resident::SinkDecoy => Box::new(SinkService::new(PROBE_PORTS.to_vec())),
        }
    }
}

/// Build the §5 attack plan. Mutates C2/sample truths (attack C2s are
/// re-hosted into US/NL/CZ ASes and made long-lived).
type AttackSchedule = BTreeMap<(usize, u32), Vec<(SimDuration, AttackCommand)>>;

fn plan_attacks(
    rng: &mut StdRng,
    asdb: &mut AsDb,
    c2s: &mut [C2Truth],
    samples: &mut [SampleTruth],
) -> (Vec<AttackPlan>, AttackSchedule) {
    // Per-family command menus (Figure 11).
    #[allow(clippy::type_complexity)]
    let menus: [(Family, &[(AttackMethod, u32)], usize, usize); 3] = [
        (
            Family::Mirai,
            &[
                (AttackMethod::UdpFlood, 10),
                (AttackMethod::SynFlood, 4),
                (AttackMethod::TlsFlood, 3),
                (AttackMethod::Stomp, 2),
            ],
            8, // C2s
            9, // samples
        ),
        (
            Family::Gafgyt,
            &[
                (AttackMethod::UdpFlood, 3),
                (AttackMethod::Std, 2),
                (AttackMethod::Vse, 1),
            ],
            3,
            4,
        ),
        (
            Family::Daddyl33t,
            &[
                (AttackMethod::UdpFlood, 6),
                (AttackMethod::SynFlood, 4),
                (AttackMethod::TlsFlood, 3),
                (AttackMethod::Blacknurse, 2),
                (AttackMethod::Nfo, 2),
            ],
            6,
            7,
        ),
    ];

    // Target pool: 23 ASes / 11 countries; 45% ISP, 36% hosting (18% of
    // the ASes gaming), the rest businesses incl. Google/Amazon/Roblox.
    let mut target_asns: Vec<Asn> = Vec::new();
    let isp_asns: Vec<Asn> = asdb
        .records()
        .iter()
        .filter(|r| r.kind == AsKind::Isp)
        .map(|r| r.asn)
        .take(10)
        .collect();
    let host_asns: Vec<Asn> = asdb
        .records()
        .iter()
        .filter(|r| r.kind == AsKind::Hosting && r.asn.0 >= 60_000)
        .map(|r| r.asn)
        .take(4)
        .collect();
    let gaming_asns: Vec<Asn> = asdb
        .records()
        .iter()
        .filter(|r| r.kind == AsKind::GamingHosting)
        .map(|r| r.asn)
        .take(4)
        .collect();
    target_asns.extend(isp_asns);
    target_asns.extend(host_asns);
    target_asns.extend(gaming_asns);
    for big in [15169u32, 16509, 22697, 63_000, 63_001] {
        if asdb.get(Asn(big)).is_some() {
            target_asns.push(Asn(big));
        }
    }
    let mut targets: Vec<Ipv4Addr> = Vec::new();
    for (i, asn) in target_asns.iter().cycle().take(28).enumerate() {
        let ip = asdb
            .alloc_ip(*asn)
            .unwrap_or_else(|| Ipv4Addr::new(203, 0, 113, i as u8 + 1));
        targets.push(ip);
    }

    // Attack C2 hosting: 80% of commands from US/NL/CZ servers.
    let us_nl_cz: Vec<Asn> = asdb
        .records()
        .iter()
        .filter(|r| matches!(r.country, "US" | "NL" | "CZ") && r.is_hosting())
        .map(|r| r.asn)
        .collect();
    let elsewhere: Vec<Asn> = asdb
        .records()
        .iter()
        .filter(|r| matches!(r.country, "RU" | "FR" | "DE") && r.is_hosting())
        .map(|r| r.asn)
        .collect();

    let mut plans: Vec<AttackPlan> = Vec::new();
    let mut schedule: AttackSchedule = BTreeMap::new();
    // Delay-slot cursor per (c2, day): commands land 12 minutes apart, so
    // no two commands share one read. The spacing does not cover the
    // C2's keepalives. The Mirai bot parses each read at fixed offsets and
    // never reads the frame's u16 length, so a keepalive and a command in
    // one read shift every field by 2 bytes: the bot floods a `0.1.x.y`
    // address for about 15 days (until the session deadline) and never
    // reads its C2 again. The behavioural detector then records that
    // flood as a verified D-DDOS row that matches no planned command.
    let mut delay_cursor: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    let mut double_hit_budget = 7; // ~25% of ~28 targets take two types
    let mut target_cursor = 0usize;

    for (family, menu, n_c2s, n_samples) in menus {
        // Eligible samples: right family, not corrupted, has a C2.
        let eligible: Vec<usize> = samples
            .iter()
            .filter(|s| s.family == family && !s.corrupted && !s.c2_ids.is_empty())
            .map(|s| s.id)
            .collect();
        // Take a contiguous publish-time window so attack C2s shared by
        // several samples stay short-lived (the paper's attack C2s
        // average ~10 observed days, not months).
        let mut by_day = eligible.clone();
        by_day.sort_by_key(|&sid| samples[sid].publish_day);
        let take = n_samples.min(by_day.len());
        let window = (take * 4).min(by_day.len());
        let start = if by_day.len() > window {
            rng.gen_range(0..=by_day.len() - window)
        } else {
            0
        };
        // Greedy within the window: prefer samples with fresh primaries so
        // the designated C2 count approaches the paper's 17.
        let slice = &by_day[start..start + window];
        let mut chosen: Vec<usize> = Vec::new();
        let mut seen_primaries: Vec<usize> = Vec::new();
        for &sid in slice {
            if chosen.len() >= take {
                break;
            }
            let p = samples[sid].c2_ids[0];
            if !seen_primaries.contains(&p) {
                seen_primaries.push(p);
                chosen.push(sid);
            }
        }
        for &sid in slice {
            if chosen.len() >= take {
                break;
            }
            if !chosen.contains(&sid) {
                chosen.push(sid);
            }
        }
        // Cap distinct primaries at the paper's per-family C2 count by
        // re-pointing surplus samples at already-designated C2s (the
        // paper saw 17 C2s commanding 20 binaries).
        let mut designated: Vec<usize> = Vec::new();
        for &sid in &chosen {
            let cid = samples[sid].c2_ids[0];
            if !designated.contains(&cid) {
                if designated.len() < n_c2s {
                    designated.push(cid);
                } else {
                    let shared = designated[rng.gen_range(0..designated.len())];
                    samples[sid].c2_ids[0] = shared;
                }
            }
        }
        // Tiny worlds (test-sized corpora) may have no eligible sample
        // of this family at all; skip its menu rather than divide by a
        // zero-length rotation below.
        if chosen.is_empty() {
            continue;
        }
        // Command multiset for this family.
        let mut cmds: Vec<AttackMethod> = Vec::new();
        for (m, k) in menu {
            for _ in 0..*k {
                cmds.push(*m);
            }
        }
        cmds.shuffle(rng);

        let mut cmd_iter = cmds.into_iter().peekable();
        let mut si = 0usize;
        while cmd_iter.peek().is_some() {
            let sid = chosen[si % chosen.len()];
            si += 1;
            let cid = samples[sid].c2_ids[0];
            let day = samples[sid].publish_day;
            // Make the C2 live and long-observed (§5: attack C2s average
            // ~10 days), re-hosted 80/20 into US/NL/CZ vs elsewhere.
            let c2 = &mut c2s[cid];
            c2.born_day = c2.born_day.min(day.saturating_sub(2));
            c2.dead_day = c2.dead_day.max(day + 4 + rng.gen_range(0..7));
            c2.respond = RespondMode::Always;
            let pool = if rng.gen_bool(0.8) {
                &us_nl_cz
            } else {
                &elsewhere
            };
            if let Some(asn) = pool.get(rng.gen_range(0..pool.len().max(1))) {
                if let Some(ip) = asdb.alloc_ip(*asn) {
                    c2.asn = *asn;
                    c2.host_ip = ip;
                    if matches!(c2.endpoint, C2Endpoint::Ip(_)) {
                        c2.endpoint = C2Endpoint::Ip(ip);
                    }
                }
            }
            // 1-3 commands per session.
            let per_session = rng.gen_range(1..=3).min(3);
            let mut session_cmds: Vec<(SimDuration, AttackCommand)> = Vec::new();
            let mut used_methods: Vec<AttackMethod> = Vec::new();
            let slot = delay_cursor.entry((cid, day)).or_insert(0);
            for _k in 0..per_session {
                let Some(method) = cmd_iter.next() else { break };
                let reuse_target = double_hit_budget > 0
                    && !session_cmds.is_empty()
                    && !used_methods.contains(&method)
                    && !session_cmds.is_empty();
                let target = if reuse_target {
                    double_hit_budget -= 1;
                    session_cmds[0].1.target
                } else {
                    let t = targets[target_cursor % targets.len()];
                    target_cursor += 1;
                    t
                };
                used_methods.push(method);
                // Port mix: 21% port 80, 7% port 443, rest high ports.
                let port = match method {
                    AttackMethod::Blacknurse => 0,
                    AttackMethod::Nfo => malnet_protocols::daddyl33t::NFO_PORT,
                    AttackMethod::Vse => 27015,
                    _ => {
                        let roll: f64 = rng.gen();
                        if roll < 0.21 {
                            80
                        } else if roll < 0.28 {
                            443
                        } else {
                            [4567u16, 8888, 3074, 53, 19132][rng.gen_range(0..5)]
                        }
                    }
                };
                let delay = SimDuration::from_mins(4 + *slot * 12);
                *slot += 1;
                session_cmds.push((
                    delay,
                    AttackCommand {
                        method,
                        target,
                        port,
                        duration_secs: rng.gen_range(8..20),
                    },
                ));
            }
            schedule
                .entry((cid, day))
                .or_default()
                .extend(session_cmds.iter().cloned());
            plans.push(AttackPlan {
                sample_id: sid,
                c2_id: cid,
                commands: session_cmds,
            });
        }
    }
    (plans, schedule)
}

/// Tiny inline AV-count model (kept here to avoid a cyclic dependency on
/// `malnet-intel`; the full model lives there and is used by the
/// pipeline).
fn malnet_intel_engine_stub(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.02) {
        rng.gen_range(0..5)
    } else {
        rng.gen_range(12..56)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig {
            seed: 5,
            n_samples: 220,
            cal: Calibration::default(),
        })
    }

    #[test]
    fn world_generates_with_sane_shape() {
        let w = small_world();
        assert_eq!(w.samples.len(), 220);
        // C2 population near 0.8x samples (paper: 1160 / 1447).
        let ratio = w.c2s.len() as f64 / w.samples.len() as f64;
        assert!((0.4..1.4).contains(&ratio), "c2 ratio {ratio}");
        // All samples have binaries and hashes.
        assert!(w.samples.iter().all(|s| !s.elf.is_empty()));
        assert!(w.samples.iter().all(|s| s.sha256.len() == 64));
        // Hashes unique.
        let mut hashes: Vec<&str> = w.samples.iter().map(|s| s.sha256.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), w.samples.len());
    }

    #[test]
    fn primary_c2_day0_liveness_near_40_percent() {
        let w = World::generate(WorldConfig {
            seed: 6,
            n_samples: 600,
            cal: Calibration::default(),
        });
        let with_c2: Vec<_> = w.samples.iter().filter(|s| !s.c2_ids.is_empty()).collect();
        let live = with_c2
            .iter()
            .filter(|s| w.c2s[s.c2_ids[0]].alive_on(s.publish_day))
            .count();
        let rate = live as f64 / with_c2.len() as f64;
        assert!((0.30..0.55).contains(&rate), "day-0 live rate {rate}");
    }

    #[test]
    fn attack_plan_matches_paper_counts() {
        let w = small_world();
        let total_cmds: usize = w.attacks.iter().map(|a| a.commands.len()).sum();
        assert_eq!(total_cmds, 42, "42 observed commands");
        let samples: std::collections::BTreeSet<usize> =
            w.attacks.iter().map(|a| a.sample_id).collect();
        assert!(
            samples.len() >= 15 && samples.len() <= 20,
            "{}",
            samples.len()
        );
        let c2set: std::collections::BTreeSet<usize> = w.attacks.iter().map(|a| a.c2_id).collect();
        assert!(c2set.len() >= 12 && c2set.len() <= 17, "{}", c2set.len());
        // All 8 attack types appear.
        let methods: std::collections::BTreeSet<AttackMethod> = w
            .attacks
            .iter()
            .flat_map(|a| a.commands.iter().map(|(_, c)| c.method))
            .collect();
        assert_eq!(methods.len(), 8, "{methods:?}");
        // Attack C2s are always-responsive and long-lived.
        for &cid in &c2set {
            let c2 = &w.c2s[cid];
            assert_eq!(c2.respond, RespondMode::Always);
            assert!(c2.dead_day - c2.born_day >= 5);
        }
    }

    #[test]
    fn probe_theatre_has_seven_c2s_in_six_subnets() {
        let w = small_world();
        assert_eq!(w.probe_subnets.len(), 6);
        assert_eq!(w.probe_c2_ids.len(), 7);
        for &cid in &w.probe_c2_ids {
            let c2 = &w.c2s[cid];
            assert!(
                w.probe_subnets.iter().any(|s| s.contains(c2.host_ip)),
                "{} outside probe subnets",
                c2.host_ip
            );
            assert!(PROBE_PORTS.contains(&c2.port));
            assert!(c2.alive_on(w.probe_start_day + 5));
        }
    }

    #[test]
    fn network_for_day_installs_live_c2s_only_up() {
        let w = small_world();
        let day = w.samples[0].publish_day;
        let (net, _) = w.network_for_day_detached(day, 1);
        for c2 in &w.c2s {
            assert!(net.has_host(c2.host_ip), "every C2 host registered");
            assert_eq!(net.host_up(c2.host_ip), c2.alive_on(day), "{}", c2.host_ip);
        }
        assert!(net.has_host(WORLD_RESOLVER));
    }

    #[test]
    fn exploiters_have_arsenals_with_table4_popularity_order() {
        let w = World::generate(WorldConfig {
            seed: 9,
            n_samples: 800,
            cal: Calibration::default(),
        });
        let mut gpon = 0;
        let mut huawei = 0;
        let mut any = 0;
        for s in &w.samples {
            if s.spec.exploits.is_empty() {
                continue;
            }
            any += 1;
            if s.spec.exploits.iter().any(|e| e.vuln == VulnId::Gpon10561) {
                gpon += 1;
            }
            if s.spec
                .exploits
                .iter()
                .any(|e| e.vuln == VulnId::HuaweiHg532)
            {
                huawei += 1;
            }
        }
        assert!(any > 80, "exploiter count {any}");
        assert!(
            gpon > huawei,
            "GPON ({gpon}) must dominate Huawei ({huawei})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.sha256, y.sha256);
        }
        assert_eq!(a.c2s.len(), b.c2s.len());
    }

    #[test]
    fn top10_ases_host_majority_of_c2s() {
        let w = World::generate(WorldConfig {
            seed: 11,
            n_samples: 1000,
            cal: Calibration::default(),
        });
        let mut by_asn: HashMap<u32, usize> = HashMap::new();
        for c2 in &w.c2s {
            *by_asn.entry(c2.asn.0).or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = by_asn.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        let share = top10 as f64 / w.c2s.len() as f64;
        assert!((0.55..0.85).contains(&share), "top-10 share {share}");
    }
}

#[cfg(test)]
mod lazy_network_oracle;
