//! The D-PC2 active-probing study (paper §2.3b).
//!
//! Every 4 hours for two weeks, the prober sweeps 6 suspicious /24
//! subnets across the 12 historical ports of Table 5:
//!
//! 1. **Listener discovery** — plain TCP SYN probes ("we do not send
//!    probes if the host does not listen on a port").
//! 2. **Banner filtering** — listeners that greet with a well-known
//!    banner (Apache, nginx) are dropped.
//! 3. **Weaponized engagement** — a real malware binary, MITM-redirected
//!    at the candidate (CnCHunter mode 2), performs the C2 "call-home";
//!    a server that answers the protocol login counts as a responding C2.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use malnet_botgen::world::World;
use malnet_netsim::asdb::Prefix;
use malnet_netsim::net::Network;
use malnet_netsim::stack::{SockEvent, SockId};
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_prng::sub_seed;
use malnet_protocols::Family;
use malnet_sandbox::{AnalysisMode, Image, Sandbox, SandboxConfig};
use malnet_telemetry::{Field as EventField, SpanCtx, Telemetry};
use malnet_wire::packet::Transport;
use malnet_wire::pcap;

use crate::datasets::ProbedC2;

/// The prober's own vantage address.
pub const PROBER_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 9);

/// [`sub_seed`] domain for a round's detached probing network.
const DOMAIN_ROUND_NET: u64 = 0x5eed_0000_0000_0004;
/// [`sub_seed`] domain for a round's weaponized-engagement sandboxes.
const DOMAIN_ENGAGE: u64 = 0x5eed_0000_0000_0005;

/// Probing configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Subnets to sweep.
    pub subnets: Vec<Prefix>,
    /// Ports to sweep (Table 5).
    pub ports: Vec<u16>,
    /// First study day of the window.
    pub start_day: u32,
    /// Total probing rounds (paper: 14 days × 6 = 84).
    pub rounds: u32,
    /// Rounds per day (paper: 6, i.e. a 4-hour cadence).
    pub rounds_per_day: u32,
    /// Seconds each weaponized engagement probe runs.
    pub engage_secs: u64,
    /// Sweep the full /24 (254 hosts) or only the first N addresses
    /// (tests use a small N; the methodology is identical).
    pub hosts_per_subnet: u32,
    /// Bounded SYN re-probes (with linear backoff) for hosts that did
    /// not answer the first sweep, before declaring them non-listening.
    /// Defaults to `2`: a single-SYN discovery (`0`) reads every
    /// transiently lost packet as "nobody listening", the same false
    /// C2-death bug the pipeline's liveness sweep had.
    pub syn_retries: u32,
    /// Worker threads for the per-day round fan-out. `1` (the default)
    /// keeps the fully sequential path; larger values run a day's
    /// rounds concurrently on detached networks and merge their
    /// discoveries in round order — byte-identical at every width
    /// (enforced by the parallel-determinism suite).
    pub parallelism: usize,
    /// Run weaponized engagement guests on the block-cached interpreter
    /// (default) or the legacy stepping oracle. Bit-exact either way.
    pub block_engine: bool,
}

impl ProbeConfig {
    /// The paper's configuration over a world's probing theatre.
    pub fn from_world(world: &World) -> Self {
        ProbeConfig {
            subnets: world.probe_subnets.clone(),
            ports: malnet_botgen::world::PROBE_PORTS.to_vec(),
            start_day: world.probe_start_day,
            rounds: 84,
            rounds_per_day: 6,
            engage_secs: 25,
            hosts_per_subnet: 254,
            syn_retries: 2,
            parallelism: 1,
            block_engine: true,
        }
    }
}

/// One probing round's outcome, as plain data.
///
/// A round is a pure function of `(world, weapons, cfg, seed, round,
/// banner snapshot)` — it runs on a detached per-round network with
/// private RNG and responsiveness chains — so rounds of the same day can
/// execute on any thread in any order and [`merge_round_results`]
/// restores the canonical result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundResult {
    /// Which round (0-based across the whole window) this is.
    pub round: u32,
    /// Per surviving listener, in the order the SYN sweep heard its
    /// SYN-ACK (attempt by attempt; per-pair latency jitter, not the
    /// `(subnet, ip, port)` sweep order, decides it): did the weaponized
    /// engagement get a protocol answer? Weapon rotation and the
    /// engagement sub-seeds key on this index.
    pub engagements: Vec<((Ipv4Addr, u16), bool)>,
    /// Listeners this round dropped for greeting with a benign banner;
    /// later days skip them.
    pub banner_filtered: Vec<(Ipv4Addr, u16)>,
}

/// Merge per-round results into the discovered-C2 list, restoring the
/// canonical `(round, subnet, ip, port)` order regardless of the order
/// the rounds finished (or arrive) in. Servers that engaged at least
/// once are the discovered C2s.
///
/// Permutation-invariant by construction — rounds are sorted by round
/// number and each round's engagements keep their recorded order —
/// which the merge-permutation proptest exercises directly.
pub fn merge_round_results(mut rounds: Vec<RoundResult>) -> Vec<ProbedC2> {
    rounds.sort_by_key(|r| r.round);
    // (ip, port) → probe outcomes.
    let mut results: BTreeMap<(Ipv4Addr, u16), Vec<(u32, bool)>> = BTreeMap::new();
    for r in rounds {
        for ((ip, port), engaged) in r.engagements {
            results
                .entry((ip, port))
                .or_default()
                .push((r.round, engaged));
        }
    }
    results
        .into_iter()
        .filter(|(_, probes)| probes.iter().any(|(_, e)| *e))
        .map(|((ip, port), probes)| ProbedC2 { ip, port, probes })
        .collect()
}

/// Everything a probe round needs besides its round number — bundled so
/// the fan-out closure stays readable.
struct RoundCtx<'a> {
    world: &'a World,
    /// The weapons, each prepared once for every round's engagements.
    weapons: &'a [Option<Image>],
    cfg: &'a ProbeConfig,
    seed: u64,
    tel: &'a Telemetry,
    /// Coordinator span the round spans re-attach under.
    parent: SpanCtx,
}

/// Pick the probing weapons: one Mirai and one Gafgyt sample with clean
/// call-home behaviour (no exploit arsenal, no sandbox evasion, runs
/// reliably). The paper's operators likewise hand-selected two known-good
/// samples for the probing study (§2.3b).
pub fn weapons(world: &World) -> Vec<Vec<u8>> {
    [Family::Mirai, Family::Gafgyt]
        .into_iter()
        .filter_map(|fam| {
            world.samples.iter().find(|s| {
                s.family == fam && !s.corrupted && s.spec.exploits.is_empty() && !s.spec.evasive
            })
        })
        .map(|s| s.elf.clone())
        .collect()
}

/// Run the probing study. `weapons` are the malware binaries used for
/// engagement probes (paper: one Mirai and one Gafgyt sample), tried in
/// rotation. Each is prepared once ([`Image::prepare`]), and every
/// engagement of every round starts its process from that image. Probe
/// counts land in `tel` (`prober.probes_sent`, `prober.dark_syns`,
/// `prober.listeners_found`, `prober.engagements`); pass
/// [`Telemetry::disabled`] to opt out.
///
/// Rounds are grouped by study day: the banner-filter set crosses *day*
/// boundaries (each day's sweep skips everything filtered on earlier
/// days), while the rounds inside one day are independent given that
/// snapshot and fan out over `cfg.parallelism` workers, each on its own
/// detached network. Their discoveries merge in round order
/// ([`merge_round_results`]), so every width yields identical bytes.
pub fn run_probing(
    world: &World,
    weapons: &[Vec<u8>],
    cfg: &ProbeConfig,
    seed: u64,
    tel: &Telemetry,
) -> Vec<ProbedC2> {
    assert!(!weapons.is_empty(), "need at least one weaponized sample");
    let images: Vec<Option<Image>> = weapons.iter().map(|elf| Image::prepare(elf)).collect();
    let ctx = RoundCtx {
        world,
        weapons: &images,
        cfg,
        seed,
        tel,
        parent: tel.current_span(),
    };
    let mut banner_filtered: BTreeSet<(Ipv4Addr, u16)> = BTreeSet::new();
    let mut round_results: Vec<RoundResult> = Vec::new();
    let mut round = 0u32;
    while round < cfg.rounds {
        let day_end = cfg
            .rounds
            .min((round / cfg.rounds_per_day + 1) * cfg.rounds_per_day);
        let day_rounds: Vec<u32> = (round..day_end).collect();
        let snapshot = banner_filtered.clone();
        let day_out = crate::par::fan_out(day_rounds.len(), cfg.parallelism, |i| {
            probe_round(&ctx, day_rounds[i], &snapshot)
        });
        for r in &day_out {
            banner_filtered.extend(r.banner_filtered.iter().copied());
        }
        round_results.extend(day_out);
        // A probing-day milestone for the event stream, emitted after
        // the fan-out joined — every payload field is a deterministic
        // fold of the day's round results.
        tel.event(
            "probe_day",
            None,
            &[
                (
                    "day",
                    EventField::U(u64::from(cfg.start_day + round / cfg.rounds_per_day)),
                ),
                ("rounds_completed", EventField::U(u64::from(day_end))),
                (
                    "banner_filtered",
                    EventField::U(banner_filtered.len() as u64),
                ),
            ],
        );
        round = day_end;
    }
    merge_round_results(round_results)
}

/// One probing round: SYN sweep → banner filter → weaponized
/// engagement, against a detached network private to this round.
fn probe_round(
    ctx: &RoundCtx<'_>,
    round: u32,
    banner_filtered: &BTreeSet<(Ipv4Addr, u16)>,
) -> RoundResult {
    let RoundCtx {
        world,
        weapons,
        cfg,
        seed,
        tel,
        parent,
    } = ctx;
    let _round_span = tel.span_under("prober.round", parent);
    let day = cfg.start_day + round / cfg.rounds_per_day;
    let secs_into_day =
        u64::from(round % cfg.rounds_per_day) * 86_400 / u64::from(cfg.rounds_per_day);
    let (mut net, _logs) = world.network_for_day_detached(
        day,
        sub_seed(seed ^ DOMAIN_ROUND_NET, day, u64::from(round)),
    );
    net.run_until(SimTime::from_day(day, secs_into_day));
    net.add_external_host(PROBER_IP);

    // --- step 1: listener discovery (batched SYN sweep, with
    // bounded re-probes for unanswered hosts) ---
    let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();
    for subnet in &cfg.subnets {
        for h in 0..cfg.hosts_per_subnet.min(subnet.capacity()) {
            let Some(ip) = subnet.host(h) else { continue };
            for &port in &cfg.ports {
                if banner_filtered.contains(&(ip, port)) {
                    continue;
                }
                targets.push((ip, port));
            }
        }
    }
    let sweep = syn_sweep(&mut net, PROBER_IP, &targets, cfg.syn_retries);
    add_nonzero(tel, "prober.probes_sent", sweep.probes);
    add_nonzero(tel, "prober.syn_retries", sweep.retries);
    add_nonzero(tel, "prober.dark_syns", sweep.dark);

    // --- step 2: banner filter ---
    let mut listeners: Vec<(Ipv4Addr, u16)> = Vec::new();
    let mut newly_filtered: Vec<(Ipv4Addr, u16)> = Vec::new();
    for &t in &sweep.answered {
        let text = String::from_utf8_lossy(&sweep.banners[t]);
        if text.contains("Apache") || text.contains("nginx") || text.contains("Server:") {
            newly_filtered.push(targets[t]);
        } else {
            listeners.push(targets[t]);
        }
    }
    tel.add("prober.listeners_found", listeners.len() as u64);
    net.remove_host(PROBER_IP);

    // --- step 3: weaponized engagement probes ---
    let mut engagements: Vec<((Ipv4Addr, u16), bool)> = Vec::new();
    for (i, &(ip, port)) in listeners.iter().enumerate() {
        // Rotate weapons across listeners *and* rounds so every
        // candidate is probed by both samples over time.
        let weapon = &weapons[(i + round as usize) % weapons.len()];
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                bot_ip: Ipv4Addr::new(100, 64, 0, 2),
                mode: AnalysisMode::Weaponized { target: (ip, port) },
                handshaker_threshold: None,
                instruction_budget: 50_000_000,
                seed: sub_seed(seed ^ DOMAIN_ENGAGE, round, i as u64),
                block_engine: cfg.block_engine,
                ..SandboxConfig::default()
            },
        );
        let art = sb.execute_image(weapon.as_ref(), SimDuration::from_secs(cfg.engage_secs));
        net = sb.into_network();
        // Engagement: any application payload back from the target.
        let engaged = pcap::packets(&art.pcap).any(|(_, p)| {
            p.src == ip
                && matches!(&p.transport, Transport::Tcp { payload, .. } if !payload.is_empty())
        });
        if engaged {
            tel.add("prober.engagements", 1);
        }
        engagements.push(((ip, port), engaged));
    }
    RoundResult {
        round,
        engagements,
        banner_filtered: newly_filtered,
    }
}

/// What one [`syn_sweep`] learned.
pub(crate) struct Sweep {
    /// Indexes of the targets that completed a handshake, in the order
    /// their `Connected` events arrived, attempt by attempt. Per-pair
    /// latency jitter decides that order, not the target order.
    pub(crate) answered: Vec<usize>,
    /// Payload bytes each target sent before its socket was aborted (a
    /// service banner), by target index.
    pub(crate) banners: Vec<Vec<u8>>,
    /// SYNs sent, first probes and re-probes alike.
    pub(crate) probes: u64,
    /// SYNs sent after the first attempt.
    pub(crate) retries: u64,
    /// SYNs that were dark and settled at send
    /// ([`Network::ext_tcp_probe`]).
    pub(crate) dark: u64,
}

/// The SYN sweep behind both D-PC2 listener discovery and the daily C2
/// liveness probes, from the external host `from`.
///
/// Attempt `a` (0 ≤ a ≤ `syn_retries`) sends a SYN to every target that
/// has not answered yet, in target order, and runs the network for
/// `8·(a + 1)` s (linear backoff). It then collects `Connected` events
/// and banners, aborts the sockets it opened in target order, runs 1 s
/// and drains the inbox. Targets must be distinct.
///
/// Each SYN goes through [`Network::ext_tcp_probe`]: one nothing can
/// answer is counted and settled at send and opens no socket. The sweep
/// reads only `Connected` and `TcpData`, and aborting a socket whose
/// connect has timed out does nothing, so the outcome is the same as
/// opening every connection.
pub(crate) fn syn_sweep(
    net: &mut Network,
    from: Ipv4Addr,
    targets: &[(Ipv4Addr, u16)],
    syn_retries: u32,
) -> Sweep {
    let mut sweep = Sweep {
        answered: Vec::new(),
        banners: vec![Vec::new(); targets.len()],
        probes: 0,
        retries: 0,
        dark: 0,
    };
    let mut answered = vec![false; targets.len()];
    let mut pending: Vec<usize> = (0..targets.len()).collect();
    let mut opened: Vec<SockId> = Vec::new();
    for attempt in 0..=syn_retries {
        if pending.is_empty() {
            break;
        }
        // One attempt's sockets get consecutive ids, opened or not, so
        // socket `first + i` probes `pending[i]`.
        let mut first = 0;
        opened.clear();
        for (i, &t) in pending.iter().enumerate() {
            let (ip, port) = targets[t];
            let (sock, open) = net.ext_tcp_probe(from, ip, port);
            if i == 0 {
                first = sock.0;
            }
            debug_assert_eq!(sock.0, first + i as u64, "sweep sockets are consecutive");
            if open {
                opened.push(sock);
            }
        }
        let sent = pending.len() as u64;
        sweep.probes += sent;
        sweep.dark += sent - opened.len() as u64;
        if attempt > 0 {
            sweep.retries += sent;
        }
        let target_of = |sock: SockId| {
            let i = usize::try_from(sock.0.checked_sub(first)?).ok()?;
            pending.get(i).copied()
        };
        net.run_for(SimDuration::from_secs(8 * (u64::from(attempt) + 1)));
        for ev in net.ext_events(from) {
            match ev {
                SockEvent::Connected(sock) => {
                    if let Some(t) = target_of(sock) {
                        answered[t] = true;
                        sweep.answered.push(t);
                    }
                }
                SockEvent::TcpData { sock, data } => {
                    if let Some(t) = target_of(sock) {
                        sweep.banners[t].extend(data);
                    }
                }
                _ => {}
            }
        }
        for &sock in &opened {
            net.ext_tcp_abort(from, sock);
        }
        net.run_for(SimDuration::from_secs(1));
        net.ext_events(from);
        pending.retain(|&t| !answered[t]);
    }
    sweep
}

/// Add `n` to a counter, creating it only when `n > 0` (so a sweep that
/// sent nothing leaves no zero-valued counter behind).
pub(crate) fn add_nonzero(tel: &Telemetry, name: &str, n: u64) {
    if n > 0 {
        tel.add(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_botgen::world::{Calibration, WorldConfig};

    /// The sweep lists listeners in the order their SYN-ACKs arrived, not
    /// in target order: per-pair latency jitter lets a later target
    /// answer first. The prober's own capture gives the arrival order
    /// independently of the sweep's bookkeeping.
    #[test]
    fn sweep_lists_listeners_in_syn_ack_arrival_order() {
        use malnet_netsim::services::SinkService;

        let mut net = Network::new(SimTime::from_day(0, 0), 5);
        let targets: Vec<(Ipv4Addr, u16)> =
            (1..=8).map(|h| (Ipv4Addr::new(10, 9, 0, h), 23)).collect();
        for &(ip, port) in &targets {
            net.add_service_host(ip, Box::new(SinkService::new(vec![port])));
        }
        net.add_external_host(PROBER_IP);
        net.start_capture(PROBER_IP);
        let sweep = syn_sweep(&mut net, PROBER_IP, &targets, 0);
        let arrivals: Vec<usize> = pcap::packets(&net.stop_capture(PROBER_IP))
            .filter(|(_, p)| {
                p.dst == PROBER_IP && p.tcp_flags().is_some_and(|f| f.syn() && f.ack())
            })
            .map(|(_, p)| targets.iter().position(|&(ip, _)| ip == p.src).unwrap())
            .collect();
        assert_eq!(arrivals.len(), targets.len(), "every listener answered");
        assert_eq!(sweep.answered, arrivals);
        assert_ne!(
            sweep.answered[0], 0,
            "fixture: a later target answers first"
        );
        assert_eq!(sweep.probes, 8);
        assert_eq!(sweep.retries, 0);
    }

    /// A reduced probing study: 2 days × 6 rounds over thin subnets.
    #[test]
    fn probing_finds_elusive_c2s_and_filters_banners() {
        let world = World::generate(WorldConfig {
            seed: 77,
            n_samples: 60,
            cal: Calibration::default(),
        });
        // Weapons: compile plain Mirai/Gafgyt probes without exploits.
        let weapons: Vec<Vec<u8>> = [
            malnet_protocols::Family::Mirai,
            malnet_protocols::Family::Gafgyt,
        ]
        .iter()
        .map(|f| {
            let spec = malnet_botgen::spec::BehaviorSpec {
                family: *f,
                c2: vec![(
                    malnet_botgen::spec::C2Endpoint::Ip(Ipv4Addr::new(10, 255, 0, 1)),
                    23,
                )],
                recv_timeout_ms: 8000,
                ..Default::default()
            };
            malnet_botgen::binary::emit_elf(&malnet_botgen::programs::compile(&spec), b"probe")
        })
        .collect();
        let cfg = ProbeConfig {
            rounds: 12,
            rounds_per_day: 6,
            engage_secs: 20,
            hosts_per_subnet: 40, // covers the planted C2s at hosts 10..88
            ..ProbeConfig::from_world(&world)
        };
        let tel = Telemetry::enabled();
        let probed = run_probing(&world, &weapons, &cfg, 1, &tel);
        let report = tel.report();
        assert!(
            report.counter("prober.probes_sent").unwrap_or(0) > 0,
            "probe counter should record the SYN sweep"
        );
        assert_eq!(
            report.span("prober.round").map(|s| s.calls),
            Some(u64::from(cfg.rounds))
        );
        // The elusive C2s respond rarely but more than never: with 12
        // rounds across 7 servers we expect at least a couple found.
        assert!(!probed.is_empty(), "no C2 discovered by probing");
        for p in &probed {
            // Every discovered server sits in a probing subnet on a
            // Table 5 port.
            assert!(world.probe_subnets.iter().any(|s| s.contains(p.ip)));
            assert!(cfg.ports.contains(&p.port));
            assert!(p.responses() >= 1);
            // Elusive: never responds to every probe.
            assert!(p.responses() < p.probes.len(), "{p:?}");
        }
    }
}
