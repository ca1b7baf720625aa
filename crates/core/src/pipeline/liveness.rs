//! Liveness (paper §3.2): day-0 probes and DNS resolution from the
//! monitor host, the C2 tracking table, and the reduce's daily sweep
//! over it through a pure per-`(day, address)` oracle.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use malnet_telemetry::Telemetry;

use malnet_botgen::world::{World, WORLD_RESOLVER};
use malnet_netsim::net::Network;
use malnet_netsim::stack::SockEvent;
use malnet_netsim::time::SimDuration;
use malnet_wire::dns::{DnsMessage, DomainName};

use super::epochs::apply_world_chaos;
use super::{seeds, PipelineOpts};
use crate::datasets::C2Record;
use crate::prober::{add_nonzero, syn_sweep};

/// The monitor host used for liveness probes and DNS lookups.
pub const MONITOR_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 7);
/// Days to keep re-probing a discovered C2 after it stops answering.
const TRACK_GRACE_DAYS: u32 = 2;

/// A day-0 liveness hit recorded by an epoch: the reduce replays it to
/// update `C2Record::live_days`/`ip` and to seed the tracking table —
/// the two cross-day effects an epoch must not apply itself.
#[derive(Debug, Clone)]
pub(super) struct Day0Live {
    pub(super) addr: String,
    pub(super) ip: Ipv4Addr,
    pub(super) port: u16,
}

/// Cross-day tracking state for one C2.
struct TrackState {
    ip: Ipv4Addr,
    port: u16,
    misses: u32,
    days: u32,
}

/// The C2 liveness-tracking table, by address — owned exclusively by
/// the epoch reduce's chronological fold.
#[derive(Default)]
pub(super) struct Tracking(BTreeMap<String, TrackState>);

impl Tracking {
    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The daily liveness sweep over the tracked set. Each target is
    /// re-resolved through a pure per-`(day, address)` oracle: a
    /// single-target probe, with the usual SYN retries, on a detached
    /// day network from the address's own sub-seed with the day's faults
    /// applied. So a transition on an epoch-boundary day resolves
    /// exactly as it would have in any other shard layout, and chaos
    /// downtime affects the oracle as it affects every other view of the
    /// day. A live C2 adds `day` to its record's live days; one that
    /// misses more than `TRACK_GRACE_DAYS` days in a row, or has been
    /// tracked for more than `track_max_days`, leaves the table.
    pub(super) fn sweep(
        &mut self,
        world: &World,
        opts: &PipelineOpts,
        day: u32,
        c2s: &mut BTreeMap<String, C2Record>,
        tel: &Telemetry,
    ) {
        if self.0.is_empty() {
            return;
        }
        let _sweep_span = tel.span("pipeline.liveness_sweep");
        tel.add("pipeline.liveness_probes", self.0.len() as u64);
        // BTreeMap iteration order: the probe order is canonical.
        let targets: Vec<(String, Ipv4Addr, u16)> = self
            .0
            .iter()
            .map(|(addr, t)| (addr.clone(), t.ip, t.port))
            .collect();
        let parent = tel.current_span();
        let alive: Vec<bool> = crate::par::fan_out(targets.len(), opts.parallelism, |i| {
            let _span = tel.span_under("pipeline.liveness_probe", &parent);
            let target = &targets[i];
            let seed = seeds::liveness_net_seed(opts.seed, day, &target.0);
            let (mut net, _logs) = world.network_for_day_detached(day, seed);
            net.set_telemetry(tel);
            apply_world_chaos(&opts.faults, world, &mut net, day, tel);
            let targets = std::slice::from_ref(target);
            !liveness_probe_rounds(&mut net, targets, opts.syn_retries, tel).is_empty()
        });
        // `retain` visits the table in the same ascending order.
        let mut alive = alive.into_iter();
        self.0.retain(|addr, t| {
            t.days += 1;
            if alive.next() == Some(true) {
                t.misses = 0;
                if let Some(rec) = c2s.get_mut(addr) {
                    rec.live_days.push(day);
                }
            } else {
                t.misses += 1;
            }
            t.misses <= TRACK_GRACE_DAYS && t.days <= opts.track_max_days
        });
    }

    /// Replay an epoch's day-0 hit on `day`: the live day and endpoint
    /// on the merged record, and the tracking entry that starts
    /// tomorrow's sweeps.
    pub(super) fn day0_hit(
        &mut self,
        day: u32,
        hit: &Day0Live,
        c2s: &mut BTreeMap<String, C2Record>,
    ) {
        if let Some(rec) = c2s.get_mut(&hit.addr) {
            if !rec.live_days.contains(&day) {
                rec.live_days.push(day);
            }
            rec.ip = hit.ip;
        }
        self.0.entry(hit.addr.clone()).or_insert(TrackState {
            ip: hit.ip,
            port: hit.port,
            misses: 0,
            days: 0,
        });
    }
}

/// One liveness sweep over `targets` (`(addr, ip, port)`, distinct) from
/// the monitor host: every target gets a SYN; misses are re-probed up to
/// `syn_retries` more times with linear backoff (8 s, 16 s, 24 s, …).
/// Returns the addresses that completed a TCP handshake in any round,
/// in the order their handshakes completed.
///
/// The retry loop is the defence against transient loss: with
/// `syn_retries == 0` a single dropped SYN (or a C2 mid-reboot) reads
/// as "dead", and under the tracking grace policy a couple of such
/// windows erases a live C2's entry (`syn_retry_survives_transient_loss`).
/// The `pipeline.liveness_retries` counter counts the re-probe SYNs
/// actually sent (`liveness_retry_counter_counts_actual_reprobes`).
///
/// Public so the regression suite can drive the sweep against a
/// hand-built network; the pipeline calls it from the reduce's daily
/// sweep.
pub fn liveness_probe_rounds(
    net: &mut Network,
    targets: &[(String, Ipv4Addr, u16)],
    syn_retries: u32,
    tel: &Telemetry,
) -> Vec<String> {
    let endpoints: Vec<(Ipv4Addr, u16)> =
        targets.iter().map(|(_, ip, port)| (*ip, *port)).collect();
    let sweep = from_monitor(net, |net| {
        syn_sweep(net, MONITOR_IP, &endpoints, syn_retries)
    });
    add_nonzero(tel, "pipeline.liveness_retries", sweep.retries);
    sweep
        .answered
        .into_iter()
        .map(|t| targets[t].0.clone())
        .collect()
}

/// Single-SYN TCP liveness probe from the monitor host.
pub(super) fn tcp_probe(net: &mut Network, ip: Ipv4Addr, port: u16) -> bool {
    let sweep = from_monitor(net, |net| syn_sweep(net, MONITOR_IP, &[(ip, port)], 0));
    !sweep.answered.is_empty()
}

/// Resolve a domain against the world resolver from the monitor host.
pub(super) fn resolve_on(net: &mut Network, domain: &str) -> Option<Ipv4Addr> {
    let name = DomainName::new(domain).ok()?;
    from_monitor(net, |net| {
        net.with_external(MONITOR_IP, |s| {
            s.udp_bind(45353);
            ((), vec![])
        });
        let q = DnsMessage::query(7, name);
        net.ext_udp_send(MONITOR_IP, 45353, WORLD_RESOLVER, 53, q.encode());
        net.run_for(SimDuration::from_secs(3));
        let mut answer = None;
        for ev in net.ext_events(MONITOR_IP) {
            if let SockEvent::UdpData { data, .. } = ev {
                if let Ok(msg) = DnsMessage::decode(&data) {
                    if let Some((_, ip, _)) = msg.answers.first() {
                        answer = Some(*ip);
                    }
                }
            }
        }
        answer
    })
}

/// Run `f` on `net` with the monitor host present: it is added for the
/// call when the network lacks it, and removed again afterwards.
fn from_monitor<T>(net: &mut Network, f: impl FnOnce(&mut Network) -> T) -> T {
    let added = !net.has_host(MONITOR_IP);
    if added {
        net.add_external_host(MONITOR_IP);
    }
    let out = f(net);
    if added {
        net.remove_host(MONITOR_IP);
    }
    out
}
