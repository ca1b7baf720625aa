//! The discrete-event network: hosts, links, timers, and captures.
//!
//! [`Network`] owns every simulated host. A host is either:
//!
//! * a **service host** — application logic implemented as a [`Service`]
//!   trait object, driven by socket events and timers (C2 servers, DNS,
//!   HTTP downloaders, victims, …), or
//! * an **external host** — driven from outside the event loop by the
//!   sandbox, which performs socket operations directly and drains a
//!   per-host event inbox (this is how the emulated malware's syscalls
//!   reach the network).
//!
//! A network may also take a [`HostSource`]: hosts it declares count as
//! present from the start but are built only when something first
//! touches them, so a world of a thousand servers costs what the
//! simulation actually reaches.
//!
//! Packets experience deterministic per-pair latency plus optional fault
//! injection ([`LinkFaults`]): loss and corruption probabilities drawn
//! from the network's seeded RNG. Packets to **down** hosts are silently
//! dropped, which is how dead C2 servers produce SYN timeouts. A capture
//! tap on a host writes every packet it sends or receives straight into
//! that host's pcap file ([`Network::start_capture`]), the evidence the
//! analysis pipeline consumes.

use std::collections::{btree_map, BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

use malnet_prng::rngs::StdRng;
use malnet_prng::{Rng, SeedableRng};

use malnet_wire::{pcap, Packet};

use crate::hash::FixedState;
use crate::queue::{EventKind, EventQueue, QueuedEvent};
use crate::stack::{HostStack, SockEvent, SockId};
use crate::time::{SimDuration, SimTime};

/// SYN timeout before an unanswered active open fails.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Link-level fault injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a packet is dropped in flight.
    pub loss: f64,
    /// Probability one payload byte is flipped in flight (visible in
    /// captures as checksum failures).
    pub corrupt: f64,
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Maximum additional deterministic per-pair jitter.
    pub jitter: SimDuration,
    /// Seed mixed into the per-pair jitter hash. `0` (the default)
    /// keeps the legacy pair-only jitter pattern; the chaos layer's
    /// `link_jitter` fault domain sets a per-link seed so delivery
    /// schedules are re-shuffled deterministically per (day, link).
    pub jitter_seed: u64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            loss: 0.0,
            corrupt: 0.0,
            latency: SimDuration::from_millis(40),
            jitter: SimDuration::from_millis(30),
            jitter_seed: 0,
        }
    }
}

/// Context handed to services: the host's stack plus network side effects.
///
/// Socket operations performed through the context automatically transmit
/// the packets they generate.
pub struct ServiceCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The service host's socket stack.
    pub stack: &'a mut HostStack,
    out: &'a mut Vec<Packet>,
    timers: &'a mut Vec<(SimDuration, u64)>,
    rng: &'a mut StdRng,
    dns_faults: crate::dns::DnsFaults,
    dns_fault_counter: &'a malnet_telemetry::Counter,
}

impl ServiceCtx<'_> {
    /// Listen for TCP connections.
    pub fn tcp_listen(&mut self, port: u16) {
        self.stack.tcp_listen(port);
    }

    /// Bind a UDP port.
    pub fn udp_bind(&mut self, port: u16) {
        self.stack.udp_bind(port);
    }

    /// Active-open a TCP connection.
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dport: u16) -> SockId {
        let (sock, syn) = self.stack.tcp_connect(dst, dport);
        self.out.push(syn);
        sock
    }

    /// Send on an established connection.
    pub fn tcp_send(&mut self, sock: SockId, data: &[u8]) {
        let pkts = self.stack.tcp_send(sock, data);
        self.out.extend(pkts);
    }

    /// Orderly close.
    pub fn tcp_close(&mut self, sock: SockId) {
        let pkts = self.stack.tcp_close(sock);
        self.out.extend(pkts);
    }

    /// Abortive close.
    pub fn tcp_abort(&mut self, sock: SockId) {
        if let Some(p) = self.stack.tcp_abort(sock) {
            self.out.push(p);
        }
    }

    /// Send a UDP datagram.
    pub fn udp_send(&mut self, sport: u16, dst: Ipv4Addr, dport: u16, payload: Vec<u8>) {
        let p = self.stack.udp_send(sport, dst, dport, payload);
        self.out.push(p);
    }

    /// Arm a timer; `token` comes back via [`Service::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }

    /// Deterministic RNG for application-level randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The network's DNS fault-injection policy (chaos layer), which the
    /// DNS service consults per query.
    pub(crate) fn dns_faults(&self) -> crate::dns::DnsFaults {
        self.dns_faults
    }

    /// Record one injected DNS fault (telemetry only).
    pub(crate) fn note_dns_fault(&mut self) {
        self.dns_fault_counter.incr();
    }
}

/// Application logic living on a service host.
pub trait Service {
    /// Called once when the host is installed (register listeners, arm
    /// timers).
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        let _ = ctx;
    }

    /// Called for each socket event.
    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent);

    /// Called when a timer armed via [`ServiceCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// Hosts a network knows about before it builds them (the world model's
/// roster). The network asks only for addresses its host table lacks.
///
/// A declared host behaves as if it had been installed when the network
/// was created, provided its service's `start` only listens or binds:
/// it may send no packet, arm no timer and draw nothing from the network
/// RNG. Debug builds assert this on every build.
pub trait HostSource {
    /// Does a host live at `ip`, and does it start up?
    fn declared(&self, ip: Ipv4Addr) -> Option<bool>;

    /// Build the service of the host declared at `ip`.
    fn build(&self, ip: Ipv4Addr) -> Box<dyn Service + Send>;
}

enum Driver {
    Service(Box<dyn Service + Send>),
    External(VecDeque<SockEvent>),
}

struct HostEntry {
    stack: HostStack,
    driver: Driver,
    up: bool,
    capture: Option<Tap>,
}

/// A running capture: the pcap file written so far, one record per packet
/// the host sent or received, and the number of those records.
struct Tap {
    pcap: Vec<u8>,
    records: u64,
}

impl Default for Tap {
    fn default() -> Self {
        Tap {
            pcap: pcap::new_capture(),
            records: 0,
        }
    }
}

/// Statistics counters for a network run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Packets submitted for transmission.
    pub sent: u64,
    /// Packets delivered to a host stack.
    pub delivered: u64,
    /// Packets dropped by fault injection.
    pub lost: u64,
    /// Packets corrupted by fault injection.
    pub corrupted: u64,
    /// Packets dropped because the destination was absent or down.
    pub blackholed: u64,
}

/// The simulated Internet.
pub struct Network {
    now: SimTime,
    queue: EventQueue,
    // Point queries by IP only, several per packet; event order comes
    // from the queue, never from host-table iteration. lint: hash-ok
    hosts: HashMap<Ipv4Addr, HostEntry, FixedState>,
    /// Declares the hosts not yet in `hosts`; see [`HostSource`].
    source: Option<Box<dyn HostSource + Send>>,
    /// Declared addresses whose host was removed: they stay empty.
    removed: Vec<Ipv4Addr>,
    /// Queued [`Network::schedule_host_state`] changes per address.
    pending_state: BTreeMap<Ipv4Addr, u32>,
    /// Hosts with a running capture: while zero, recording a packet
    /// costs no host lookup.
    capturing: usize,
    /// Fault model applied to every link.
    pub faults: LinkFaults,
    /// Fault model applied to DNS services on this network (chaos layer).
    pub dns_faults: crate::dns::DnsFaults,
    rng: StdRng,
    /// Run statistics.
    pub stats: NetStats,
    /// Optional egress filter: packets for which the filter returns false
    /// are dropped at transmission time. Used by the sandbox's containment
    /// (Snort-like IDS / restricted mode). Filters see (now, packet).
    filter: Option<EgressFilter>,
    /// Pre-resolved telemetry counters (inert by default).
    tel: NetTelemetry,
}

/// The network's pre-resolved telemetry counters. Disabled handles are
/// `None` inside, so the per-packet cost without telemetry is one branch.
#[derive(Debug, Clone, Default)]
struct NetTelemetry {
    delivered: malnet_telemetry::Counter,
    dropped: malnet_telemetry::Counter,
    dns_queries: malnet_telemetry::Counter,
    dns_faults: malnet_telemetry::Counter,
    delivered_bytes: malnet_telemetry::Histogram,
    hosts_built: malnet_telemetry::Counter,
    pcap_records: malnet_telemetry::Counter,
    pcap_bytes: malnet_telemetry::Counter,
}

impl NetTelemetry {
    fn resolve(tel: &malnet_telemetry::Telemetry) -> Self {
        NetTelemetry {
            delivered: tel.counter("netsim.packets_delivered"),
            dropped: tel.counter("netsim.packets_dropped"),
            dns_queries: tel.counter("netsim.dns_queries"),
            dns_faults: tel.counter("netsim.dns_faults_injected"),
            delivered_bytes: tel.histogram("netsim.delivered_payload_bytes"),
            hosts_built: tel.counter("netsim.hosts_built"),
            pcap_records: tel.counter("wire.pcap_records_encoded"),
            pcap_bytes: tel.counter("wire.pcap_bytes_encoded"),
        }
    }
}

/// An egress filter: `(now, packet) -> deliver?`. `Send` so a contained
/// network (filter installed) can run on a worker thread.
pub type EgressFilter = Box<dyn FnMut(SimTime, &Packet) -> bool + Send>;

// Compile-time guarantee: a network (with all its services) can move to
// a worker thread for parallel contained activation.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Network>();
};

impl Network {
    /// Create a network starting at `start` with the given RNG seed.
    pub fn new(start: SimTime, seed: u64) -> Self {
        Network {
            now: start,
            queue: EventQueue::default(),
            hosts: HashMap::default(), // lookup-only, see field. lint: hash-ok
            source: None,
            removed: Vec::new(),
            pending_state: BTreeMap::new(),
            capturing: 0,
            faults: LinkFaults::default(),
            dns_faults: crate::dns::DnsFaults::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x6d61_6c6e_6574),
            stats: NetStats::default(),
            filter: None,
            tel: NetTelemetry::default(),
        }
    }

    /// Attach a telemetry handle: packet delivery, drops and DNS queries
    /// are counted into it from now on. Telemetry is observation-only —
    /// it never reads the simulated clock or the network RNG, so
    /// attaching it cannot perturb any simulation outcome (the
    /// differential determinism suite enforces this).
    pub fn set_telemetry(&mut self, tel: &malnet_telemetry::Telemetry) {
        self.tel = NetTelemetry::resolve(tel);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Install an egress filter (containment). Replaces any existing one.
    pub fn set_egress_filter(&mut self, f: EgressFilter) {
        self.filter = Some(f);
    }

    /// Remove the egress filter.
    pub fn clear_egress_filter(&mut self) {
        self.filter = None;
    }

    /// Take the hosts `source` declares (replacing any earlier source).
    /// Each is built the first time a packet is delivered to it while it
    /// is up, or when [`Network::set_host_up`], a fired
    /// [`Network::schedule_host_state`], a timer or
    /// [`Network::start_capture`] touches it. Until then
    /// [`Network::has_host`] and [`Network::host_up`] answer from the
    /// source, and packets to a declared-down host blackhole unbuilt.
    pub fn set_host_source(&mut self, source: Box<dyn HostSource + Send>) {
        self.source = Some(source);
    }

    /// Install a service host. Panics on duplicate IP (world-construction
    /// bug), declared hosts included.
    pub fn add_service_host(&mut self, ip: Ipv4Addr, service: Box<dyn Service + Send>) {
        assert!(!self.has_host(ip), "duplicate host {ip}");
        self.install(ip, service, true);
    }

    fn install(&mut self, ip: Ipv4Addr, service: Box<dyn Service + Send>, up: bool) {
        self.hosts.insert(
            ip,
            HostEntry {
                stack: HostStack::new(ip),
                driver: Driver::Service(service),
                up,
                capture: None,
            },
        );
        self.drive(ip, Vec::new(), |svc, ctx| svc.start(ctx));
    }

    /// Run `f` on the service at `ip` with a context over the host's
    /// stack, then transmit `out` followed by the packets the service
    /// sent, and arm the timers it set. The one way any service runs.
    fn drive(
        &mut self,
        ip: Ipv4Addr,
        mut out: Vec<Packet>,
        f: impl FnOnce(&mut (dyn Service + Send), &mut ServiceCtx<'_>),
    ) {
        let mut timers = Vec::new();
        let host = self.hosts.get_mut(&ip).expect("driven host exists");
        if let Driver::Service(svc) = &mut host.driver {
            let mut ctx = ServiceCtx {
                now: self.now,
                stack: &mut host.stack,
                out: &mut out,
                timers: &mut timers,
                rng: &mut self.rng,
                dns_faults: self.dns_faults,
                dns_fault_counter: &self.tel.dns_faults,
            };
            f(svc.as_mut(), &mut ctx);
        }
        self.flush(ip, out, timers);
    }

    /// The source's answer for an address the host table lacks, unless
    /// that host was removed.
    fn declared(&self, ip: Ipv4Addr) -> Option<bool> {
        let up = self.source.as_ref()?.declared(ip)?;
        (!self.removed.contains(&ip)).then_some(up)
    }

    /// Build the host declared at `ip`, which the host table lacks, in
    /// the state the source declares.
    fn build_declared(&mut self, ip: Ipv4Addr, up: bool) {
        let service = self
            .source
            .as_ref()
            .expect("only declared hosts are built")
            .build(ip);
        let before =
            cfg!(debug_assertions).then(|| (self.stats, self.queue.len(), self.rng.clone()));
        self.install(ip, service, up);
        if let Some(before) = before {
            assert!(
                before == (self.stats, self.queue.len(), self.rng.clone()),
                "declared host {ip} sent, armed a timer or drew from the network RNG in `start`"
            );
        }
        self.tel.hosts_built.incr();
    }

    /// The host entry at `ip`, building a declared host first.
    fn touch(&mut self, ip: Ipv4Addr) -> Option<&mut HostEntry> {
        if !self.hosts.contains_key(&ip) {
            let up = self.declared(ip)?;
            self.build_declared(ip, up);
        }
        self.hosts.get_mut(&ip)
    }

    /// Install an externally-driven host (the sandbox's malware VM or
    /// prober).
    pub fn add_external_host(&mut self, ip: Ipv4Addr) {
        assert!(!self.has_host(ip), "duplicate host {ip}");
        self.hosts.insert(
            ip,
            HostEntry {
                stack: HostStack::new(ip),
                driver: Driver::External(VecDeque::new()),
                up: true,
                capture: None,
            },
        );
    }

    /// Remove a host entirely (its in-flight packets will blackhole). A
    /// declared host stays gone.
    pub fn remove_host(&mut self, ip: Ipv4Addr) {
        if let Some(h) = self.hosts.remove(&ip) {
            self.capturing -= usize::from(h.capture.is_some());
        }
        if self.declared(ip).is_some() {
            self.removed.push(ip);
        }
    }

    /// Does a host exist at this address?
    pub fn has_host(&self, ip: Ipv4Addr) -> bool {
        self.hosts.contains_key(&ip) || self.declared(ip).is_some()
    }

    /// Mark a host up or down. Taking a host down aborts its connections
    /// and puts RST segments on the wire for every established peer — the
    /// kernel's socket cleanup outruns the link going dark when a daemon
    /// dies, so peers learn of the death instead of holding half-open
    /// connections forever. (Before this, a C2 dying mid-session left the
    /// eavesdropping side with dangling TCP state that never resolved.)
    pub fn set_host_up(&mut self, ip: Ipv4Addr, up: bool) {
        let mut rsts = Vec::new();
        if let Some(h) = self.touch(ip) {
            if h.up && !up {
                rsts = h.stack.abort_all();
            }
            h.up = up;
        }
        for pkt in rsts {
            self.send_packet(pkt);
        }
    }

    /// Schedule a host up/down transition at an absolute virtual time
    /// (chaos layer: C2 downtime windows). Times in the past fire on the
    /// next event-loop step.
    pub fn schedule_host_state(&mut self, ip: Ipv4Addr, at: SimTime, up: bool) {
        *self.pending_state.entry(ip).or_default() += 1;
        self.queue
            .push(at, EventKind::HostState { host: ip, up }, None);
    }

    /// Is the host present and up?
    pub fn host_up(&self, ip: Ipv4Addr) -> bool {
        match self.hosts.get(&ip) {
            Some(h) => h.up,
            None => self.declared(ip) == Some(true),
        }
    }

    /// Start a capture on a host (restarting any running one): every
    /// packet `ip` sends or receives from now on is appended to a pcap
    /// file as it crosses the host's tap, encoded once
    /// ([`pcap::push_record`]) and never held as a [`Packet`].
    pub fn start_capture(&mut self, ip: Ipv4Addr) {
        if let Some(h) = self.touch(ip) {
            let fresh = h.capture.is_none();
            h.capture = Some(Tap::default());
            self.capturing += usize::from(fresh);
        }
    }

    /// Stop capturing and return the capture's pcap bytes: the global
    /// header and one record per packet, in tap order. A host without a
    /// running capture yields an empty capture. The records and bytes
    /// handed out are counted into `wire.pcap_records_encoded` and
    /// `wire.pcap_bytes_encoded`; a capture dropped with its host
    /// ([`Network::remove_host`]) is not.
    pub fn stop_capture(&mut self, ip: Ipv4Addr) -> Vec<u8> {
        let tap = self.hosts.get_mut(&ip).and_then(|h| h.capture.take());
        self.capturing -= usize::from(tap.is_some());
        let tap = tap.unwrap_or_default();
        self.tel.pcap_records.add(tap.records);
        self.tel.pcap_bytes.add(tap.pcap.len() as u64);
        tap.pcap
    }

    fn record(&mut self, ip: Ipv4Addr, ts: SimTime, pkt: &Packet) {
        if self.capturing == 0 {
            return;
        }
        if let Some(tap) = self.hosts.get_mut(&ip).and_then(|h| h.capture.as_mut()) {
            pcap::push_record(&mut tap.pcap, ts.as_micros(), pkt);
            tap.records += 1;
        }
    }

    /// Deterministic per-pair latency: base + hash-derived jitter. The
    /// hash mixes `LinkFaults::jitter_seed` (splitmix64-style) so a
    /// seeded fault plan reshuffles the per-pair delivery pattern
    /// without any extra RNG draws; seed 0 reproduces the legacy bytes.
    fn latency(&self, src: Ipv4Addr, dst: Ipv4Addr) -> SimDuration {
        let h = u64::from(u32::from(src))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(u32::from(dst)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
            ^ self.faults.jitter_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let jitter_us = if self.faults.jitter.as_micros() == 0 {
            0
        } else {
            h % self.faults.jitter.as_micros()
        };
        SimDuration::from_micros(self.faults.latency.as_micros() + jitter_us)
    }

    /// Submit a packet for transmission at the current time.
    pub fn send_packet(&mut self, pkt: Packet) {
        if let Some(pkt) = self.transmit(pkt) {
            let at = self.now + self.latency(pkt.src, pkt.dst);
            self.queue.push(at, EventKind::Deliver, Some(pkt));
        }
    }

    /// The send step of every packet: count it, apply the egress filter,
    /// record it on the sender's tap, then draw loss and corruption.
    /// Returns the packet if it is still in flight.
    fn transmit(&mut self, pkt: Packet) -> Option<Packet> {
        self.stats.sent += 1;
        if let Some(filter) = self.filter.as_mut() {
            if !filter(self.now, &pkt) {
                // Contained by the egress filter; still visible on the
                // sender's tap (the IDS sits at the network perimeter).
                let now = self.now;
                let src = pkt.src;
                self.record(src, now, &pkt);
                return None;
            }
        }
        let now = self.now;
        self.record(pkt.src, now, &pkt);
        // Fault injection.
        if self.faults.loss > 0.0 && self.rng.gen_bool(self.faults.loss) {
            self.stats.lost += 1;
            self.tel.dropped.incr();
            return None;
        }
        let mut pkt = pkt;
        if self.faults.corrupt > 0.0 && self.rng.gen_bool(self.faults.corrupt) {
            self.stats.corrupted += 1;
            // Flip one bit of the payload if there is one; corrupted
            // packets fail transport checksums and are dropped at the
            // receiver, exactly like real damaged frames.
            if let malnet_wire::packet::Transport::Udp { payload, .. }
            | malnet_wire::packet::Transport::Tcp { payload, .. } = &mut pkt.transport
            {
                if !payload.is_empty() {
                    payload[0] ^= 0x01;
                    // Note: we re-encode, so checksums are recomputed and
                    // the corruption is semantic (payload altered), not a
                    // checksum failure. This models payload damage that
                    // slips past checksums and exercises parser robustness.
                }
            }
        }
        Some(pkt)
    }

    fn flush(&mut self, ip: Ipv4Addr, out: Vec<Packet>, timers: Vec<(SimDuration, u64)>) {
        for pkt in out {
            self.send_packet(pkt);
        }
        for (delay, token) in timers {
            let at = self.now + delay;
            self.queue
                .push(at, EventKind::Timer { host: ip, token }, None);
        }
    }

    /// The stack of the external host at `ip`.
    fn external_stack(&mut self, ip: Ipv4Addr) -> &mut HostStack {
        let host = self.hosts.get_mut(&ip).expect("external host exists");
        debug_assert!(matches!(host.driver, Driver::External(_)));
        &mut host.stack
    }

    /// Perform socket operations on an external host. Packets generated by
    /// the operations are transmitted; connect timeouts are armed
    /// automatically.
    pub fn with_external<R>(
        &mut self,
        ip: Ipv4Addr,
        f: impl FnOnce(&mut HostStack) -> (R, Vec<Packet>),
    ) -> R {
        let (r, pkts) = f(self.external_stack(ip));
        for pkt in pkts {
            self.send_packet(pkt);
        }
        r
    }

    /// Active-open from an external host, arming the SYN timeout.
    pub fn ext_tcp_connect(&mut self, ip: Ipv4Addr, dst: Ipv4Addr, dport: u16) -> SockId {
        let (sock, syn) = self.external_stack(ip).tcp_connect(dst, dport);
        self.send_packet(syn);
        let at = self.now + CONNECT_TIMEOUT;
        self.queue
            .push(at, EventKind::ConnectTimeout { host: ip, sock }, None);
        sock
    }

    /// Send a sweep SYN from an external host: exactly
    /// [`Network::ext_tcp_connect`], unless the SYN is dark. Returns the
    /// socket and whether a connection was opened.
    ///
    /// A SYN is dark when no host at `dst` is up (built and up, or
    /// declared up) and no [`Network::schedule_host_state`] change for
    /// `dst` is queued: nothing can then answer it before it lands. A
    /// dark SYN consumes the socket id, the ephemeral port and the ISS
    /// on `ip`'s stack and takes the send step of every packet (counted,
    /// filtered, captured at the sender, loss and corruption drawn). If
    /// it survives that step it is counted blackholed at once. It opens
    /// no connection and queues nothing, so no `ConnectFailed` follows.
    ///
    /// Exact as long as the caller adds no host at `dst`, brings none up
    /// and reads no statistics before the SYN would have landed, and
    /// ignores connect failures (the SYN sweep does all of this).
    pub fn ext_tcp_probe(&mut self, ip: Ipv4Addr, dst: Ipv4Addr, dport: u16) -> (SockId, bool) {
        if self.host_up(dst) || self.pending_state.contains_key(&dst) {
            return (self.ext_tcp_connect(ip, dst, dport), true);
        }
        let (sock, syn) = self.external_stack(ip).tcp_syn(dst, dport);
        if self.transmit(syn).is_some() {
            self.stats.blackholed += 1;
            self.tel.dropped.incr();
        }
        (sock, false)
    }

    /// Send on an external host's connection.
    pub fn ext_tcp_send(&mut self, ip: Ipv4Addr, sock: SockId, data: &[u8]) {
        self.with_external(ip, |s| ((), s.tcp_send(sock, data)));
    }

    /// Close an external host's connection.
    pub fn ext_tcp_close(&mut self, ip: Ipv4Addr, sock: SockId) {
        self.with_external(ip, |s| ((), s.tcp_close(sock)));
    }

    /// Abort an external host's connection.
    pub fn ext_tcp_abort(&mut self, ip: Ipv4Addr, sock: SockId) {
        self.with_external(ip, |s| ((), s.tcp_abort(sock).into_iter().collect()));
    }

    /// Bind UDP on an external host.
    pub fn ext_udp_bind(&mut self, ip: Ipv4Addr, port: u16) {
        self.with_external(ip, |s| {
            s.udp_bind(port);
            ((), vec![])
        });
    }

    /// Send UDP from an external host.
    pub fn ext_udp_send(
        &mut self,
        ip: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        data: Vec<u8>,
    ) {
        let pkt = self.external_stack(ip).udp_send(sport, dst, dport, data);
        self.send_packet(pkt);
    }

    /// Send a raw packet from an external host (attack traffic with crafted
    /// source ports, ICMP floods, …).
    pub fn ext_send_raw(&mut self, ip: Ipv4Addr, pkt: Packet) {
        debug_assert_eq!(pkt.src, ip);
        self.send_packet(pkt);
    }

    /// Drain the event inbox of an external host. An empty inbox returns
    /// at once, with nothing allocated.
    pub fn ext_events(&mut self, ip: Ipv4Addr) -> Vec<SockEvent> {
        match self.hosts.get_mut(&ip).map(|h| &mut h.driver) {
            Some(Driver::External(q)) if !q.is_empty() => q.drain(..).collect(),
            _ => Vec::new(),
        }
    }

    /// Inspect an external host's stack (read-only helpers like `state`).
    pub fn ext_stack(&self, ip: Ipv4Addr) -> Option<&HostStack> {
        self.hosts.get(&ip).map(|h| &h.stack)
    }

    /// Process all events up to and including `until`. Returns the number
    /// of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some(ev) = self.queue.pop_due(until) {
            self.now = ev.at.max(self.now);
            self.dispatch(ev);
            n += 1;
        }
        self.now = self.now.max(until);
        n
    }

    /// Advance by `dur`, processing everything due.
    pub fn run_for(&mut self, dur: SimDuration) -> u64 {
        let until = self.now + dur;
        self.run_until(until)
    }

    /// Advance in whole `step`s, as a loop of `run_for(step)` calls that
    /// stops once something happens or `limit` passes, without visiting
    /// the steps in which nothing is due. Stops at the first boundary
    /// `now + k·step` (k ≥ 1) at or after the earlier of the next pending
    /// event and `limit`, having processed every event due by then.
    ///
    /// Exact: each of the k − 1 steps before that boundary would process
    /// no event and end before `limit`, so the loop would only have
    /// re-checked unchanged state. Returns that skipped-step count.
    /// `step` must be non-zero.
    pub fn run_steps(&mut self, step: SimDuration, limit: SimTime) -> u64 {
        let stop = self.queue.next_at().map_or(limit, |at| at.min(limit));
        let steps = stop
            .since(self.now)
            .as_micros()
            .div_ceil(step.as_micros())
            .max(1);
        self.run_until(self.now + step.saturating_mul(steps));
        steps - 1
    }

    /// Run until the queue is empty or `max_events` processed; returns
    /// events processed. Useful for "settle" phases in tests.
    pub fn run_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let Some(ev) = self.queue.pop_due(SimTime(u64::MAX)) else {
                break;
            };
            self.now = ev.at.max(self.now);
            self.dispatch(ev);
            n += 1;
        }
        n
    }

    fn dispatch(&mut self, ev: QueuedEvent) {
        match ev.kind {
            EventKind::Deliver => {
                let pkt = ev.packet.expect("deliver carries packet");
                let dst = pkt.dst;
                // Built hosts first: most misses are addresses nothing
                // occupies, which the source then answers in one lookup.
                let up = match self.hosts.get(&dst) {
                    Some(h) => h.up,
                    None if self.declared(dst) == Some(true) => {
                        self.build_declared(dst, true);
                        true
                    }
                    None => false,
                };
                if !up {
                    self.stats.blackholed += 1;
                    self.tel.dropped.incr();
                    return;
                }
                self.stats.delivered += 1;
                self.tel.delivered.incr();
                self.tel
                    .delivered_bytes
                    .record(pkt.transport.payload().len() as u64);
                if matches!(&pkt.transport,
                    malnet_wire::packet::Transport::Udp { header, .. } if header.dst_port == 53)
                {
                    self.tel.dns_queries.incr();
                }
                let now = self.now;
                self.record(dst, now, &pkt);
                let host = self.hosts.get_mut(&dst).expect("host_up checked");
                let out = host.stack.handle_packet(&pkt);
                match &mut host.driver {
                    Driver::External(q) => {
                        q.extend(out.events);
                        self.flush(dst, out.replies, Vec::new());
                    }
                    Driver::Service(_) => self.drive(dst, out.replies, |svc, ctx| {
                        for e in out.events {
                            svc.on_event(ctx, e);
                        }
                    }),
                }
            }
            EventKind::Timer { host: ip, token } => {
                if self.touch(ip).is_some_and(|h| h.up) {
                    self.drive(ip, Vec::new(), |svc, ctx| svc.on_timer(ctx, token));
                }
            }
            EventKind::ConnectTimeout { host: ip, sock } => {
                let Some(host) = self.hosts.get_mut(&ip) else {
                    return;
                };
                let Some(ev) = host.stack.connect_timeout_fired(sock) else {
                    return;
                };
                match &mut host.driver {
                    Driver::External(q) => q.push_back(ev),
                    Driver::Service(_) => {
                        self.drive(ip, Vec::new(), |svc, ctx| svc.on_event(ctx, ev));
                    }
                }
            }
            EventKind::HostState { host, up } => {
                if let btree_map::Entry::Occupied(mut n) = self.pending_state.entry(host) {
                    *n.get_mut() -= 1;
                    if *n.get() == 0 {
                        n.remove();
                    }
                }
                self.set_host_up(host, up);
            }
        }
    }

    /// Arm a timer on a service host from outside (world orchestration).
    pub fn arm_timer(&mut self, ip: Ipv4Addr, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.queue
            .push(at, EventKind::Timer { host: ip, token }, None);
    }

    /// Access the deterministic RNG (world construction convenience).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::ConnectError;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// A service that listens on a port and echoes data back uppercased.
    struct Upper;
    impl Service for Upper {
        fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
            ctx.tcp_listen(7);
        }
        fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
            if let SockEvent::TcpData { sock, data } = ev {
                let up: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
                ctx.tcp_send(sock, &up);
            }
        }
    }

    fn net() -> Network {
        Network::new(SimTime::EPOCH, 42)
    }

    #[test]
    fn external_connects_to_service_and_exchanges_data() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(1));
        let evs = net.ext_events(A);
        assert!(evs.contains(&SockEvent::Connected(sock)), "{evs:?}");
        net.ext_tcp_send(A, sock, b"hello");
        net.run_for(SimDuration::from_secs(1));
        let evs = net.ext_events(A);
        assert!(
            evs.iter()
                .any(|e| matches!(e, SockEvent::TcpData { data, .. } if data == b"HELLO")),
            "{evs:?}"
        );
    }

    #[test]
    fn connect_to_dead_host_times_out() {
        let mut net = net();
        net.add_external_host(A);
        net.add_service_host(B, Box::new(Upper));
        net.set_host_up(B, false);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(10));
        let evs = net.ext_events(A);
        assert!(
            evs.contains(&SockEvent::ConnectFailed {
                sock,
                reason: ConnectError::TimedOut
            }),
            "{evs:?}"
        );
        assert!(net.stats.blackholed >= 1);
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let mut net = net();
        net.add_external_host(A);
        net.add_service_host(B, Box::new(Upper));
        let sock = net.ext_tcp_connect(A, B, 9);
        net.run_for(SimDuration::from_secs(10));
        let evs = net.ext_events(A);
        assert!(
            evs.contains(&SockEvent::ConnectFailed {
                sock,
                reason: ConnectError::Refused
            }),
            "{evs:?}"
        );
    }

    #[test]
    fn capture_sees_both_directions() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        net.start_capture(A);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(A, sock, b"x");
        net.run_for(SimDuration::from_secs(1));
        let cap = pcap::parse_capture(&net.stop_capture(A)).unwrap().0;
        // SYN, SYN-ACK, ACK, data, ack, reply data, ack ≥ 6 packets.
        assert!(cap.len() >= 6, "capture too small: {}", cap.len());
        let to_b = cap.iter().filter(|(_, p)| p.dst == B).count();
        let from_b = cap.iter().filter(|(_, p)| p.src == B).count();
        assert!(to_b >= 3 && from_b >= 2);
        // Timestamps are monotone.
        assert!(cap.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn loss_faults_cause_syn_timeouts() {
        let mut net = net();
        net.faults.loss = 1.0;
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(10));
        let evs = net.ext_events(A);
        assert!(evs.contains(&SockEvent::ConnectFailed {
            sock,
            reason: ConnectError::TimedOut
        }));
        assert!(net.stats.lost >= 1);
    }

    #[test]
    fn egress_filter_contains_traffic() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        // Block everything except to port 7 — then block everything.
        net.set_egress_filter(Box::new(|_, pkt| pkt.transport.dst_port() != Some(9999)));
        net.ext_udp_send(A, 5, B, 9999, vec![1]);
        net.run_for(SimDuration::from_secs(1));
        assert_eq!(net.stats.delivered, 0);
        net.ext_udp_send(A, 5, B, 53, vec![1]);
        net.run_for(SimDuration::from_secs(1));
        // The datagram reaches B (1 delivery) and B's port-unreachable
        // reply reaches A (a 2nd delivery).
        assert!(net.stats.delivered >= 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerLog(Vec<u64>);
        impl Service for TimerLog {
            fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
                ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(3), 3);
            }
            fn on_event(&mut self, _ctx: &mut ServiceCtx<'_>, _ev: SockEvent) {}
            fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
                self.0.push(token);
                if token == 1 {
                    // Fire a UDP packet so the outside can observe us.
                    ctx.udp_send(1, Ipv4Addr::new(10, 0, 0, 99), 1, vec![token as u8]);
                }
            }
        }
        let mut net = net();
        net.add_service_host(B, Box::new(TimerLog(Vec::new())));
        net.run_for(SimDuration::from_secs(5));
        assert!(net.stats.sent >= 1);
    }

    /// Answers each data segment and arms a timer in the same callback;
    /// the timer sends its token to A's UDP port 9.
    struct ReplyAndArm;
    impl Service for ReplyAndArm {
        fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
            ctx.tcp_listen(7);
        }
        fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
            if let SockEvent::TcpData { sock, .. } = ev {
                ctx.tcp_send(sock, b"reply");
                ctx.set_timer(SimDuration::from_secs(1), 5);
            }
        }
        fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
            ctx.udp_send(9, A, 9, vec![token as u8]);
        }
    }

    /// A delivery that runs a service sends the stack's own reply first,
    /// then what the service sent, and arms the timers it set.
    #[test]
    fn a_service_sends_after_its_stack_and_its_timers_fire() {
        let mut net = net();
        net.add_service_host(B, Box::new(ReplyAndArm));
        net.add_external_host(A);
        net.ext_udp_bind(A, 9);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(1));
        net.start_capture(B);
        net.ext_tcp_send(A, sock, b"ping");
        net.run_for(SimDuration::from_millis(500));
        let cap = pcap::parse_capture(&net.stop_capture(B)).unwrap().0;
        let sent: Vec<&[u8]> = cap
            .iter()
            .filter(|(_, p)| p.src == B)
            .map(|(_, p)| p.transport.payload())
            .collect();
        assert_eq!(
            sent,
            [&b""[..], b"reply"],
            "the ACK of the data, then the reply"
        );
        assert!(net
            .ext_events(A)
            .iter()
            .all(|e| !matches!(e, SockEvent::UdpData { .. })));
        net.run_for(SimDuration::from_secs(1));
        let evs = net.ext_events(A);
        assert!(
            evs.iter()
                .any(|e| matches!(e, SockEvent::UdpData { data, .. } if data == &[5])),
            "the timer did not fire: {evs:?}"
        );
    }

    #[test]
    fn down_host_resets_connections() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        let _sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(1));
        net.set_host_up(B, false);
        assert!(!net.host_up(B));
        net.set_host_up(B, true);
        // Stack was reset: no connections remain server-side.
        assert_eq!(net.hosts.get(&B).unwrap().stack.conn_count(), 0);
    }

    /// Regression (ISSUE 4 satellite): a host dying **mid-session** must
    /// not leave the peer with dangling TCP state. Before the fix, the
    /// downed host's own stack was cleared but the established peer
    /// connection hung around forever — no event, no garbage collection.
    #[test]
    fn mid_session_host_death_resets_the_peer() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        let sock = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(1));
        assert!(net.ext_events(A).contains(&SockEvent::Connected(sock)));
        assert_eq!(net.ext_stack(A).unwrap().conn_count(), 1);
        // The server dies while the session is established.
        net.set_host_up(B, false);
        net.run_for(SimDuration::from_secs(1));
        let evs = net.ext_events(A);
        assert!(
            evs.contains(&SockEvent::Reset { sock }),
            "peer saw no reset: {evs:?}"
        );
        assert_eq!(
            net.ext_stack(A).unwrap().conn_count(),
            0,
            "dangling TCP state on the peer after C2 death"
        );
    }

    /// Scheduled downtime windows (chaos layer): the host is down inside
    /// the window and answers again after it ends.
    #[test]
    fn scheduled_host_state_transitions_fire() {
        let mut net = net();
        net.add_service_host(B, Box::new(Upper));
        net.add_external_host(A);
        net.schedule_host_state(B, SimTime::EPOCH + SimDuration::from_secs(5), false);
        net.schedule_host_state(B, SimTime::EPOCH + SimDuration::from_secs(20), true);
        // Before the window: connects fine.
        let s1 = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(2));
        assert!(net.ext_events(A).contains(&SockEvent::Connected(s1)));
        net.ext_tcp_abort(A, s1);
        // Inside the window: SYN times out.
        net.run_until(SimTime::EPOCH + SimDuration::from_secs(8));
        let s2 = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(8));
        let evs = net.ext_events(A);
        assert!(
            evs.contains(&SockEvent::ConnectFailed {
                sock: s2,
                reason: ConnectError::TimedOut
            }),
            "{evs:?}"
        );
        // After the window: back up.
        net.run_until(SimTime::EPOCH + SimDuration::from_secs(21));
        let s3 = net.ext_tcp_connect(A, B, 7);
        net.run_for(SimDuration::from_secs(2));
        assert!(net.ext_events(A).contains(&SockEvent::Connected(s3)));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut net = Network::new(SimTime::EPOCH, 7);
            net.faults.loss = 0.3;
            net.add_service_host(B, Box::new(Upper));
            net.add_external_host(A);
            net.start_capture(A);
            for _ in 0..20 {
                let s = net.ext_tcp_connect(A, B, 7);
                net.run_for(SimDuration::from_secs(1));
                net.ext_tcp_send(A, s, b"abc");
                net.run_for(SimDuration::from_secs(5));
            }
            net.stop_capture(A)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// Never installed: SYNs to it blackhole and time out.
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    /// Accepts connections on port 7 and makes each timer visible at A
    /// as one UDP datagram.
    struct Ticker;
    impl Service for Ticker {
        fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
            ctx.tcp_listen(7);
        }
        fn on_event(&mut self, _ctx: &mut ServiceCtx<'_>, _ev: SockEvent) {}
        fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
            ctx.udp_send(9, A, 9, token.to_be_bytes().to_vec());
        }
    }

    /// The oracle for [`Network::run_steps`]: the polling loop it
    /// replaces, one `run_for(step)` at a time until a step processes an
    /// event or the clock reaches `limit`. Returns the steps before the
    /// last one, which processed nothing.
    fn step_loop(net: &mut Network, step: SimDuration, limit: SimTime) -> u64 {
        let mut skipped = 0;
        while net.run_for(step) == 0 && net.now() < limit {
            skipped += 1;
        }
        skipped
    }

    /// A network with A (external, capturing, UDP 9 bound) and B
    /// (`Ticker`), random link faults, timers on and off the `step` grid,
    /// B downtime and open connects to B and to the absent C.
    fn random_net(rng: &mut StdRng, step: SimDuration) -> Network {
        let t0 = SimTime::from_day(3, 0);
        let mut net = Network::new(t0, rng.gen_range(0..1_000));
        net.faults.latency = SimDuration::from_millis(rng.gen_range(1..80));
        net.faults.jitter = SimDuration::from_millis(rng.gen_range(0..40));
        net.faults.jitter_seed = rng.gen_range(0..4);
        if rng.gen_bool(0.3) {
            net.faults.loss = 0.2;
        }
        net.add_service_host(B, Box::new(Ticker));
        net.add_external_host(A);
        net.start_capture(A);
        net.ext_udp_bind(A, 9);
        for token in 0..rng.gen_range(0..6u64) {
            let delay = if rng.gen_bool(0.5) {
                step.saturating_mul(rng.gen_range(0..60))
            } else {
                SimDuration::from_micros(rng.gen_range(0..6_000_000))
            };
            net.arm_timer(B, delay, token);
        }
        if rng.gen_bool(0.3) {
            let down = t0 + SimDuration::from_micros(rng.gen_range(0..4_000_000));
            net.schedule_host_state(B, down, false);
            net.schedule_host_state(B, down + SimDuration::from_secs(2), true);
        }
        for _ in 0..rng.gen_range(0..4) {
            let dst = if rng.gen_bool(0.5) { B } else { C };
            net.ext_tcp_connect(A, dst, 7);
        }
        net
    }

    /// `run_steps` against the step loop, call by call on twin networks:
    /// the same clock, the same skipped-step count, the same events
    /// processed (stats, inbox, what stays queued) and the same capture.
    /// Limits fall on and off the step grid, timers fall on it, and
    /// traffic is injected between calls as a guest would.
    #[test]
    fn run_steps_matches_the_step_loop() {
        let mut rng = proptest::test_rng("run_steps_matches_the_step_loop");
        let mut skipped = 0;
        for case in 0..300 {
            let step = SimDuration::from_millis([50, 100, 37][case % 3]);
            let seed: u64 = rng.gen_range(0..u64::MAX);
            let mut oracle = random_net(&mut StdRng::seed_from_u64(seed), step);
            let mut net = random_net(&mut StdRng::seed_from_u64(seed), step);
            for call in 0..rng.gen_range(1..12) {
                let wait = match rng.gen_range(0..4) {
                    0 => SimDuration::ZERO,
                    1 => step.saturating_mul(rng.gen_range(1..80)),
                    _ => SimDuration::from_micros(rng.gen_range(1..8_000_000)),
                };
                let limit = net.now() + wait;
                let want = step_loop(&mut oracle, step, limit);
                let got = net.run_steps(step, limit);
                let ctx = format!("case {case} call {call} step {step:?} wait {wait:?}");
                assert_eq!(got, want, "skipped steps, {ctx}");
                skipped += got;
                assert_eq!(net.now(), oracle.now(), "clock, {ctx}");
                assert_eq!(net.stats, oracle.stats, "stats, {ctx}");
                assert_eq!(net.queue.len(), oracle.queue.len(), "queue, {ctx}");
                assert_eq!(net.ext_events(A), oracle.ext_events(A), "inbox, {ctx}");
                match rng.gen_range(0..3) {
                    0 => {
                        let dst = if rng.gen_bool(0.5) { B } else { C };
                        net.ext_tcp_connect(A, dst, 7);
                        oracle.ext_tcp_connect(A, dst, 7);
                    }
                    1 => {
                        net.ext_udp_send(A, 9, B, 53, vec![1]);
                        oracle.ext_udp_send(A, 9, B, 53, vec![1]);
                    }
                    _ => {}
                }
            }
            assert_eq!(net.stop_capture(A), oracle.stop_capture(A), "case {case}");
        }
        assert!(skipped > 0, "no case skipped a step");
    }

    /// The two boundary cases spelled out: an event due exactly on a step
    /// boundary is processed at that boundary, and a limit between
    /// boundaries overshoots to the next one, as the step loop does.
    #[test]
    fn run_steps_lands_on_step_boundaries() {
        let step = SimDuration::from_millis(100);
        let mut net = net();
        net.add_service_host(B, Box::new(Ticker));
        let t0 = net.now();
        net.arm_timer(B, step.saturating_mul(3), 1);
        assert_eq!(net.run_steps(step, t0 + SimDuration::from_secs(10)), 2);
        assert_eq!(net.now(), t0 + step.saturating_mul(3));
        assert_eq!(net.stats.sent, 1, "the timer fired on its boundary");

        // With nothing pending, a limit between boundaries overshoots to
        // the next one.
        net.run_idle(u64::MAX);
        let t1 = net.now();
        assert_eq!(net.run_steps(step, t1 + SimDuration::from_millis(250)), 2);
        assert_eq!(net.now(), t1 + step.saturating_mul(3));
        // A limit already reached still takes one step.
        assert_eq!(net.run_steps(step, t1), 0);
        assert_eq!(net.now(), t1 + step.saturating_mul(4));
    }

    /// Declared by [`TwoHosts`]: up, and down.
    const D: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
    const E: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);

    /// Declares D (up) and E (down), both `Upper`.
    struct TwoHosts;
    impl HostSource for TwoHosts {
        fn declared(&self, ip: Ipv4Addr) -> Option<bool> {
            match ip {
                D => Some(true),
                E => Some(false),
                _ => None,
            }
        }
        fn build(&self, ip: Ipv4Addr) -> Box<dyn Service + Send> {
            assert!(ip == D || ip == E, "built undeclared {ip}");
            Box::new(Upper)
        }
    }

    /// A network over [`TwoHosts`] with A external, counting builds.
    fn lazy_net() -> (Network, malnet_telemetry::Telemetry) {
        let tel = malnet_telemetry::Telemetry::enabled();
        let mut net = net();
        net.set_telemetry(&tel);
        net.set_host_source(Box::new(TwoHosts));
        net.add_external_host(A);
        (net, tel)
    }

    fn built(net: &Network, ip: Ipv4Addr) -> bool {
        net.hosts.contains_key(&ip)
    }

    fn builds(tel: &malnet_telemetry::Telemetry) -> u64 {
        tel.report().counter("netsim.hosts_built").unwrap_or(0)
    }

    fn connects(net: &mut Network, dst: Ipv4Addr) -> bool {
        let sock = net.ext_tcp_connect(A, dst, 7);
        net.run_for(SimDuration::from_secs(5));
        net.ext_events(A).contains(&SockEvent::Connected(sock))
    }

    #[test]
    fn declared_hosts_answer_without_being_built() {
        let (net, tel) = lazy_net();
        assert!(net.has_host(D) && net.host_up(D));
        assert!(net.has_host(E) && !net.host_up(E));
        assert!(!net.has_host(C) && !net.host_up(C));
        assert!(!built(&net, D) && !built(&net, E));
        assert_eq!(builds(&tel), 0);
    }

    #[test]
    fn syn_to_a_declared_down_host_blackholes_unbuilt() {
        let (mut net, _) = lazy_net();
        let sock = net.ext_tcp_connect(A, E, 7);
        net.run_for(SimDuration::from_secs(10));
        let evs = net.ext_events(A);
        assert!(
            evs.contains(&SockEvent::ConnectFailed {
                sock,
                reason: ConnectError::TimedOut
            }),
            "{evs:?}"
        );
        assert_eq!(net.stats.blackholed, 1);
        assert!(!built(&net, E));
    }

    #[test]
    fn first_delivery_builds_a_declared_host() {
        let (mut net, tel) = lazy_net();
        assert!(connects(&mut net, D));
        assert!(built(&net, D) && !built(&net, E));
        assert_eq!(builds(&tel), 1);
        // The built host is the declared service, and is built once.
        assert!(connects(&mut net, D));
        assert_eq!(builds(&tel), 1);
    }

    #[test]
    fn state_changes_and_captures_build_declared_hosts() {
        let (mut net, tel) = lazy_net();
        net.set_host_up(E, true);
        assert!(built(&net, E) && net.host_up(E));
        assert!(connects(&mut net, E));

        let at = net.now() + SimDuration::from_secs(1);
        net.schedule_host_state(D, at, false);
        assert!(!built(&net, D), "scheduling alone builds nothing");
        net.run_until(at);
        assert!(built(&net, D) && !net.host_up(D));
        assert!(!connects(&mut net, D));
        assert_eq!(builds(&tel), 2);

        let (mut net, _) = lazy_net();
        net.start_capture(D);
        assert!(built(&net, D));
        assert!(connects(&mut net, D));
        let cap = pcap::parse_capture(&net.stop_capture(D)).unwrap().0;
        assert_eq!(cap.len(), 3, "the handshake on D's tap");
    }

    #[test]
    fn a_removed_declared_host_stays_gone() {
        let (mut net, _) = lazy_net();
        net.remove_host(D);
        assert!(!net.has_host(D) && !net.host_up(D));
        assert!(!connects(&mut net, D));
        assert!(!built(&net, D));

        net.set_host_up(E, true);
        net.remove_host(E);
        assert!(!net.has_host(E));
        assert!(!connects(&mut net, E));
        net.set_host_up(E, true);
        assert!(!built(&net, E));
        assert_eq!(net.stats.blackholed, 2);

        // The address is free again.
        net.add_service_host(D, Box::new(Upper));
        assert!(connects(&mut net, D));
    }

    #[test]
    #[should_panic(expected = "duplicate host 10.0.0.5")]
    fn a_declared_address_is_a_duplicate() {
        let (mut net, _) = lazy_net();
        net.add_service_host(E, Box::new(Upper));
    }

    /// Declares 10.0.1.1–10.0.1.12, odd hosts up and even hosts down,
    /// each an `Upper`.
    struct Roster;
    impl HostSource for Roster {
        fn declared(&self, ip: Ipv4Addr) -> Option<bool> {
            let [a, b, c, d] = ip.octets();
            ((a, b, c) == (10, 0, 1) && (1..=12).contains(&d)).then_some(d % 2 == 1)
        }
        fn build(&self, _ip: Ipv4Addr) -> Box<dyn Service + Send> {
            Box::new(Upper)
        }
    }

    /// The addresses the probe oracle sends to: [`Roster`]'s twelve, four
    /// built hosts and two empty addresses.
    fn probe_pool() -> Vec<Ipv4Addr> {
        (1..=12)
            .map(|d| Ipv4Addr::new(10, 0, 1, d))
            .chain((1..=4).map(|d| Ipv4Addr::new(10, 0, 2, d)))
            .chain([Ipv4Addr::new(10, 0, 3, 1), Ipv4Addr::new(10, 0, 3, 2)])
            .collect()
    }

    /// A network over [`Roster`] with A external: random loss,
    /// corruption and jitter; built hosts, some taken down; declared
    /// hosts removed, flipped, built by a capture or left alone; host
    /// state changes due in the first 300 ms; A's capture on or off; and
    /// sometimes an egress filter that contains one address.
    fn probe_net(rng: &mut StdRng) -> Network {
        let t0 = SimTime::from_day(2, 0);
        let mut net = Network::new(t0, rng.gen_range(0..1_000));
        net.faults.latency = SimDuration::from_millis(rng.gen_range(1..60));
        net.faults.jitter = SimDuration::from_millis(rng.gen_range(0..40));
        net.faults.jitter_seed = rng.gen_range(0..4);
        if rng.gen_bool(0.5) {
            net.faults.loss = 0.3;
        }
        if rng.gen_bool(0.5) {
            net.faults.corrupt = 0.3;
        }
        net.set_host_source(Box::new(Roster));
        net.add_external_host(A);
        let pool = probe_pool();
        for &ip in &pool[12..16] {
            net.add_service_host(ip, Box::new(Upper));
            if rng.gen_bool(0.5) {
                net.set_host_up(ip, false);
            }
        }
        for &ip in &pool[..12] {
            match rng.gen_range(0..6) {
                0 => net.remove_host(ip),
                1 => net.set_host_up(ip, rng.gen_bool(0.5)),
                2 => net.start_capture(ip),
                _ => {}
            }
        }
        for _ in 0..rng.gen_range(0..8) {
            let ip = pool[rng.gen_range(0..pool.len())];
            let at = t0 + SimDuration::from_micros(rng.gen_range(0..300_000));
            net.schedule_host_state(ip, at, rng.gen_bool(0.5));
        }
        if rng.gen_bool(0.5) {
            net.start_capture(A);
        }
        if rng.gen_bool(0.3) {
            let contained = pool[rng.gen_range(0..pool.len())];
            net.set_egress_filter(Box::new(move |_, pkt| pkt.dst != contained));
        }
        net
    }

    /// `ext_tcp_probe` against `ext_tcp_connect` on twin networks: the
    /// same socket ids, statistics, captures, socket states, pending
    /// events and RNG stream, and the same inbox once the timeouts of
    /// the sockets the probe never opened are left out. A follow-up
    /// connect sends the same SYN, so the port and the ISS advanced
    /// alike. SYNs go out between host state changes and while they
    /// fire, and hosts go down or away mid-sweep. Every tap's bytes
    /// equal `pcap::to_bytes` of their own parse: the tap writes what
    /// the packet-list encoder writes, for traffic in both directions
    /// under loss, corruption and the egress filter.
    #[test]
    fn ext_tcp_probe_matches_ext_tcp_connect() {
        let mut rng = proptest::test_rng("ext_tcp_probe_matches_ext_tcp_connect");
        let pool = probe_pool();
        let (mut dark, mut woke, mut records) = (0, 0, 0);
        for case in 0..400 {
            let seed: u64 = rng.gen_range(0..u64::MAX);
            let mut oracle = probe_net(&mut StdRng::seed_from_u64(seed));
            let mut net = probe_net(&mut StdRng::seed_from_u64(seed));
            let mut opened = Vec::new();
            let mut unopened = Vec::new();
            let mut down_at_send = Vec::new();
            for _ in 0..rng.gen_range(1..40) {
                let ip = pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0..10) {
                    0 => {
                        let d = SimDuration::from_micros(rng.gen_range(0..60_000));
                        oracle.run_for(d);
                        net.run_for(d);
                    }
                    1 => {
                        oracle.set_host_up(ip, false);
                        net.set_host_up(ip, false);
                    }
                    2 => {
                        oracle.remove_host(ip);
                        net.remove_host(ip);
                    }
                    _ => {
                        let dport = if rng.gen_bool(0.8) { 7 } else { 9 };
                        let down = !oracle.host_up(ip);
                        let want = oracle.ext_tcp_connect(A, ip, dport);
                        if down {
                            down_at_send.push(want);
                        }
                        let (sock, open) = net.ext_tcp_probe(A, ip, dport);
                        assert_eq!(sock, want, "case {case}: socket id");
                        if open {
                            opened.push(sock);
                        } else {
                            unopened.push(sock);
                        }
                    }
                }
            }
            // Past every delivery and every connect timeout.
            oracle.run_for(SimDuration::from_secs(10));
            net.run_for(SimDuration::from_secs(10));
            dark += unopened.len();

            assert_eq!(net.stats, oracle.stats, "case {case}: stats");
            assert_eq!(net.queue.len(), oracle.queue.len(), "case {case}: queue");
            let want: Vec<SockEvent> = oracle
                .ext_events(A)
                .into_iter()
                .filter(|ev| {
                    !matches!(ev, SockEvent::ConnectFailed { sock, reason: ConnectError::TimedOut }
                        if unopened.contains(sock))
                })
                .collect();
            woke += want
                .iter()
                .filter(|ev| matches!(ev, SockEvent::Connected(s) if down_at_send.contains(s)))
                .count();
            assert_eq!(net.ext_events(A), want, "case {case}: inbox");
            let (stack, oracle_stack) = (net.ext_stack(A).unwrap(), oracle.ext_stack(A).unwrap());
            assert_eq!(stack.conn_count(), oracle_stack.conn_count(), "case {case}");
            for &sock in &opened {
                assert_eq!(
                    stack.state(sock),
                    oracle_stack.state(sock),
                    "case {case}: {sock:?}"
                );
            }
            for &ip in pool.iter().chain([&A]) {
                let cap = net.stop_capture(ip);
                assert_eq!(cap, oracle.stop_capture(ip), "case {case}: capture at {ip}");
                let (parsed, skipped) = pcap::parse_capture(&cap).unwrap();
                assert_eq!(skipped, 0, "case {case}: capture at {ip}");
                assert_eq!(pcap::to_bytes(&parsed), cap, "case {case}: tap at {ip}");
                records += parsed.len();
            }
            assert_eq!(
                net.rng().gen::<u64>(),
                oracle.rng().gen::<u64>(),
                "case {case}"
            );

            // The next SYN: the same socket, port and ISS.
            net.clear_egress_filter();
            oracle.clear_egress_filter();
            net.start_capture(A);
            oracle.start_capture(A);
            assert_eq!(
                net.ext_tcp_connect(A, B, 7),
                oracle.ext_tcp_connect(A, B, 7),
                "case {case}"
            );
            let syn = net.stop_capture(A);
            assert_eq!(pcap::parse_capture(&syn).unwrap().0.len(), 1);
            assert_eq!(syn, oracle.stop_capture(A), "case {case}: follow-up SYN");
        }
        assert!(dark > 1_000, "the dark path ran {dark} times");
        assert!(records > 1_000, "the taps recorded {records} packets");
        assert!(woke > 0, "no SYN reached a host that came up in flight");
    }

    /// A declared host whose `start` sends, arms a timer or draws from
    /// the network RNG would not equal the host built eagerly, so debug
    /// builds refuse to build it.
    #[test]
    #[cfg(debug_assertions)]
    fn a_declared_host_must_start_quietly() {
        /// Breaks the contract on `start` in one of three ways.
        struct Loud(u8);
        impl Service for Loud {
            fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
                match self.0 {
                    0 => ctx.udp_send(1, A, 1, vec![0]),
                    1 => ctx.set_timer(SimDuration::from_secs(1), 0),
                    _ => {
                        ctx.rng().gen::<u64>();
                    }
                }
            }
            fn on_event(&mut self, _ctx: &mut ServiceCtx<'_>, _ev: SockEvent) {}
        }

        struct LoudHost(u8);
        impl HostSource for LoudHost {
            fn declared(&self, ip: Ipv4Addr) -> Option<bool> {
                (ip == D).then_some(true)
            }
            fn build(&self, _ip: Ipv4Addr) -> Box<dyn Service + Send> {
                Box::new(Loud(self.0))
            }
        }

        for kind in 0..3 {
            let mut net = net();
            net.set_host_source(Box::new(LoudHost(kind)));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.start_capture(D);
            }))
            .expect_err("a loud start must panic");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("in `start`"), "kind {kind}: {msg}");
        }
        // Services installed directly may do all three.
        let mut net = net();
        net.add_service_host(D, Box::new(Loud(1)));
    }
}
