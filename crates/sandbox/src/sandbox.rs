//! Run orchestration: containment modes, InetSim faking, the handshaker,
//! weaponization, and capture management.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use malnet_netsim::dns::DnsService;
use malnet_netsim::net::Network;
use malnet_netsim::time::SimDuration;
use malnet_telemetry::Telemetry;
use malnet_wire::packet::Packet;
use malnet_wire::pcap;

use crate::faults::{EmuFaultTally, EmuFaults};
use crate::process::{BotProcess, ExitReason, Image, DEFAULT_FD_CAP};
use crate::services::{FakeVictim, InetSimHttp, VictimLog};

/// The sinkhole address the wildcard DNS hands out in contained mode.
pub const DNS_SINKHOLE: Ipv4Addr = Ipv4Addr::new(100, 64, 99, 99);
/// Where the sandbox's fake resolver lives.
pub const FAKE_RESOLVER: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 53);

/// How the sandbox treats the malware's traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisMode {
    /// No real Internet. DNS is answered by a wildcard resolver
    /// (InetSim-style); HTTP (port 80/8080) is served by fake servers;
    /// other destinations do not exist unless the handshaker engages.
    /// This is the paper's C2-*detection* configuration (§2.6a).
    Contained,
    /// Restricted egress: only destinations in `allowed` are reachable
    /// (the world's live C2 host(s)); everything else is contained. The
    /// paper's DDoS-observation configuration (§2.5: "only C2 traffic is
    /// allowed"). Blocked traffic is still captured at the sender tap.
    Restricted {
        /// Destination IPs allowed out.
        allowed: Vec<Ipv4Addr>,
    },
    /// CnCHunter weaponization (§2.1 mode 2): every TCP connect the
    /// malware makes to a non-DNS destination is redirected to `target`.
    /// Used by the active-probing study to test candidate C2 endpoints.
    Weaponized {
        /// The probe target that replaces the malware's own C2.
        target: (Ipv4Addr, u16),
    },
}

/// Sandbox-wide knobs.
#[derive(Debug, Clone)]
pub struct SandboxConfig {
    /// The infected device's address.
    pub bot_ip: Ipv4Addr,
    /// Containment mode.
    pub mode: AnalysisMode,
    /// Handshaker victim-impersonation threshold: after a TCP port has
    /// been contacted on ≥ this many distinct addresses, the sandbox
    /// impersonates subsequent victims on that port (paper §2.4 uses 20).
    /// `None` disables the handshaker.
    pub handshaker_threshold: Option<usize>,
    /// Guest instruction budget.
    pub instruction_budget: u64,
    /// RNG seed (drives guest randomness).
    pub seed: u64,
    /// Run the guest on the block-cached interpreter (see
    /// `malnet_mips::block`). Bit-exact against the legacy stepping
    /// engine, so artifacts are identical either way; off is for
    /// differential testing and oracle-speed baselines.
    pub block_engine: bool,
    /// Per-process fd-table cap ([`DEFAULT_FD_CAP`]): `socket` returns
    /// `EMFILE` once this many descriptors are open.
    pub fd_cap: u32,
    /// Syscall-boundary fault sub-plan for the guest process
    /// ([`EmuFaults::none`], the default, injects nothing and draws no
    /// randomness).
    pub emu_faults: EmuFaults,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            bot_ip: Ipv4Addr::new(100, 64, 0, 2),
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(20),
            instruction_budget: 200_000_000,
            seed: 7,
            block_engine: true,
            fd_cap: DEFAULT_FD_CAP,
            emu_faults: EmuFaults::none(),
        }
    }
}

/// One exploit payload captured by the handshaker: the first payload a
/// fake victim received on a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedExploit {
    /// Victim address that was impersonated.
    pub victim: Ipv4Addr,
    /// Attacked port.
    pub port: u16,
    /// The exploit payload bytes.
    pub payload: Vec<u8>,
}

/// Everything a run produces. All analysis downstream of the sandbox
/// works from these artifacts (primarily the pcap bytes), never from
/// simulator internals.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Why the process stopped.
    pub exit: ExitReason,
    /// Full packet capture at the bot's tap, as a pcap file: the bytes
    /// the tap wrote during the run, handed over as they are. Readers
    /// stream it with [`pcap::packets`].
    pub pcap: Vec<u8>,
    /// Exploit payloads the handshaker collected.
    pub exploits: Vec<CapturedExploit>,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Syscalls serviced.
    pub syscalls: u64,
    /// Syscall-boundary faults the chaos sub-plan injected (all zero
    /// outside chaos runs).
    pub emu_faults: EmuFaultTally,
}

impl Artifacts {
    /// The capture decoded into one list of timestamped logical packets
    /// ([`pcap::packets`] collected; none if its framing is bad), for
    /// tests and examples. The pipeline streams [`Artifacts::pcap`]
    /// instead.
    pub fn packets(&self) -> Vec<(u64, Packet)> {
        pcap::packets(&self.pcap).collect()
    }
}

/// The sandbox: a network plus containment policy and instruments.
pub struct Sandbox {
    /// The simulated Internet this run sees. May be pre-populated with
    /// world hosts (live C2s, probe subnets) by the caller.
    pub net: Network,
    cfg: SandboxConfig,
    victim_log: VictimLog,
    /// Distinct destination IPs seen per TCP port: the handshaker's
    /// counter, read only by `note_contact`.
    port_contacts: BTreeMap<u16, BTreeSet<Ipv4Addr>>,
    /// Ports where the handshaker has engaged.
    engaged_ports: BTreeSet<u16>,
    /// Destinations the sandbox spawned fake hosts for.
    spawned: BTreeSet<Ipv4Addr>,
    /// Did this sandbox install the fake resolver (so it removes it
    /// again in [`Sandbox::into_network`])?
    owns_resolver: bool,
    /// Telemetry handle (inert by default); see [`Sandbox::with_telemetry`].
    tel: Telemetry,
    /// Pre-resolved counters for the execute path.
    tel_handles: SandboxTelemetry,
}

/// Pre-resolved sandbox metric handles.
#[derive(Debug, Clone, Default)]
struct SandboxTelemetry {
    runs: malnet_telemetry::Counter,
    instructions: malnet_telemetry::Counter,
    syscalls: malnet_telemetry::Counter,
    /// Polling steps of blocking `connect`/`recv` calls skipped because
    /// nothing was due in them (`Network::run_steps`).
    idle_steps_skipped: malnet_telemetry::Counter,
    exploits: malnet_telemetry::Counter,
    /// Simulated seconds of sandbox execution granted — a wall-clock-free
    /// progress denominator for event-stream heartbeats.
    vtime_secs: malnet_telemetry::Counter,
    /// Total syscall-boundary faults injected (zero outside chaos runs).
    emu_faults: malnet_telemetry::Counter,
    instructions_per_run: malnet_telemetry::Histogram,
}

impl SandboxTelemetry {
    fn resolve(tel: &Telemetry) -> Self {
        SandboxTelemetry {
            runs: tel.counter("sandbox.runs"),
            instructions: tel.counter("sandbox.instructions_retired"),
            syscalls: tel.counter("sandbox.syscalls_serviced"),
            idle_steps_skipped: tel.counter("sandbox.idle_steps_skipped"),
            exploits: tel.counter("sandbox.exploits_captured"),
            vtime_secs: tel.counter("sandbox.vtime_secs"),
            emu_faults: tel.counter("chaos.emu_faults_injected"),
            instructions_per_run: tel.histogram("sandbox.instructions_per_run"),
        }
    }
}

// Compile-time guarantee: a whole sandbox (network included) can run on
// a worker thread; `Artifacts` is the plain data it ships back, and one
// `Image` serves the processes of every worker.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Sandbox>();
    assert_send::<Artifacts>();
    assert_sync::<Image>();
};

impl Sandbox {
    /// Wrap an existing network (which may already contain world hosts).
    /// Installs the fake resolver, the bot's host entry, and the capture
    /// tap.
    pub fn new(mut net: Network, cfg: SandboxConfig) -> Self {
        let owns_resolver = !net.has_host(FAKE_RESOLVER);
        if owns_resolver {
            net.add_service_host(FAKE_RESOLVER, Box::new(DnsService::wildcard(DNS_SINKHOLE)));
        }
        if !net.has_host(cfg.bot_ip) {
            net.add_external_host(cfg.bot_ip);
        }
        net.start_capture(cfg.bot_ip);
        let mut sb = Sandbox {
            net,
            cfg,
            victim_log: VictimLog::default(),
            port_contacts: BTreeMap::new(),
            engaged_ports: BTreeSet::new(),
            spawned: BTreeSet::new(),
            owns_resolver,
            tel: Telemetry::disabled(),
            tel_handles: SandboxTelemetry::default(),
        };
        sb.install_egress_filter();
        sb
    }

    /// Attach a telemetry handle: `sandbox.exec` spans, instruction /
    /// syscall / exploit counters, and the wrapped network's packet and
    /// capture counters all record into it. Telemetry never feeds back
    /// into the run (no RNG draws, no virtual-clock reads), so an
    /// instrumented sandbox produces byte-identical artifacts.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self.tel_handles = SandboxTelemetry::resolve(tel);
        self.net.set_telemetry(tel);
        self
    }

    fn install_egress_filter(&mut self) {
        if let AnalysisMode::Restricted { allowed } = &self.cfg.mode {
            let allowed: BTreeSet<Ipv4Addr> = allowed.iter().copied().collect();
            let bot = self.cfg.bot_ip;
            self.net.set_egress_filter(Box::new(move |_, pkt| {
                if pkt.src != bot {
                    return true; // only the bot is contained
                }
                pkt.dst == FAKE_RESOLVER || allowed.contains(&pkt.dst)
            }));
        }
    }

    /// Policy hook for guest TCP connects. Returns the (possibly
    /// rewritten) destination, or `None` to refuse outright.
    pub(crate) fn prepare_tcp_dest(&mut self, dst: Ipv4Addr, port: u16) -> Option<(Ipv4Addr, u16)> {
        let contained = match &self.cfg.mode {
            // All C2-bound traffic goes to the probe target instead.
            AnalysisMode::Weaponized { target } => return Some(*target),
            AnalysisMode::Contained => true,
            AnalysisMode::Restricted { allowed } => !allowed.contains(&dst),
        };
        self.note_contact(dst, port);
        if contained {
            self.maybe_spawn_fake(dst, port);
        }
        Some((dst, port))
    }

    /// Policy hook for guest UDP destinations: reroute DNS to the fake
    /// resolver in contained modes.
    pub(crate) fn prepare_udp_dest(&mut self, dst: Ipv4Addr, port: u16) -> (Ipv4Addr, u16) {
        if port == 53 && !self.net.has_host(dst) {
            return (FAKE_RESOLVER, 53);
        }
        (dst, port)
    }

    fn note_contact(&mut self, dst: Ipv4Addr, port: u16) {
        self.port_contacts.entry(port).or_default().insert(dst);
        if let Some(threshold) = self.cfg.handshaker_threshold {
            if !self.engaged_ports.contains(&port) && self.port_contacts[&port].len() >= threshold {
                self.engaged_ports.insert(port);
            }
        }
    }

    /// Spawn a fake endpoint for `dst` when policy says we should engage:
    /// * HTTP ports always get an InetSim server (downloader faking);
    /// * handshaker-engaged ports get a fake victim that records the
    ///   payload.
    fn maybe_spawn_fake(&mut self, dst: Ipv4Addr, port: u16) {
        if self.net.has_host(dst) || self.spawned.contains(&dst) {
            return;
        }
        if self.engaged_ports.contains(&port) {
            self.net.add_service_host(
                dst,
                Box::new(FakeVictim::new(dst, vec![port], self.victim_log.clone())),
            );
            self.spawned.insert(dst);
        } else if port == 80 || port == 8080 {
            self.net
                .add_service_host(dst, Box::new(InetSimHttp::new(vec![port, 8080])));
            self.spawned.insert(dst);
        }
    }

    /// Execute an ELF for up to `duration` of virtual time and collect
    /// artifacts. The network clock keeps its pre-run origin, so repeated
    /// runs on one network advance through the study day.
    pub fn execute(&mut self, elf_bytes: &[u8], duration: SimDuration) -> Artifacts {
        let _span = self.tel.span("sandbox.exec");
        let image = Image::prepare(elf_bytes);
        self.run(image.as_ref(), duration)
    }

    /// [`Sandbox::execute`] from an image prepared once
    /// ([`Image::prepare`]), for callers that run one executable many
    /// times. `None`, an ELF that did not load, ends in the `unloadable
    /// ELF` fault.
    pub fn execute_image(&mut self, image: Option<&Image>, duration: SimDuration) -> Artifacts {
        let _span = self.tel.span("sandbox.exec");
        self.run(image, duration)
    }

    fn run(&mut self, image: Option<&Image>, duration: SimDuration) -> Artifacts {
        let deadline = self.net.now() + duration;
        let (exit, instructions, syscalls, idle_steps_skipped, emu_faults) = match image {
            Some(image) => {
                let mut proc = BotProcess::start(image, self.cfg.clone());
                let exit = proc.run(self, deadline);
                (
                    exit,
                    proc.instructions(),
                    proc.syscall_count,
                    proc.idle_steps_skipped,
                    proc.fault_tally,
                )
            }
            None => (
                ExitReason::Fault("unloadable ELF".to_string()),
                0,
                0,
                0,
                EmuFaultTally::default(),
            ),
        };
        // Instructions/sec is *derived*, never recorded: wall-clock
        // values must not feed counters or histograms (they would break
        // schedule-invariance; see DESIGN.md §8). Reports divide the
        // `sandbox.instructions_retired` counter by the `sandbox.exec`
        // span's wall time instead.
        // Let in-flight packets land so captures include trailing ACKs.
        self.net.run_for(SimDuration::from_millis(500));
        let pcap = self.net.stop_capture(self.cfg.bot_ip);
        self.net.start_capture(self.cfg.bot_ip);
        let exploits = std::mem::take(&mut *self.victim_log.lock().unwrap());
        self.tel_handles.runs.incr();
        self.tel_handles.instructions.add(instructions);
        self.tel_handles.syscalls.add(syscalls);
        self.tel_handles.idle_steps_skipped.add(idle_steps_skipped);
        self.tel_handles.vtime_secs.add(duration.as_secs());
        self.tel_handles.emu_faults.add(emu_faults.total());
        self.tel_handles.instructions_per_run.record(instructions);
        self.tel_handles.exploits.add(exploits.len() as u64);
        Artifacts {
            exit,
            pcap,
            exploits,
            instructions,
            syscalls,
            emu_faults,
        }
    }

    /// Dissolve the sandbox and return the network (with world hosts
    /// intact) to the caller. The hosts the sandbox installed go with
    /// it: the bot (and its idle capture), the fake resolver and every
    /// spawned fake, so a later sandbox on the network installs its own.
    pub fn into_network(mut self) -> Network {
        self.net.clear_egress_filter();
        self.net.remove_host(self.cfg.bot_ip);
        if self.owns_resolver {
            self.net.remove_host(FAKE_RESOLVER);
        }
        for &ip in &self.spawned {
            self.net.remove_host(ip);
        }
        self.net
    }
}

impl std::fmt::Debug for Sandbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sandbox")
            .field("bot_ip", &self.cfg.bot_ip)
            .field("mode", &self.cfg.mode)
            .field("engaged_ports", &self.engaged_ports)
            .finish()
    }
}
