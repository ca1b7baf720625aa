//! The emulated malware process: a MIPS CPU plus a Linux-o32 syscall
//! layer bridged onto the simulated network.
//!
//! Blocking semantics: `connect`, `recv` and `nanosleep` advance the
//! network's virtual clock while the guest waits, so traffic timing in
//! captures is realistic. Every syscall also costs a small fixed amount
//! of virtual time ([`SYSCALL_COST`]), which both models kernel overhead
//! and guarantees that send-loops make progress through time.
//!
//! `connect` and `recv` poll: they advance the clock in fixed steps
//! (`CONNECT_STEP`, `RECV_STEP`) and re-check the socket after each
//! until it resolves or the wait times out. Steps in which nothing is
//! due are skipped outright (`Network::run_steps`), which lands on the
//! same step boundary with the same state the step-by-step loop would.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use malnet_prng::rngs::StdRng;
use malnet_prng::{Rng, SeedableRng};

use malnet_mips::block::ExecCache;
use malnet_mips::cpu::{Cpu, StepOutcome};
use malnet_mips::elf::ElfFile;
use malnet_mips::mem::Memory;
use malnet_mips::sys;
use malnet_netsim::stack::{SockEvent, SockId};
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_wire::icmp::IcmpMessage;
use malnet_wire::packet::Packet;
use malnet_wire::tcp::TcpFlags;

use crate::faults::EmuFaultTally;
use crate::sandbox::{Sandbox, SandboxConfig};

/// Virtual time charged per syscall.
pub const SYSCALL_COST: SimDuration = SimDuration::from_micros(50);
/// Default per-process fd-table cap. Generous — the corpus' bots open a
/// handful of sockets — but *bounded*, so a leaking guest hits `EMFILE`
/// the way it would on a real kernel (and so the chaos layer's reduced
/// caps are an honest tightening of real behaviour, not a new rule).
pub const DEFAULT_FD_CAP: u32 = 512;
/// Slice of guest instructions executed between deadline checks.
const SLICE: u64 = 100_000;
/// Hard cap on how long a blocking connect waits (matches the network's
/// SYN timeout plus margin).
const CONNECT_WAIT: SimDuration = SimDuration::from_secs(4);
/// Default receive timeout when the guest passes 0.
const DEFAULT_RECV_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Polling step of a blocking `connect`.
const CONNECT_STEP: SimDuration = SimDuration::from_millis(50);
/// Polling step of a blocking `recv`.
const RECV_STEP: SimDuration = SimDuration::from_millis(100);

/// Why the process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// Guest called `exit(status)`.
    Exited(u32),
    /// CPU fault (segfault, illegal instruction, …) — the sample failed
    /// to activate, one of the paper's §6f activation-loss causes.
    Fault(String),
    /// The analysis deadline arrived.
    Deadline,
    /// The instruction budget ran out (guest hung in a compute loop).
    Budget,
}

#[derive(Debug)]
enum Fd {
    Tcp {
        sock: SockId,
        state: TcpState,
        rx: VecDeque<u8>,
        peer_closed: bool,
    },
    Udp {
        sport: u16,
        rx: VecDeque<(Ipv4Addr, u16, Vec<u8>)>,
    },
    RawTcp,
    RawIcmp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    Connecting,
    Connected,
    Failed,
}

/// A prepared executable: the parsed ELF's segments loaded into memory
/// and the predecoded text of its entry segment. Processes start from
/// it ([`BotProcess::start`]) without parsing or decoding again; each
/// gets its own copy of the memory and of the predecoded text, so the
/// image is read-only and may be shared across threads.
#[derive(Debug)]
pub struct Image {
    entry: u32,
    /// The loaded segments, without a stack. Its code-watch range is
    /// the cached segment, which only a block-engine process reads.
    mem: Memory,
    /// Predecoded entry segment; `None` when the entry is outside any
    /// word-aligned segment (such programs run on the stepping oracle).
    cache: Option<ExecCache>,
}

impl Image {
    /// Parse and load an ELF and predecode its entry segment. Returns
    /// `None` when the file is not a loadable MIPS executable (failed
    /// activation).
    pub fn prepare(elf_bytes: &[u8]) -> Option<Self> {
        let elf = ElfFile::parse(elf_bytes).ok()?;
        let mut mem = elf.load();
        let cache = ExecCache::for_entry(&mut mem, elf.entry);
        Some(Image {
            entry: elf.entry,
            mem,
            cache,
        })
    }
}

/// A loaded malware process.
pub struct BotProcess {
    cpu: Cpu,
    /// The run's sandbox config: identity, budget, engine, fd cap and
    /// fault sub-plan.
    cfg: SandboxConfig,
    /// Predecoded `.text` for the block engine; `None` runs the legacy
    /// stepping oracle (toggle off, or entry outside any segment).
    cache: Option<ExecCache>,
    /// Open descriptors, keyed by fd number. Ordered map: `pump` and
    /// `fd_by_sock` scan this, and with a hash map the scan order (and
    /// so which of two same-port UDP sockets wins a datagram) would
    /// vary per process.
    fds: BTreeMap<u32, Fd>,
    next_fd: u32,
    rng: StdRng,
    executed: u64,
    /// Count of syscalls serviced (diagnostics). Incremented *before*
    /// dispatch, so while a syscall is serviced it is the 1-based index
    /// of the current call — the deterministic coordinate the
    /// fault sub-plan keys its per-syscall decisions on.
    pub syscall_count: u64,
    /// Faults the sub-plan actually injected into this run.
    pub fault_tally: EmuFaultTally,
    /// Polling steps of blocking `connect`/`recv` calls skipped because
    /// nothing was due in them (diagnostics).
    pub(crate) idle_steps_skipped: u64,
}

impl BotProcess {
    /// Start a process from a prepared image: a copy of its memory with
    /// a fresh stack mapped, and a copy of its predecoded text when the
    /// config enables the block engine.
    pub fn start(image: &Image, cfg: SandboxConfig) -> Self {
        let mut mem = image.mem.clone();
        mem.map_zeroed(
            malnet_mips::cpu::STACK_TOP - malnet_mips::cpu::STACK_SIZE,
            malnet_mips::cpu::STACK_SIZE + 0x1000,
            true,
        );
        let cache = if cfg.block_engine {
            image.cache.clone()
        } else {
            None
        };
        let cpu = Cpu::new(mem, image.entry);
        let seed = cfg.seed;
        BotProcess {
            cpu,
            cfg,
            cache,
            fds: BTreeMap::new(),
            next_fd: 3,
            rng: StdRng::seed_from_u64(seed ^ 0xb07_cafe),
            executed: 0,
            syscall_count: 0,
            fault_tally: EmuFaultTally::default(),
            idle_steps_skipped: 0,
        }
    }

    /// Guest instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.cpu.retired
    }

    /// Run until exit, fault, budget exhaustion, or `deadline` (virtual
    /// time on the sandbox's network clock).
    pub fn run(&mut self, sb: &mut Sandbox, deadline: SimTime) -> ExitReason {
        loop {
            if sb.net.now() >= deadline {
                return ExitReason::Deadline;
            }
            if self.executed >= self.cfg.instruction_budget {
                return ExitReason::Budget;
            }
            let before = self.cpu.retired;
            let slice = SLICE.min(self.cfg.instruction_budget - self.executed);
            let outcome = match self.cache.as_mut() {
                Some(cache) => self.cpu.run_cached(slice, cache),
                None => self.cpu.run(slice),
            };
            match outcome {
                Ok(None) => {
                    self.executed += self.cpu.retired - before;
                }
                Ok(Some(StepOutcome::Syscall)) => {
                    self.executed += self.cpu.retired - before;
                    self.syscall_count += 1;
                    sb.net.run_for(SYSCALL_COST);
                    self.pump(sb);
                    if let Some(exit) = self.syscall(sb, deadline) {
                        return exit;
                    }
                }
                Ok(Some(StepOutcome::Continue)) => unreachable!("run never returns Continue"),
                Err(e) => return ExitReason::Fault(e.to_string()),
            }
        }
    }

    /// Drain network events into per-fd queues.
    fn pump(&mut self, sb: &mut Sandbox) {
        for ev in sb.net.ext_events(self.cfg.bot_ip) {
            match ev {
                SockEvent::Connected(sock) => {
                    if let Some(Fd::Tcp { state, .. }) = self.fd_by_sock(sock) {
                        *state = TcpState::Connected;
                    }
                }
                SockEvent::ConnectFailed { sock, reason } => {
                    if let Some(Fd::Tcp { state, .. }) = self.fd_by_sock(sock) {
                        *state = TcpState::Failed;
                    }
                    let _ = reason;
                }
                SockEvent::TcpData { sock, data } => {
                    if let Some(Fd::Tcp { rx, .. }) = self.fd_by_sock(sock) {
                        rx.extend(data);
                    }
                }
                SockEvent::PeerClosed { sock } | SockEvent::Reset { sock } => {
                    if let Some(Fd::Tcp { peer_closed, .. }) = self.fd_by_sock(sock) {
                        *peer_closed = true;
                    }
                }
                SockEvent::UdpData { port, src, data } => {
                    for fd in self.fds.values_mut() {
                        if let Fd::Udp { sport, rx } = fd {
                            if *sport == port {
                                rx.push_back((src.0, src.1, data));
                                break;
                            }
                        }
                    }
                }
                SockEvent::Accepted { .. } | SockEvent::IcmpIn { .. } => {}
            }
        }
    }

    fn fd_by_sock(&mut self, sock: SockId) -> Option<&mut Fd> {
        self.fds.values_mut().find(|fd| match fd {
            Fd::Tcp { sock: s, .. } => *s == sock,
            _ => false,
        })
    }

    fn ret(&mut self, v: u32) {
        self.cpu.set_reg(2, v); // $v0
        self.cpu.set_reg(7, 0); // $a3 = 0: success
    }

    fn ret_err(&mut self, errno: u32) {
        self.cpu.set_reg(2, u32::MAX); // -1, as the stub expects
        self.cpu.set_reg(7, errno); // $a3 carries the errno
    }

    /// Effective fd cap: the configured table bound, tightened by the
    /// fault sub-plan's reduction when one is active.
    fn fd_cap(&self) -> u32 {
        match self.cfg.emu_faults.fd_cap {
            Some(c) => c.min(self.cfg.fd_cap),
            None => self.cfg.fd_cap,
        }
    }

    /// Service one syscall; `Some(exit)` terminates the run.
    fn syscall(&mut self, sb: &mut Sandbox, deadline: SimTime) -> Option<ExitReason> {
        let nr = self.cpu.reg(2);
        let a0 = self.cpu.reg(4);
        let a1 = self.cpu.reg(5);
        let a2 = self.cpu.reg(6);
        let a3 = self.cpu.reg(7);
        // `run` bumped the count before dispatch: the 1-based index of
        // this call, and the coordinate every injected fault keys on.
        let idx = self.syscall_count;
        match nr {
            sys::NR_EXIT => return Some(ExitReason::Exited(a0)),
            sys::NR_GETPID => self.ret(1337),
            sys::NR_TIME => {
                let secs = (sb.net.now().as_micros() / 1_000_000) as u32;
                self.ret(secs);
            }
            sys::NR_GETRANDOM => {
                // a0 = buf, a1 = len per Linux; the stub passes len in a1.
                let n = a1.min(64) as usize;
                let mut bytes = [0u8; 64];
                self.rng.fill(&mut bytes[..n]);
                if self.cpu.mem.write_bytes(a0, &bytes[..n]).is_err() {
                    self.ret_err(sys::EINVAL);
                } else {
                    self.ret(n as u32);
                }
            }
            sys::NR_NANOSLEEP => {
                if self.cfg.emu_faults.eintr(idx) {
                    self.fault_tally.eintr += 1;
                    self.ret_err(sys::EINTR);
                    return None;
                }
                let secs = self.cpu.mem.read_u32(a0).unwrap_or(0);
                let nanos = self.cpu.mem.read_u32(a0.wrapping_add(4)).unwrap_or(0);
                let mut dur = SimDuration::from_secs(u64::from(secs))
                    + SimDuration::from_micros(u64::from(nanos) / 1000);
                let remaining = deadline.since(sb.net.now());
                if dur > remaining {
                    dur = remaining;
                }
                sb.net.run_for(dur);
                self.pump(sb);
                self.ret(0);
            }
            sys::NR_SOCKET => {
                // Allocation-backed path: the fault sub-plan's ENOMEM
                // fires before any kernel-side state is touched.
                if self.cfg.emu_faults.enomem(idx) {
                    self.fault_tally.enomem += 1;
                    self.ret_err(sys::ENOMEM);
                    return None;
                }
                if self.fds.len() >= self.fd_cap() as usize {
                    self.fault_tally.emfile += 1;
                    self.ret_err(sys::EMFILE);
                    return None;
                }
                let fd = self.next_fd;
                self.next_fd += 1;
                let entry = match (a1, a2) {
                    (sys::SOCK_STREAM, _) => Fd::Tcp {
                        sock: SockId(u64::MAX),
                        state: TcpState::Failed,
                        rx: VecDeque::new(),
                        peer_closed: false,
                    },
                    (sys::SOCK_DGRAM, _) => {
                        let sport = sb.net.with_external(self.cfg.bot_ip, |s| {
                            let p = s.ephemeral_port();
                            s.udp_bind(p);
                            (p, vec![])
                        });
                        Fd::Udp {
                            sport,
                            rx: VecDeque::new(),
                        }
                    }
                    (sys::SOCK_RAW, 6) => Fd::RawTcp,
                    (sys::SOCK_RAW, 1) => Fd::RawIcmp,
                    _ => {
                        self.ret_err(sys::EINVAL);
                        return None;
                    }
                };
                self.fds.insert(fd, entry);
                self.ret(fd);
            }
            sys::NR_CONNECT => {
                let Some((_, port, ip)) = self.read_sockaddr(a1) else {
                    self.ret_err(sys::EINVAL);
                    return None;
                };
                let dst = Ipv4Addr::from(ip);
                if !matches!(self.fds.get(&a0), Some(Fd::Tcp { .. })) {
                    self.ret_err(sys::EBADF);
                    return None;
                }
                // Policy hook: redirect / fake / refuse.
                let Some((real_dst, real_port)) = sb.prepare_tcp_dest(dst, port) else {
                    self.ret_err(sys::ECONNREFUSED);
                    return None;
                };
                let sock = sb.net.ext_tcp_connect(self.cfg.bot_ip, real_dst, real_port);
                if let Some(Fd::Tcp {
                    sock: s,
                    state,
                    rx,
                    peer_closed,
                }) = self.fds.get_mut(&a0)
                {
                    *s = sock;
                    *state = TcpState::Connecting;
                    rx.clear();
                    *peer_closed = false;
                }
                // Block until resolution.
                let give_up = (sb.net.now() + CONNECT_WAIT).min(deadline);
                loop {
                    self.idle_steps_skipped += sb.net.run_steps(CONNECT_STEP, give_up);
                    self.pump(sb);
                    let st = match self.fds.get(&a0) {
                        Some(Fd::Tcp { state, .. }) => *state,
                        _ => TcpState::Failed,
                    };
                    match st {
                        TcpState::Connected => {
                            self.ret(0);
                            break;
                        }
                        TcpState::Failed => {
                            self.ret_err(sys::ECONNREFUSED);
                            break;
                        }
                        TcpState::Connecting => {
                            if sb.net.now() >= give_up {
                                self.ret_err(sys::ETIMEDOUT);
                                break;
                            }
                        }
                    }
                }
            }
            sys::NR_SEND | sys::NR_WRITE => {
                let len = a2.min(65536);
                // A bad buffer is EINVAL even on a bad fd (checked
                // before the fd, matching the pre-fast-path ordering).
                if self.cpu.mem.view(a1, len).is_err() {
                    self.ret_err(sys::EINVAL);
                    return None;
                }
                match self.fds.get(&a0) {
                    Some(Fd::Tcp {
                        sock,
                        state: TcpState::Connected,
                        ..
                    }) => {
                        let sock = *sock;
                        // Short write: transmit (and report) a partial
                        // count; the guest's retry loop owns the rest.
                        let len = match self.cfg.emu_faults.short_count(idx, len as usize) {
                            Some(n) => {
                                self.fault_tally.short_io += 1;
                                n as u32
                            }
                            None => len,
                        };
                        // Borrow the payload straight out of guest memory:
                        // the hot send loop copies nothing.
                        let data = self.cpu.mem.view(a1, len).expect("validated above");
                        sb.net.ext_tcp_send(self.cfg.bot_ip, sock, data);
                        self.ret(len);
                    }
                    _ => self.ret_err(sys::EBADF),
                }
            }
            sys::NR_RECV | sys::NR_READ | sys::NR_RECVFROM => {
                if self.cfg.emu_faults.eintr(idx) {
                    self.fault_tally.eintr += 1;
                    self.ret_err(sys::EINTR);
                    return None;
                }
                let timeout = if a3 == 0 {
                    DEFAULT_RECV_TIMEOUT
                } else {
                    SimDuration::from_millis(u64::from(a3))
                };
                let give_up = (sb.net.now() + timeout).min(deadline);
                loop {
                    self.pump(sb);
                    let ready = match self.fds.get(&a0) {
                        Some(Fd::Tcp {
                            rx, peer_closed, ..
                        }) => !rx.is_empty() || *peer_closed,
                        Some(Fd::Udp { rx, .. }) => !rx.is_empty(),
                        _ => {
                            self.ret_err(sys::EBADF);
                            return None;
                        }
                    };
                    if ready {
                        break;
                    }
                    if sb.net.now() >= give_up {
                        self.ret_err(sys::ETIMEDOUT);
                        return None;
                    }
                    self.idle_steps_skipped += sb.net.run_steps(RECV_STEP, give_up);
                }
                let max = a2 as usize;
                let chunk: Vec<u8> = match self.fds.get_mut(&a0) {
                    Some(Fd::Tcp { rx, .. }) => {
                        // Short read: deliver a partial count; the rest
                        // stays queued for the guest's next read.
                        let mut n = rx.len().min(max);
                        if let Some(s) = self.cfg.emu_faults.short_count(idx, n) {
                            self.fault_tally.short_io += 1;
                            n = s;
                        }
                        rx.drain(..n).collect()
                    }
                    Some(Fd::Udp { rx, .. }) => match rx.pop_front() {
                        Some((_, _, d)) => d.into_iter().take(max).collect(),
                        None => Vec::new(),
                    },
                    _ => Vec::new(),
                };
                if chunk.is_empty() {
                    // Peer closed with no data: return 0 (EOF).
                    self.ret(0);
                } else if self.cpu.mem.write_bytes(a1, &chunk).is_err() {
                    self.ret_err(sys::EINVAL);
                } else {
                    self.ret(chunk.len() as u32);
                }
            }
            sys::NR_SENDTO => {
                // o32: args 5/6 on the stack.
                let sp = self.cpu.reg(29);
                let addr_ptr = self.cpu.mem.read_u32(sp.wrapping_add(16)).unwrap_or(0);
                let Some((_, port, ip)) = self.read_sockaddr(addr_ptr) else {
                    self.ret_err(sys::EINVAL);
                    return None;
                };
                let dst = Ipv4Addr::from(ip);
                let data = match self.cpu.mem.read_bytes(a1, a2.min(65536)) {
                    Ok(d) => d,
                    Err(_) => {
                        self.ret_err(sys::EINVAL);
                        return None;
                    }
                };
                match self.fds.get(&a0) {
                    Some(Fd::Udp { sport, .. }) => {
                        let sport = *sport;
                        let (rdst, rport) = sb.prepare_udp_dest(dst, port);
                        let n = data.len() as u32;
                        sb.net
                            .ext_udp_send(self.cfg.bot_ip, sport, rdst, rport, data);
                        self.ret(n);
                    }
                    Some(Fd::RawTcp) => {
                        if let Some(pkt) = self.craft_tcp(dst, &data) {
                            sb.net.ext_send_raw(self.cfg.bot_ip, pkt);
                            self.ret(a2);
                        } else {
                            self.ret_err(sys::EINVAL);
                        }
                    }
                    Some(Fd::RawIcmp) => match IcmpMessage::decode(&data) {
                        Ok(msg) => {
                            let pkt = Packet::icmp(self.cfg.bot_ip, dst, msg);
                            sb.net.ext_send_raw(self.cfg.bot_ip, pkt);
                            self.ret(a2);
                        }
                        Err(_) => self.ret_err(sys::EINVAL),
                    },
                    Some(Fd::Tcp { .. }) => self.ret_err(sys::EINVAL),
                    None => self.ret_err(sys::EBADF),
                }
            }
            sys::NR_CLOSE => match self.fds.remove(&a0) {
                Some(Fd::Tcp { sock, state, .. }) => {
                    if state == TcpState::Connected || state == TcpState::Connecting {
                        if a1 == 1 {
                            sb.net.ext_tcp_abort(self.cfg.bot_ip, sock);
                        } else {
                            sb.net.ext_tcp_close(self.cfg.bot_ip, sock);
                        }
                    }
                    self.ret(0);
                }
                Some(Fd::Udp { sport, .. }) => {
                    sb.net.with_external(self.cfg.bot_ip, |s| {
                        s.udp_unbind(sport);
                        ((), vec![])
                    });
                    self.ret(0);
                }
                Some(_) => self.ret(0),
                None => self.ret_err(sys::EBADF),
            },
            sys::NR_ACCEPT => {
                // Blocking call, so the EINTR fault applies; otherwise
                // bots in our corpus never act as servers.
                if self.cfg.emu_faults.eintr(idx) {
                    self.fault_tally.eintr += 1;
                    self.ret_err(sys::EINTR);
                } else {
                    self.ret_err(sys::EINVAL);
                }
            }
            sys::NR_BIND | sys::NR_LISTEN => {
                // Bots in our corpus never act as servers.
                self.ret_err(sys::EINVAL);
            }
            _ => {
                // Unknown syscall: fail soft like a strict seccomp would.
                self.ret_err(sys::EINVAL);
            }
        }
        None
    }

    fn read_sockaddr(&self, addr: u32) -> Option<(u16, u16, u32)> {
        let mut bytes = [0u8; 8];
        self.cpu.mem.read_into(addr, &mut bytes).ok()?;
        sys::decode_sockaddr(&bytes)
    }

    /// Parse a guest-crafted 20+-byte TCP header into a packet (raw
    /// socket SYN-flood path). No checksum verification: the kernel fills
    /// checksums for raw senders, and so do we at encode time.
    fn craft_tcp(&self, dst: Ipv4Addr, data: &[u8]) -> Option<Packet> {
        if data.len() < 20 {
            return None;
        }
        let src_port = u16::from_be_bytes([data[0], data[1]]);
        let dst_port = u16::from_be_bytes([data[2], data[3]]);
        let seq = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        let flags = TcpFlags(data[13]);
        let payload = data.get(20..).unwrap_or(&[]).to_vec();
        Some(Packet::tcp(
            self.cfg.bot_ip,
            src_port,
            dst,
            dst_port,
            seq,
            0,
            flags,
            payload,
        ))
    }
}

impl std::fmt::Debug for BotProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BotProcess")
            .field("bot_ip", &self.cfg.bot_ip)
            .field("retired", &self.cpu.retired)
            .field("fds", &self.fds.len())
            .field("syscalls", &self.syscall_count)
            .finish()
    }
}
