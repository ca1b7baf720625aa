//! # malnet-sandbox — the CnCHunter-equivalent dynamic-analysis sandbox
//!
//! The paper activates each malware binary in a QEMU-based sandbox
//! (CnCHunter) in two modes: **observational** (let the malware contact
//! its own C2, with the Internet faked unless explicitly allowed) and
//! **weaponized** (redirect the C2 flow to chosen probe targets). This
//! crate reproduces both on top of `malnet-mips` (the CPU) and
//! `malnet-netsim` (the Internet):
//!
//! * [`process`] — prepares a MIPS ELF once as an [`Image`], starts
//!   processes from it and services their Linux o32 syscalls
//!   against the simulated network: sockets, blocking connect/recv with
//!   timeouts, raw-socket sends for flood code, nanosleep driving the
//!   virtual clock.
//! * [`sandbox`] — run orchestration: containment modes, InetSim-style
//!   DNS/HTTP faking (on-demand fake hosts), the **handshaker** (§2.4:
//!   after a port is contacted by ≥ N distinct addresses, impersonate
//!   victims and capture the exploit payload), MITM weaponization
//!   (redirect C2-bound connects to a probe target), and pcap capture of
//!   everything the malware emits.
//! * [`services`] — the fake-endpoint services (the fake victim and the
//!   InetSim-style HTTP server). The fake resolver is netsim's
//!   `DnsService` answering every name with one sinkhole address.
//! * [`faults`] — deterministic syscall-boundary fault injection (short
//!   I/O, `EINTR`, `ENOMEM`, fd-cap exhaustion): the emulator's share of
//!   the chaos layer, driven per sample by `malnet-core`'s fault plan.
//!
//! The sandbox is intentionally ignorant of how binaries are made: it
//! loads any ELF32/MIPS executable. `malnet-botgen` produces them; the
//! integration tests in that crate close the loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod process;
pub mod sandbox;
pub mod services;

pub use faults::{EmuFaultTally, EmuFaults};
pub use process::{BotProcess, ExitReason, Image};
pub use sandbox::{AnalysisMode, Artifacts, CapturedExploit, Sandbox, SandboxConfig};
