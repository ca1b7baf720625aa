//! # malnet-netsim — a discrete-event Internet simulator
//!
//! This crate is the "Internet" on which the MalNet reproduction runs. It
//! replaces the real network the paper measured with a deterministic
//! discrete-event simulation that produces the *same observable artefacts*:
//! real TCP handshakes, RSTs from closed ports, timeouts from dead hosts,
//! DNS transactions, and ICMP — all as [`malnet_wire::Packet`]s that can be
//! captured to pcap.
//!
//! Architecture (single-threaded, fully deterministic):
//!
//! * [`time`] — the virtual clock ([`time::SimTime`]) and the study
//!   calendar (day 0 = 2021-03-01; week mapping per the paper's Appendix E).
//! * [`asdb`] — an AS-level registry: ASN, organisation, country, AS type
//!   (hosting / ISP / business / gaming), anti-DDoS and crypto-payment
//!   attributes, and prefix-based IP→ASN resolution. Seeded with the ASes
//!   named in the paper (Table 2, Appendix A) plus synthetic filler.
//! * [`tcp`] — a per-connection TCP state machine that emits genuine
//!   SYN / SYN-ACK / ACK / PSH / FIN / RST segments with sequence tracking.
//! * [`stack`] — a per-host socket table (listeners, TCP connections, UDP
//!   binds) exposing a miniature sockets API and a stream of
//!   [`stack::SockEvent`]s.
//! * [`net`] — the event loop: hosts, links with latency/loss/corruption
//!   fault injection, timers, connect timeouts, and capture taps. Its
//!   pending events wait in one min-heap keyed by `(at, seq)`.
//! * [`dns`] — an authoritative DNS zone service used both by the "real"
//!   simulated resolver and by the sandbox's InetSim-style fake resolver.
//! * [`services`] — reusable application services (HTTP file server for
//!   malware downloaders, banner services for probe filtering, echo).
//!
//! Nothing here knows about malware; botnets are built on top by
//! `malnet-botgen` (world model) and `malnet-sandbox` (analysis side).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asdb;
pub mod dns;
mod hash;
pub mod net;
mod queue;
pub mod services;
pub mod stack;
pub mod tcp;
pub mod time;

pub use asdb::{AsDb, AsKind, AsRecord, Asn};
pub use net::{LinkFaults, Network, Service, ServiceCtx};
pub use stack::{HostStack, SockEvent, SockId};
pub use time::{SimDuration, SimTime};
