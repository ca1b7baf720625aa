//! # malnet-wire — packet wire formats and pcap I/O
//!
//! This crate is the lowest substrate of the MalNet reproduction: every
//! byte that crosses the simulated Internet is encoded by (and later parsed
//! back with) the formats defined here. It provides:
//!
//! * **Link layer**: Ethernet II frames ([`ethernet`]).
//! * **Network layer**: IPv4 headers with options-free fixed encoding and
//!   real header checksums ([`ipv4`]), ICMP ([`icmp`]).
//! * **Transport layer**: TCP ([`tcp`]) and UDP ([`udp`]) with genuine
//!   pseudo-header checksums.
//! * **Application helpers**: a small DNS message codec ([`dns`]) used by
//!   the simulated resolver and by InetSim-style DNS faking.
//! * **Capture**: the classic libpcap on-disk format ([`pcap`]), so traffic
//!   captured from the sandbox can be inspected with `tcpdump`/Wireshark
//!   and is re-parsed by the analysis pipeline from the file bytes alone.
//! * **Composition**: a logical [`packet::Packet`] that assembles/parses a
//!   full Ethernet/IPv4/transport stack in one call.
//!
//! The design follows smoltcp's "wire" philosophy: simple, explicit
//! encode/decode functions over byte slices; all parsers are total
//! (returning [`WireError`] on malformed input, never panicking).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use error::WireError;
pub use ethernet::EtherType;
pub use icmp::IcmpMessage;
pub use ipv4::{IpProtocol, Ipv4Header};
pub use mac::MacAddr;
pub use packet::{Packet, Transport};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
