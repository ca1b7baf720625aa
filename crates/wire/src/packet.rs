//! Logical packets: the unit of traffic inside the simulator.
//!
//! A [`Packet`] is the parsed, structured view of one IPv4 datagram. The
//! simulator moves `Packet`s between hosts; the capture layer serializes
//! them to full Ethernet frames for pcap files, and the analysis pipeline
//! parses those bytes back into `Packet`s. Round-tripping through bytes is
//! exercised heavily in tests so that "what the analyst sees in the pcap"
//! is guaranteed to equal "what the simulator sent".

use std::fmt;
use std::net::Ipv4Addr;

use crate::error::WireError;
use crate::ethernet::{self, EtherType};
use crate::icmp::IcmpMessage;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::mac::MacAddr;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;

/// The transport-layer content of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp {
        /// TCP header.
        header: TcpHeader,
        /// Segment payload.
        payload: Vec<u8>,
    },
    /// A UDP datagram.
    Udp {
        /// UDP header.
        header: UdpHeader,
        /// Datagram payload.
        payload: Vec<u8>,
    },
    /// An ICMP message.
    Icmp(IcmpMessage),
}

impl Transport {
    /// Application payload bytes (empty for ICMP control messages).
    pub fn payload(&self) -> &[u8] {
        match self {
            Transport::Tcp { payload, .. } | Transport::Udp { payload, .. } => payload,
            Transport::Icmp(_) => &[],
        }
    }

    /// Source port, if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp { header, .. } => Some(header.src_port),
            Transport::Udp { header, .. } => Some(header.src_port),
            Transport::Icmp(_) => None,
        }
    }

    /// Destination port, if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp { header, .. } => Some(header.dst_port),
            Transport::Udp { header, .. } => Some(header.dst_port),
            Transport::Icmp(_) => None,
        }
    }

    /// IP protocol number for this transport.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            Transport::Tcp { .. } => IpProtocol::Tcp,
            Transport::Udp { .. } => IpProtocol::Udp,
            Transport::Icmp(_) => IpProtocol::Icmp,
        }
    }
}

/// One IPv4 packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source IP address.
    pub src: Ipv4Addr,
    /// Destination IP address.
    pub dst: Ipv4Addr,
    /// TTL (64 on creation, decremented by routers).
    pub ttl: u8,
    /// Transport content.
    pub transport: Transport,
}

impl Packet {
    /// Build a TCP packet.
    #[allow(clippy::too_many_arguments)] // mirrors the TCP header fields
    pub fn tcp(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: Vec<u8>,
    ) -> Self {
        Packet {
            src,
            dst,
            ttl: 64,
            transport: Transport::Tcp {
                header: TcpHeader {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags,
                    window: 65535,
                },
                payload,
            },
        }
    }

    /// Build a UDP packet.
    pub fn udp(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Self {
        Packet {
            src,
            dst,
            ttl: 64,
            transport: Transport::Udp {
                header: UdpHeader { src_port, dst_port },
                payload,
            },
        }
    }

    /// Build an ICMP packet.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, message: IcmpMessage) -> Self {
        Packet {
            src,
            dst,
            ttl: 64,
            transport: Transport::Icmp(message),
        }
    }

    /// TCP flags, if this is a TCP packet.
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        match &self.transport {
            Transport::Tcp { header, .. } => Some(header.flags),
            _ => None,
        }
    }

    /// Serialize to a raw IPv4 datagram (header + transport bytes).
    pub fn encode_ipv4(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_ipv4_into(&mut out);
        out
    }

    /// Append the IPv4 datagram to `out`: header, transport header and
    /// payload written in place, both checksums computed there.
    fn encode_ipv4_into(&self, out: &mut Vec<u8>) {
        let mut hdr = Ipv4Header::new(self.src, self.dst, self.transport.protocol(), 0);
        hdr.ttl = self.ttl;
        hdr.encode_into(out, |out| match &self.transport {
            Transport::Tcp { header, payload } => {
                header.encode_into(self.src, self.dst, payload, out)
            }
            Transport::Udp { header, payload } => {
                header.encode_into(self.src, self.dst, payload, out)
            }
            Transport::Icmp(msg) => msg.encode_into(out),
        });
    }

    /// Serialize to a complete Ethernet frame (the form stored in pcaps).
    /// MAC addresses are synthesized deterministically from the IPs so
    /// captures are stable across runs.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Append the complete Ethernet frame to `out` in one pass: no
    /// intermediate buffer per layer.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let src_mac = MacAddr::from_host_id(u32::from(self.src));
        let dst_mac = MacAddr::from_host_id(u32::from(self.dst));
        ethernet::encode_header(dst_mac, src_mac, EtherType::Ipv4, out);
        self.encode_ipv4_into(out);
    }

    /// Parse from a raw IPv4 datagram.
    pub fn decode_ipv4(data: &[u8]) -> Result<Self, WireError> {
        let (hdr, payload) = Ipv4Header::decode(data)?;
        let transport = match hdr.protocol {
            IpProtocol::Tcp => {
                let (th, tp) = TcpHeader::decode(hdr.src, hdr.dst, payload)?;
                Transport::Tcp {
                    header: th,
                    payload: tp.to_vec(),
                }
            }
            IpProtocol::Udp => {
                let (uh, up) = UdpHeader::decode(hdr.src, hdr.dst, payload)?;
                Transport::Udp {
                    header: uh,
                    payload: up.to_vec(),
                }
            }
            IpProtocol::Icmp => Transport::Icmp(IcmpMessage::decode(payload)?),
            IpProtocol::Other(v) => {
                return Err(WireError::Unsupported {
                    layer: "ipv4",
                    what: "protocol",
                    value: u64::from(v),
                })
            }
        };
        Ok(Packet {
            src: hdr.src,
            dst: hdr.dst,
            ttl: hdr.ttl,
            transport,
        })
    }

    /// Parse from a complete Ethernet frame, decoding the IPv4 datagram
    /// straight from the frame slice.
    pub fn decode_frame(data: &[u8]) -> Result<Self, WireError> {
        let (ethertype, payload) = ethernet::split(data)?;
        match ethertype {
            EtherType::Ipv4 => Self::decode_ipv4(payload),
            other => Err(WireError::Unsupported {
                layer: "ethernet",
                what: "ethertype",
                value: u64::from(u16::from(other)),
            }),
        }
    }

    /// A compact one-line rendering, used by traffic logs in examples.
    pub fn summary(&self) -> String {
        match &self.transport {
            Transport::Tcp { header, payload } => format!(
                "TCP {}:{} > {}:{} [{}] len={}",
                self.src,
                header.src_port,
                self.dst,
                header.dst_port,
                header.flags,
                payload.len()
            ),
            Transport::Udp { header, payload } => format!(
                "UDP {}:{} > {}:{} len={}",
                self.src,
                header.src_port,
                self.dst,
                header.dst_port,
                payload.len()
            ),
            Transport::Icmp(msg) => {
                format!("ICMP {} > {} type={}", self.src, self.dst, msg.icmp_type())
            }
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 5);
    const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);

    #[test]
    fn tcp_frame_roundtrip() {
        let p = Packet::tcp(A, 40000, B, 23, 100, 0, TcpFlags::SYN, vec![]);
        let bytes = p.encode_frame();
        let q = Packet::decode_frame(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn udp_frame_roundtrip_with_payload() {
        let p = Packet::udp(A, 1234, B, 80, vec![0u8; 512]);
        let q = Packet::decode_frame(&p.encode_frame()).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.transport.payload().len(), 512);
    }

    #[test]
    fn icmp_frame_roundtrip() {
        let p = Packet::icmp(
            A,
            B,
            IcmpMessage::DestinationUnreachable {
                code: 3,
                payload: vec![1, 2, 3, 4],
            },
        );
        let q = Packet::decode_frame(&p.encode_frame()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn summary_contains_endpoints() {
        let p = Packet::udp(A, 5, B, 6, vec![7]);
        let s = p.summary();
        assert!(s.contains("192.168.0.5:5"));
        assert!(s.contains("203.0.113.80:6"));
    }

    #[test]
    fn ports_and_protocol_accessors() {
        let p = Packet::tcp(A, 1, B, 2, 0, 0, TcpFlags::SYN, vec![]);
        assert_eq!(p.transport.src_port(), Some(1));
        assert_eq!(p.transport.dst_port(), Some(2));
        assert_eq!(p.transport.protocol(), IpProtocol::Tcp);
        let i = Packet::icmp(
            A,
            B,
            IcmpMessage::EchoRequest {
                ident: 0,
                seq: 0,
                payload: vec![],
            },
        );
        assert_eq!(i.transport.src_port(), None);
    }

    #[test]
    fn ttl_survives_roundtrip() {
        let mut p = Packet::udp(A, 1, B, 2, vec![]);
        p.ttl = 13;
        let q = Packet::decode_ipv4(&p.encode_ipv4()).unwrap();
        assert_eq!(q.ttl, 13);
    }
}
