//! IPv4 header encoding and decoding.
//!
//! Options are not supported (silently absent on encode, rejected on
//! decode only if IHL describes bytes the buffer lacks). Fragmentation is
//! not generated; the DF bit is always set, matching typical IoT traffic.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::error::WireError;

/// Minimum (and, without options, exact) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers the simulator speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// A decoded IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by some DDoS fingerprints).
    pub ident: u16,
    /// Total length of header + payload, as claimed on the wire.
    pub total_len: u16,
}

impl Ipv4Header {
    /// Build a header for a payload of the given length.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 0,
            total_len: (HEADER_LEN + payload_len) as u16,
        }
    }

    /// Serialize header followed by `payload`, computing the header checksum.
    pub fn encode_with_payload(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        self.encode_into(&mut out, |out| out.extend_from_slice(payload));
        out
    }

    /// Append the header to `out`, then let `payload` append the payload
    /// right behind it; the total length and header checksum are filled
    /// in afterwards, so the datagram is built in place.
    pub fn encode_into(&self, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.push(0x45); // version 4, IHL 5
        out.push(0); // DSCP/ECN
        out.extend_from_slice(&[0, 0]); // total length placeholder
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&0x4000u16.to_be_bytes()); // flags: DF
        out.push(self.ttl);
        out.push(self.protocol.into());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        payload(out);
        let total = (out.len() - start) as u16;
        // Encode path: the header was just appended at `start`. lint: index-ok
        let hdr = &mut out[start..start + HEADER_LEN];
        hdr[2..4].copy_from_slice(&total.to_be_bytes());
        let c = checksum::checksum(hdr);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse a header and return it with the payload slice offset.
    ///
    /// Verifies the header checksum and that the buffer holds at least
    /// `total_len` bytes.
    pub fn decode(data: &[u8]) -> Result<(Self, &[u8]), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::Unsupported {
                layer: "ipv4",
                what: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if ihl < HEADER_LEN {
            return Err(WireError::Malformed {
                layer: "ipv4",
                what: "IHL below minimum",
            });
        }
        if data.len() < ihl {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: ihl,
                got: data.len(),
            });
        }
        // Guarded: len >= ihl checked just above. lint: index-ok
        if !checksum::verify(&data[..ihl]) {
            return Err(WireError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        let tl = usize::from(total_len);
        if tl < ihl || tl > data.len() {
            return Err(WireError::LengthMismatch {
                layer: "ipv4",
                claimed: tl,
                got: data.len(),
            });
        }
        let hdr = Ipv4Header {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: data[9].into(),
            ttl: data[8],
            ident: u16::from_be_bytes([data[4], data[5]]),
            total_len,
        };
        // Guarded: ihl <= tl <= len established above. lint: index-ok
        Ok((hdr, &data[ihl..tl]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(10, 0, 0, 1),
            IpProtocol::Tcp,
            4,
        )
    }

    #[test]
    fn roundtrip() {
        let h = hdr();
        let bytes = h.encode_with_payload(&[9, 8, 7, 6]);
        let (g, payload) = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(g.src, h.src);
        assert_eq!(g.dst, h.dst);
        assert_eq!(g.protocol, IpProtocol::Tcp);
        assert_eq!(g.ttl, 64);
        assert_eq!(payload, &[9, 8, 7, 6]);
    }

    #[test]
    fn checksum_is_verified() {
        let mut bytes = hdr().encode_with_payload(&[0; 4]);
        bytes[8] = 1; // corrupt TTL without fixing checksum
        assert_eq!(
            Ipv4Header::decode(&bytes).unwrap_err(),
            WireError::BadChecksum { layer: "ipv4" }
        );
    }

    #[test]
    fn version_must_be_4() {
        let mut bytes = hdr().encode_with_payload(&[]);
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Header::decode(&bytes).unwrap_err(),
            WireError::Unsupported {
                what: "version",
                ..
            }
        ));
    }

    #[test]
    fn total_len_must_fit() {
        let h = hdr();
        let mut bytes = h.encode_with_payload(&[0; 4]);
        bytes.truncate(21); // keep header + 1 byte, total_len still claims 24
        assert!(matches!(
            Ipv4Header::decode(&bytes).unwrap_err(),
            WireError::LengthMismatch { layer: "ipv4", .. }
        ));
    }

    #[test]
    fn trailing_bytes_beyond_total_len_ignored() {
        let h = hdr();
        let mut bytes = h.encode_with_payload(&[1, 2, 3, 4]);
        bytes.extend_from_slice(&[0xEE; 10]); // ethernet padding
        let (_, payload) = Ipv4Header::decode(&bytes).unwrap();
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn protocol_mapping() {
        assert_eq!(u8::from(IpProtocol::Udp), 17);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
    }
}
