//! TCP segment encoding and decoding.
//!
//! Options are not emitted; an MSS option on SYN segments is tolerated on
//! decode. The pseudo-header checksum is computed for real so captures are
//! Wireshark-clean.

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::error::WireError;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// SYN|ACK combination.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// PSH|ACK combination (typical data segment).
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);
    /// FIN|ACK combination.
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);

    /// True if all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True if the SYN bit is set.
    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// True if the ACK bit is set.
    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// True if the RST bit is set.
    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
    /// True if the FIN bit is set.
    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// True if the PSH bit is set.
    pub fn psh(self) -> bool {
        self.contains(TcpFlags::PSH)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names = Vec::new();
        if self.syn() {
            names.push("SYN");
        }
        if self.ack() {
            names.push("ACK");
        }
        if self.rst() {
            names.push("RST");
        }
        if self.fin() {
            names.push("FIN");
        }
        if self.psh() {
            names.push("PSH");
        }
        if names.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", names.join("|"))
        }
    }
}

/// A decoded TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Serialize header + payload with a correct pseudo-header checksum.
    pub fn encode_with_payload(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        self.encode_into(src, dst, payload, &mut out);
        out
    }

    /// Append header + payload to `out`, with the pseudo-header
    /// checksum computed over the appended bytes.
    pub fn encode_into(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        let total = HEADER_LEN + payload.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((HEADER_LEN as u8 / 4) << 4); // data offset
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(payload);
        // Encode path: the segment was just appended at `start`. lint: index-ok
        let segment = &mut out[start..];
        let mut c = Checksum::new();
        c.push_pseudo_header(src, dst, 6, total as u16);
        c.push(segment);
        let sum = c.finish();
        segment[16..18].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parse a TCP segment, verifying the pseudo-header checksum, and
    /// return the header plus payload slice.
    pub fn decode(src: Ipv4Addr, dst: Ipv4Addr, data: &[u8]) -> Result<(Self, &[u8]), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "tcp",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if data_off < HEADER_LEN {
            return Err(WireError::Malformed {
                layer: "tcp",
                what: "data offset below minimum",
            });
        }
        if data.len() < data_off {
            return Err(WireError::Truncated {
                layer: "tcp",
                needed: data_off,
                got: data.len(),
            });
        }
        let mut c = Checksum::new();
        c.push_pseudo_header(src, dst, 6, data.len() as u16);
        c.push(data);
        if c.finish() != 0 {
            return Err(WireError::BadChecksum { layer: "tcp" });
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        // Guarded: len >= data_off checked above. lint: index-ok
        Ok((hdr, &data[data_off..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
    const B: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 9);

    fn hdr(flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port: 45000,
            dst_port: 23,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags,
            window: 65535,
        }
    }

    #[test]
    fn roundtrip_with_payload() {
        let h = hdr(TcpFlags::PSH_ACK);
        let bytes = h.encode_with_payload(A, B, b"hello");
        let (g, payload) = TcpHeader::decode(A, B, &bytes).unwrap();
        assert_eq!(g, h);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn checksum_binds_addresses() {
        let h = hdr(TcpFlags::SYN);
        let bytes = h.encode_with_payload(A, B, &[]);
        // Note: the ones-complement sum is commutative, so swapping src and
        // dst does NOT change it; decoding with a genuinely different
        // address must fail the pseudo-header sum.
        let c = Ipv4Addr::new(10, 1, 2, 4);
        assert_eq!(
            TcpHeader::decode(A, c, &bytes).unwrap_err(),
            WireError::BadChecksum { layer: "tcp" }
        );
    }

    #[test]
    fn corrupt_payload_detected() {
        let h = hdr(TcpFlags::PSH_ACK);
        let mut bytes = h.encode_with_payload(A, B, b"payload");
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        assert!(TcpHeader::decode(A, B, &bytes).is_err());
    }

    #[test]
    fn flags_display_and_predicates() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert!(TcpFlags::SYN_ACK.syn());
        assert!(TcpFlags::SYN_ACK.ack());
        assert!(!TcpFlags::SYN_ACK.rst());
        assert_eq!(TcpFlags::default().to_string(), "-");
        assert_eq!(TcpFlags::SYN.union(TcpFlags::ACK), TcpFlags::SYN_ACK);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            TcpHeader::decode(A, B, &[0; 10]).unwrap_err(),
            WireError::Truncated { layer: "tcp", .. }
        ));
    }
}
