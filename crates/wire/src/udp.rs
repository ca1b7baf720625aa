//! UDP datagram encoding and decoding.

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::error::WireError;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
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
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(payload);
        // Encode path: the datagram was just appended at `start`. lint: index-ok
        let datagram = &mut out[start..];
        let mut c = Checksum::new();
        c.push_pseudo_header(src, dst, 17, total as u16);
        c.push(datagram);
        let mut sum = c.finish();
        if sum == 0 {
            sum = 0xffff; // RFC 768: transmitted 0 means "no checksum"
        }
        datagram[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parse a UDP datagram, verifying length and checksum, returning the
    /// header plus payload slice.
    pub fn decode(src: Ipv4Addr, dst: Ipv4Addr, data: &[u8]) -> Result<(Self, &[u8]), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "udp",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if len < HEADER_LEN || len > data.len() {
            return Err(WireError::LengthMismatch {
                layer: "udp",
                claimed: len,
                got: data.len(),
            });
        }
        let cksum = u16::from_be_bytes([data[6], data[7]]);
        if cksum != 0 {
            let mut c = Checksum::new();
            c.push_pseudo_header(src, dst, 17, len as u16);
            // Guarded: HEADER_LEN <= len <= data.len() above. lint: index-ok
            c.push(&data[..len]);
            if c.finish() != 0 {
                return Err(WireError::BadChecksum { layer: "udp" });
            }
        }
        let hdr = UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
        };
        // Guarded: HEADER_LEN <= len <= data.len() above. lint: index-ok
        Ok((hdr, &data[HEADER_LEN..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
    const B: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    #[test]
    fn roundtrip() {
        let h = UdpHeader {
            src_port: 5353,
            dst_port: 53,
        };
        let bytes = h.encode_with_payload(A, B, b"query");
        let (g, payload) = UdpHeader::decode(A, B, &bytes).unwrap();
        assert_eq!(g, h);
        assert_eq!(payload, b"query");
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut bytes = h.encode_with_payload(A, B, b"x");
        bytes[6] = 0;
        bytes[7] = 0;
        // With checksum zeroed, decode must accept regardless of content.
        assert!(UdpHeader::decode(A, B, &bytes).is_ok());
    }

    #[test]
    fn corrupt_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut bytes = h.encode_with_payload(A, B, b"abcd");
        bytes[9] ^= 1;
        assert_eq!(
            UdpHeader::decode(A, B, &bytes).unwrap_err(),
            WireError::BadChecksum { layer: "udp" }
        );
    }

    #[test]
    fn length_field_honoured() {
        let h = UdpHeader {
            src_port: 7,
            dst_port: 7,
        };
        let mut bytes = h.encode_with_payload(A, B, b"abc");
        bytes.extend_from_slice(b"trailing-ethernet-pad");
        let (_, payload) = UdpHeader::decode(A, B, &bytes).unwrap();
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn claimed_length_too_large_rejected() {
        let h = UdpHeader {
            src_port: 7,
            dst_port: 7,
        };
        let mut bytes = h.encode_with_payload(A, B, b"abc");
        bytes[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::decode(A, B, &bytes).unwrap_err(),
            WireError::LengthMismatch { layer: "udp", .. }
        ));
    }
}
