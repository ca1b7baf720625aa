//! ICMPv4 messages.
//!
//! The simulator needs echo (ping), destination-unreachable (both as a
//! network error signal and as the BLACKNURSE attack payload, ICMP type 3
//! code 3), and passes through anything else uninterpreted.

use crate::checksum;
use crate::error::WireError;

/// Minimum ICMP header length.
pub const HEADER_LEN: usize = 8;

/// A decoded ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier (usually the sender's PID).
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload.
        payload: Vec<u8>,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence number copied from the request.
        seq: u16,
        /// Echo payload copied from the request.
        payload: Vec<u8>,
    },
    /// Destination unreachable (type 3). The BLACKNURSE DDoS attack floods
    /// code 3 (port unreachable) messages.
    DestinationUnreachable {
        /// Unreachable code (3 = port unreachable).
        code: u8,
        /// Original datagram excerpt.
        payload: Vec<u8>,
    },
    /// Any other ICMP type, preserved verbatim.
    Other {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        code: u8,
        /// Rest-of-header plus payload bytes.
        payload: Vec<u8>,
    },
}

impl IcmpMessage {
    /// ICMP type byte of this message.
    pub fn icmp_type(&self) -> u8 {
        match self {
            IcmpMessage::EchoReply { .. } => 0,
            IcmpMessage::DestinationUnreachable { .. } => 3,
            IcmpMessage::EchoRequest { .. } => 8,
            IcmpMessage::Other { icmp_type, .. } => *icmp_type,
        }
    }

    /// Serialize to wire bytes with a correct checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 16);
        self.encode_into(&mut out);
        out
    }

    /// Append the message to `out`, with its checksum computed over the
    /// appended bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            }
            | IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.push(self.icmp_type());
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            IcmpMessage::DestinationUnreachable { code, payload } => {
                out.push(3);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&[0, 0, 0, 0]); // unused
                out.extend_from_slice(payload);
            }
            IcmpMessage::Other {
                icmp_type,
                code,
                payload,
            } => {
                out.push(*icmp_type);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(payload);
            }
        }
        // Encode path: the message was just appended at `start`. lint: index-ok
        let message = &mut out[start..];
        let c = checksum::checksum(message);
        message[2..4].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse from wire bytes, verifying the checksum.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < 4 {
            return Err(WireError::Truncated {
                layer: "icmp",
                needed: 4,
                got: data.len(),
            });
        }
        if !checksum::verify(data) {
            return Err(WireError::BadChecksum { layer: "icmp" });
        }
        let icmp_type = data[0];
        let code = data[1];
        match icmp_type {
            0 | 8 => {
                if data.len() < HEADER_LEN {
                    return Err(WireError::Truncated {
                        layer: "icmp",
                        needed: HEADER_LEN,
                        got: data.len(),
                    });
                }
                let ident = u16::from_be_bytes([data[4], data[5]]);
                let seq = u16::from_be_bytes([data[6], data[7]]);
                let payload = data[8..].to_vec();
                Ok(if icmp_type == 8 {
                    IcmpMessage::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }
                } else {
                    IcmpMessage::EchoReply {
                        ident,
                        seq,
                        payload,
                    }
                })
            }
            3 => {
                if data.len() < HEADER_LEN {
                    return Err(WireError::Truncated {
                        layer: "icmp",
                        needed: HEADER_LEN,
                        got: data.len(),
                    });
                }
                Ok(IcmpMessage::DestinationUnreachable {
                    code,
                    payload: data[8..].to_vec(),
                })
            }
            _ => Ok(IcmpMessage::Other {
                icmp_type,
                code,
                payload: data[4..].to_vec(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let m = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: b"abcdefgh".to_vec(),
        };
        let bytes = m.encode();
        assert_eq!(IcmpMessage::decode(&bytes).unwrap(), m);
        assert_eq!(m.icmp_type(), 8);
    }

    #[test]
    fn blacknurse_payload_roundtrip() {
        let m = IcmpMessage::DestinationUnreachable {
            code: 3,
            payload: vec![0x45, 0, 0, 28],
        };
        let bytes = m.encode();
        assert_eq!(bytes[0], 3);
        assert_eq!(bytes[1], 3);
        assert_eq!(IcmpMessage::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn other_types_preserved() {
        let m = IcmpMessage::Other {
            icmp_type: 11,
            code: 0,
            payload: vec![1, 2, 3, 4, 5, 6],
        };
        assert_eq!(IcmpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = IcmpMessage::EchoReply {
            ident: 1,
            seq: 1,
            payload: vec![],
        }
        .encode();
        bytes[4] ^= 0xff;
        assert_eq!(
            IcmpMessage::decode(&bytes).unwrap_err(),
            WireError::BadChecksum { layer: "icmp" }
        );
    }
}
