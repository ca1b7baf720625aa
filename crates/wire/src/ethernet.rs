//! Ethernet II framing.

use crate::error::WireError;
use crate::mac::MacAddr;

/// Length of an Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;

/// The EtherType field of an Ethernet II frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only network protocol the simulator routes.
    Ipv4,
    /// ARP (0x0806) — parsed but not generated; present for pcap fidelity.
    Arp,
    /// Any other EtherType, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

/// Append an Ethernet II header to `out`; the payload goes right after.
pub fn encode_header(dst: MacAddr, src: MacAddr, ethertype: EtherType, out: &mut Vec<u8>) {
    out.extend_from_slice(&dst.0);
    out.extend_from_slice(&src.0);
    out.extend_from_slice(&u16::from(ethertype).to_be_bytes());
}

/// The EtherType and the borrowed payload of a frame, without copying
/// anything.
pub fn split(data: &[u8]) -> Result<(EtherType, &[u8]), WireError> {
    let (Some(header), Some(payload)) = (data.get(..HEADER_LEN), data.get(HEADER_LEN..)) else {
        return Err(WireError::Truncated {
            layer: "ethernet",
            needed: HEADER_LEN,
            got: data.len(),
        });
    };
    Ok((u16::from_be_bytes([header[12], header[13]]).into(), payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let (dst, src) = (MacAddr::from_host_id(1), MacAddr::from_host_id(2));
        let mut bytes = Vec::new();
        encode_header(dst, src, EtherType::Ipv4, &mut bytes);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert_eq!((&bytes[0..6], &bytes[6..12]), (&dst.0[..], &src.0[..]));
        assert_eq!(
            split(&bytes).unwrap(),
            (EtherType::Ipv4, &[1u8, 2, 3, 4][..])
        );
    }

    #[test]
    fn truncated_header_rejected() {
        let err = split(&[0u8; 13]).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn empty_payload_is_fine() {
        let mut bytes = Vec::new();
        encode_header(MacAddr::ZERO, MacAddr::ZERO, EtherType::Arp, &mut bytes);
        assert_eq!(split(&bytes).unwrap(), (EtherType::Arp, &[][..]));
    }
}
