//! Property-based tests for the wire formats: arbitrary packets must
//! round-trip bit-exactly through Ethernet frames and pcap files, the
//! checksums must bind the covered bytes, and the lazy pcap reader must
//! yield what `parse_capture` collects on any input.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use malnet_wire::dns::{DnsMessage, DomainName};
use malnet_wire::icmp::IcmpMessage;
use malnet_wire::packet::{Packet, Transport};
use malnet_wire::pcap;
use malnet_wire::tcp::TcpFlags;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..600)
}

fn arb_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![
        (
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            0u8..32,
            arb_payload()
        )
            .prop_map(|(sp, dp, seq, ack, flags, payload)| {
                Transport::Tcp {
                    header: malnet_wire::tcp::TcpHeader {
                        src_port: sp,
                        dst_port: dp,
                        seq,
                        ack,
                        flags: TcpFlags(flags),
                        window: 65535,
                    },
                    payload,
                }
            }),
        (any::<u16>(), any::<u16>(), arb_payload()).prop_map(|(sp, dp, payload)| {
            Transport::Udp {
                header: malnet_wire::udp::UdpHeader {
                    src_port: sp,
                    dst_port: dp,
                },
                payload,
            }
        }),
        (any::<u16>(), any::<u16>(), arb_payload()).prop_map(|(ident, seq, payload)| {
            Transport::Icmp(IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            })
        }),
    ]
}

/// The lazy reader yields exactly the packets `parse_capture` collects,
/// and none when `parse_capture` rejects the capture's framing.
fn lazy_matches_collected(bytes: &[u8]) -> TestCaseResult {
    let collected = pcap::parse_capture(bytes)
        .map(|(p, _)| p)
        .unwrap_or_default();
    let lazy: Vec<(u64, Packet)> = pcap::packets(bytes).collect();
    prop_assert_eq!(lazy, collected);
    Ok(())
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (arb_ip(), arb_ip(), 1u8..=64, arb_transport()).prop_map(|(src, dst, ttl, transport)| Packet {
        src,
        dst,
        ttl,
        transport,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packet_roundtrips_through_frame(p in arb_packet()) {
        let q = Packet::decode_frame(&p.encode_frame()).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn flipping_any_payload_byte_fails_decode_or_changes_packet(
        p in arb_packet(),
        which in any::<prop::sample::Index>(),
    ) {
        let mut bytes = p.encode_frame();
        // Only corrupt past the Ethernet header: MACs are not checksummed.
        if bytes.len() > 14 {
            let i = 14 + which.index(bytes.len() - 14);
            bytes[i] ^= 0x01;
            match Packet::decode_frame(&bytes) {
                Err(_) => {},
                Ok(q) => prop_assert_ne!(p, q),
            }
        }
    }

    #[test]
    fn pcap_roundtrips_arbitrary_captures(
        pkts in proptest::collection::vec((any::<u32>().prop_map(u64::from), arb_packet()), 0..20)
    ) {
        let bytes = pcap::to_bytes(&pkts);
        let (parsed, skipped) = pcap::parse_capture(&bytes).unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(parsed, pkts);
        lazy_matches_collected(&bytes)?;
    }

    #[test]
    fn dns_names_roundtrip(labels in proptest::collection::vec("[a-z0-9]{1,20}", 1..5)) {
        let name = labels.join(".");
        let dn = DomainName::new(&name).unwrap();
        let msg = DnsMessage::query(42, dn.clone());
        let back = DnsMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(back.question, dn);
    }

    #[test]
    fn dns_answers_roundtrip(
        labels in proptest::collection::vec("[a-z]{1,10}", 1..4),
        addrs in proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 0..6),
        id in any::<u16>(),
    ) {
        let dn = DomainName::new(&labels.join(".")).unwrap();
        let msg = DnsMessage::answer(id, dn, &addrs);
        let back = DnsMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(back.answers.len(), addrs.len());
        for (i, (_, a, _)) in back.answers.iter().enumerate() {
            prop_assert_eq!(*a, addrs[i]);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Packet::decode_frame(&bytes);
        let _ = DnsMessage::decode(&bytes);
        let _ = IcmpMessage::decode(&bytes);
    }

    #[test]
    fn pcap_reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = pcap::parse_capture(&bytes);
        lazy_matches_collected(&bytes)?;
    }

    /// Chaos-layer contract: a capture cut short mid-record (a sandbox
    /// killed mid-write, a truncated artifact download) must parse or
    /// error, never panic — and everything before the cut is kept.
    #[test]
    fn pcap_reader_tolerates_truncated_captures(
        pkts in proptest::collection::vec((any::<u32>().prop_map(u64::from), arb_packet()), 1..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = pcap::to_bytes(&pkts);
        let keep = cut.index(bytes.len());
        if let Ok((parsed, _skipped)) = pcap::parse_capture(&bytes[..keep]) {
            prop_assert!(parsed.len() <= pkts.len());
            for (got, want) in parsed.iter().zip(pkts.iter()) {
                prop_assert_eq!(got, want);
            }
        }
        lazy_matches_collected(&bytes[..keep])?;
    }

    /// Chaos-layer contract: a single flipped bit anywhere in a valid
    /// capture (storage rot, a corrupting link) must never panic the
    /// reader, whatever it does to the decoded packets.
    #[test]
    fn pcap_reader_tolerates_bit_flips(
        pkts in proptest::collection::vec((any::<u32>().prop_map(u64::from), arb_packet()), 1..12),
        which in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = pcap::to_bytes(&pkts);
        let i = which.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = pcap::parse_capture(&bytes);
        lazy_matches_collected(&bytes)?;
    }
}
