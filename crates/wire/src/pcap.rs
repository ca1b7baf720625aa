//! Classic libpcap capture-file format (the `tcpdump` on-disk format).
//!
//! We write microsecond-resolution little-endian pcap with
//! LINKTYPE_ETHERNET, and read both byte orders. This is the interchange
//! format between the sandbox (which records all malware traffic, exactly
//! as CnCHunter does) and the analysis pipeline (which trusts only file
//! bytes, not simulator state).
//!
//! A capture is written in place and read lazily, so no one holds it as
//! a packet list:
//!
//! * [`new_capture`] starts a file with its global header, and
//!   [`push_record`] appends one packet's record, encoding its frame
//!   straight into the file. The netsim tap writes each packet it sees
//!   through these two, and [`to_bytes`] is the same loop over a packet
//!   list, so the two agree by construction.
//! * [`Packets`] reads a capture back. It checks the framing of the whole
//!   file first (global header, every record header and length), then
//!   decodes one frame per item, skipping frames that fail to decode.
//!   [`packets`] yields nothing for a capture whose framing is bad;
//!   [`parse_capture`] collects the reader and reports that error.
//!
//! The record layout is written and walked only in this module.

use crate::error::WireError;
use crate::packet::Packet;

/// Little-endian magic for microsecond timestamps.
pub const MAGIC_LE: u32 = 0xa1b2c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Snap length we record: full packets, standard tcpdump default x4.
pub const SNAPLEN: u32 = 262_144;

/// Size of the pcap global header in bytes.
const GLOBAL_HEADER_LEN: usize = 24;
/// Size of each per-record header in bytes.
const RECORD_HEADER_LEN: usize = 16;

/// An empty capture file: the global header and no records.
pub fn new_capture() -> Vec<u8> {
    let mut out = Vec::with_capacity(GLOBAL_HEADER_LEN);
    out.extend_from_slice(&MAGIC_LE.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&SNAPLEN.to_le_bytes());
    out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    out
}

/// Append one record to a capture started by [`new_capture`]: the record
/// header, then the packet's Ethernet frame encoded in place.
pub fn push_record(capture: &mut Vec<u8>, ts_micros: u64, packet: &Packet) {
    let at = capture.len();
    capture.extend_from_slice(&((ts_micros / 1_000_000) as u32).to_le_bytes());
    capture.extend_from_slice(&((ts_micros % 1_000_000) as u32).to_le_bytes());
    capture.extend_from_slice(&[0; 8]); // caplen and original length, set below
    packet.encode_frame_into(capture);
    let frame_len = ((capture.len() - at - RECORD_HEADER_LEN) as u32).to_le_bytes();
    // Encode path: the record header was just appended at `at`. lint: index-ok
    let header = &mut capture[at..at + RECORD_HEADER_LEN];
    header[8..12].copy_from_slice(&frame_len);
    header[12..16].copy_from_slice(&frame_len);
}

/// Serialize a packet list to a capture file.
pub fn to_bytes(packets: &[(u64, Packet)]) -> Vec<u8> {
    let mut out = new_capture();
    for (ts, p) in packets {
        push_record(&mut out, *ts, p);
    }
    out
}

/// The logical packets of a capture held in memory, in either byte
/// order, decoded one frame per item. Frames that fail to decode are
/// skipped and counted ([`Packets::skipped`]). The default reader is
/// empty.
#[derive(Debug, Clone, Default)]
pub struct Packets<'a> {
    /// The records not yet read, framing already checked.
    records: &'a [u8],
    swapped: bool,
    skipped: usize,
}

impl<'a> Packets<'a> {
    /// A reader over `bytes`, once its framing checks out: a truncated
    /// global header, record header or record body, an unknown magic or
    /// linktype, or a caplen above [`SNAPLEN`] fails the whole capture.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        let (header, records) =
            split_array::<GLOBAL_HEADER_LEN>(bytes).ok_or(truncated(GLOBAL_HEADER_LEN))?;
        let swapped = match u32_at(header, 0, false) {
            MAGIC_LE => false,
            m if m == MAGIC_LE.swap_bytes() => true,
            m => {
                return Err(WireError::Unsupported {
                    layer: "pcap",
                    what: "magic",
                    value: u64::from(m),
                })
            }
        };
        let linktype = u32_at(header, 20, swapped);
        if linktype != LINKTYPE_ETHERNET {
            return Err(WireError::Unsupported {
                layer: "pcap",
                what: "linktype",
                value: u64::from(linktype),
            });
        }
        let mut rest = records;
        while !rest.is_empty() {
            rest = split_record(rest, swapped)?.2;
        }
        Ok(Packets {
            records,
            swapped,
            skipped: 0,
        })
    }

    /// Frames skipped so far because they did not decode.
    pub fn skipped(&self) -> usize {
        self.skipped
    }
}

impl Iterator for Packets<'_> {
    type Item = (u64, Packet);

    fn next(&mut self) -> Option<(u64, Packet)> {
        while !self.records.is_empty() {
            // The framing was checked in `Packets::new`, so this split
            // cannot fail; if it did, the capture would simply end here.
            let (ts, frame, rest) = split_record(self.records, self.swapped).ok()?;
            self.records = rest;
            match Packet::decode_frame(frame) {
                Ok(p) => return Some((ts, p)),
                Err(_) => self.skipped += 1,
            }
        }
        None
    }
}

/// The packets of a capture, or none if its framing is bad (see
/// [`Packets::new`]).
pub fn packets(bytes: &[u8]) -> Packets<'_> {
    Packets::new(bytes).unwrap_or_default()
}

/// Parse a full capture into timestamped logical packets, with the
/// number of frames skipped because they did not decode: [`Packets`]
/// collected.
pub fn parse_capture(bytes: &[u8]) -> Result<(Vec<(u64, Packet)>, usize), WireError> {
    let mut reader = Packets::new(bytes)?;
    let packets = reader.by_ref().collect();
    Ok((packets, reader.skipped()))
}

/// The first record of `records`: its timestamp (µs), its frame, and the
/// records after it.
fn split_record(records: &[u8], swapped: bool) -> Result<(u64, &[u8], &[u8]), WireError> {
    let (header, body) =
        split_array::<RECORD_HEADER_LEN>(records).ok_or(truncated(RECORD_HEADER_LEN))?;
    let secs = u32_at(header, 0, swapped);
    let micros = u32_at(header, 4, swapped);
    let caplen = u32_at(header, 8, swapped) as usize;
    if caplen > SNAPLEN as usize {
        return Err(WireError::Malformed {
            layer: "pcap",
            what: "caplen exceeds snaplen",
        });
    }
    let (Some(frame), Some(rest)) = (body.get(..caplen), body.get(caplen..)) else {
        return Err(truncated(caplen));
    };
    Ok((u64::from(secs) * 1_000_000 + u64::from(micros), frame, rest))
}

/// The first `N` bytes as an array, and the rest.
fn split_array<const N: usize>(bytes: &[u8]) -> Option<(&[u8; N], &[u8])> {
    let head = bytes.get(..N)?.try_into().ok()?;
    Some((head, bytes.get(N..)?))
}

/// The `u32` at `at` in a fixed-size header, in the capture's byte order.
fn u32_at<const N: usize>(header: &[u8; N], at: usize, swapped: bool) -> u32 {
    // Fixed-size headers; callers pass constant offsets <= N - 4. lint: index-ok
    let v = [header[at], header[at + 1], header[at + 2], header[at + 3]];
    if swapped {
        u32::from_be_bytes(v)
    } else {
        u32::from_le_bytes(v)
    }
}

fn truncated(needed: usize) -> WireError {
    WireError::Truncated {
        layer: "pcap",
        needed,
        got: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn sample_packets() -> Vec<(u64, Packet)> {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        vec![
            (
                1_000_000,
                Packet::tcp(a, 1000, b, 23, 1, 0, TcpFlags::SYN, vec![]),
            ),
            (
                1_500_000,
                Packet::tcp(b, 23, a, 1000, 900, 2, TcpFlags::SYN_ACK, vec![]),
            ),
            (2_000_000, Packet::udp(a, 5555, b, 53, b"dns?".to_vec())),
        ]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let pkts = sample_packets();
        let bytes = to_bytes(&pkts);
        let (parsed, skipped) = parse_capture(&bytes).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(parsed, pkts);
    }

    #[test]
    fn global_header_is_valid_tcpdump_magic() {
        let bytes = to_bytes(&sample_packets());
        assert_eq!(&bytes[0..4], &MAGIC_LE.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
    }

    #[test]
    fn big_endian_captures_are_readable() {
        // Build a minimal big-endian capture by hand.
        let frame = sample_packets()[0].1.encode_frame();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LE.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&SNAPLEN.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes()); // secs
        bytes.extend_from_slice(&7u32.to_be_bytes()); // micros
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&frame);
        let (parsed, _) = parse_capture(&bytes).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 3_000_007);
    }

    /// `bytes` plus one little-endian record carrying `frame` with the
    /// given caplen field.
    fn with_record(mut bytes: Vec<u8>, caplen: u32, frame: &[u8]) -> Vec<u8> {
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&caplen.to_le_bytes());
        bytes.extend_from_slice(&caplen.to_le_bytes());
        bytes.extend_from_slice(frame);
        bytes
    }

    #[test]
    fn truncated_record_body_is_an_error() {
        let mut bytes = to_bytes(&sample_packets());
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            parse_capture(&bytes).unwrap_err(),
            WireError::Truncated { layer: "pcap", .. }
        ));
    }

    #[test]
    fn truncated_record_header_is_an_error() {
        let full = to_bytes(&sample_packets());
        for cut in 1..RECORD_HEADER_LEN {
            let mut bytes = full.clone();
            bytes.extend_from_slice(&[0u8; RECORD_HEADER_LEN][..cut]);
            assert!(
                matches!(
                    parse_capture(&bytes).unwrap_err(),
                    WireError::Truncated { layer: "pcap", .. }
                ),
                "{cut}-byte record header"
            );
        }
    }

    #[test]
    fn caplen_above_snaplen_is_an_error() {
        let frame = vec![0u8; SNAPLEN as usize + 1];
        let bytes = with_record(to_bytes(&sample_packets()), SNAPLEN + 1, &frame);
        assert!(matches!(
            parse_capture(&bytes).unwrap_err(),
            WireError::Malformed {
                what: "caplen exceeds snaplen",
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = [0u8; 24];
        assert!(matches!(
            parse_capture(&bytes).unwrap_err(),
            WireError::Unsupported { what: "magic", .. }
        ));
        assert!(matches!(
            parse_capture(&bytes[..23]).unwrap_err(),
            WireError::Truncated { layer: "pcap", .. }
        ));
    }

    #[test]
    fn corrupt_frame_is_skipped_not_fatal() {
        let pkts = sample_packets();
        let all = with_record(to_bytes(&pkts), 30, &[0xffu8; 30]);
        let (parsed, skipped) = parse_capture(&all).unwrap();
        assert_eq!(parsed, pkts);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn non_ipv4_frame_is_skipped_and_counted() {
        let pkts = sample_packets();
        // An ARP frame (EtherType 0x0806) between two good records.
        let mut arp = pkts[0].1.encode_frame();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        let good = pkts[1].1.encode_frame();
        let bytes = with_record(to_bytes(&pkts[..1]), arp.len() as u32, &arp);
        let bytes = with_record(bytes, good.len() as u32, &good);
        let (parsed, skipped) = parse_capture(&bytes).unwrap();
        assert_eq!(
            parsed,
            vec![pkts[0].clone(), (9_000_000, pkts[1].1.clone())]
        );
        assert_eq!(skipped, 1);
    }

    #[test]
    fn encode_frame_into_appends_to_the_buffer() {
        let (_, p) = &sample_packets()[2];
        let mut buf = b"prefix".to_vec();
        p.encode_frame_into(&mut buf);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(buf[6..], p.encode_frame());
        assert_eq!(Packet::decode_frame(&buf[6..]).unwrap(), *p);
    }

    #[test]
    fn empty_capture_is_ok() {
        let bytes = to_bytes(&[]);
        let (parsed, skipped) = parse_capture(&bytes).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn push_record_appends_what_to_bytes_writes() {
        let pkts = sample_packets();
        let mut capture = new_capture();
        assert_eq!(capture.len(), GLOBAL_HEADER_LEN);
        for (ts, p) in &pkts {
            let before = capture.len();
            push_record(&mut capture, *ts, p);
            assert_eq!(
                capture.len() - before,
                RECORD_HEADER_LEN + p.encode_frame().len()
            );
        }
        assert_eq!(capture, to_bytes(&pkts));
    }

    #[test]
    fn bad_framing_yields_no_packets() {
        let mut bytes = to_bytes(&sample_packets());
        assert_eq!(packets(&bytes).count(), 3);
        // The last record loses a byte: the framing check rejects the
        // whole capture before any frame is decoded.
        bytes.pop();
        assert!(Packets::new(&bytes).is_err());
        assert_eq!(packets(&bytes).count(), 0);
        assert_eq!(packets(&bytes[..10]).count(), 0);
    }

    #[test]
    fn reader_counts_skipped_frames_as_it_goes() {
        let pkts = sample_packets();
        let bytes = with_record(to_bytes(&pkts[..1]), 30, &[0xffu8; 30]);
        let bytes = with_record(bytes, 30, &[0xffu8; 30]);
        let mut reader = Packets::new(&bytes).unwrap();
        assert_eq!(reader.next(), Some(pkts[0].clone()));
        assert_eq!(reader.skipped(), 0);
        assert_eq!(reader.next(), None);
        assert_eq!(reader.skipped(), 2);
    }
}
