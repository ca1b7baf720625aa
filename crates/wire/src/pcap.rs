//! Classic libpcap capture-file format (the `tcpdump` on-disk format).
//!
//! We write microsecond-resolution little-endian pcap with
//! LINKTYPE_ETHERNET, and read both byte orders. This is the interchange
//! format between the sandbox (which records all malware traffic, exactly
//! as CnCHunter does) and the analysis pipeline (which trusts only file
//! bytes, not simulator state).

use std::io::{self, Write};

use malnet_telemetry::Telemetry;

use crate::error::WireError;
use crate::packet::Packet;

/// Little-endian magic for microsecond timestamps.
pub const MAGIC_LE: u32 = 0xa1b2c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Snap length we record: full packets, standard tcpdump default x4.
pub const SNAPLEN: u32 = 262_144;

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    inner: W,
    packets_written: u64,
    /// Frame buffer reused across [`PcapWriter::write`] calls.
    frame_buf: Vec<u8>,
    records_encoded: malnet_telemetry::Counter,
    bytes_encoded: malnet_telemetry::Counter,
}

/// Size of the pcap global header in bytes.
const GLOBAL_HEADER_LEN: usize = 24;
/// Size of each per-record header in bytes.
const RECORD_HEADER_LEN: usize = 16;

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(inner: W) -> io::Result<Self> {
        Self::with_telemetry(inner, &Telemetry::disabled())
    }

    /// Like [`PcapWriter::new`], but counting encoded records and bytes
    /// into `wire.pcap_records_encoded` / `wire.pcap_bytes_encoded`.
    pub fn with_telemetry(mut inner: W, tel: &Telemetry) -> io::Result<Self> {
        inner.write_all(&MAGIC_LE.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&SNAPLEN.to_le_bytes())?;
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        let bytes_encoded = tel.counter("wire.pcap_bytes_encoded");
        bytes_encoded.add(GLOBAL_HEADER_LEN as u64);
        Ok(PcapWriter {
            inner,
            packets_written: 0,
            frame_buf: Vec::new(),
            records_encoded: tel.counter("wire.pcap_records_encoded"),
            bytes_encoded,
        })
    }

    /// Append one captured frame.
    pub fn write_packet(&mut self, ts_micros: u64, frame: &[u8]) -> io::Result<()> {
        let secs = (ts_micros / 1_000_000) as u32;
        let micros = (ts_micros % 1_000_000) as u32;
        let mut header = [0u8; RECORD_HEADER_LEN];
        header[0..4].copy_from_slice(&secs.to_le_bytes());
        header[4..8].copy_from_slice(&micros.to_le_bytes());
        header[8..12].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        header[12..16].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(frame)?;
        self.packets_written += 1;
        self.records_encoded.incr();
        self.bytes_encoded
            .add((RECORD_HEADER_LEN + frame.len()) as u64);
        Ok(())
    }

    /// Serialize and append a logical packet, encoding its frame into a
    /// buffer the writer reuses.
    pub fn write(&mut self, ts_micros: u64, packet: &Packet) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        packet.encode_frame_into(&mut frame);
        let written = self.write_packet(ts_micros, &frame);
        self.frame_buf = frame;
        written
    }

    /// Number of packets written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// In-memory convenience: serialize a packet list to pcap bytes.
pub fn to_bytes(packets: &[(u64, Packet)]) -> Vec<u8> {
    // io::Write on Vec<u8> is infallible. lint: panic-ok
    let mut w = PcapWriter::new(Vec::new()).expect("vec write cannot fail");
    for (ts, p) in packets {
        // io::Write on Vec<u8> is infallible. lint: panic-ok
        w.write(*ts, p).expect("vec write cannot fail");
    }
    // io::Write on Vec<u8> is infallible. lint: panic-ok
    w.finish().expect("vec flush cannot fail")
}

/// Parse a full capture held in memory, in either byte order, into
/// logical packets with timestamps, skipping frames that fail to parse
/// (counted in `.1`). Records are walked over the borrowed bytes; a
/// truncated record header or body, or a caplen above [`SNAPLEN`], fails
/// the whole capture.
pub fn parse_capture(bytes: &[u8]) -> Result<(Vec<(u64, Packet)>, usize), WireError> {
    let (header, mut rest) =
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
    let mut out = Vec::new();
    let mut skipped = 0usize;
    while !rest.is_empty() {
        let (record, body) =
            split_array::<RECORD_HEADER_LEN>(rest).ok_or(truncated(RECORD_HEADER_LEN))?;
        let secs = u32_at(record, 0, swapped);
        let micros = u32_at(record, 4, swapped);
        let caplen = u32_at(record, 8, swapped) as usize;
        if caplen > SNAPLEN as usize {
            return Err(WireError::Malformed {
                layer: "pcap",
                what: "caplen exceeds snaplen",
            });
        }
        let (Some(frame), Some(tail)) = (body.get(..caplen), body.get(caplen..)) else {
            return Err(truncated(caplen));
        };
        rest = tail;
        match Packet::decode_frame(frame) {
            Ok(p) => out.push((u64::from(secs) * 1_000_000 + u64::from(micros), p)),
            Err(_) => skipped += 1,
        }
    }
    Ok((out, skipped))
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
    fn packets_written_counter() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (ts, p) in sample_packets() {
            w.write(ts, &p).unwrap();
        }
        assert_eq!(w.packets_written(), 3);
    }
}
