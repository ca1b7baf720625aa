//! DDoS command extraction from restricted-mode session captures
//! (paper §2.5).
//!
//! Two detectors run over the pcap:
//!
//! * **Profiler** (method a): reassemble the C2→bot TCP byte stream and
//!   decode it with the family's protocol profile (Mirai binary, Gafgyt
//!   and Daddyl33t text).
//! * **Behavioural heuristic** (method b): measure the packet rate toward
//!   non-C2 destinations per second; when it exceeds a threshold
//!   (default 100 pps), attribute the flood to the most recent C2→bot
//!   payload and recover the target from the traffic itself.
//!
//! Both detections are then **verified** (§2.5: "we verify the command by
//! evaluating whether the bot started to send traffic to that given DDoS
//! target continuously"): a profiler command must be followed by actual
//! flood traffic to the commanded target; a behavioural hit must find the
//! target's bytes in the last command payload.
//!
//! A session may have several live C2s. [`extract_session`] walks its
//! capture once for all of them and reads each C2's commands from that
//! walk; [`extract`] is the same entry for a single C2.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use malnet_protocols::profiler::C2Profiler;
use malnet_protocols::{AttackCommand, AttackMethod, Family};
use malnet_wire::packet::{Packet, Transport};

use crate::datasets::DdosDetection;

/// Default behavioural threshold: packets/second toward non-C2 hosts.
pub const DEFAULT_PPS_THRESHOLD: u64 = 100;

/// One extracted and verified command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedCommand {
    /// The decoded command.
    pub command: AttackCommand,
    /// How it was found.
    pub detection: DdosDetection,
    /// Verified against the traffic?
    pub verified: bool,
    /// Peak observed packets/second toward the target.
    pub measured_pps: u64,
    /// Microsecond timestamp of the command payload.
    pub ts_micros: u64,
}

/// Extract commands from a session capture for one C2: the session
/// entry [`extract_session`] called with the single pair `(c2_ip,
/// family)`.
///
/// `c2_ip` is the (already attributed) C2 address of this session;
/// `bot_ip` the sandboxed device; `family` the sample's label (profilers
/// exist for Mirai/Gafgyt/Daddyl33t only, as in the paper). `packets` is
/// any stream of `(timestamp µs, packet)` pairs, owned or borrowed.
pub fn extract<P: Borrow<(u64, Packet)>>(
    packets: impl IntoIterator<Item = P>,
    bot_ip: Ipv4Addr,
    c2_ip: Ipv4Addr,
    family: Option<Family>,
    pps_threshold: u64,
) -> Vec<ExtractedCommand> {
    extract_session(packets, bot_ip, &[(c2_ip, family)], pps_threshold)
        .pop()
        .unwrap_or_default()
}

/// Extract commands from a session capture for every `(c2_ip, family)`
/// pair of the session, one command list per pair in pair order.
///
/// The capture is walked once ([`CaptureScan`]) for all pairs; each
/// pair's commands are lookups in what that walk built, and equal what
/// a walk for that pair alone would give. `packets` is any stream of
/// `(timestamp µs, packet)` pairs, owned or borrowed: the pipeline
/// passes a restricted session's [`malnet_wire::pcap::packets`] as they
/// are decoded, tests a `&Vec` of them.
pub fn extract_session<P: Borrow<(u64, Packet)>>(
    packets: impl IntoIterator<Item = P>,
    bot_ip: Ipv4Addr,
    c2s: &[(Ipv4Addr, Option<Family>)],
    pps_threshold: u64,
) -> Vec<Vec<ExtractedCommand>> {
    let scan = CaptureScan::new(packets, bot_ip, c2s);
    c2s.iter()
        .map(|&(c2_ip, family)| scan.commands(c2_ip, family, pps_threshold))
        .collect()
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && hay.windows(needle.len()).any(|w| w == needle)
}

/// One C2's non-empty C2→bot TCP payloads with their timestamps, in
/// capture order.
type Chunks = Vec<(u64, Vec<u8>)>;

/// What [`extract_session`] needs from a capture, built in one walk
/// over it for all of the session's C2s.
struct CaptureScan {
    /// Per distinct C2 address, its payloads.
    c2_chunks: Vec<(Ipv4Addr, Chunks)>,
    /// The bot's packets per `(second, destination)`, every destination
    /// included: each C2 drops its own address when it reads the tally.
    per_sec: RunTally<(u64, Ipv4Addr), u64>,
    /// The bot's traffic per destination, every destination included.
    floods: RunTally<Ipv4Addr, FloodStats>,
}

impl CaptureScan {
    fn new<P: Borrow<(u64, Packet)>>(
        packets: impl IntoIterator<Item = P>,
        bot_ip: Ipv4Addr,
        c2s: &[(Ipv4Addr, Option<Family>)],
    ) -> Self {
        let mut c2_chunks: Vec<(Ipv4Addr, Chunks)> = Vec::new();
        for &(c2_ip, _) in c2s {
            if !c2_chunks.iter().any(|(ip, _)| *ip == c2_ip) {
                c2_chunks.push((c2_ip, Vec::new()));
            }
        }
        let mut scan = CaptureScan {
            c2_chunks,
            per_sec: RunTally::default(),
            floods: RunTally::default(),
        };
        for item in packets {
            let (ts, p) = item.borrow();
            if p.dst == bot_ip {
                if let Transport::Tcp { payload, .. } = &p.transport {
                    if !payload.is_empty() {
                        let c2 = scan.c2_chunks.iter_mut().find(|(ip, _)| *ip == p.src);
                        if let Some((_, chunks)) = c2 {
                            chunks.push((*ts, payload.clone()));
                        }
                    }
                }
            }
            if p.src != bot_ip {
                continue;
            }
            let flood = scan.floods.entry(p.dst);
            flood.add(*ts, &p.transport);
            let n = scan.per_sec.entry((ts / 1_000_000, p.dst));
            *n += 1;
            flood.peak_pps = flood.peak_pps.max(*n);
        }
        scan
    }

    /// The commands of one C2 of the session.
    fn commands(
        &self,
        c2_ip: Ipv4Addr,
        family: Option<Family>,
        pps_threshold: u64,
    ) -> Vec<ExtractedCommand> {
        let c2_chunks: &[(u64, Vec<u8>)] = self
            .c2_chunks
            .iter()
            .find(|(ip, _)| *ip == c2_ip)
            .map_or(&[], |(_, chunks)| chunks);
        let flood = |dst: Ipv4Addr| self.floods.get(&dst);
        // The C2's own traffic is the session, not a flood: not rated.
        let peak_pps = |dst: Ipv4Addr| {
            if dst == c2_ip {
                0
            } else {
                flood(dst).map_or(0, |f| f.peak_pps)
            }
        };

        let mut out: Vec<ExtractedCommand> = Vec::new();

        // --- method (a): protocol profiler ---
        if let Some(fam) = family {
            if fam.has_ddos_profile() {
                let profiler = C2Profiler::new(fam);
                for (ts, chunk) in c2_chunks {
                    for command in profiler.extract_commands(chunk) {
                        // Verification: continuous traffic toward the
                        // target after the command.
                        let flood_after = flood(command.target).is_some_and(|f| f.max_ts > *ts);
                        let pps = peak_pps(command.target);
                        out.push(ExtractedCommand {
                            command,
                            detection: DdosDetection::Profiler,
                            verified: flood_after,
                            measured_pps: pps,
                            ts_micros: *ts,
                        });
                    }
                }
            }
        }

        // --- method (b): behavioural heuristic, over non-C2 destinations ---
        for ((sec, dst), _) in self
            .per_sec
            .iter()
            .filter(|((_, dst), n)| *dst != c2_ip && **n >= pps_threshold)
            .take(1024)
        {
            // Already covered by the profiler?
            if let Some(e) = out.iter_mut().find(|e| e.command.target == *dst) {
                if e.detection == DdosDetection::Profiler {
                    e.detection = DdosDetection::Both;
                }
                continue;
            }
            // Find the last C2 payload before the flood second.
            let flood_ts = sec * 1_000_000;
            let Some((cmd_ts, payload)) = c2_chunks.iter().rev().find(|(ts, _)| *ts <= flood_ts)
            else {
                continue;
            };
            // Verification: the target must appear (ASCII dotted or raw
            // big-endian bytes) in that payload.
            let ascii = dst.to_string();
            let raw = dst.octets();
            let mentions = contains(payload, ascii.as_bytes()) || contains(payload, &raw);
            // Characterise the flood from the wire to synthesize the
            // command (type recovery from traffic shape).
            let (method, port, dur) = flood(*dst).copied().unwrap_or_default().characterize();
            out.push(ExtractedCommand {
                command: AttackCommand {
                    method,
                    target: *dst,
                    port,
                    duration_secs: dur,
                },
                detection: DdosDetection::Behavioral,
                verified: mentions,
                measured_pps: peak_pps(*dst),
                ts_micros: *cmd_ts,
            });
        }

        // Deduplicate repeated keepalive-window decodes of one command.
        out.sort_by_key(|e| (e.ts_micros, e.command.target, e.command.port));
        out.dedup_by(|a, b| a.command == b.command && a.ts_micros == b.ts_micros);
        out
    }
}

/// An ordered tally with a one-entry cache in front of the tree: a
/// capture comes in runs of packets to one destination within one
/// second, so most updates skip the tree walk.
struct RunTally<K, V> {
    slots: BTreeMap<K, usize>,
    values: Vec<V>,
    last: Option<(K, usize)>,
}

impl<K, V> Default for RunTally<K, V> {
    fn default() -> Self {
        RunTally {
            slots: BTreeMap::new(),
            values: Vec::new(),
            last: None,
        }
    }
}

impl<K: Ord + Copy, V: Default> RunTally<K, V> {
    /// The value at `key`, inserted as `V::default()` if absent.
    fn entry(&mut self, key: K) -> &mut V {
        let slot = match self.last {
            Some((k, slot)) if k == key => slot,
            _ => {
                let fresh = self.values.len();
                let slot = *self.slots.entry(key).or_insert(fresh);
                if slot == fresh {
                    self.values.push(V::default());
                }
                self.last = Some((key, slot));
                slot
            }
        };
        &mut self.values[slot]
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.slots.get(key).map(|&slot| &self.values[slot])
    }

    /// The entries in key order.
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|(k, &slot)| (k, &self.values[slot]))
    }
}

/// The bot's traffic toward one destination. First and last are in
/// capture order (what the flood's duration is read from); `max_ts`
/// answers "any traffic after t?" for captures whose timestamps are not
/// monotone.
#[derive(Debug, Default, Clone, Copy)]
struct FloodStats {
    packets: u64,
    first_ts: u64,
    last_ts: u64,
    max_ts: u64,
    syn: u64,
    udp: u64,
    icmp: u64,
    /// Destination port of the last TCP or UDP packet.
    port: u16,
    /// Peak packets per second.
    peak_pps: u64,
}

impl FloodStats {
    fn add(&mut self, ts: u64, transport: &Transport) {
        if self.packets == 0 {
            self.first_ts = ts;
        }
        self.packets += 1;
        self.last_ts = ts;
        self.max_ts = self.max_ts.max(ts);
        match transport {
            Transport::Tcp { header, .. } => {
                if header.flags.syn() && !header.flags.ack() {
                    self.syn += 1;
                }
                self.port = header.dst_port;
            }
            Transport::Udp { header, .. } => {
                self.udp += 1;
                self.port = header.dst_port;
            }
            Transport::Icmp(_) => self.icmp += 1,
        }
    }

    /// Infer attack type, port and duration (seconds) from the flood
    /// traffic itself (used when only the behavioural detector fires,
    /// e.g. unknown families).
    fn characterize(&self) -> (AttackMethod, u16, u32) {
        // Wrapping: a capture whose last packet predates its first keeps
        // the arithmetic of a release build instead of panicking.
        let dur = match self.packets {
            0 => 0,
            _ => ((self.last_ts.wrapping_sub(self.first_ts) / 1_000_000) as u32).wrapping_add(1),
        };
        let method = if self.icmp > self.syn && self.icmp > self.udp {
            AttackMethod::Blacknurse
        } else if self.syn > self.udp {
            AttackMethod::SynFlood
        } else {
            AttackMethod::UdpFlood
        };
        let port = if method == AttackMethod::Blacknurse {
            0
        } else {
            self.port
        };
        (method, port, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_protocols::mirai;
    use malnet_wire::tcp::TcpFlags;

    const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
    const C2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const TGT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

    fn cmd() -> AttackCommand {
        AttackCommand {
            method: AttackMethod::UdpFlood,
            target: TGT,
            port: 80,
            duration_secs: 5,
        }
    }

    /// A synthetic session: command from C2 at t=1s, flood at 150 pps
    /// for 3 seconds.
    fn session(flood: bool, encode_cmd: bool) -> Vec<(u64, Packet)> {
        let mut pkts = Vec::new();
        if encode_cmd {
            let bytes = mirai::encode_command(&cmd()).unwrap();
            pkts.push((
                1_000_000,
                Packet::tcp(C2, 23, BOT, 40000, 1, 1, TcpFlags::PSH_ACK, bytes),
            ));
        }
        if flood {
            for s in 2..5u64 {
                for k in 0..150u64 {
                    pkts.push((
                        s * 1_000_000 + k * 6000,
                        Packet::udp(BOT, 4444, TGT, 80, vec![0]),
                    ));
                }
            }
        }
        pkts
    }

    #[test]
    fn profiler_and_heuristic_agree() {
        let pkts = session(true, true);
        let cmds = extract(&pkts, BOT, C2, Some(Family::Mirai), 100);
        assert_eq!(cmds.len(), 1, "{cmds:?}");
        let e = &cmds[0];
        assert_eq!(e.command, cmd());
        assert_eq!(e.detection, DdosDetection::Both);
        assert!(e.verified);
        assert!(e.measured_pps >= 100);
    }

    #[test]
    fn profiler_without_flood_is_unverified() {
        let pkts = session(false, true);
        let cmds = extract(&pkts, BOT, C2, Some(Family::Mirai), 100);
        assert_eq!(cmds.len(), 1);
        assert!(!cmds[0].verified);
        assert_eq!(cmds[0].detection, DdosDetection::Profiler);
    }

    #[test]
    fn heuristic_only_for_unknown_family() {
        // Tsunami has no profiler; only the behavioural detector fires.
        let mut pkts = session(true, false);
        // Unparseable "command" mentioning the target in ASCII.
        pkts.insert(
            0,
            Packet::tcp(
                C2,
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                format!("!flood {TGT} 80").into_bytes(),
            )
            .pipe_ts(900_000),
        );
        let cmds = extract(&pkts, BOT, C2, Some(Family::Tsunami), 100);
        assert_eq!(cmds.len(), 1, "{cmds:?}");
        assert_eq!(cmds[0].detection, DdosDetection::Behavioral);
        assert!(cmds[0].verified, "ASCII target in command payload");
        assert_eq!(cmds[0].command.method, AttackMethod::UdpFlood);
        assert_eq!(cmds[0].command.port, 80);
    }

    #[test]
    fn below_threshold_flood_is_ignored() {
        let mut pkts = Vec::new();
        for s in 0..3u64 {
            for k in 0..50u64 {
                pkts.push((
                    s * 1_000_000 + k * 20000,
                    Packet::udp(BOT, 4444, TGT, 80, vec![0]),
                ));
            }
        }
        let cmds = extract(&pkts, BOT, C2, None, 100);
        assert!(cmds.is_empty());
    }

    #[test]
    fn threshold_is_tunable() {
        let pkts = session(true, false);
        assert!(extract(&pkts, BOT, C2, None, 500).is_empty());
        // Without any C2 payload there is nothing to attribute, so even
        // above threshold nothing is reported.
        assert!(extract(&pkts, BOT, C2, None, 100).is_empty());
    }

    /// The bot floods its own C2 above threshold in 1100 seconds, more
    /// than the heuristic's 1024-entry cap, and another target in one
    /// later second. The C2's entries are dropped before the cap, so the
    /// target is still found; the C2's own peak rates as 0.
    #[test]
    fn own_c2_leaves_the_cap_and_rates_zero() {
        let own = AttackCommand {
            target: C2,
            ..cmd()
        };
        let mut pkts = vec![(
            500_000,
            Packet::tcp(
                C2,
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                mirai::encode_command(&own).unwrap(),
            ),
        )];
        for s in 1..=1100u64 {
            for k in 0..3 {
                pkts.push((s * 1_000_000 + k, Packet::udp(BOT, 4444, C2, 80, vec![0])));
            }
        }
        for k in 0..3 {
            pkts.push((1_050_000_000 + k, Packet::udp(BOT, 4444, TGT, 53, vec![0])));
        }
        let cmds = extract(&pkts, BOT, C2, Some(Family::Mirai), 3);
        let want = [
            ExtractedCommand {
                command: own,
                detection: DdosDetection::Profiler,
                verified: true,
                measured_pps: 0,
                ts_micros: 500_000,
            },
            ExtractedCommand {
                command: AttackCommand {
                    method: AttackMethod::UdpFlood,
                    target: TGT,
                    port: 53,
                    duration_secs: 1,
                },
                detection: DdosDetection::Behavioral,
                verified: false,
                measured_pps: 3,
                ts_micros: 500_000,
            },
        ];
        assert_eq!(cmds, want);

        // A second C2 in the same session reads the first one's address
        // as a flood target like any other: its seconds fill that C2's
        // cap, so the later target is past it. The first C2's commands
        // are as they were.
        let other = Ipv4Addr::new(10, 1, 0, 6);
        let ping = Packet::tcp(
            other,
            23,
            BOT,
            40001,
            1,
            1,
            TcpFlags::PSH_ACK,
            b"ping".to_vec(),
        );
        pkts.push((700_000, ping));
        let session = extract_session(&pkts, BOT, &[(other, None), (C2, Some(Family::Mirai))], 3);
        let other_cmds = vec![ExtractedCommand {
            command: AttackCommand {
                method: AttackMethod::UdpFlood,
                target: C2,
                port: 80,
                duration_secs: 1100,
            },
            detection: DdosDetection::Behavioral,
            verified: false,
            measured_pps: 3,
            ts_micros: 700_000,
        }];
        assert_eq!(session, [other_cmds, want.to_vec()]);
    }

    trait PipeTs {
        fn pipe_ts(self, ts: u64) -> (u64, Packet);
    }
    impl PipeTs for Packet {
        fn pipe_ts(self, ts: u64) -> (u64, Packet) {
            (ts, self)
        }
    }
}
