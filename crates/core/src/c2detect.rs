//! C2 address extraction from sandbox artifacts — the CnCHunter analysis
//! (paper §2.1: "we can detect C2-bound traffic with a 90% precision").
//!
//! Works purely on the run's capture bytes plus the fake resolver's query
//! log. The discriminator between C2-bound flows and scan/exploit flows
//! is **fan-out**: scanning contacts many addresses on one port, C2
//! check-ins contact one address on one port, usually repeatedly, and
//! carry a protocol login when the server engages.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use malnet_protocols::profiler::identify_family;
use malnet_protocols::Family;
use malnet_sandbox::Artifacts;
use malnet_wire::packet::Transport;
use malnet_wire::pcap;

/// A destination port is considered a *scan port* once this many distinct
/// addresses were contacted on it within one run.
pub const SCAN_FANOUT_THRESHOLD: usize = 8;

/// One detected C2 endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2Candidate {
    /// The address the malware used: a domain when the flow followed a
    /// DNS resolution, otherwise the literal IP.
    pub addr: String,
    /// The IP actually contacted.
    pub ip: Ipv4Addr,
    /// Destination port.
    pub port: u16,
    /// Was the address DNS-derived?
    pub dns: bool,
    /// SYN attempts seen.
    pub attempts: u32,
    /// Did the handshake complete (SYN-ACK + ACK observed)?
    pub connected: bool,
    /// Family identified from the first bot→server payload, if any.
    pub family_from_traffic: Option<Family>,
}

/// Extract C2 candidates from one contained/observational run, in one
/// pass over the capture's packets as they are decoded.
pub fn detect_c2(art: &Artifacts, bot_ip: Ipv4Addr) -> Vec<C2Candidate> {
    // DNS: map answered IPs back to queried names. The sandbox's wildcard
    // resolver answers every name with the sinkhole, so pair answers with
    // names by matching the response payloads in the capture. Read only
    // once the pass is done.
    // Lookup-only (queried per candidate IP, never iterated). lint: hash-ok
    let mut ip_to_name: HashMap<Ipv4Addr, String> = HashMap::new();
    // Flow statistics keyed by (dst, port).
    #[derive(Default)]
    struct Flow {
        syns: u32,
        connected: bool,
        first_payload: Vec<u8>,
    }
    let mut flows: BTreeMap<(Ipv4Addr, u16), Flow> = BTreeMap::new();
    // Lookup-only (fanout counts read per flow key). lint: hash-ok
    let mut port_fanout: HashMap<u16, BTreeSet<Ipv4Addr>> = HashMap::new();
    let mut synack_seen: BTreeSet<(Ipv4Addr, u16)> = BTreeSet::new();
    for (_, p) in pcap::packets(&art.pcap) {
        match p.transport {
            Transport::Udp { header, payload } if p.dst == bot_ip && header.src_port == 53 => {
                if let Ok(msg) = malnet_wire::dns::DnsMessage::decode(&payload) {
                    for (_, ip, _) in &msg.answers {
                        ip_to_name.insert(*ip, msg.question.as_str().to_string());
                    }
                }
            }
            Transport::Tcp { header, payload } if p.src == bot_ip => {
                let key = (p.dst, header.dst_port);
                let f = flows.entry(key).or_default();
                if header.flags.syn() && !header.flags.ack() {
                    f.syns += 1;
                    port_fanout
                        .entry(header.dst_port)
                        .or_default()
                        .insert(p.dst);
                }
                if !payload.is_empty() && f.first_payload.is_empty() {
                    f.first_payload = payload;
                }
            }
            Transport::Tcp { header, .. }
                if p.dst == bot_ip && header.flags.syn() && header.flags.ack() =>
            {
                synack_seen.insert((p.src, header.src_port));
            }
            _ => {}
        }
    }
    for (key, f) in &mut flows {
        f.connected = synack_seen.contains(key);
    }

    let mut out = Vec::new();
    for ((ip, port), f) in flows {
        let fanout = port_fanout.get(&port).map(|s| s.len()).unwrap_or(0);
        if fanout >= SCAN_FANOUT_THRESHOLD {
            continue; // scan/exploit traffic
        }
        // HTTP fetches to port 80 with GET lines are loader downloads,
        // not C2 check-ins.
        if port == 80 && f.first_payload.starts_with(b"GET ") {
            continue;
        }
        let family = identify_family(&f.first_payload);
        // Precision guard: require persistence or a protocol login.
        if f.syns < 2 && family.is_none() {
            continue;
        }
        let (addr, dns) = match ip_to_name.get(&ip) {
            Some(name) => (name.clone(), true),
            None => (ip.to_string(), false),
        };
        out.push(C2Candidate {
            addr,
            ip,
            port,
            dns,
            attempts: f.syns,
            connected: f.connected,
            family_from_traffic: family,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_botgen::binary::emit_elf;
    use malnet_botgen::exploitdb::VulnId;
    use malnet_botgen::programs::compile;
    use malnet_botgen::spec::{BehaviorSpec, C2Endpoint, ExploitPlan};
    use malnet_netsim::net::Network;
    use malnet_netsim::time::{SimDuration, SimTime};
    use malnet_sandbox::{AnalysisMode, Sandbox, SandboxConfig};

    const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
    const C2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

    fn run(spec: &BehaviorSpec, secs: u64) -> Artifacts {
        let elf = emit_elf(&compile(spec), b"t");
        let mut sb = Sandbox::new(
            Network::new(SimTime::EPOCH, 4),
            SandboxConfig {
                mode: AnalysisMode::Contained,
                handshaker_threshold: Some(5),
                ..Default::default()
            },
        );
        sb.execute(&elf, SimDuration::from_secs(secs))
    }

    #[test]
    fn detects_ip_c2_and_ignores_scans() {
        let spec = BehaviorSpec {
            c2: vec![(C2Endpoint::Ip(C2), 23)],
            exploits: vec![ExploitPlan {
                vuln: VulnId::MvpowerDvr,
                downloader: C2,
                loader: "wget.sh".into(),
                full_gpon: true,
            }],
            scan_mask: 0x3f,
            scan_burst: 6,
            recv_timeout_ms: 4000,
            ..Default::default()
        };
        let art = run(&spec, 400);
        let cands = detect_c2(&art, BOT);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].ip, C2);
        assert_eq!(cands[0].port, 23);
        assert!(!cands[0].dns);
        assert!(cands[0].attempts >= 2);
    }

    #[test]
    fn detects_dns_c2_with_domain_attribution() {
        let spec = BehaviorSpec {
            c2: vec![(C2Endpoint::Domain("cnc.dark.example".into()), 6667)],
            recv_timeout_ms: 4000,
            ..Default::default()
        };
        let art = run(&spec, 120);
        let cands = detect_c2(&art, BOT);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert!(cands[0].dns);
        assert_eq!(cands[0].addr, "cnc.dark.example");
        assert_eq!(cands[0].port, 6667);
    }

    #[test]
    fn p2p_sample_yields_no_tcp_c2() {
        let spec = BehaviorSpec {
            family: Family::Mozi,
            c2: vec![],
            peers: vec![(Ipv4Addr::new(88, 10, 0, 10), 14737)],
            ..Default::default()
        };
        let art = run(&spec, 120);
        assert!(detect_c2(&art, BOT).is_empty());
    }

    #[test]
    fn empty_capture_yields_nothing() {
        let art = Artifacts {
            exit: malnet_sandbox::ExitReason::Exited(0),
            pcap: malnet_wire::pcap::to_bytes(&[]),
            exploits: vec![],
            instructions: 0,
            syscalls: 0,
            emu_faults: malnet_sandbox::EmuFaultTally::default(),
        };
        assert!(detect_c2(&art, BOT).is_empty());
    }
}
