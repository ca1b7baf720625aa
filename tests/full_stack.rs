//! Cross-crate integration tests at the facade level: every layer of the
//! reproduction participates (generator → ELF → emulator → simulated
//! network → pcap bytes → wire re-parse → analysis).

use std::net::Ipv4Addr;

use malnet::botgen::binary::emit_elf;
use malnet::botgen::c2service::{install_c2, C2Config, RespondMode};
use malnet::botgen::programs::compile;
use malnet::botgen::spec::{BehaviorSpec, C2Endpoint};
use malnet::botgen::world::{Calibration, World, WorldConfig};
use malnet::core::ddos;
use malnet::netsim::net::Network;
use malnet::netsim::time::{SimDuration, SimTime};
use malnet::protocols::{AttackCommand, AttackMethod, Family};
use malnet::sandbox::{AnalysisMode, Sandbox, SandboxConfig};
use malnet::wire::pcap;

const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
const C2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

/// The capture produced by the sandbox must be a byte-valid libpcap file
/// that the wire crate can fully re-parse: what the analyst opens in
/// Wireshark is exactly what the simulator sent.
#[test]
fn sandbox_pcap_is_bit_exact_through_wire_reparse() {
    let spec = BehaviorSpec {
        c2: vec![(C2Endpoint::Ip(C2), 23)],
        recv_timeout_ms: 5000,
        ..Default::default()
    };
    let elf = emit_elf(&compile(&spec), b"roundtrip");
    let mut sb = Sandbox::new(Network::new(SimTime::EPOCH, 3), SandboxConfig::default());
    let art = sb.execute(&elf, SimDuration::from_secs(60));
    assert!(!art.pcap.is_empty());
    let (packets, skipped) = pcap::parse_capture(&art.pcap).expect("valid pcap");
    assert_eq!(skipped, 0, "every captured frame re-parses");
    assert!(!packets.is_empty());
    // Re-serializing the parsed packets reproduces the identical file.
    let rewritten = pcap::to_bytes(&packets);
    assert_eq!(rewritten, art.pcap);
}

/// The full command loop crosses five crates: protocols encode at the C2
/// service (botgen), the MIPS binary decodes and attacks (mips+sandbox),
/// the capture goes through wire, and core's extractor recovers the
/// identical command struct.
#[test]
fn command_roundtrips_through_all_layers() {
    for (family, method, port) in [
        (Family::Mirai, AttackMethod::Vse, 27015),
        (Family::Gafgyt, AttackMethod::UdpFlood, 80),
        (Family::Daddyl33t, AttackMethod::SynFlood, 443),
    ] {
        let command = AttackCommand {
            method,
            target: Ipv4Addr::new(198, 51, 100, 5),
            port,
            duration_secs: 3,
        };
        let mut net = Network::new(SimTime::EPOCH, 11);
        install_c2(
            &mut net,
            C2,
            C2Config {
                family,
                port: 23,
                respond: RespondMode::Always,
                commands_on_login: vec![(SimDuration::from_secs(10), command)],
                serve_loader: None,
            },
        );
        let spec = BehaviorSpec {
            family,
            c2: vec![(C2Endpoint::Ip(C2), 23)],
            recv_timeout_ms: 8000,
            ..Default::default()
        };
        let elf = emit_elf(&compile(&spec), b"loop");
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                mode: AnalysisMode::Restricted { allowed: vec![C2] },
                handshaker_threshold: None,
                ..Default::default()
            },
        );
        let art = sb.execute(&elf, SimDuration::from_secs(90));
        let extracted = ddos::extract(pcap::packets(&art.pcap), BOT, C2, Some(family), 100);
        let found = extracted
            .iter()
            .find(|e| e.command == command)
            .unwrap_or_else(|| panic!("{family}: {command} not recovered: {extracted:?}"));
        assert!(found.verified, "{family}: command must verify");
    }
}

/// World generation and the facade's re-exports stay coherent: AS lookups
/// from netsim agree with world placement, and ELF bytes parse with the
/// mips crate.
#[test]
fn world_is_consistent_across_crates() {
    let world = World::generate(WorldConfig {
        seed: 3,
        n_samples: 40,
        cal: Calibration::default(),
    });
    for c2 in world.c2s.iter().take(50) {
        if let Some(asn) = world.asdb.asn_of(c2.host_ip) {
            assert_eq!(asn, c2.asn, "AS registry agrees with placement");
        }
    }
    for s in world.samples.iter().take(10) {
        let elf = malnet::mips::elf::ElfFile::parse(&s.elf).expect("corpus binaries parse");
        assert_eq!(elf.entry, malnet::botgen::stub::TEXT_BASE);
        // Family banner is discoverable by the strings pass.
        let label = malnet::intel::yara_label(&s.elf).expect("labelable");
        assert_eq!(label, s.family.label());
    }
}

/// Determinism across the whole stack: same seed, same world, same
/// run, identical captures.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let world = World::generate(WorldConfig {
            seed: 9,
            n_samples: 10,
            cal: Calibration::default(),
        });
        let sample = &world.samples[0];
        let (net, _) = world.network_for_day_detached(sample.publish_day, 1);
        let mut sb = Sandbox::new(net, SandboxConfig::default());
        sb.execute(&sample.elf, SimDuration::from_secs(45)).pcap
    };
    assert_eq!(run(), run());
}

/// Fault injection end to end: heavy packet loss degrades but never
/// wedges the stack — the sample still terminates and the capture stays
/// parseable.
#[test]
fn lossy_network_degrades_gracefully() {
    let spec = BehaviorSpec {
        c2: vec![(C2Endpoint::Ip(C2), 23)],
        recv_timeout_ms: 3000,
        ..Default::default()
    };
    let elf = emit_elf(&compile(&spec), b"lossy");
    let mut net = Network::new(SimTime::EPOCH, 5);
    net.faults.loss = 0.9;
    let mut sb = Sandbox::new(net, SandboxConfig::default());
    let art = sb.execute(&elf, SimDuration::from_secs(60));
    let (packets, skipped) = pcap::parse_capture(&art.pcap).expect("parseable");
    assert_eq!(skipped, 0);
    assert!(!packets.is_empty(), "SYN attempts still visible at the tap");
}
