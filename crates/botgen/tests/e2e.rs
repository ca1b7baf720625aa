//! End-to-end integration: generated MIPS ELF binaries executed by the
//! sandbox's emulator against the simulated network.
//!
//! These tests close the whole loop the paper's methodology depends on:
//! a *binary* (not a behaviour description) is what gets analyzed, and
//! every observation below is made from the sandbox's artifacts (pcap
//! bytes, handshaker captures) — never from generator state.

use std::net::Ipv4Addr;

use malnet_botgen::binary::emit_elf;
use malnet_botgen::exploitdb::{self, VulnId};
use malnet_botgen::programs::compile;
use malnet_botgen::spec::{BehaviorSpec, C2Endpoint, ExploitPlan};
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_protocols::Family;
use malnet_sandbox::{AnalysisMode, Sandbox, SandboxConfig};
use malnet_wire::packet::Transport;

const C2_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

fn mirai_spec() -> BehaviorSpec {
    BehaviorSpec {
        family: Family::Mirai,
        c2: vec![(C2Endpoint::Ip(C2_IP), 23)],
        exploits: vec![ExploitPlan {
            vuln: VulnId::MvpowerDvr,
            downloader: C2_IP,
            loader: "t8UsA2.sh".into(),
            full_gpon: true,
        }],
        scan_base: Ipv4Addr::new(100, 70, 0, 0),
        scan_mask: 0x0000_001f, // tiny pool so the handshaker engages fast
        scan_burst: 8,
        recv_timeout_ms: 5_000,
        ..Default::default()
    }
}

fn run_contained(spec: &BehaviorSpec, secs: u64, threshold: usize) -> malnet_sandbox::Artifacts {
    let elf = emit_elf(&compile(spec), b"e2e");
    let net = Network::new(SimTime::EPOCH, 99);
    let mut sb = Sandbox::new(
        net,
        SandboxConfig {
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(threshold),
            seed: 11,
            ..Default::default()
        },
    );
    sb.execute(&elf, SimDuration::from_secs(secs))
}

#[test]
fn mirai_binary_emits_c2_syn_visible_in_pcap() {
    let art = run_contained(&mirai_spec(), 30, 1000);
    let packets = art.packets();
    assert!(!packets.is_empty(), "no traffic captured: {:?}", art.exit);
    // The C2 SYN to 10.1.0.5:23 must appear in the capture.
    let c2_syn = packets.iter().any(|(_, p)| {
        p.dst == C2_IP
            && p.transport.dst_port() == Some(23)
            && p.tcp_flags().map(|f| f.syn() && !f.ack()).unwrap_or(false)
    });
    assert!(c2_syn, "no C2 SYN in capture");
}

#[test]
fn handshaker_captures_exploit_payload() {
    // Threshold 3: after 3 distinct scan targets, victims engage.
    let art = run_contained(&mirai_spec(), 600, 3);
    assert!(
        !art.exploits.is_empty(),
        "handshaker captured nothing (exit {:?}, {} syscalls)",
        art.exit,
        art.syscalls
    );
    let payload = &art.exploits[0].payload;
    let vulns = exploitdb::classify(payload);
    assert_eq!(
        vulns,
        vec![VulnId::MvpowerDvr],
        "{:?}",
        String::from_utf8_lossy(payload)
    );
    let (dl, loader) = exploitdb::extract_downloader(payload).unwrap();
    assert_eq!(dl, C2_IP);
    assert_eq!(loader, "t8UsA2.sh");
    assert_eq!(art.exploits[0].port, 80);
}

#[test]
fn dns_configured_sample_queries_and_follows_wildcard_answer() {
    let mut spec = mirai_spec();
    spec.c2 = vec![(C2Endpoint::Domain("cnc.botnet.example".into()), 6667)];
    let art = run_contained(&spec, 30, 1000);
    assert!(
        art.dns_queries.iter().any(|q| q == "cnc.botnet.example"),
        "{:?}",
        art.dns_queries
    );
    // After the wildcard answer, the bot must SYN the sinkhole address.
    let packets = art.packets();
    let followed = packets.iter().any(|(_, p)| {
        p.dst == malnet_sandbox::sandbox::DNS_SINKHOLE && p.transport.dst_port() == Some(6667)
    });
    assert!(followed, "bot did not follow the DNS answer");
}

#[test]
fn evasive_sample_aborts_without_dns_but_activates_with_inetsim() {
    let mut spec = mirai_spec();
    spec.evasive = true;
    // With the sandbox's wildcard DNS (InetSim), the canary resolves and
    // the sample proceeds to its C2.
    let art = run_contained(&spec, 30, 1000);
    let c2_contacted = art
        .packets()
        .iter()
        .any(|(_, p)| p.dst == C2_IP && p.transport.dst_port() == Some(23));
    assert!(
        c2_contacted,
        "evasive sample failed to activate under InetSim"
    );
}

#[test]
fn gafgyt_binary_sends_text_login() {
    let mut spec = mirai_spec();
    spec.family = Family::Gafgyt;
    let art = run_contained(&spec, 30, 1000);
    // In contained mode the C2 connect times out (no such host), but the
    // SYN is still evidence. Install nothing and check the SYN; the
    // login itself needs a live C2 (covered in the world tests).
    let c2_syn = art
        .packets()
        .iter()
        .any(|(_, p)| p.dst == C2_IP && p.transport.dst_port() == Some(23));
    assert!(c2_syn);
}

#[test]
fn mozi_binary_gossips_with_peers() {
    let peer = Ipv4Addr::new(10, 9, 0, 1);
    let spec = BehaviorSpec {
        family: Family::Mozi,
        c2: vec![],
        exploits: vec![],
        peers: vec![(peer, 14737)],
        ..Default::default()
    };
    let art = run_contained(&spec, 30, 1000);
    let gossip: Vec<_> = art
        .packets()
        .into_iter()
        .filter(|(_, p)| p.dst == peer && matches!(p.transport, Transport::Udp { .. }))
        .collect();
    assert!(
        gossip.len() >= 2,
        "expected ping+find_node, got {}",
        gossip.len()
    );
    // Payload parses as a Mozi message.
    let (_, first) = &gossip[0];
    let msg = malnet_protocols::mozi::MoziMsg::decode(first.transport.payload());
    assert!(msg.is_some());
}

#[test]
fn binary_is_deterministic_across_runs() {
    let a = run_contained(&mirai_spec(), 20, 3);
    let b = run_contained(&mirai_spec(), 20, 3);
    assert_eq!(a.pcap, b.pcap);
    assert_eq!(a.exploits.len(), b.exploits.len());
}

#[test]
fn corrupted_binary_fails_activation() {
    let mut elf = emit_elf(&compile(&mirai_spec()), b"x");
    // Corrupt the config magic so the stub exits immediately.
    let pos = elf.windows(4).position(|w| w == b"MNBC").unwrap();
    elf[pos] ^= 0xff;
    let net = Network::new(SimTime::EPOCH, 1);
    let mut sb = Sandbox::new(net, SandboxConfig::default());
    let art = sb.execute(&elf, SimDuration::from_secs(5));
    assert_eq!(art.exit, malnet_sandbox::ExitReason::Exited(127));
    assert!(art.packets().is_empty());
}

// --- live C2 session tests -------------------------------------------------

use malnet_botgen::c2service::{install_c2, C2Config, RespondMode};
use malnet_protocols::{AttackCommand, AttackMethod};

fn run_with_live_c2(
    family: Family,
    command: AttackCommand,
    secs: u64,
) -> (malnet_sandbox::Artifacts, malnet_botgen::c2service::C2Log) {
    let mut spec = mirai_spec();
    spec.family = family;
    spec.exploits.clear(); // keep the session focused on C2 traffic
    let elf = emit_elf(&compile(&spec), b"live");
    let mut net = Network::new(SimTime::EPOCH, 7);
    let log = install_c2(
        &mut net,
        C2_IP,
        C2Config {
            family,
            port: 23,
            respond: RespondMode::Always,
            commands_on_login: vec![(SimDuration::from_secs(5), command)],
            serve_loader: None,
        },
    );
    // Restricted mode: only the C2 is reachable — attack traffic is
    // contained by the egress filter but still captured (paper §2.5).
    let mut sb = Sandbox::new(
        net,
        SandboxConfig {
            mode: AnalysisMode::Restricted {
                allowed: vec![C2_IP],
            },
            handshaker_threshold: None,
            seed: 5,
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(secs));
    (art, log)
}

fn flood_packets_to(art: &malnet_sandbox::Artifacts, target: Ipv4Addr) -> usize {
    art.packets()
        .iter()
        .filter(|(_, p)| p.dst == target)
        .count()
}

#[test]
fn mirai_bot_obeys_udp_flood_command() {
    let target = Ipv4Addr::new(203, 0, 113, 99);
    let command = AttackCommand {
        method: AttackMethod::UdpFlood,
        target,
        port: 4567,
        duration_secs: 3,
    };
    let (art, log) = run_with_live_c2(Family::Mirai, command, 60);
    assert_eq!(
        log.lock().unwrap().commands.len(),
        1,
        "C2 issued the command"
    );
    let n = flood_packets_to(&art, target);
    // 3 s at default 200 pps ≈ 600 packets (containment still captures).
    assert!(n > 300, "expected a flood, saw {n} packets");
    // All flood packets are UDP to the commanded port with null payload.
    let sample = art
        .packets()
        .into_iter()
        .find(|(_, p)| p.dst == target)
        .unwrap();
    assert_eq!(sample.1.transport.dst_port(), Some(4567));
    assert_eq!(sample.1.transport.payload(), &[0u8]);
}

#[test]
fn daddyl33t_bot_launches_blacknurse() {
    let target = Ipv4Addr::new(198, 51, 100, 77);
    let command = AttackCommand {
        method: AttackMethod::Blacknurse,
        target,
        port: 0,
        duration_secs: 2,
    };
    let (art, _log) = run_with_live_c2(Family::Daddyl33t, command, 60);
    let icmp: Vec<_> = art
        .packets()
        .into_iter()
        .filter(|(_, p)| {
            p.dst == target && matches!(&p.transport, Transport::Icmp(m) if m.icmp_type() == 3)
        })
        .collect();
    assert!(icmp.len() > 100, "BLACKNURSE flood missing: {}", icmp.len());
}

#[test]
fn mirai_bot_syn_floods_with_random_source_ports() {
    let target = Ipv4Addr::new(198, 51, 100, 10);
    let command = AttackCommand {
        method: AttackMethod::SynFlood,
        target,
        port: 80,
        duration_secs: 2,
    };
    let (art, _log) = run_with_live_c2(Family::Mirai, command, 60);
    let syns: Vec<_> = art
        .packets()
        .into_iter()
        .filter(|(_, p)| p.dst == target && p.tcp_flags().map(|f| f.syn()).unwrap_or(false))
        .collect();
    assert!(syns.len() > 100, "SYN flood missing: {}", syns.len());
    let sports: std::collections::HashSet<u16> = syns
        .iter()
        .filter_map(|(_, p)| p.transport.src_port())
        .collect();
    assert!(sports.len() > 10, "multi-source-port variant expected");
    assert!(syns.iter().all(|(_, p)| p.transport.dst_port() == Some(80)));
}

#[test]
fn gafgyt_bot_runs_std_attack_with_stable_random_payload() {
    let target = Ipv4Addr::new(198, 51, 100, 33);
    let command = AttackCommand {
        method: AttackMethod::Std,
        target,
        port: 9999,
        duration_secs: 2,
    };
    let (art, _log) = run_with_live_c2(Family::Gafgyt, command, 60);
    let floods: Vec<_> = art
        .packets()
        .into_iter()
        .filter(|(_, p)| p.dst == target)
        .collect();
    assert!(floods.len() > 100, "STD flood missing: {}", floods.len());
    // The random string is generated once and reused (paper §5.1).
    let first = floods[0].1.transport.payload().to_vec();
    assert_eq!(first.len(), 64);
    assert!(floods.iter().all(|(_, p)| p.transport.payload() == first));
}

#[test]
fn restricted_mode_contains_attack_traffic() {
    let target = Ipv4Addr::new(203, 0, 113, 99);
    let command = AttackCommand {
        method: AttackMethod::UdpFlood,
        target,
        port: 80,
        duration_secs: 2,
    };
    let (_art, _) = run_with_live_c2(Family::Mirai, command, 60);
    // The egress filter never delivered flood packets: the target host
    // doesn't exist, so any delivery attempt would have blackholed —
    // but more to the point, the capture shows them while the network
    // stats show containment. (Captured != released.)
    // Re-run and inspect network stats directly.
    let mut spec = mirai_spec();
    spec.exploits.clear();
    let elf = emit_elf(&compile(&spec), b"live");
    let mut net = Network::new(SimTime::EPOCH, 7);
    install_c2(
        &mut net,
        C2_IP,
        C2Config {
            commands_on_login: vec![(SimDuration::from_secs(5), command)],
            ..Default::default()
        },
    );
    let mut sb = Sandbox::new(
        net,
        SandboxConfig {
            mode: AnalysisMode::Restricted {
                allowed: vec![C2_IP],
            },
            handshaker_threshold: None,
            seed: 5,
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(60));
    assert!(flood_packets_to(&art, target) > 100, "flood captured");
    let net = sb.into_network();
    assert_eq!(
        net.stats.blackholed, 0,
        "no attack packet may leave the sandbox"
    );
}

// --- prepared images and reused networks -------------------------------------

use malnet_mips::asm::{Assembler, Ins, Reg};
use malnet_mips::elf::{ElfFile, ElfSegment};
use malnet_sandbox::{Artifacts, ExitReason, Image};

/// A guest that bumps the immediate of a later `addiu $a0, $zero, 1` in
/// its own `.text`, runs it and exits with `$a0` (passed through the
/// stack): 2 from a pristine image, 3 if an earlier run's store had
/// reached the image.
fn self_patching_elf() -> Vec<u8> {
    let base = 0x0040_0000;
    let mut a = Assembler::new(base);
    a.ins(Ins::Li(Reg::T0, base)) // words 0-1
        .ins(Ins::Lw(Reg::T1, Reg::T0, 24)) // word 2: read word 6
        .ins(Ins::Addiu(Reg::T1, Reg::T1, 1)) // word 3
        .ins(Ins::Sw(Reg::T1, Reg::T0, 24)) // word 4: patch word 6
        .ins(Ins::Nop) // word 5
        .ins(Ins::Addiu(Reg::A0, Reg::ZERO, 1)) // word 6: runs patched
        .ins(Ins::Sw(Reg::A0, Reg::SP, 0))
        .ins(Ins::Lw(Reg::A0, Reg::SP, 0))
        .ins(Ins::Li(Reg::V0, malnet_mips::sys::NR_EXIT))
        .ins(Ins::Syscall);
    let text = a.assemble().unwrap();
    ElfFile {
        entry: base,
        segments: vec![ElfSegment {
            vaddr: base,
            memsz: text.len() as u32,
            data: text,
            writable: true,
            executable: true,
            name: ".text",
        }],
    }
    .write()
}

/// What a caller reads from a run.
fn observed(art: &Artifacts) -> (ExitReason, &[u8], u64, u64, &[String], usize) {
    (
        art.exit.clone(),
        &art.pcap,
        art.instructions,
        art.syscalls,
        &art.dns_queries,
        art.exploits.len(),
    )
}

/// Two runs from one prepared image equal two `execute` calls on twin
/// sandboxes, for a bot, a guest that stores into its own `.text` and a
/// truncated ELF, on either engine. The second run from the image
/// shows the first left it untouched.
#[test]
fn runs_from_one_image_equal_fresh_loads() {
    let bot = emit_elf(&compile(&mirai_spec()), b"image");
    let truncated = bot[..bot.len() / 2].to_vec();
    let patching = self_patching_elf();
    for block_engine in [true, false] {
        let cfg = SandboxConfig {
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(3),
            seed: 11,
            block_engine,
            ..Default::default()
        };
        let twin = || Sandbox::new(Network::new(SimTime::EPOCH, 99), cfg.clone());
        for (name, elf, secs) in [("bot", &bot, 120), ("self-patching", &patching, 5)]
            .into_iter()
            .chain([("truncated", &truncated, 5)])
        {
            let d = SimDuration::from_secs(secs);
            let image = Image::prepare(elf);
            let runs = [
                twin().execute(elf, d),
                twin().execute(elf, d),
                twin().execute_image(image.as_ref(), d),
                twin().execute_image(image.as_ref(), d),
            ];
            let ctx = format!("{name}, block engine {block_engine}");
            for art in &runs[1..] {
                assert_eq!(observed(art), observed(&runs[0]), "{ctx}");
            }
            let art = &runs[3];
            match name {
                "bot" => {
                    assert!(!matches!(art.exit, ExitReason::Fault(_)), "{ctx}");
                    assert!(!art.exploits.is_empty(), "{ctx}: the bot scanned");
                    assert!(art.packets().iter().any(|(_, p)| p.dst == C2_IP), "{ctx}");
                }
                "self-patching" => assert_eq!(art.exit, ExitReason::Exited(2), "{ctx}"),
                _ => {
                    assert!(image.is_none());
                    assert_eq!(
                        art.exit,
                        ExitReason::Fault("unloadable ELF".into()),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// Sandboxes run one after another on one network (the prober's
/// engagement pattern) each log their own bot's DNS queries: a sandbox
/// takes the fake resolver it installed with it, so the next installs
/// one that logs for the next.
#[test]
fn sandboxes_on_a_reused_network_each_see_their_dns_queries() {
    let mut spec = mirai_spec();
    spec.c2 = vec![(C2Endpoint::Domain("cnc.dark.example".into()), 23)];
    spec.exploits.clear();
    let elf = emit_elf(&compile(&spec), b"dns");
    let mut net = Network::new(SimTime::EPOCH, 5);
    let mut queries = Vec::new();
    for seed in 0..2 {
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                mode: AnalysisMode::Weaponized {
                    target: (C2_IP, 23),
                },
                handshaker_threshold: None,
                seed,
                ..Default::default()
            },
        );
        queries.push(sb.execute(&elf, SimDuration::from_secs(20)).dns_queries);
        net = sb.into_network();
    }
    for q in &queries {
        assert!(q.iter().any(|n| n == "cnc.dark.example"), "{queries:?}");
    }
    assert!(!net.has_host(malnet_sandbox::sandbox::FAKE_RESOLVER));
}
