//! Sandbox robustness: hostile inputs, resource limits, and containment
//! guarantees. The sandbox must never panic, never leak traffic, and
//! always return artifacts.

use std::net::Ipv4Addr;

use malnet_mips::asm::{Assembler, Ins, Reg};
use malnet_mips::elf::{ElfFile, ElfSegment};
use malnet_mips::sys;
use malnet_netsim::net::Network;
use malnet_netsim::services::SinkService;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_sandbox::{AnalysisMode, EmuFaults, ExitReason, Sandbox, SandboxConfig};
use malnet_telemetry::Telemetry;
use malnet_wire::pcap;

fn sandbox() -> Sandbox {
    Sandbox::new(Network::new(SimTime::EPOCH, 1), SandboxConfig::default())
}

/// Build a minimal hand-written ELF from raw instructions.
fn elf_from(ins: Vec<Ins>) -> Vec<u8> {
    let base = 0x0040_0000;
    let mut a = Assembler::new(base);
    for i in ins {
        a.ins(i);
    }
    let text = a.assemble().unwrap();
    ElfFile {
        entry: base,
        segments: vec![ElfSegment {
            vaddr: base,
            memsz: text.len() as u32,
            data: text,
            writable: false,
            executable: true,
            name: ".text",
        }],
    }
    .write()
}

#[test]
fn garbage_bytes_fail_activation_cleanly() {
    let mut sb = sandbox();
    for input in [
        vec![],
        vec![0u8; 10],
        b"MZ\x90\x00not an elf at all".to_vec(),
        vec![0x7f, b'E', b'L', b'F', 9, 9, 9, 9],
    ] {
        let art = sb.execute(&input, SimDuration::from_secs(5));
        assert!(matches!(art.exit, ExitReason::Fault(_)), "{:?}", art.exit);
        assert_eq!(art.instructions, 0);
    }
}

#[test]
fn spinning_binary_hits_instruction_budget() {
    // j self — an infinite compute loop with no syscalls.
    let elf = elf_from(vec![Ins::J(0x0040_0000u32.into())]);
    let mut sb = Sandbox::new(
        Network::new(SimTime::EPOCH, 1),
        SandboxConfig {
            instruction_budget: 100_000,
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(60));
    assert_eq!(art.exit, ExitReason::Budget);
    assert!(art.instructions >= 100_000);
}

#[test]
fn segfaulting_binary_reports_fault() {
    // lw from unmapped memory.
    let elf = elf_from(vec![
        Ins::Li(Reg::T0, 0xdead_0000),
        Ins::Lw(Reg::T1, Reg::T0, 0),
    ]);
    let mut sb = sandbox();
    let art = sb.execute(&elf, SimDuration::from_secs(5));
    match art.exit {
        ExitReason::Fault(msg) => assert!(msg.contains("unmapped"), "{msg}"),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn clean_exit_status_is_reported() {
    let elf = elf_from(vec![
        Ins::Li(Reg::A0, 42),
        Ins::Li(Reg::V0, sys::NR_EXIT),
        Ins::Syscall,
    ]);
    let mut sb = sandbox();
    let art = sb.execute(&elf, SimDuration::from_secs(5));
    assert_eq!(art.exit, ExitReason::Exited(42));
    assert_eq!(art.syscalls, 1);
}

#[test]
fn unknown_syscalls_fail_soft() {
    // An unknown syscall number must return an error to the guest, not
    // kill the run; the guest then exits normally.
    let elf = elf_from(vec![
        Ins::Li(Reg::V0, 4999),
        Ins::Syscall,
        Ins::Li(Reg::A0, 0),
        Ins::Li(Reg::V0, sys::NR_EXIT),
        Ins::Syscall,
    ]);
    let mut sb = sandbox();
    let art = sb.execute(&elf, SimDuration::from_secs(5));
    assert_eq!(art.exit, ExitReason::Exited(0));
}

/// A guest that opens one TCP connection to `ip:port` and exits 0.
fn connect_guest(ip: Ipv4Addr, port: u16) -> Vec<u8> {
    elf_from(vec![
        // socket(AF_INET, SOCK_STREAM, 0)
        Ins::Li(Reg::A0, sys::AF_INET),
        Ins::Li(Reg::A1, sys::SOCK_STREAM),
        Ins::Li(Reg::A2, 0),
        Ins::Li(Reg::V0, sys::NR_SOCKET),
        Ins::Syscall,
        Ins::Move(Reg::S0, Reg::V0),
        // build sockaddr for ip:port on the stack
        Ins::Li(
            Reg::T0,
            u32::from(sys::AF_INET as u16) << 16 | u32::from(port),
        ),
        Ins::Sw(Reg::T0, Reg::SP, 32),
        Ins::Li(Reg::T1, u32::from(ip)),
        Ins::Sw(Reg::T1, Reg::SP, 36),
        Ins::Move(Reg::A0, Reg::S0),
        Ins::Addiu(Reg::A1, Reg::SP, 32),
        Ins::Li(Reg::A2, 16),
        Ins::Li(Reg::V0, sys::NR_CONNECT),
        Ins::Syscall,
        Ins::Li(Reg::A0, 0),
        Ins::Li(Reg::V0, sys::NR_EXIT),
        Ins::Syscall,
    ])
}

#[test]
fn weaponized_mode_redirects_every_connect() {
    // The guest connects to 1.2.3.4:9999; in weaponized mode the SYN must
    // appear on the wire toward the probe target instead.
    let target_ip = Ipv4Addr::new(10, 50, 0, 1);
    let elf = connect_guest(Ipv4Addr::new(1, 2, 3, 4), 9999);
    let mut sb = Sandbox::new(
        Network::new(SimTime::EPOCH, 2),
        SandboxConfig {
            mode: AnalysisMode::Weaponized {
                target: (target_ip, 1312),
            },
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(20));
    let packets = art.packets();
    assert!(
        packets
            .iter()
            .any(|(_, p)| p.dst == target_ip && p.transport.dst_port() == Some(1312)),
        "SYN must go to the probe target: {packets:?}"
    );
    assert!(
        !packets
            .iter()
            .any(|(_, p)| p.dst == Ipv4Addr::new(1, 2, 3, 4)),
        "original C2 must never be contacted"
    );
}

/// The capture counters count what the tap hands over. Summed over
/// several runs on one sandbox, `wire.pcap_records_encoded` is the number
/// of records in the runs' captures and `wire.pcap_bytes_encoded` their
/// total length, with one 24-byte global header per run (a run without
/// traffic adds the header alone). Dissolving the sandbox drops its idle
/// capture uncounted.
#[test]
fn capture_counters_sum_each_runs_pcap() {
    let server = Ipv4Addr::new(10, 50, 0, 1);
    let mut net = Network::new(SimTime::EPOCH, 3);
    net.add_service_host(server, Box::new(SinkService::new(vec![23])));
    let tel = Telemetry::enabled();
    let mut sb = Sandbox::new(net, SandboxConfig::default()).with_telemetry(&tel);
    let connect = connect_guest(server, 23);
    let quiet = elf_from(vec![
        Ins::Li(Reg::A0, 0),
        Ins::Li(Reg::V0, sys::NR_EXIT),
        Ins::Syscall,
    ]);
    let (mut records, mut bytes, mut record_bytes) = (0, 0, 0);
    for elf in [&connect, &quiet, &connect] {
        let art = sb.execute(elf, SimDuration::from_secs(10));
        let (packets, skipped) = pcap::parse_capture(&art.pcap).unwrap();
        assert_eq!(skipped, 0);
        records += packets.len() as u64;
        bytes += art.pcap.len() as u64;
        record_bytes += (packets.iter())
            .map(|(_, p)| 16 + p.encode_frame().len() as u64)
            .sum::<u64>();
    }
    assert!(
        records >= 6,
        "two handshakes on the tap, got {records} records"
    );
    assert_eq!(bytes, 3 * 24 + record_bytes, "one global header per run");
    let counted = || {
        (
            tel.counter("wire.pcap_records_encoded").get(),
            tel.counter("wire.pcap_bytes_encoded").get(),
        )
    };
    assert_eq!(counted(), (records, bytes));
    drop(sb.into_network());
    assert_eq!(counted(), (records, bytes));
}

/// A guest that leaks sockets: loop opening TCP sockets until either 64
/// succeed (exit with the success count) or `socket` fails. On failure
/// the guest checks that `$a3` carries `EMFILE` — any other errno exits
/// 99 so the test can tell "capped" apart from "failed differently".
fn socket_leak_guest() -> Vec<u8> {
    let mut a = Assembler::new(0x0040_0000);
    a.ins(Ins::Li(Reg::S0, 0)) // successes
        .label("loop")
        .ins(Ins::Li(Reg::A0, sys::AF_INET))
        .ins(Ins::Li(Reg::A1, sys::SOCK_STREAM))
        .ins(Ins::Li(Reg::A2, 0))
        .ins(Ins::Li(Reg::V0, sys::NR_SOCKET))
        .ins(Ins::Syscall)
        .ins(Ins::Bltz(Reg::V0, "capped".into()))
        .ins(Ins::Nop)
        .ins(Ins::Addiu(Reg::S0, Reg::S0, 1))
        .ins(Ins::Slti(Reg::T0, Reg::S0, 64))
        .ins(Ins::Bne(Reg::T0, Reg::ZERO, "loop".into()))
        .ins(Ins::Nop)
        // Never capped: exit with the success count (64).
        .ins(Ins::Move(Reg::A0, Reg::S0))
        .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
        .ins(Ins::Syscall)
        .label("capped")
        .ins(Ins::Li(Reg::T1, sys::EMFILE))
        .ins(Ins::Bne(Reg::A3, Reg::T1, "wrong_errno".into()))
        .ins(Ins::Nop)
        .ins(Ins::Move(Reg::A0, Reg::S0))
        .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
        .ins(Ins::Syscall)
        .label("wrong_errno")
        .ins(Ins::Li(Reg::A0, 99))
        .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
        .ins(Ins::Syscall);
    let text = a.assemble().unwrap();
    ElfFile {
        entry: 0x0040_0000,
        segments: vec![ElfSegment {
            vaddr: 0x0040_0000,
            memsz: text.len() as u32,
            data: text,
            writable: false,
            executable: true,
            name: ".text",
        }],
    }
    .write()
}

#[test]
fn fd_table_cap_returns_emfile_to_the_guest() {
    // With the table bounded at 4, the fifth socket() must fail soft
    // with EMFILE: the guest sees -1/$a3=EMFILE and exits with its
    // success count. Exit code 99 would mean a different errno leaked.
    let elf = socket_leak_guest();
    let mut sb = Sandbox::new(
        Network::new(SimTime::EPOCH, 1),
        SandboxConfig {
            fd_cap: 4,
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(30));
    assert_eq!(art.exit, ExitReason::Exited(4), "cap must bite at 4 fds");
    assert_eq!(art.emu_faults.emfile, 1, "EMFILE must be tallied");
}

#[test]
fn default_fd_cap_is_generous() {
    // The same leaking guest under the default cap never sees EMFILE:
    // all 64 sockets open and the run exits cleanly.
    let elf = socket_leak_guest();
    let mut sb = sandbox();
    let art = sb.execute(&elf, SimDuration::from_secs(30));
    assert_eq!(art.exit, ExitReason::Exited(64));
    assert_eq!(art.emu_faults.emfile, 0);
}

#[test]
fn fault_plan_fd_cap_tightens_the_table_bound() {
    // An emulator fault sub-plan squeezes the cap below the configured
    // bound; the honest table limit stays as the backstop.
    let elf = socket_leak_guest();
    let mut sb = Sandbox::new(
        Network::new(SimTime::EPOCH, 1),
        SandboxConfig {
            emu_faults: EmuFaults {
                fd_cap: Some(3),
                ..EmuFaults::none()
            },
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(30));
    assert_eq!(art.exit, ExitReason::Exited(3), "sub-plan cap must win");
    assert_eq!(art.emu_faults.emfile, 1);
}

#[test]
fn deadline_is_enforced_during_sleep() {
    // nanosleep(10_000s) with a 5s deadline: the run must stop at the
    // deadline, not after the sleep.
    let mut a = Assembler::new(0x0040_0000);
    a.ins(Ins::Li(Reg::T0, 10_000))
        .ins(Ins::Sw(Reg::T0, Reg::SP, 32))
        .ins(Ins::Sw(Reg::ZERO, Reg::SP, 36))
        .ins(Ins::Addiu(Reg::A0, Reg::SP, 32))
        .ins(Ins::Li(Reg::A1, 0))
        .ins(Ins::Li(Reg::V0, sys::NR_NANOSLEEP))
        .ins(Ins::Syscall)
        .label("spin")
        .ins(Ins::J("spin".into()));
    let text = a.assemble().unwrap();
    let elf = ElfFile {
        entry: 0x0040_0000,
        segments: vec![ElfSegment {
            vaddr: 0x0040_0000,
            memsz: text.len() as u32,
            data: text,
            writable: false,
            executable: true,
            name: ".text",
        }],
    }
    .write();
    let mut sb = sandbox();
    let start = sb.net.now();
    let art = sb.execute(&elf, SimDuration::from_secs(5));
    assert!(matches!(
        art.exit,
        ExitReason::Deadline | ExitReason::Budget
    ));
    let elapsed = sb.net.now().since(start);
    assert!(elapsed <= SimDuration::from_secs(6), "{elapsed:?}");
}
