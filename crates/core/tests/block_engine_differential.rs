//! Full-system differential proof for the block-cached interpreter:
//! running real botgen-emitted malware through the sandbox with the
//! block engine ON must produce artifacts byte-identical to the legacy
//! stepping oracle — per family, and for deliberately damaged binaries
//! (truncated and bit-flipped ELFs).
//!
//! This is the sandbox-level complement to the mips-level lockstep
//! proptests (`crates/mips/tests/differential.rs`): those pin the CPU
//! state transition by transition; this pins everything the study
//! actually consumes — pcap bytes (DNS traffic included), exit reasons,
//! instruction counts, syscall counts, exploit captures.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use malnet_botgen::world::{World, WorldConfig};
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_sandbox::{AnalysisMode, Artifacts, Sandbox, SandboxConfig};

const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);

fn run_once(elf: &[u8], seed: u64, block_engine: bool) -> Artifacts {
    let mut sb = Sandbox::new(
        Network::new(SimTime::from_day(0, 0), seed ^ 0xd1ff),
        SandboxConfig {
            bot_ip: BOT,
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(5),
            instruction_budget: 40_000_000,
            seed,
            block_engine,
            ..SandboxConfig::default()
        },
    );
    sb.execute(elf, SimDuration::from_secs(90))
}

fn assert_identical_artifacts(elf: &[u8], seed: u64, what: &str) {
    let oracle = run_once(elf, seed, false);
    let block = run_once(elf, seed, true);
    assert_eq!(oracle.exit, block.exit, "{what}: exit reason diverged");
    assert_eq!(
        oracle.instructions, block.instructions,
        "{what}: retired instruction count diverged"
    );
    assert_eq!(
        oracle.syscalls, block.syscalls,
        "{what}: syscall count diverged"
    );
    assert_eq!(oracle.pcap, block.pcap, "{what}: pcap bytes diverged");
    assert_eq!(
        oracle.exploits, block.exploits,
        "{what}: exploit captures diverged"
    );
}

/// Every family in the generated corpus runs bit-identically under both
/// engines. The world is sized so all seven families appear.
#[test]
fn all_families_identical_under_both_engines() {
    let world = World::generate(WorldConfig {
        seed: 9090,
        n_samples: 24,
        ..WorldConfig::default()
    });
    let mut seen = HashSet::new();
    for s in &world.samples {
        // One representative per family keeps the test fast; corrupted
        // samples are covered by the damage tests below.
        if !seen.insert(s.family) {
            continue;
        }
        assert_identical_artifacts(&s.elf, 1000 + s.id as u64, &format!("{:?}", s.family));
    }
    assert!(
        seen.len() >= 4,
        "world too small to cover families: {seen:?}"
    );
}

/// Truncated binaries — cut at awkward offsets, including mid-`.text`
/// so programs run off the end of the mapped segment — behave
/// identically (unloadable, faulting, or even running a prefix).
#[test]
fn truncated_elves_identical_under_both_engines() {
    let world = World::generate(WorldConfig {
        seed: 31337,
        n_samples: 4,
        ..WorldConfig::default()
    });
    let elf = &world.samples[0].elf;
    for cut in [0, 13, 52, 100, elf.len() / 2, elf.len() - 7, elf.len() - 1] {
        let cut = cut.min(elf.len());
        assert_identical_artifacts(&elf[..cut], 777, &format!("truncated at {cut}"));
    }
}

/// Bit-flipped binaries: corrupted headers (often unloadable) and
/// corrupted `.text` (illegal instructions, wild branches) both produce
/// byte-identical artifacts under the two engines.
#[test]
fn bitflipped_elves_identical_under_both_engines() {
    let world = World::generate(WorldConfig {
        seed: 4242,
        n_samples: 4,
        ..WorldConfig::default()
    });
    let base = &world.samples[1].elf;
    // Deterministic pseudo-random flip positions (no wall-clock, no OS
    // RNG — this suite must stay reproducible).
    let mut x = 0x2545_f491u64;
    for round in 0..12 {
        let mut elf = base.clone();
        for _ in 0..=(round % 5) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pos = (x as usize) % elf.len();
            let bit = (x >> 32) as u32 % 8;
            elf[pos] ^= 1 << bit;
        }
        assert_identical_artifacts(&elf, 555 + round, &format!("bitflip round {round}"));
    }
}
