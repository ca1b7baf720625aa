//! Performance gates: two costs the design relies on, timed.
//!
//! * The block engine (`Cpu::run_cached`) runs a 500K-instruction loop
//!   at least 3× as fast as the stepping oracle (`Cpu::step`).
//! * A disabled telemetry counter costs at most 10 ns per add.
//!
//! Both tests are ignored by default: a wall-clock gate means nothing
//! in a debug build or next to other tests competing for the CPU. Run
//! them alone, in release:
//!
//! `cargo test --release -p malnet-bench --test perf_gates -- --ignored --nocapture`

use std::hint::black_box;
use std::time::{Duration, Instant};

use malnet_mips::asm::{Assembler, Ins, Reg};
use malnet_mips::block::ExecCache;
use malnet_mips::cpu::{Cpu, CpuError, STACK_SIZE, STACK_TOP};
use malnet_mips::mem::Memory;
use malnet_telemetry::Telemetry;

/// Batches per side. Each side keeps its fastest batch, so a batch
/// slowed by another process on the host does not decide a gate.
const BATCHES: usize = 7;

const BASE: u32 = 0x0040_0000;

/// 100,000 trips of `addiu; addu; xor; bne` and the branch's delay
/// slot: 500,005 retired instructions, ending in `break`.
fn loop_program() -> Vec<u8> {
    let mut a = Assembler::new(BASE);
    a.ins(Ins::Li(Reg::T0, 0))
        .ins(Ins::Li(Reg::T1, 100_000))
        .label("loop")
        .ins(Ins::Addiu(Reg::T0, Reg::T0, 1))
        .ins(Ins::Addu(Reg::T2, Reg::T0, Reg::T0))
        .ins(Ins::Xor(Reg::T3, Reg::T2, Reg::T0))
        .ins(Ins::Bne(Reg::T0, Reg::T1, "loop".into()))
        .ins(Ins::Break);
    a.assemble().expect("the loop assembles")
}

/// A fresh CPU at the loop's entry, with the predecoded text when
/// `cached`.
fn fresh(code: &[u8], cached: bool) -> (Cpu, Option<ExecCache>) {
    let mut mem = Memory::new();
    mem.map(BASE, code.to_vec(), false);
    mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
    let cache = cached.then(|| ExecCache::for_entry(&mut mem, BASE).expect("text is cacheable"));
    (Cpu::new(mem, BASE), cache)
}

/// Run to the loop's `break` on the block engine (with a cache) or the
/// stepper; returns the instructions retired.
fn run_to_break(cpu: &mut Cpu, cache: Option<&mut ExecCache>) -> u64 {
    let result = match cache {
        Some(cache) => loop {
            if let Err(e) = cpu.run_cached(u64::MAX, cache) {
                break e;
            }
        },
        None => loop {
            if let Err(e) = cpu.step() {
                break e;
            }
        },
    };
    assert!(matches!(result, CpuError::Break { .. }), "{result}");
    cpu.retired
}

/// Nanoseconds per retired instruction over one batch of `runs` runs.
/// Building each CPU is untimed.
fn batch_ns_per_instr(code: &[u8], cached: bool, runs: usize) -> f64 {
    let mut busy = Duration::ZERO;
    let mut retired = 0;
    for _ in 0..runs {
        let (mut cpu, mut cache) = fresh(code, cached);
        let start = Instant::now();
        retired += black_box(run_to_break(&mut cpu, cache.as_mut()));
        busy += start.elapsed();
    }
    busy.as_nanos() as f64 / retired as f64
}

#[test]
#[ignore = "wall-clock gate: run alone in release (see the module docs)"]
fn block_engine_is_at_least_3x_the_stepper() {
    let code = loop_program();
    let (mut stepper, mut block) = (f64::INFINITY, f64::INFINITY);
    for batch in 0..BATCHES {
        // Alternate which engine runs first, so neither always meets a
        // cold or a warm host.
        for cached in [batch % 2 == 0, batch % 2 == 1] {
            if cached {
                block = block.min(batch_ns_per_instr(&code, true, 40));
            } else {
                stepper = stepper.min(batch_ns_per_instr(&code, false, 4));
            }
        }
    }
    let speedup = stepper / block;
    println!("stepper {stepper:.2} ns/instr, block engine {block:.2} ns/instr: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "block engine is {speedup:.2}x the stepper ({block:.2} vs {stepper:.2} ns per \
         instruction); the gate is 3x"
    );
}

#[test]
#[ignore = "wall-clock gate: run alone in release (see the module docs)"]
fn disabled_counter_costs_at_most_10ns_per_add() {
    const ADDS: u32 = 1 << 20;
    let counter = Telemetry::disabled().counter("perf_gates.counter");
    let mut best = Duration::MAX;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..ADDS {
            black_box(&counter).add(1);
        }
        best = best.min(start.elapsed());
    }
    let ns = best.as_nanos() as f64 / f64::from(ADDS);
    println!("disabled counter: {ns:.3} ns per add");
    assert!(
        ns <= 10.0,
        "a disabled counter costs {ns:.2} ns per add; the gate is 10 ns"
    );
}
