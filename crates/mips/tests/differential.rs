//! Differential proptests: the block-cached engine (`Cpu::run_cached`)
//! against the stepping oracle (`Cpu::run`) in lockstep.
//!
//! Both engines run the same program with the same per-call budget; at
//! every stop (budget exhaustion, syscall yield, fault) the *complete*
//! architectural state must match: register file, pc, hi/lo, pending
//! branch, retired-instruction count, the full memory image, and the
//! syscall trace. Programs come from the same strategies the rest of
//! the suite uses — the botgen stub subset with branches, syscalls and
//! compare chains (the stub's opcode dispatch), plus arbitrary instruction soup (fuzzed `.text`, writable so stores
//! exercise cache invalidation).

use proptest::prelude::*;

use malnet_mips::asm::{Assembler, Ins, Reg, Target};
use malnet_mips::block::ExecCache;
use malnet_mips::cpu::{Cpu, STACK_SIZE, STACK_TOP};
use malnet_mips::mem::Memory;

const BASE: u32 = 0x0040_0000;

fn build(code: Vec<u8>, writable_text: bool) -> (Cpu, ExecCache) {
    let mut mem = Memory::new();
    mem.map(BASE, code, writable_text);
    mem.map_zeroed(0x1000_0000, 4096, true);
    mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
    let cache = ExecCache::for_entry(&mut mem, BASE).expect("text maps at BASE");
    (Cpu::new(mem, BASE), cache)
}

/// One syscall observation: number and the four o32 argument registers.
type SyscallRecord = (u32, u32, u32, u32, u32);

fn record_and_service(cpu: &mut Cpu, k: u32) -> SyscallRecord {
    let rec = (cpu.reg(2), cpu.reg(4), cpu.reg(5), cpu.reg(6), cpu.reg(7));
    // Deterministic embedder: unique return value per yield, $a3 = 0.
    cpu.set_reg(2, 0x0575_0000u32.wrapping_add(k));
    cpu.set_reg(7, 0);
    rec
}

/// Drive both engines with slice-sized budgets and compare complete
/// state at every stop. Returns Err on divergence (prop_assert inside).
fn lockstep(code: Vec<u8>, slice: u64, writable_text: bool) -> Result<(), TestCaseError> {
    let (mut oracle, _unused) = build(code.clone(), writable_text);
    let (mut fast, mut cache) = build(code, writable_text);
    let mut oracle_trace: Vec<SyscallRecord> = Vec::new();
    let mut fast_trace: Vec<SyscallRecord> = Vec::new();
    let mut yields = 0u32;
    for _round in 0..4096 {
        let a = oracle.run(slice);
        let b = fast.run_cached(slice, &mut cache);
        prop_assert_eq!(&a, &b, "outcome diverged at retired={}", oracle.retired);
        prop_assert_eq!(oracle.regs, fast.regs, "registers diverged");
        prop_assert_eq!(oracle.pc, fast.pc, "pc diverged");
        prop_assert_eq!(oracle.hi, fast.hi, "hi diverged");
        prop_assert_eq!(oracle.lo, fast.lo, "lo diverged");
        prop_assert_eq!(oracle.retired, fast.retired, "retired diverged");
        prop_assert_eq!(
            oracle.pending_branch(),
            fast.pending_branch(),
            "pending branch diverged"
        );
        for seg in [BASE, 0x1000_0000] {
            if let Some((b0, len, _)) = oracle.mem.segment_span(seg) {
                prop_assert_eq!(
                    oracle.mem.view(b0, len).unwrap(),
                    fast.mem.view(b0, len).unwrap(),
                    "memory image at {:#x} diverged",
                    b0
                );
            }
        }
        match a {
            Err(_) => break, // identical faults: done
            Ok(Some(_)) => {
                yields += 1;
                oracle_trace.push(record_and_service(&mut oracle, yields));
                fast_trace.push(record_and_service(&mut fast, yields));
            }
            Ok(None) => {}
        }
        if oracle.retired > 60_000 {
            break; // looping program: enough lockstep evidence
        }
    }
    prop_assert_eq!(oracle_trace, fast_trace, "syscall traces diverged");
    Ok(())
}

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

/// Stub-shaped programs: Li pairs, loop counters, branches with nop
/// delay slots, loads/stores, syscall preludes — everything the fusion
/// pass targets, in random interleavings.
fn stub_ins() -> impl Strategy<Value = Ins> {
    let t = || (0u32..96).prop_map(|k| Target::Abs(BASE + k * 4));
    prop_oneof![
        (reg(), any::<u32>()).prop_map(|(a, v)| Ins::Li(a, v)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Move(a, b)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, i)| Ins::Addiu(a, b, i)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Addu(a, b, c)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Xor(a, b, c)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Sltu(a, b, c)),
        (reg(), reg(), 0u8..32).prop_map(|(a, b, s)| Ins::Sll(a, b, s)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Multu(a, b)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Divu(a, b)),
        reg().prop_map(Ins::Mflo),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Lw(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Sw(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Sb(a, b, o)),
        (reg(), reg(), t()).prop_map(|(a, b, t)| Ins::Beq(a, b, t)),
        (reg(), reg(), t()).prop_map(|(a, b, t)| Ins::Bne(a, b, t)),
        (reg(), t()).prop_map(|(a, t)| Ins::Bltz(a, t)),
        t().prop_map(Ins::J),
        t().prop_map(Ins::Jal),
        Just(Ins::Jr(Reg::RA)),
        Just(Ins::Syscall),
        Just(Ins::Nop),
    ]
}

/// A compare chain, the stub's opcode-dispatch shape: `li a, v` then
/// `li t, k; beq a, t, L` groups sharing `(a, t)`. Keys and `v` come
/// from a small range, so hits, misses and duplicate keys all occur;
/// random registers also draw `a == t` and `$zero`, which must not fuse.
fn cmp_chain() -> impl Strategy<Value = Vec<Ins>> {
    let t = (0u32..96).prop_map(|k| Target::Abs(BASE + k * 4));
    let arms = proptest::collection::vec((0u32..6, t), 2..8);
    (reg(), reg(), 0u32..6, arms).prop_map(|(a, t, v, arms)| {
        let mut out = vec![Ins::Li(a, v)];
        for (key, target) in arms {
            out.push(Ins::Li(t, key));
            out.push(Ins::Beq(a, t, target));
        }
        out
    })
}

/// Stub-shaped programs as instruction runs: mostly single instructions,
/// sometimes a whole compare chain.
fn stub_program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Ins>> {
    let single = || stub_ins().prop_map(|i| vec![i]);
    let chunk = prop_oneof![single(), single(), single(), cmp_chain()];
    proptest::collection::vec(chunk, len).prop_map(|runs| runs.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Assembled stub-subset programs (with the idioms fusion targets)
    /// behave identically under both engines at every budget slicing.
    #[test]
    fn block_engine_matches_oracle_on_stub_programs(
        program in stub_program(1..64),
        slice in prop_oneof![1u64..8, Just(100u64), Just(100_000u64)],
    ) {
        let mut a = Assembler::new(BASE);
        for ins in &program {
            a.ins(ins.clone());
        }
        a.ins(Ins::Break);
        let code = a.assemble().unwrap();
        lockstep(code, slice, false)?;
    }

    /// Arbitrary instruction soup over *writable* text: every word
    /// either executes or faults identically, and stores landing in the
    /// executing segment invalidate the cache rather than diverge.
    #[test]
    fn block_engine_matches_oracle_on_fuzzed_writable_text(
        words in proptest::collection::vec(any::<u32>(), 1..96),
        slice in prop_oneof![1u64..8, Just(64u64), Just(100_000u64)],
    ) {
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        lockstep(code, slice, true)?;
    }

    /// Truncated stub programs (cut mid-idiom: a lui with its ori
    /// sliced off, a branch missing its delay slot) still match —
    /// running off the segment end faults identically in both engines.
    #[test]
    fn block_engine_matches_oracle_on_truncated_programs(
        program in stub_program(1..24),
        cut_words in any::<prop::sample::Index>(),
        slice in 1u64..6,
    ) {
        let mut a = Assembler::new(BASE);
        for ins in &program {
            a.ins(ins.clone());
        }
        let mut code = a.assemble().unwrap();
        let words = code.len() / 4;
        let keep = 4 * (1 + cut_words.index(words));
        code.truncate(keep);
        lockstep(code, slice, false)?;
    }
}
