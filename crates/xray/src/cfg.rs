//! `.text` analysis: linear sweep + recursive descent CFG and syscall
//! reachability.
//!
//! Built entirely on `malnet-mips`'s structured decoder
//! ([`malnet_mips::dis::decode`]). Two passes:
//!
//! 1. **Linear sweep** decodes every word and collects basic-block
//!    leaders: the entry point, every branch/jump target, and the word
//!    after each control transfer's delay slot.
//! 2. **Recursive descent** walks the block graph from the entry point.
//!    Within each reachable block a small constant-propagation lattice
//!    tracks `lui`/`ori`/`addiu` materializations, so each `syscall`
//!    site's `$v0` is usually a known constant — that set of reachable
//!    syscall numbers is the triage verdict ("can this binary
//!    `socket`+`connect` at all?").

use std::collections::{BTreeMap, BTreeSet};

use malnet_mips::dis::{decode_all, Flow, Inst};
use malnet_mips::sys;

/// Registers: $v0 carries the syscall number on MIPS o32.
const V0: u8 = 2;

/// The `.text` analysis's verdict, embedded in the static report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextAnalysis {
    /// Distinct syscall numbers reachable from entry with a constant
    /// `$v0`, ascending.
    pub syscalls: Vec<u32>,
}

impl TextAnalysis {
    /// Can this binary open a socket *and* reach out (connect or
    /// sendto) — the static "is it networked malware at all" bit.
    pub fn net_capable(&self) -> bool {
        let has = |nr: u32| self.syscalls.binary_search(&nr).is_ok();
        has(sys::NR_SOCKET) && (has(sys::NR_CONNECT) || has(sys::NR_SENDTO))
    }
}

/// Analyze an executable segment's bytes loaded at `base`, with the
/// ELF entry point `entry`. Total on arbitrary bytes.
pub fn analyze_text(code: &[u8], base: u32, entry: u32) -> TextAnalysis {
    let insts: Vec<Inst> = decode_all(code, base);
    let n = insts.len();
    let end = base.wrapping_add(4 * n as u32);
    let in_range = |a: u32| a >= base && a < end && a.is_multiple_of(4);
    if n == 0 {
        return TextAnalysis::default();
    }

    // --- pass 1: leaders ---
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    leaders.insert(if in_range(entry) { entry } else { base });
    for i in &insts {
        match i.flow {
            Flow::Branch(t) | Flow::Jump(t) | Flow::Call(t) => {
                if in_range(t) {
                    leaders.insert(t);
                }
                let after = i.pc.wrapping_add(8); // skip the delay slot
                if in_range(after) {
                    leaders.insert(after);
                }
            }
            Flow::JumpReg | Flow::CallReg | Flow::Break => {
                let after = i.pc.wrapping_add(8);
                if in_range(after) {
                    leaders.insert(after);
                }
            }
            Flow::Syscall | Flow::Normal => {}
        }
    }
    leaders.insert(base);

    // --- block table: leader → (start index, len) ---
    let starts: Vec<u32> = leaders.iter().copied().collect();
    let mut blocks: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for (k, &s) in starts.iter().enumerate() {
        let limit = starts.get(k + 1).copied().unwrap_or(end);
        let idx = ((s - base) / 4) as usize;
        let len = ((limit - s) / 4) as usize;
        if len > 0 {
            blocks.insert(s, (idx, len));
        }
    }

    // --- successors per block ---
    let succs_of = |start: u32| -> Vec<u32> {
        let &(idx, len) = blocks.get(&start).expect("known block");
        let block_end = start + 4 * len as u32;
        // With leaders at `transfer + 8`, any control transfer sits at
        // the block's last or second-to-last slot (delay slot after it).
        for i in insts[idx..idx + len].iter().rev().take(2) {
            match i.flow {
                Flow::Branch(t) => {
                    let mut s = vec![];
                    if in_range(t) {
                        s.push(t);
                    }
                    if in_range(block_end) {
                        s.push(block_end);
                    }
                    return s;
                }
                Flow::Jump(t) => return if in_range(t) { vec![t] } else { vec![] },
                Flow::Call(t) => {
                    // Conservative: descend into the callee and across
                    // the conventional return point.
                    let mut s = vec![];
                    if in_range(t) {
                        s.push(t);
                    }
                    if in_range(block_end) {
                        s.push(block_end);
                    }
                    return s;
                }
                Flow::JumpReg | Flow::Break => return vec![],
                Flow::CallReg => {
                    return if in_range(block_end) {
                        vec![block_end]
                    } else {
                        vec![]
                    }
                }
                Flow::Syscall | Flow::Normal => {}
            }
        }
        if in_range(block_end) {
            vec![block_end]
        } else {
            vec![]
        }
    };

    // --- pass 2: recursive descent from entry ---
    let entry_block = if in_range(entry) && blocks.contains_key(&entry) {
        entry
    } else {
        base
    };
    let mut reachable: BTreeSet<u32> = BTreeSet::new();
    let mut work = vec![entry_block];
    while let Some(b) = work.pop() {
        if !blocks.contains_key(&b) || !reachable.insert(b) {
            continue;
        }
        for s in succs_of(b) {
            // Snap successors that land mid-block to their block start.
            let snapped = blocks.range(..=s).next_back().map(|(k, _)| *k).unwrap_or(s);
            work.push(snapped);
        }
    }

    // --- per-block constant propagation over reachable blocks ---
    let mut syscalls: BTreeSet<u32> = BTreeSet::new();
    for &b in &reachable {
        let &(idx, len) = blocks.get(&b).expect("reachable block exists");
        let mut regs: [Option<u32>; 32] = [None; 32];
        regs[0] = Some(0);
        for i in &insts[idx..idx + len] {
            step_const(i, &mut regs);
            if i.flow == Flow::Syscall {
                if let Some(nr) = regs[V0 as usize] {
                    syscalls.insert(nr);
                }
            }
        }
    }
    TextAnalysis {
        syscalls: syscalls.into_iter().collect(),
    }
}

/// One step of the block-local constant lattice: track everything the
/// stub's codegen can materialize (`lui`/`ori` pairs, `addiu`, moves,
/// simple ALU on known values); anything loaded from memory or derived
/// from an unknown goes back to ⊥.
fn step_const(i: &Inst, regs: &mut [Option<u32>; 32]) {
    if !i.known {
        return;
    }
    let (rs, rt, rd) = (i.rs() as usize, i.rt() as usize, i.rd() as usize);
    let set = |regs: &mut [Option<u32>; 32], r: usize, v: Option<u32>| {
        if r != 0 {
            regs[r] = v;
        }
    };
    match i.op() {
        0 => {
            let (a, b) = (regs[rs], regs[rt]);
            let bin = |f: fn(u32, u32) -> u32| a.zip(b).map(|(x, y)| f(x, y));
            match i.funct() {
                0x00 => set(regs, rd, regs[rt].map(|v| v << (i.shamt() & 31))),
                0x02 => set(regs, rd, regs[rt].map(|v| v >> (i.shamt() & 31))),
                0x04 => set(regs, rd, b.zip(a).map(|(v, s)| v << (s & 31))),
                0x06 => set(regs, rd, b.zip(a).map(|(v, s)| v >> (s & 31))),
                0x21 => set(regs, rd, bin(u32::wrapping_add)),
                0x23 => set(regs, rd, bin(u32::wrapping_sub)),
                0x24 => set(regs, rd, bin(|x, y| x & y)),
                0x25 => set(regs, rd, bin(|x, y| x | y)),
                0x26 => set(regs, rd, bin(|x, y| x ^ y)),
                0x27 => set(regs, rd, bin(|x, y| !(x | y))),
                0x2a => set(regs, rd, bin(|x, y| ((x as i32) < (y as i32)) as u32)),
                0x2b => set(regs, rd, bin(|x, y| (x < y) as u32)),
                // hi/lo, jalr link register, and everything else: unknown.
                0x10 | 0x12 => set(regs, rd, None),
                0x09 => set(regs, rd, None),
                _ => {}
            }
        }
        0x0f => set(regs, rt, Some(u32::from(i.imm()) << 16)),
        0x0d => set(regs, rt, regs[rs].map(|v| v | u32::from(i.imm()))),
        0x08 | 0x09 => set(
            regs,
            rt,
            regs[rs].map(|v| v.wrapping_add(i.simm() as i32 as u32)),
        ),
        0x0a => set(
            regs,
            rt,
            regs[rs].map(|v| ((v as i32) < i32::from(i.simm())) as u32),
        ),
        0x0b => set(
            regs,
            rt,
            regs[rs].map(|v| (v < i.simm() as i32 as u32) as u32),
        ),
        0x0c => set(regs, rt, regs[rs].map(|v| v & u32::from(i.imm()))),
        0x0e => set(regs, rt, regs[rs].map(|v| v ^ u32::from(i.imm()))),
        // Loads: destination becomes unknown.
        0x20 | 0x21 | 0x23 | 0x24 | 0x25 => set(regs, rt, None),
        0x03 => regs[31] = None, // jal clobbers $ra
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_mips::asm::{Assembler, Ins, Reg};

    fn asm(f: impl FnOnce(&mut Assembler)) -> Vec<u8> {
        let mut a = Assembler::new(0x0040_0000);
        f(&mut a);
        a.assemble().unwrap()
    }

    #[test]
    fn straight_line_syscall_resolves_v0() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::V0, sys::NR_SOCKET))
                .ins(Ins::Syscall)
                .ins(Ins::Li(Reg::V0, sys::NR_CONNECT))
                .ins(Ins::Syscall)
                .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
                .ins(Ins::Syscall);
        });
        let t = analyze_text(&code, 0x0040_0000, 0x0040_0000);
        assert_eq!(
            t.syscalls,
            vec![sys::NR_EXIT, sys::NR_SOCKET, sys::NR_CONNECT]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        assert!(t.net_capable());
    }

    #[test]
    fn unreachable_code_is_not_counted_as_reachable() {
        let code = asm(|a| {
            a.ins(Ins::J("end".into()))
                // dead: a sendto syscall that never runs
                .ins(Ins::Li(Reg::V0, sys::NR_SENDTO))
                .ins(Ins::Syscall)
                .label("end")
                .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
                .ins(Ins::Syscall);
        });
        let t = analyze_text(&code, 0x0040_0000, 0x0040_0000);
        assert!(t.syscalls.contains(&sys::NR_EXIT));
        assert!(!t.syscalls.contains(&sys::NR_SENDTO));
    }

    #[test]
    fn branches_make_both_arms_reachable() {
        let code = asm(|a| {
            a.ins(Ins::Bne(Reg::A0, Reg::ZERO, "alt".into()))
                .ins(Ins::Li(Reg::V0, sys::NR_SEND))
                .ins(Ins::Syscall)
                .ins(Ins::J("out".into()))
                .label("alt")
                .ins(Ins::Li(Reg::V0, sys::NR_RECV))
                .ins(Ins::Syscall)
                .label("out")
                .ins(Ins::Li(Reg::V0, sys::NR_EXIT))
                .ins(Ins::Syscall);
        });
        let t = analyze_text(&code, 0x0040_0000, 0x0040_0000);
        assert!(t.syscalls.contains(&sys::NR_SEND));
        assert!(t.syscalls.contains(&sys::NR_RECV));
    }

    #[test]
    fn arbitrary_bytes_are_total() {
        let junk: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let _ = analyze_text(&junk, 0x0040_0000, 0x0040_0000);
        let _ = analyze_text(&[], 0x0040_0000, 0);
        let _ = analyze_text(&[1, 2, 3], 0, u32::MAX);
    }
}
