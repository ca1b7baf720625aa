//! Block-cached execution engine: predecode `.text` once, then dispatch
//! over a flat vector of decoded ops instead of fetch→shift→match per
//! instruction.
//!
//! ## Architecture
//!
//! [`ExecCache`] lowers every word of the segment containing the entry
//! point through the shared linear sweep ([`crate::dis::decode_all`] —
//! the same decoder `malnet-xray` builds its CFG on) into an [`Op`]:
//! registers and immediates pre-extracted, branch targets pre-resolved
//! to absolute addresses, sign-extension done once. `Cpu::run_cached`
//! then executes from the cache with a direct-indexed lookup
//! (`(pc - base) >> 2`), no per-instruction fetch or decode.
//!
//! A fusion pass rewrites the hot botgen stub idioms into
//! superinstructions:
//!
//! * `lui rt, hi; ori rt, rt, lo` → [`Op::LiPair`] (every `Ins::Li`);
//! * `lui; ori; syscall` → [`Op::LiSyscall`] (the syscall prelude);
//! * `addiu rt, rt, i; bne; nop` → [`Op::CountBne`] (loop counters);
//! * `addiu; addu; xor; bne; nop` → [`Op::AddAddXorBne`] (the stub's
//!   mix busy-loop body, which also iterates in place on self-loops);
//! * any two adjacent pure-ALU ops → [`Op::Alu2`], with the dominant
//!   `addiu; addu` pair specialized as [`Op::AddiuAddu`];
//! * a pure-ALU op feeding `bne; nop` → [`Op::AluBne`], with the
//!   `xor` head specialized as [`Op::XorBne`];
//! * branches and jumps carry a `nop` flag when their delay slot is a
//!   `nop` (the assembler always emits one), letting a taken branch
//!   retire branch+slot in one dispatch and jump directly;
//! * a run of two or more `lui t, hi; ori t, t, lo; beq a, t, L; nop`
//!   groups sharing `(a, t)` → one [`Op::CmpChain`] per group head (the
//!   stub's 38-arm opcode dispatch). It scans the chain's key table —
//!   kept beside `ops` and rebuilt with it — for the first key equal to
//!   `a` and retires every group it passes in one dispatch. Each group
//!   head past the first sits on the fall-through leader after the
//!   previous group's `beq` delay slot, so the heads stay aligned with
//!   the block structure, and a branch into the middle of a chain
//!   lands on its own `CmpChain` and still scans only the rest.
//!
//! Fusion never spans a basic-block leader (a static branch target or
//! a post-branch fall-through point), so hot back-edges always land on
//! a fused head rather than the middle of a pair. Specialized variants
//! exist because on modest cores each dispatch — the indirect branch
//! plus the op load — costs as much as the ALU work it guards; concrete
//! per-kind code keeps the op count per dispatch high without adding an
//! inner kind-dispatch (which profiling showed costs as much as the
//! outer one).
//!
//! Fusion is always safe because only the *head* word's op is replaced:
//! the component words keep their plain ops, so a branch into the middle
//! of a fused sequence executes exactly the legacy instruction stream.
//! A fused op that does not fit the remaining budget degrades to its
//! first component.
//!
//! ## Oracle fallback
//!
//! `Cpu::step` remains the semantic oracle. Anything irregular leaves
//! the fast path and single-steps through it instead: a pending branch
//! at entry (mid delay slot), a PC outside or misaligned within the
//! cached segment, or a control transfer whose delay slot is not a
//! `nop`. Equivalence is therefore by construction — the fast path only
//! handles shapes it replicates bit-for-bit (same register file, memory
//! image, retired count, faults and fault PCs), which the differential
//! proptests pin down.
//!
//! ## Invalidation
//!
//! The cache registers its span as the [`Memory`] code-watch range;
//! every successful store overlapping it bumps `Memory::code_version`.
//! The engine compares versions when (re)entering the fast path and
//! after every store op, rebuilding the cache on mismatch — so
//! self-modifying code (guest stores *or* sandbox syscalls writing into
//! `.text`) always executes the freshly decoded bytes.

use crate::cpu::{Cpu, CpuError, StepOutcome};
use crate::dis::{decode_all, Flow, Inst};
use crate::mem::Memory;

/// A predecoded instruction: fields extracted, immediates extended,
/// branch targets absolute. Variants past `Illegal` are superinstructions
/// produced by the fusion pass. Field meanings follow the MIPS operand
/// names given in each variant's doc line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Op {
    /// `sll rd, rt, sh`
    Sll { rd: u8, rt: u8, sh: u8 },
    /// `srl rd, rt, sh`
    Srl { rd: u8, rt: u8, sh: u8 },
    /// `sra rd, rt, sh`
    Sra { rd: u8, rt: u8, sh: u8 },
    /// `sllv rd, rt, rs`
    Sllv { rd: u8, rt: u8, rs: u8 },
    /// `srlv rd, rt, rs`
    Srlv { rd: u8, rt: u8, rs: u8 },
    /// `jr rs`; `nop` set when the delay slot is a `nop`
    Jr { rs: u8, nop: bool },
    /// `jalr rd, rs`
    Jalr { rd: u8, rs: u8, nop: bool },
    /// `syscall`
    Syscall,
    /// `break`
    Break,
    /// `mfhi rd`
    Mfhi { rd: u8 },
    /// `mflo rd`
    Mflo { rd: u8 },
    /// `mult rs, rt`
    Mult { rs: u8, rt: u8 },
    /// `multu rs, rt`
    Multu { rs: u8, rt: u8 },
    /// `div rs, rt`
    Div { rs: u8, rt: u8 },
    /// `divu rs, rt`
    Divu { rs: u8, rt: u8 },
    /// `addu rd, rs, rt`
    Addu { rd: u8, rs: u8, rt: u8 },
    /// `subu rd, rs, rt`
    Subu { rd: u8, rs: u8, rt: u8 },
    /// `and rd, rs, rt`
    And { rd: u8, rs: u8, rt: u8 },
    /// `or rd, rs, rt`
    Or { rd: u8, rs: u8, rt: u8 },
    /// `xor rd, rs, rt`
    Xor { rd: u8, rs: u8, rt: u8 },
    /// `nor rd, rs, rt`
    Nor { rd: u8, rs: u8, rt: u8 },
    /// `slt rd, rs, rt`
    Slt { rd: u8, rs: u8, rt: u8 },
    /// `sltu rd, rs, rt`
    Sltu { rd: u8, rs: u8, rt: u8 },
    /// `bltz rs, target` (absolute)
    Bltz { rs: u8, target: u32, nop: bool },
    /// `bgez rs, target`
    Bgez { rs: u8, target: u32, nop: bool },
    /// `j target`
    J { target: u32, nop: bool },
    /// `jal target`
    Jal { target: u32, nop: bool },
    /// `beq rs, rt, target`
    Beq {
        rs: u8,
        rt: u8,
        target: u32,
        nop: bool,
    },
    /// `bne rs, rt, target`
    Bne {
        rs: u8,
        rt: u8,
        target: u32,
        nop: bool,
    },
    /// `blez rs, target`
    Blez { rs: u8, target: u32, nop: bool },
    /// `bgtz rs, target`
    Bgtz { rs: u8, target: u32, nop: bool },
    /// `addiu rt, rs, imm` (imm pre-sign-extended)
    Addiu { rt: u8, rs: u8, imm: u32 },
    /// `slti rt, rs, imm`
    Slti { rt: u8, rs: u8, imm: i32 },
    /// `sltiu rt, rs, imm` (imm sign-extended then compared unsigned)
    Sltiu { rt: u8, rs: u8, imm: u32 },
    /// `andi rt, rs, imm` (zero-extended)
    Andi { rt: u8, rs: u8, imm: u32 },
    /// `ori rt, rs, imm`
    Ori { rt: u8, rs: u8, imm: u32 },
    /// `xori rt, rs, imm`
    Xori { rt: u8, rs: u8, imm: u32 },
    /// `lui rt, imm` (`val` pre-shifted: `imm << 16`)
    Lui { rt: u8, val: u32 },
    /// `lb rt, off(rs)` (off pre-sign-extended)
    Lb { rt: u8, rs: u8, off: u32 },
    /// `lh rt, off(rs)`
    Lh { rt: u8, rs: u8, off: u32 },
    /// `lw rt, off(rs)`
    Lw { rt: u8, rs: u8, off: u32 },
    /// `lbu rt, off(rs)`
    Lbu { rt: u8, rs: u8, off: u32 },
    /// `lhu rt, off(rs)`
    Lhu { rt: u8, rs: u8, off: u32 },
    /// `sb rt, off(rs)`
    Sb { rt: u8, rs: u8, off: u32 },
    /// `sh rt, off(rs)`
    Sh { rt: u8, rs: u8, off: u32 },
    /// `sw rt, off(rs)`
    Sw { rt: u8, rs: u8, off: u32 },
    /// Word the CPU would fault on (`IllegalInstruction`).
    Illegal { word: u32 },
    /// Superinstruction: `lui rt, hi16; ori rt, rt, lo16`. `hi` is the
    /// lui result (for budget-limited partial execution), `val` the
    /// final constant. Retires 2.
    LiPair { rt: u8, hi: u32, val: u32 },
    /// Superinstruction: `lui; ori; syscall` — the stub's syscall
    /// prelude. Retires 3 and yields to the embedder.
    LiSyscall { rt: u8, hi: u32, val: u32 },
    /// Superinstruction: `addiu rt, rt, imm; bne rs, rt2, target; nop` —
    /// the loop-counter idiom. Retires 3.
    CountBne {
        rt: u8,
        imm: u32,
        rs: u8,
        rt2: u8,
        target: u32,
    },
    /// Superinstruction: two adjacent pure-ALU instructions in one
    /// dispatch. Retires 2; degrades to `a` alone when the budget
    /// covers only one instruction.
    Alu2 { a: Alu, b: Alu },
    /// Superinstruction: a pure-ALU instruction, then
    /// `bne rs, rt, target` with a `nop` delay slot (the generalized
    /// loop back-edge). Retires 3; degrades to `a` alone on a short
    /// budget.
    AluBne { a: Alu, rs: u8, rt: u8, target: u32 },
    /// [`Op::Alu2`] specialized for the dominant stub idiom
    /// `addiu d1, s1, imm; addu d2, s2, t2` (induction step plus a
    /// dependent arithmetic op): straight-line code, no per-component
    /// kind dispatch. Retires 2.
    AddiuAddu {
        d1: u8,
        s1: u8,
        imm: u32,
        d2: u8,
        s2: u8,
        t2: u8,
    },
    /// [`Op::AluBne`] specialized for `xor d, s, t; bne rs, rt, target;
    /// nop` — the stub's compare-and-loop back-edge. Retires 3.
    XorBne {
        d: u8,
        s: u8,
        t: u8,
        rs: u8,
        rt: u8,
        target: u32,
    },
    /// The whole stub mix busy-loop body in one dispatch:
    /// `addiu d1, s1, imm; addu d2, s2, t2; xor d3, s3, t3;
    /// bne rs, rt, target; nop`. Retires 5 per trip, and when the bne
    /// targets its own head (a self-loop) it keeps iterating without
    /// re-dispatching until the branch falls through or the budget runs
    /// out. Degrades to the addiu alone on a short budget.
    #[allow(clippy::missing_docs_in_private_items)]
    AddAddXorBne {
        d1: u8,
        s1: u8,
        imm: u32,
        d2: u8,
        s2: u8,
        t2: u8,
        d3: u8,
        s3: u8,
        t3: u8,
        rs: u8,
        rt: u8,
        target: u32,
    },
    /// Superinstruction: group `k` of a compare chain, a run of
    /// `lui t, hi; ori t, t, lo; beq a, t, target; nop` groups that
    /// share `(a, t)` (the stub's opcode dispatch). `chain` indexes the
    /// cache's key/target table. Finds the first group `k' >= k` whose
    /// key equals `a`: retires `4 * (k' - k + 1)`, leaves `t` = that key
    /// and jumps to its target. A miss retires the rest of the chain,
    /// leaves `t` = the last key and falls through past the chain.
    /// Degrades to group `k`'s [`Op::LiPair`] on a short budget.
    CmpChain { a: u8, t: u8, chain: u32, k: u32 },
    /// Sentinel one past the segment's last word: leave the fast path
    /// (the oracle faults or continues in another segment).
    Leave,
}

/// One group of a compare chain: the constant the `lui; ori` pair
/// builds and the absolute target of the `beq` that tests it.
#[derive(Debug, Clone, Copy)]
struct CmpArm {
    key: u32,
    target: u32,
}

/// Operation selector for a fused pure-ALU component ([`Alu`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluK {
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
}

/// One pure-ALU component of a fused sequence: reads `s`/`t`, writes
/// `d`, cannot fault, touch memory, hi/lo, or control flow. `imm`
/// doubles as the shift amount for `Sll`/`Srl`/`Sra` and carries the
/// pre-shifted constant for `Lui`; it is pre-sign- or zero-extended
/// exactly as [`lower`] does for the plain op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Alu {
    pub k: AluK,
    pub d: u8,
    pub s: u8,
    pub t: u8,
    pub imm: u32,
}

/// Execute one fused ALU component against the register file.
#[inline(always)]
fn alu_eval(regs: &mut [u32; 32], op: Alu) {
    let s = regs[(op.s & 31) as usize];
    let t = regs[(op.t & 31) as usize];
    let v = match op.k {
        AluK::Addu => s.wrapping_add(t),
        AluK::Subu => s.wrapping_sub(t),
        AluK::And => s & t,
        AluK::Or => s | t,
        AluK::Xor => s ^ t,
        AluK::Nor => !(s | t),
        AluK::Slt => ((s as i32) < (t as i32)) as u32,
        AluK::Sltu => (s < t) as u32,
        AluK::Sll => t << (op.imm & 31),
        AluK::Srl => t >> (op.imm & 31),
        AluK::Sra => ((t as i32) >> (op.imm & 31)) as u32,
        AluK::Sllv => t << (s & 31),
        AluK::Srlv => t >> (s & 31),
        AluK::Addiu => s.wrapping_add(op.imm),
        AluK::Slti => ((s as i32) < (op.imm as i32)) as u32,
        AluK::Sltiu => (s < op.imm) as u32,
        AluK::Andi => s & op.imm,
        AluK::Ori => s | op.imm,
        AluK::Xori => s ^ op.imm,
        AluK::Lui => op.imm,
    };
    regs[(op.d & 31) as usize] = v;
    // Branchless $zero sink, as in the main loop's `wr!`.
    regs[0] = 0;
}

/// The pure-ALU subset eligible for fusion, as an [`Alu`] component.
fn as_alu(op: Op) -> Option<Alu> {
    let (k, d, s, t, imm) = match op {
        Op::Addu { rd, rs, rt } => (AluK::Addu, rd, rs, rt, 0),
        Op::Subu { rd, rs, rt } => (AluK::Subu, rd, rs, rt, 0),
        Op::And { rd, rs, rt } => (AluK::And, rd, rs, rt, 0),
        Op::Or { rd, rs, rt } => (AluK::Or, rd, rs, rt, 0),
        Op::Xor { rd, rs, rt } => (AluK::Xor, rd, rs, rt, 0),
        Op::Nor { rd, rs, rt } => (AluK::Nor, rd, rs, rt, 0),
        Op::Slt { rd, rs, rt } => (AluK::Slt, rd, rs, rt, 0),
        Op::Sltu { rd, rs, rt } => (AluK::Sltu, rd, rs, rt, 0),
        Op::Sll { rd, rt, sh } => (AluK::Sll, rd, 0, rt, u32::from(sh)),
        Op::Srl { rd, rt, sh } => (AluK::Srl, rd, 0, rt, u32::from(sh)),
        Op::Sra { rd, rt, sh } => (AluK::Sra, rd, 0, rt, u32::from(sh)),
        Op::Sllv { rd, rt, rs } => (AluK::Sllv, rd, rs, rt, 0),
        Op::Srlv { rd, rt, rs } => (AluK::Srlv, rd, rs, rt, 0),
        Op::Addiu { rt, rs, imm } => (AluK::Addiu, rt, rs, 0, imm),
        Op::Slti { rt, rs, imm } => (AluK::Slti, rt, rs, 0, imm as u32),
        Op::Sltiu { rt, rs, imm } => (AluK::Sltiu, rt, rs, 0, imm),
        Op::Andi { rt, rs, imm } => (AluK::Andi, rt, rs, 0, imm),
        Op::Ori { rt, rs, imm } => (AluK::Ori, rt, rs, 0, imm),
        Op::Xori { rt, rs, imm } => (AluK::Xori, rt, rs, 0, imm),
        Op::Lui { rt, val } => (AluK::Lui, rt, 0, 0, val),
        _ => return None,
    };
    Some(Alu { k, d, s, t, imm })
}

/// A predecoded view of the executable segment, invalidated by
/// `Memory::code_version` whenever anything stores into it.
#[derive(Debug, Clone)]
pub struct ExecCache {
    base: u32,
    end: u32,
    /// One op per text word, plus the trailing [`Op::Leave`] sentinel.
    ops: Vec<Op>,
    /// Key/target table of every [`Op::CmpChain`], indexed by its
    /// `chain` field; rebuilt with `ops`.
    chains: Vec<Vec<CmpArm>>,
    /// `Memory::code_version` the ops were decoded at.
    version: u64,
}

impl ExecCache {
    /// Predecode the segment containing `entry` and register it as the
    /// memory's code-watch range. `None` when `entry` is unmapped or the
    /// segment's base is not word-aligned (the oracle path still runs
    /// such programs; they just get no fast path).
    pub fn for_entry(mem: &mut Memory, entry: u32) -> Option<ExecCache> {
        let (base, len, _) = mem.segment_span(entry)?;
        if base % 4 != 0 {
            return None;
        }
        let end = base.wrapping_add(len & !3);
        mem.watch_code(base, end);
        let mut cache = ExecCache {
            base,
            end,
            ops: Vec::new(),
            chains: Vec::new(),
            version: mem.code_version(),
        };
        cache.decode_from(mem);
        Some(cache)
    }

    /// Re-decode from (possibly modified) memory and pick up its current
    /// code version.
    pub fn rebuild(&mut self, mem: &Memory) {
        self.decode_from(mem);
        self.version = mem.code_version();
    }

    /// Is `pc` a word inside the cached segment?
    #[inline]
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.base && pc < self.end && pc & 3 == 0
    }

    /// First address covered by the cache.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the last covered address.
    pub fn end(&self) -> u32 {
        self.end
    }

    fn decode_from(&mut self, mem: &Memory) {
        let code = mem
            .view(self.base, self.end - self.base)
            .expect("cached span stays mapped for the process lifetime");
        let insts = decode_all(code, self.base);
        let n = insts.len();
        self.ops.clear();
        self.ops.reserve(n + 1);
        for (i, inst) in insts.iter().enumerate() {
            let nop = i + 1 < n && insts[i + 1].word == 0;
            self.ops.push(lower(inst, nop));
        }
        self.chains.clear();
        fuse(&mut self.ops, self.base, &mut self.chains);
        self.ops.push(Op::Leave);
    }
}

/// Lower one decoded instruction to an [`Op`], replicating exactly the
/// legal/illegal split of `Cpu::step`. `nop` is true when the following
/// word is `nop` (only meaningful for control transfers).
fn lower(inst: &Inst, nop: bool) -> Op {
    let word = inst.word;
    let (rs, rt, rd, sh) = (inst.rs(), inst.rt(), inst.rd(), inst.shamt());
    let zx = u32::from(inst.imm());
    let sx = inst.simm() as i32 as u32;
    let target = match inst.flow {
        Flow::Branch(t) | Flow::Jump(t) | Flow::Call(t) => t,
        _ => 0,
    };
    match inst.op() {
        0 => match inst.funct() {
            0x00 => Op::Sll { rd, rt, sh },
            0x02 => Op::Srl { rd, rt, sh },
            0x03 => Op::Sra { rd, rt, sh },
            0x04 => Op::Sllv { rd, rt, rs },
            0x06 => Op::Srlv { rd, rt, rs },
            0x08 => Op::Jr { rs, nop },
            0x09 => Op::Jalr { rd, rs, nop },
            0x0c => Op::Syscall,
            0x0d => Op::Break,
            0x10 => Op::Mfhi { rd },
            0x12 => Op::Mflo { rd },
            0x18 => Op::Mult { rs, rt },
            0x19 => Op::Multu { rs, rt },
            0x1a => Op::Div { rs, rt },
            0x1b => Op::Divu { rs, rt },
            0x21 => Op::Addu { rd, rs, rt },
            0x23 => Op::Subu { rd, rs, rt },
            0x24 => Op::And { rd, rs, rt },
            0x25 => Op::Or { rd, rs, rt },
            0x26 => Op::Xor { rd, rs, rt },
            0x27 => Op::Nor { rd, rs, rt },
            0x2a => Op::Slt { rd, rs, rt },
            0x2b => Op::Sltu { rd, rs, rt },
            _ => Op::Illegal { word },
        },
        0x01 => match rt {
            0 => Op::Bltz { rs, target, nop },
            1 => Op::Bgez { rs, target, nop },
            _ => Op::Illegal { word },
        },
        0x02 => Op::J { target, nop },
        0x03 => Op::Jal { target, nop },
        0x04 => Op::Beq {
            rs,
            rt,
            target,
            nop,
        },
        0x05 => Op::Bne {
            rs,
            rt,
            target,
            nop,
        },
        0x06 => Op::Blez { rs, target, nop },
        0x07 => Op::Bgtz { rs, target, nop },
        0x08 | 0x09 => Op::Addiu { rt, rs, imm: sx },
        0x0a => Op::Slti {
            rt,
            rs,
            imm: sx as i32,
        },
        0x0b => Op::Sltiu { rt, rs, imm: sx },
        0x0c => Op::Andi { rt, rs, imm: zx },
        0x0d => Op::Ori { rt, rs, imm: zx },
        0x0e => Op::Xori { rt, rs, imm: zx },
        0x0f => Op::Lui { rt, val: zx << 16 },
        0x20 => Op::Lb { rt, rs, off: sx },
        0x21 => Op::Lh { rt, rs, off: sx },
        0x23 => Op::Lw { rt, rs, off: sx },
        0x24 => Op::Lbu { rt, rs, off: sx },
        0x25 => Op::Lhu { rt, rs, off: sx },
        0x28 => Op::Sb { rt, rs, off: sx },
        0x29 => Op::Sh { rt, rs, off: sx },
        0x2b => Op::Sw { rt, rs, off: sx },
        _ => Op::Illegal { word },
    }
}

/// Rewrite head words of recognized idioms into superinstructions. The
/// component words at `i+1..` keep their plain ops, so control entering
/// mid-sequence still sees the legacy instruction stream.
///
/// Fused sequences never span a basic-block *leader* (a statically
/// known branch target, or the fall-through resumption point past a
/// control transfer's delay slot): entering mid-pair is always correct
/// (the component op is plain), but a hot loop whose head got consumed
/// as the tail of the preceding block's pair would run unfused forever.
/// Aligning fusion to leaders keeps back-edges landing on fused heads.
///
/// Compare chains are fused first, so no pair can claim a chain's `lui`.
fn fuse(ops: &mut [Op], base: u32, chains: &mut Vec<Vec<CmpArm>>) {
    let n = ops.len();
    let mut leader = vec![false; n];
    for i in 0..n {
        let target = match ops[i] {
            Op::Beq { target, .. }
            | Op::Bne { target, .. }
            | Op::Blez { target, .. }
            | Op::Bgtz { target, .. }
            | Op::Bltz { target, .. }
            | Op::Bgez { target, .. }
            | Op::J { target, .. }
            | Op::Jal { target, .. } => Some(target),
            // Jr/Jalr targets are runtime values; entering a pair's
            // component word stays correct, just undispatched as a pair.
            _ => None,
        };
        if let Some(t) = target {
            if t >= base && t & 3 == 0 {
                let k = ((t - base) >> 2) as usize;
                if k < n {
                    leader[k] = true;
                }
            }
            if i + 2 < n {
                leader[i + 2] = true;
            }
        }
    }
    fuse_cmp_chains(ops, &leader, chains);
    let mut i = 0;
    while i + 1 < n {
        if let Op::CmpChain { .. } = ops[i] {
            // Every group head of a chain is already fused.
            i += 4;
            continue;
        }
        if leader[i + 1] {
            // Nothing two-wide can start here without spanning a block
            // boundary.
            i += 1;
            continue;
        }
        match (ops[i], ops[i + 1]) {
            (
                Op::Lui { rt, val },
                Op::Ori {
                    rt: ort,
                    rs: ors,
                    imm,
                },
            ) if ort == rt && ors == rt => {
                let full = val | imm;
                if i + 2 < n && !leader[i + 2] && ops[i + 2] == Op::Syscall {
                    ops[i] = Op::LiSyscall {
                        rt,
                        hi: val,
                        val: full,
                    };
                    i += 3;
                } else {
                    ops[i] = Op::LiPair {
                        rt,
                        hi: val,
                        val: full,
                    };
                    i += 2;
                }
            }
            (
                Op::Addiu { rt, rs, imm },
                Op::Bne {
                    rs: brs,
                    rt: brt,
                    target,
                    nop: true,
                },
            ) if rs == rt && !leader[i + 2] => {
                // `nop: true` implies the word at i+2 exists and is nop.
                ops[i] = Op::CountBne {
                    rt,
                    imm,
                    rs: brs,
                    rt2: brt,
                    target,
                };
                i += 3;
            }
            _ => {
                // The stub's mix busy-loop body — induction, accumulate,
                // mix, back-edge — fuses whole when no branch lands
                // inside it (`nop: true` on the bne implies the delay
                // slot at i+4 exists).
                if i + 4 < n && !leader[i + 2] && !leader[i + 3] && !leader[i + 4] {
                    if let (Some(a), Some(b), Some(c)) =
                        (as_alu(ops[i]), as_alu(ops[i + 1]), as_alu(ops[i + 2]))
                    {
                        if let Op::Bne {
                            rs,
                            rt,
                            target,
                            nop: true,
                        } = ops[i + 3]
                        {
                            if a.k == AluK::Addiu && b.k == AluK::Addu && c.k == AluK::Xor {
                                ops[i] = Op::AddAddXorBne {
                                    d1: a.d,
                                    s1: a.s,
                                    imm: a.imm,
                                    d2: b.d,
                                    s2: b.s,
                                    t2: b.t,
                                    d3: c.d,
                                    s3: c.s,
                                    t3: c.t,
                                    rs,
                                    rt,
                                    target,
                                };
                                i += 5;
                                continue;
                            }
                        }
                    }
                }
                // Generalized back-edge: any pure-ALU op feeding a bne
                // with a nop delay slot (`nop: true` implies the word at
                // i+2 exists and is the nop).
                if let Op::Bne {
                    rs,
                    rt,
                    target,
                    nop: true,
                } = ops[i + 1]
                {
                    // `nop: true` implies the word at i+2 exists.
                    if !leader[i + 2] {
                        if let Some(a) = as_alu(ops[i]) {
                            // Dispatch-free variant for the hot kind.
                            ops[i] = if a.k == AluK::Xor {
                                Op::XorBne {
                                    d: a.d,
                                    s: a.s,
                                    t: a.t,
                                    rs,
                                    rt,
                                    target,
                                }
                            } else {
                                Op::AluBne { a, rs, rt, target }
                            };
                            i += 3;
                            continue;
                        }
                    }
                }
                // Any two adjacent pure-ALU ops pair into one dispatch;
                // the dominant induction-plus-arith pair gets the
                // dispatch-free variant.
                if let (Some(a), Some(b)) = (as_alu(ops[i]), as_alu(ops[i + 1])) {
                    ops[i] = if a.k == AluK::Addiu && b.k == AluK::Addu {
                        Op::AddiuAddu {
                            d1: a.d,
                            s1: a.s,
                            imm: a.imm,
                            d2: b.d,
                            s2: b.s,
                            t2: b.t,
                        }
                    } else {
                        Op::Alu2 { a, b }
                    };
                    i += 2;
                    continue;
                }
                i += 1;
            }
        }
    }
}

/// The compare-chain group at word `i`, as `((a, t), arm)`: `lui t, hi;
/// ori t, t, lo; beq a, t, target; nop` with `t` not `$zero`, `a != t`
/// (so the compared value survives the chain) and no leader inside the
/// group past its head.
fn cmp_group(ops: &[Op], leader: &[bool], i: usize) -> Option<((u8, u8), CmpArm)> {
    let [Op::Lui { rt, val }, Op::Ori {
        rt: ort,
        rs: ors,
        imm,
    }, Op::Beq {
        rs: a,
        rt: bt,
        target,
        nop: true,
    }] = *ops.get(i..i + 3)?
    else {
        return None;
    };
    // `nop: true` implies the delay slot at i+3 exists.
    let fused = rt != 0 && ort == rt && ors == rt && bt == rt && a != rt;
    (fused && !leader[i + 1] && !leader[i + 2] && !leader[i + 3]).then_some((
        (a, rt),
        CmpArm {
            key: val | imm,
            target,
        },
    ))
}

/// Replace every group head of each maximal run of two or more
/// compare-chain groups sharing `(a, t)` by an [`Op::CmpChain`], and
/// record the run's keys and targets in `chains`. Group heads past the
/// first sit on fall-through leaders (each follows a `beq` delay slot),
/// which is exactly where a dispatch that enters mid-chain lands.
fn fuse_cmp_chains(ops: &mut [Op], leader: &[bool], chains: &mut Vec<Vec<CmpArm>>) {
    let mut i = 0;
    while i < ops.len() {
        let Some((regs, arm)) = cmp_group(ops, leader, i) else {
            i += 1;
            continue;
        };
        let mut arms = vec![arm];
        while let Some((next_regs, next)) = cmp_group(ops, leader, i + 4 * arms.len()) {
            if next_regs != regs {
                break;
            }
            arms.push(next);
        }
        if arms.len() < 2 {
            i += 4;
            continue;
        }
        let (a, t) = regs;
        let chain = chains.len() as u32;
        for k in 0..arms.len() {
            ops[i + 4 * k] = Op::CmpChain {
                a,
                t,
                chain,
                k: k as u32,
            };
        }
        i += 4 * arms.len();
        chains.push(arms);
    }
}

impl Cpu {
    /// Run until a syscall, a fault, or `budget` retired instructions,
    /// using `cache` for threaded-code dispatch wherever the program
    /// stays regular and falling back to [`Cpu::step`] (the oracle) for
    /// everything else. State transitions — registers, memory, `retired`,
    /// `pc`, pending branch, fault identity — are bit-identical to
    /// running `Cpu::run(budget)`.
    pub fn run_cached(
        &mut self,
        budget: u64,
        cache: &mut ExecCache,
    ) -> Result<Option<StepOutcome>, CpuError> {
        let mut remaining = budget;
        'outer: loop {
            if remaining == 0 {
                return Ok(None);
            }
            if cache.version != self.mem.code_version() {
                cache.rebuild(&self.mem);
            }
            // Oracle path: mid-delay-slot, or PC outside the cache.
            while self.pending_branch.is_some() || !cache.contains(self.pc) {
                match self.step()? {
                    StepOutcome::Syscall => return Ok(Some(StepOutcome::Syscall)),
                    StepOutcome::Continue => {
                        remaining -= 1;
                        if remaining == 0 {
                            return Ok(None);
                        }
                        if cache.version != self.mem.code_version() {
                            cache.rebuild(&self.mem);
                        }
                    }
                }
            }
            let base = cache.base;
            let mut pc = self.pc;
            let mut idx = ((pc - base) >> 2) as usize;
            // Instructions retired inside the fast loop are counted by
            // how much budget they consumed (`entered - remaining`) and
            // flushed to `self.retired` only at exits, keeping the
            // per-op bookkeeping in registers.
            let entered = remaining;

            // Masked register-file access: every operand index is a
            // 5-bit field by construction, and the `& 31` lets the
            // bounds check fold away. Writes preserve the $zero sink.
            macro_rules! rr {
                ($r:expr) => {
                    self.regs[($r & 31) as usize]
                };
            }
            macro_rules! wr {
                ($r:expr, $v:expr) => {{
                    let v = $v;
                    self.regs[($r & 31) as usize] = v;
                    // Branchless $zero sink: unconditionally re-zero r0
                    // instead of testing the destination on every write.
                    self.regs[0] = 0;
                }};
            }
            // The tail of a straight-line op: move to the next word.
            macro_rules! adv {
                () => {{
                    remaining -= 1;
                    pc = pc.wrapping_add(4);
                    idx += 1;
                }};
            }
            // Faults replicate `step`: PC already advanced, the
            // faulting instruction counted as retired.
            macro_rules! fault {
                ($e:expr) => {{
                    self.retired += entered - remaining + 1;
                    self.pc = pc.wrapping_add(4);
                    return Err($e);
                }};
            }
            // A branch/jump: when the delay slot is a nop and the budget
            // covers both, retire branch+slot and jump directly;
            // otherwise set the architectural pending branch and let the
            // oracle execute the delay slot.
            macro_rules! control {
                ($taken:expr, $target:expr, $nop:expr) => {{
                    if $nop && remaining >= 2 {
                        remaining -= 2;
                        pc = if $taken { $target } else { pc.wrapping_add(8) };
                        if !cache.contains(pc) {
                            self.pc = pc;
                            self.retired += entered - remaining;
                            continue 'outer;
                        }
                        idx = ((pc - base) >> 2) as usize;
                    } else {
                        remaining -= 1;
                        self.pending_branch = if $taken { Some($target) } else { None };
                        self.pc = pc.wrapping_add(4);
                        self.retired += entered - remaining;
                        continue 'outer;
                    }
                }};
            }
            // Handler peeking at back-edges: taken fused branches land
            // on a block head, and in hot loops that head is the fused
            // induction pair. Executing it inline here (a cheap
            // discriminant test, a direct conditional branch) keeps the
            // main `match` site seeing one variant per loop, so its
            // indirect branch stays predicted instead of alternating.
            macro_rules! peek {
                () => {
                    if remaining >= 2 {
                        if let Op::AddiuAddu {
                            d1,
                            s1,
                            imm,
                            d2,
                            s2,
                            t2,
                        } = cache.ops[idx]
                        {
                            let v = rr!(s1).wrapping_add(imm);
                            wr!(d1, v);
                            let v2 = rr!(s2).wrapping_add(rr!(t2));
                            wr!(d2, v2);
                            remaining -= 2;
                            pc = pc.wrapping_add(8);
                            idx += 2;
                        }
                    }
                };
            }

            loop {
                if remaining == 0 {
                    self.pc = pc;
                    self.retired += entered;
                    return Ok(None);
                }
                match cache.ops[idx] {
                    Op::Alu2 { a, b } => {
                        if remaining >= 2 {
                            alu_eval(&mut self.regs, a);
                            alu_eval(&mut self.regs, b);
                            remaining -= 2;
                            pc = pc.wrapping_add(8);
                            idx += 2;
                        } else {
                            // Budget covers only the first component; the
                            // plain op at idx+1 runs on the next call.
                            alu_eval(&mut self.regs, a);
                            adv!();
                        }
                    }
                    Op::AluBne { a, rs, rt, target } => {
                        if remaining >= 3 {
                            alu_eval(&mut self.regs, a);
                            // The bne reads post-ALU values, exactly as
                            // the sequential stream would.
                            let taken = rr!(rs) != rr!(rt);
                            remaining -= 3;
                            pc = if taken { target } else { pc.wrapping_add(12) };
                            if !cache.contains(pc) {
                                self.pc = pc;
                                self.retired += entered - remaining;
                                continue 'outer;
                            }
                            idx = ((pc - base) >> 2) as usize;
                            peek!();
                        } else {
                            alu_eval(&mut self.regs, a);
                            adv!();
                        }
                    }
                    Op::AddiuAddu {
                        d1,
                        s1,
                        imm,
                        d2,
                        s2,
                        t2,
                    } => {
                        let v = rr!(s1).wrapping_add(imm);
                        wr!(d1, v);
                        if remaining >= 2 {
                            let v2 = rr!(s2).wrapping_add(rr!(t2));
                            wr!(d2, v2);
                            remaining -= 2;
                            pc = pc.wrapping_add(8);
                            idx += 2;
                        } else {
                            adv!();
                        }
                    }
                    Op::XorBne {
                        d,
                        s,
                        t,
                        rs,
                        rt,
                        target,
                    } => {
                        let v = rr!(s) ^ rr!(t);
                        wr!(d, v);
                        if remaining >= 3 {
                            // The bne reads post-xor values, exactly as
                            // the sequential stream would.
                            let taken = rr!(rs) != rr!(rt);
                            remaining -= 3;
                            pc = if taken { target } else { pc.wrapping_add(12) };
                            if !cache.contains(pc) {
                                self.pc = pc;
                                self.retired += entered - remaining;
                                continue 'outer;
                            }
                            idx = ((pc - base) >> 2) as usize;
                            peek!();
                        } else {
                            adv!();
                        }
                    }
                    Op::AddAddXorBne {
                        d1,
                        s1,
                        imm,
                        d2,
                        s2,
                        t2,
                        d3,
                        s3,
                        t3,
                        rs,
                        rt,
                        target,
                    } => {
                        if remaining >= 5 {
                            let head = pc;
                            loop {
                                let v = rr!(s1).wrapping_add(imm);
                                wr!(d1, v);
                                let v2 = rr!(s2).wrapping_add(rr!(t2));
                                wr!(d2, v2);
                                let v3 = rr!(s3) ^ rr!(t3);
                                wr!(d3, v3);
                                // The bne reads post-ALU values, exactly
                                // as the sequential stream would.
                                let taken = rr!(rs) != rr!(rt);
                                remaining -= 5;
                                pc = if taken { target } else { head.wrapping_add(20) };
                                // Self-loop: iterate in place while the
                                // budget holds, no re-dispatch.
                                if !(taken && target == head && remaining >= 5) {
                                    break;
                                }
                            }
                            if !cache.contains(pc) {
                                self.pc = pc;
                                self.retired += entered - remaining;
                                continue 'outer;
                            }
                            idx = ((pc - base) >> 2) as usize;
                        } else {
                            let v = rr!(s1).wrapping_add(imm);
                            wr!(d1, v);
                            adv!();
                        }
                    }
                    Op::Addiu { rt, rs, imm } => {
                        let v = rr!(rs).wrapping_add(imm);
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Addu { rd, rs, rt } => {
                        let v = rr!(rs).wrapping_add(rr!(rt));
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Subu { rd, rs, rt } => {
                        let v = rr!(rs).wrapping_sub(rr!(rt));
                        wr!(rd, v);
                        adv!();
                    }
                    Op::And { rd, rs, rt } => {
                        let v = rr!(rs) & rr!(rt);
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Or { rd, rs, rt } => {
                        let v = rr!(rs) | rr!(rt);
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Xor { rd, rs, rt } => {
                        let v = rr!(rs) ^ rr!(rt);
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Nor { rd, rs, rt } => {
                        let v = !(rr!(rs) | rr!(rt));
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Slt { rd, rs, rt } => {
                        let v = ((rr!(rs) as i32) < (rr!(rt) as i32)) as u32;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Sltu { rd, rs, rt } => {
                        let v = (rr!(rs) < rr!(rt)) as u32;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Sll { rd, rt, sh } => {
                        let v = rr!(rt) << sh;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Srl { rd, rt, sh } => {
                        let v = rr!(rt) >> sh;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Sra { rd, rt, sh } => {
                        let v = ((rr!(rt) as i32) >> sh) as u32;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Sllv { rd, rt, rs } => {
                        let v = rr!(rt) << (rr!(rs) & 31);
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Srlv { rd, rt, rs } => {
                        let v = rr!(rt) >> (rr!(rs) & 31);
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Slti { rt, rs, imm } => {
                        let v = ((rr!(rs) as i32) < imm) as u32;
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Sltiu { rt, rs, imm } => {
                        let v = (rr!(rs) < imm) as u32;
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Andi { rt, rs, imm } => {
                        let v = rr!(rs) & imm;
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Ori { rt, rs, imm } => {
                        let v = rr!(rs) | imm;
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Xori { rt, rs, imm } => {
                        let v = rr!(rs) ^ imm;
                        wr!(rt, v);
                        adv!();
                    }
                    Op::Lui { rt, val } => {
                        wr!(rt, val);
                        adv!();
                    }
                    Op::Mfhi { rd } => {
                        let v = self.hi;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Mflo { rd } => {
                        let v = self.lo;
                        wr!(rd, v);
                        adv!();
                    }
                    Op::Mult { rs, rt } => {
                        let p = i64::from(rr!(rs) as i32) * i64::from(rr!(rt) as i32);
                        self.lo = p as u32;
                        self.hi = (p >> 32) as u32;
                        adv!();
                    }
                    Op::Multu { rs, rt } => {
                        let p = u64::from(rr!(rs)) * u64::from(rr!(rt));
                        self.lo = p as u32;
                        self.hi = (p >> 32) as u32;
                        adv!();
                    }
                    Op::Div { rs, rt } => {
                        let d = rr!(rt) as i32;
                        if d == 0 {
                            fault!(CpuError::DivideByZero { pc });
                        }
                        let n = rr!(rs) as i32;
                        self.lo = n.wrapping_div(d) as u32;
                        self.hi = n.wrapping_rem(d) as u32;
                        adv!();
                    }
                    Op::Divu { rs, rt } => {
                        let d = rr!(rt);
                        if d == 0 {
                            fault!(CpuError::DivideByZero { pc });
                        }
                        let n = rr!(rs);
                        self.lo = n / d;
                        self.hi = n % d;
                        adv!();
                    }
                    Op::Lb { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        match self.mem.read_u8(a) {
                            Ok(v) => wr!(rt, v as i8 as i32 as u32),
                            Err(e) => fault!(e.into()),
                        }
                        adv!();
                    }
                    Op::Lh { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        match self.mem.read_u16(a) {
                            Ok(v) => wr!(rt, v as i16 as i32 as u32),
                            Err(e) => fault!(e.into()),
                        }
                        adv!();
                    }
                    Op::Lw { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        match self.mem.read_u32(a) {
                            Ok(v) => wr!(rt, v),
                            Err(e) => fault!(e.into()),
                        }
                        adv!();
                    }
                    Op::Lbu { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        match self.mem.read_u8(a) {
                            Ok(v) => wr!(rt, u32::from(v)),
                            Err(e) => fault!(e.into()),
                        }
                        adv!();
                    }
                    Op::Lhu { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        match self.mem.read_u16(a) {
                            Ok(v) => wr!(rt, u32::from(v)),
                            Err(e) => fault!(e.into()),
                        }
                        adv!();
                    }
                    Op::Sb { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        if let Err(e) = self.mem.write_u8(a, rr!(rt) as u8) {
                            fault!(e.into());
                        }
                        remaining -= 1;
                        pc = pc.wrapping_add(4);
                        if cache.version != self.mem.code_version() {
                            self.pc = pc;
                            self.retired += entered - remaining;
                            continue 'outer;
                        }
                        idx += 1;
                    }
                    Op::Sh { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        if let Err(e) = self.mem.write_u16(a, rr!(rt) as u16) {
                            fault!(e.into());
                        }
                        remaining -= 1;
                        pc = pc.wrapping_add(4);
                        if cache.version != self.mem.code_version() {
                            self.pc = pc;
                            self.retired += entered - remaining;
                            continue 'outer;
                        }
                        idx += 1;
                    }
                    Op::Sw { rt, rs, off } => {
                        let a = rr!(rs).wrapping_add(off);
                        if let Err(e) = self.mem.write_u32(a, rr!(rt)) {
                            fault!(e.into());
                        }
                        remaining -= 1;
                        pc = pc.wrapping_add(4);
                        if cache.version != self.mem.code_version() {
                            self.pc = pc;
                            self.retired += entered - remaining;
                            continue 'outer;
                        }
                        idx += 1;
                    }
                    Op::Beq {
                        rs,
                        rt,
                        target,
                        nop,
                    } => {
                        control!(rr!(rs) == rr!(rt), target, nop);
                    }
                    Op::Bne {
                        rs,
                        rt,
                        target,
                        nop,
                    } => {
                        control!(rr!(rs) != rr!(rt), target, nop);
                    }
                    Op::Blez { rs, target, nop } => {
                        control!((rr!(rs) as i32) <= 0, target, nop);
                    }
                    Op::Bgtz { rs, target, nop } => {
                        control!((rr!(rs) as i32) > 0, target, nop);
                    }
                    Op::Bltz { rs, target, nop } => {
                        control!((rr!(rs) as i32) < 0, target, nop);
                    }
                    Op::Bgez { rs, target, nop } => {
                        control!((rr!(rs) as i32) >= 0, target, nop);
                    }
                    Op::J { target, nop } => {
                        control!(true, target, nop);
                    }
                    Op::Jal { target, nop } => {
                        wr!(31, pc.wrapping_add(8));
                        control!(true, target, nop);
                    }
                    Op::Jr { rs, nop } => {
                        let target = rr!(rs);
                        control!(true, target, nop);
                    }
                    Op::Jalr { rd, rs, nop } => {
                        // Target is read before the link write, as in step().
                        let target = rr!(rs);
                        wr!(rd, pc.wrapping_add(8));
                        control!(true, target, nop);
                    }
                    Op::Syscall => {
                        self.retired += entered - remaining + 1;
                        self.pc = pc.wrapping_add(4);
                        return Ok(Some(StepOutcome::Syscall));
                    }
                    Op::Break => {
                        self.retired += entered - remaining + 1;
                        self.pc = pc.wrapping_add(4);
                        return Err(CpuError::Break { pc });
                    }
                    Op::Illegal { word } => {
                        self.retired += entered - remaining + 1;
                        self.pc = pc.wrapping_add(4);
                        return Err(CpuError::IllegalInstruction { pc, word });
                    }
                    Op::LiPair { rt, hi, val } => {
                        if remaining >= 2 {
                            wr!(rt, val);
                            remaining -= 2;
                            pc = pc.wrapping_add(8);
                            idx += 2;
                        } else {
                            // Budget covers only the lui; the plain ori
                            // at idx+1 runs on the next call.
                            wr!(rt, hi);
                            adv!();
                        }
                    }
                    Op::LiSyscall { rt, hi, val } => {
                        if remaining >= 3 {
                            wr!(rt, val);
                            self.retired += entered - remaining + 3;
                            self.pc = pc.wrapping_add(12);
                            return Ok(Some(StepOutcome::Syscall));
                        } else {
                            wr!(rt, hi);
                            adv!();
                        }
                    }
                    Op::CountBne {
                        rt,
                        imm,
                        rs,
                        rt2,
                        target,
                    } => {
                        let v = rr!(rt).wrapping_add(imm);
                        wr!(rt, v);
                        if remaining >= 3 {
                            // The bne reads post-increment values, as in
                            // the sequential stream.
                            let taken = rr!(rs) != rr!(rt2);
                            remaining -= 3;
                            pc = if taken { target } else { pc.wrapping_add(12) };
                            if !cache.contains(pc) {
                                self.pc = pc;
                                self.retired += entered - remaining;
                                continue 'outer;
                            }
                            idx = ((pc - base) >> 2) as usize;
                            peek!();
                        } else {
                            adv!();
                        }
                    }
                    Op::CmpChain { a, t, chain, k } => {
                        let arms = &cache.chains[chain as usize][k as usize..];
                        let key = rr!(a);
                        let hit = arms.iter().position(|arm| arm.key == key);
                        // Groups retired: through the hit, or the rest of
                        // the chain on a miss.
                        let groups = hit.map_or(arms.len(), |j| j + 1);
                        if remaining >= 4 * groups as u64 {
                            let arm = arms[groups - 1];
                            // `a != t`, so every earlier beq compared the
                            // same `a`; `t` keeps the last key loaded.
                            wr!(t, arm.key);
                            remaining -= 4 * groups as u64;
                            pc = match hit {
                                Some(_) => arm.target,
                                None => pc.wrapping_add(16 * groups as u32),
                            };
                            if !cache.contains(pc) {
                                self.pc = pc;
                                self.retired += entered - remaining;
                                continue 'outer;
                            }
                            idx = ((pc - base) >> 2) as usize;
                        } else if remaining >= 2 {
                            // Group k's `lui; ori` alone; its plain beq
                            // runs next.
                            wr!(t, arms[0].key);
                            remaining -= 2;
                            pc = pc.wrapping_add(8);
                            idx += 2;
                        } else {
                            wr!(t, arms[0].key & 0xffff_0000);
                            adv!();
                        }
                    }
                    Op::Leave => {
                        self.pc = pc;
                        self.retired += entered - remaining;
                        continue 'outer;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Assembler, Ins, Reg, Target};
    use crate::cpu::{STACK_SIZE, STACK_TOP};

    fn setup(code: Vec<u8>, writable_text: bool) -> (Cpu, ExecCache) {
        let base = 0x0040_0000;
        let mut mem = Memory::new();
        mem.map(base, code, writable_text);
        mem.map_zeroed(0x1000_0000, 4096, true);
        mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
        let cache = ExecCache::for_entry(&mut mem, base).unwrap();
        (Cpu::new(mem, base), cache)
    }

    fn asm(build: impl FnOnce(&mut Assembler)) -> Vec<u8> {
        let mut a = Assembler::new(0x0040_0000);
        build(&mut a);
        a.assemble().unwrap()
    }

    /// Run the same program under step() and run_cached() with the same
    /// per-call budget and assert identical full state at every stop.
    fn lockstep(code: Vec<u8>, slice: u64, writable_text: bool) -> Cpu {
        lockstep_budgets(code, std::iter::repeat(slice), writable_text)
    }

    /// [`lockstep`] with a per-call budget sequence; returns the oracle.
    fn lockstep_budgets(
        code: Vec<u8>,
        budgets: impl Iterator<Item = u64>,
        writable_text: bool,
    ) -> Cpu {
        let (mut legacy, _) = setup(code.clone(), writable_text);
        let (mut fast, mut cache) = setup(code, writable_text);
        for slice in budgets.take(10_000) {
            let a = legacy.run(slice);
            let b = fast.run_cached(slice, &mut cache);
            assert_eq!(a, b, "outcome diverged at retired={}", legacy.retired);
            assert_eq!(legacy.regs, fast.regs, "regs at retired={}", legacy.retired);
            assert_eq!(legacy.pc, fast.pc, "pc at retired={}", legacy.retired);
            assert_eq!(legacy.hi, fast.hi);
            assert_eq!(legacy.lo, fast.lo);
            assert_eq!(legacy.retired, fast.retired);
            assert_eq!(legacy.pending_branch(), fast.pending_branch());
            for seg_base in [0x0040_0000u32, 0x1000_0000] {
                if let Some((b, len, _)) = legacy.mem.segment_span(seg_base) {
                    assert_eq!(
                        legacy.mem.view(b, len).unwrap(),
                        fast.mem.view(b, len).unwrap(),
                        "memory image at {b:#x} diverged"
                    );
                }
            }
            if a.is_err() {
                return legacy;
            }
        }
        panic!("program never terminated");
    }

    /// `li $t8, value`, then a compare chain over `keys` on `($t8, $t9)`
    /// whose miss path runs `li $s1, 0xdead; break` and whose arm `k`
    /// runs `li $s0, k; break`. With `entry = Some(g)` a `j` skips
    /// straight to group `g`'s head.
    fn cmp_chain_program(value: u32, keys: &[u32], entry: Option<usize>) -> Vec<u8> {
        asm(|a| {
            a.ins(Ins::Li(Reg::T8, value));
            if let Some(g) = entry {
                a.ins(Ins::J(Target::Label(format!("g{g}"))));
            }
            for (k, key) in keys.iter().enumerate() {
                a.label(&format!("g{k}"))
                    .ins(Ins::Li(Reg::T9, *key))
                    .ins(Ins::Beq(Reg::T8, Reg::T9, Target::Label(format!("arm{k}"))));
            }
            a.ins(Ins::Li(Reg::S1, 0xdead)).ins(Ins::Break);
            for k in 0..keys.len() {
                a.label(&format!("arm{k}"))
                    .ins(Ins::Li(Reg::S0, k as u32))
                    .ins(Ins::Break);
            }
        })
    }

    fn cmp_chain_heads(code: Vec<u8>) -> Vec<usize> {
        let (_, cache) = setup(code, false);
        let heads = cache.ops.iter().enumerate();
        heads
            .filter(|(_, op)| matches!(op, Op::CmpChain { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Lockstep at every fixed slice up to past the chain's length, and
    /// at every first-call budget from 1 to `4n` followed by big ones.
    fn cmp_chain_lockstep(code: Vec<u8>, groups: usize) -> Cpu {
        for slice in 1..=4 * groups as u64 + 4 {
            lockstep(code.clone(), slice, false);
        }
        for first in 1..=4 * groups as u64 {
            let budgets = std::iter::once(first).chain(std::iter::repeat(1000));
            lockstep_budgets(code.clone(), budgets, false);
        }
        lockstep(code, 1000, false)
    }

    #[test]
    fn cmp_chain_hits_and_miss_match_oracle() {
        // Keys with high halves make the one-instruction degrade (the
        // lone `lui`) observable.
        let keys = [0, 0x0001_0007, 2, 0x8000_0003, 26, 37];
        let code = cmp_chain_program(0, &keys, None);
        assert_eq!(cmp_chain_heads(code), vec![2, 6, 10, 14, 18, 22]);
        for (k, key) in keys.iter().enumerate() {
            // First, middle and last group hits.
            let cpu = cmp_chain_lockstep(cmp_chain_program(*key, &keys, None), keys.len());
            assert_eq!(cpu.reg(16), k as u32, "arm {k} taken");
            assert_eq!(cpu.reg(25), *key, "$t9 holds the hit key");
        }
        let cpu = cmp_chain_lockstep(cmp_chain_program(99, &keys, None), keys.len());
        assert_eq!(cpu.reg(17), 0xdead, "miss falls through the chain");
        assert_eq!(cpu.reg(25), 37, "$t9 holds the last key");
    }

    #[test]
    fn cmp_chain_entered_mid_chain_scans_only_the_rest() {
        let keys = [4, 5, 6, 7, 8];
        for (value, arm) in [(7, Some(3)), (6, Some(2)), (4, None), (5, None)] {
            let code = cmp_chain_program(value, &keys, Some(2));
            let cpu = cmp_chain_lockstep(code, keys.len());
            match arm {
                Some(k) => assert_eq!(cpu.reg(16), k),
                None => assert_eq!(cpu.reg(17), 0xdead, "keys before the entry are skipped"),
            }
        }
    }

    #[test]
    fn cmp_chain_duplicate_keys_take_the_first_match() {
        let keys = [5, 2, 5, 2];
        for (value, arm) in [(5, 0), (2, 1)] {
            let cpu = cmp_chain_lockstep(cmp_chain_program(value, &keys, None), keys.len());
            assert_eq!(cpu.reg(16), arm);
        }
    }

    #[test]
    fn cmp_chain_comparing_t_with_itself_does_not_fuse() {
        // `beq $t9, $t9` always branches on the first group: not a chain.
        let code = asm(|a| {
            for k in 0..4u32 {
                a.ins(Ins::Li(Reg::T9, k))
                    .ins(Ins::Beq(Reg::T9, Reg::T9, "out".into()));
            }
            a.label("out").ins(Ins::Break);
        });
        assert!(cmp_chain_heads(code.clone()).is_empty());
        cmp_chain_lockstep(code, 4);
        // Nor do groups on `$zero` or groups that switch registers.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::ZERO, 1))
                .ins(Ins::Beq(Reg::T8, Reg::ZERO, "out".into()))
                .ins(Ins::Li(Reg::ZERO, 2))
                .ins(Ins::Beq(Reg::T8, Reg::ZERO, "out".into()))
                .ins(Ins::Li(Reg::T9, 1))
                .ins(Ins::Beq(Reg::T8, Reg::T9, "out".into()))
                .ins(Ins::Li(Reg::T7, 2))
                .ins(Ins::Beq(Reg::T8, Reg::T7, "out".into()))
                .label("out")
                .ins(Ins::Break);
        });
        assert!(cmp_chain_heads(code.clone()).is_empty());
        cmp_chain_lockstep(code, 4);
    }

    #[test]
    fn store_into_cmp_chain_rebuilds_its_keys() {
        // Patch group 1's `ori` from key 1 to key 0x77, then dispatch on
        // 0x77: the rebuilt chain must take arm 1, as the oracle does.
        let base: u32 = 0x0040_0000;
        let ori_t9_0x77 = 0x3739_0077; // ori $t9, $t9, 0x77
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, base + 4 * 12))
                .ins(Ins::Li(Reg::T1, ori_t9_0x77))
                .ins(Ins::Sw(Reg::T1, Reg::T0, 0))
                .ins(Ins::Li(Reg::T8, 0x77));
            // The chain starts at word 7; group 1's `ori` is word 12.
            for (k, key) in [0u32, 1, 2].iter().enumerate() {
                a.ins(Ins::Li(Reg::T9, *key)).ins(Ins::Beq(
                    Reg::T8,
                    Reg::T9,
                    Target::Label(format!("arm{k}")),
                ));
            }
            a.ins(Ins::Li(Reg::S1, 0xdead)).ins(Ins::Break);
            for k in 0..3u32 {
                a.label(&format!("arm{k}"))
                    .ins(Ins::Li(Reg::S0, k))
                    .ins(Ins::Break);
            }
        });
        let (_, cache) = setup(code.clone(), true);
        assert!(matches!(cache.ops[7], Op::CmpChain { k: 0, .. }));
        assert_eq!(cache.chains[0][1].key, 1);
        for slice in [1, 2, 3, 5, 8, 1000] {
            let cpu = lockstep(code.clone(), slice, true);
            assert_eq!(cpu.reg(16), 1, "patched key dispatches to arm 1");
        }
    }

    #[test]
    fn fused_li_pair_and_loop_counter_match_oracle() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0))
                .ins(Ins::Li(Reg::T1, 37))
                .label("loop")
                .ins(Ins::Addiu(Reg::T0, Reg::T0, 1))
                .ins(Ins::Addu(Reg::T2, Reg::T0, Reg::T0))
                .ins(Ins::Bne(Reg::T0, Reg::T1, "loop".into()))
                .ins(Ins::Break);
        });
        for slice in [1, 2, 3, 7, 1000] {
            lockstep(code.clone(), slice, false);
        }
    }

    #[test]
    fn li_syscall_superinstruction_yields_with_exact_state() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::V0, 4020))
                .ins(Ins::Syscall)
                .ins(Ins::Break);
        });
        // Budgets 1 and 2 force partial execution of the fused prelude.
        for slice in [1, 2, 3, 100] {
            lockstep(code.clone(), slice, false);
        }
    }

    #[test]
    fn all_alu_memory_and_hilo_ops_match_oracle() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0x1000_0000))
                .ins(Ins::Li(Reg::T1, 0xcafe_babe))
                .ins(Ins::Sw(Reg::T1, Reg::T0, 0))
                .ins(Ins::Sh(Reg::T1, Reg::T0, 8))
                .ins(Ins::Sb(Reg::T1, Reg::T0, 12))
                .ins(Ins::Lb(Reg::T2, Reg::T0, 0))
                .ins(Ins::Lbu(Reg::T3, Reg::T0, 0))
                .ins(Ins::Lh(Reg::T4, Reg::T0, 0))
                .ins(Ins::Lhu(Reg::T5, Reg::T0, 2))
                .ins(Ins::Lw(Reg::T6, Reg::T0, 0))
                .ins(Ins::Mult(Reg::T1, Reg::T6))
                .ins(Ins::Mflo(Reg::S0))
                .ins(Ins::Mfhi(Reg::S1))
                .ins(Ins::Divu(Reg::T1, Reg::T6))
                .ins(Ins::Slt(Reg::S2, Reg::T1, Reg::T6))
                .ins(Ins::Sltu(Reg::S3, Reg::T1, Reg::T6))
                .ins(Ins::Slti(Reg::S4, Reg::T1, -5))
                .ins(Ins::Sltiu(Reg::S5, Reg::T1, -5))
                .ins(Ins::Nor(Reg::S6, Reg::T1, Reg::T6))
                .ins(Ins::Sra(Reg::S7, Reg::T1, 7))
                .ins(Ins::Srl(Reg::T7, Reg::T1, 7))
                .ins(Ins::Sllv(Reg::T8, Reg::T1, Reg::T6))
                .ins(Ins::Srlv(Reg::T9, Reg::T1, Reg::T6))
                .ins(Ins::Break);
        });
        for slice in [1, 3, 1000] {
            lockstep(code.clone(), slice, false);
        }
    }

    #[test]
    fn jal_jr_and_regimm_match_oracle() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0xffff_fff0))
                .ins(Ins::Bltz(Reg::T0, "neg".into()))
                .ins(Ins::Break)
                .label("neg")
                .ins(Ins::Bgez(Reg::ZERO, "go".into()))
                .ins(Ins::Break)
                .label("go")
                .ins(Ins::Jal("fn".into()))
                .ins(Ins::Li(Reg::T5, 1))
                .ins(Ins::Break)
                .label("fn")
                .ins(Ins::Li(Reg::T4, 42))
                .ins(Ins::Jr(Reg::RA));
        });
        for slice in [1, 2, 5, 1000] {
            lockstep(code.clone(), slice, false);
        }
    }

    #[test]
    fn faults_match_oracle_exactly() {
        // Divide by zero.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 1))
                .ins(Ins::Divu(Reg::T0, Reg::ZERO));
        });
        lockstep(code, 1000, false);
        // Unmapped load.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0x0666_0000))
                .ins(Ins::Lw(Reg::T1, Reg::T0, 0));
        });
        lockstep(code, 1000, false);
        // Illegal instruction word.
        let mut code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 3));
        });
        code.extend_from_slice(&0xffff_ffffu32.to_be_bytes());
        lockstep(code, 1000, false);
        // Store to read-only text.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0x0040_0000))
                .ins(Ins::Sw(Reg::T0, Reg::T0, 0));
        });
        lockstep(code, 1000, false);
        // Run off the end of the segment.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 3));
        });
        lockstep(code, 1000, false);
    }

    #[test]
    fn taken_branch_with_loaded_delay_slot_uses_oracle() {
        // Hand-encode a beq whose delay slot is a real instruction (the
        // assembler never emits this): fold must not trigger.
        let words: [u32; 4] = [
            0x1000_0002, // beq $zero,$zero,+2
            0x2508_0005, // addiu $t0,$t0,5 (delay slot, must run)
            0x2508_0064, // skipped
            0x0000_000d, // break
        ];
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        for slice in [1, 2, 3, 1000] {
            lockstep(code.clone(), slice, false);
        }
    }

    #[test]
    fn self_modifying_store_rebuilds_cache() {
        // Overwrite the word after the store (a break) with `addiu
        // $t7,$t7,1`, then fall through into it: the block engine must
        // re-decode and execute the new word, like the oracle does.
        let base: u32 = 0x0040_0000;
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, base))
                .ins(Ins::Li(Reg::T1, 0x25ef_0001)) // addiu $t7,$t7,1
                .ins(Ins::Sw(Reg::T1, Reg::T0, 24)) // patches word index 6
                .ins(Ins::Break) // placeholder at index 6, patched
                .ins(Ins::Break); // real end at index 7
        });
        for slice in [1, 2, 3, 1000] {
            lockstep(code.clone(), slice, true);
        }
    }

    #[test]
    fn cache_miss_outside_segment_falls_back_to_oracle() {
        // Jump into the data segment (unmapped as code → fetch fault).
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0x1000_0000)).ins(Ins::Jr(Reg::T0));
        });
        lockstep(code, 1000, false);
        // Misaligned jump target.
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 0x0040_0002)).ins(Ins::Jr(Reg::T0));
        });
        lockstep(code, 1000, false);
    }

    #[test]
    fn budget_zero_is_a_no_op() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T0, 1)).ins(Ins::Break);
        });
        let (mut cpu, mut cache) = setup(code, false);
        assert_eq!(cpu.run_cached(0, &mut cache), Ok(None));
        assert_eq!(cpu.retired, 0);
        assert_eq!(cpu.pc, 0x0040_0000);
    }

    #[test]
    fn fusion_catalog_is_applied() {
        let code = asm(|a| {
            a.ins(Ins::Li(Reg::T1, 0x12345678)) // LiPair
                .label("loop")
                .ins(Ins::Addiu(Reg::T0, Reg::T0, 1)) // CountBne head
                .ins(Ins::Bne(Reg::T0, Reg::T1, "loop".into()))
                .ins(Ins::Li(Reg::V0, 4001)) // LiSyscall
                .ins(Ins::Syscall);
        });
        let (cpu, cache) = setup(code, false);
        drop(cpu);
        assert!(matches!(cache.ops[0], Op::LiPair { rt: 9, .. }));
        assert!(matches!(cache.ops[2], Op::CountBne { .. }));
        // Component words keep their plain ops for mid-sequence entry.
        assert!(matches!(cache.ops[1], Op::Ori { .. }));
        assert!(matches!(cache.ops[3], Op::Bne { .. }));
        assert!(matches!(cache.ops[5], Op::LiSyscall { rt: 2, .. }));
        assert_eq!(cache.ops.last(), Some(&Op::Leave));
    }
}
