//! Pre-decoded superinstruction execution: the compiled fast path.
//!
//! [`Vm::step`] pays a fetch, a 30-way opcode match, and per-lane closure
//! dispatch for every instruction. This module compiles a [`Program`] once
//! into a per-pc table of `Op` records — operands resolved at compile
//! time, cycle/class metadata baked in, memory bounds checks hoisted where
//! an interval analysis has proven the access in range — and executes the
//! table by direct-threaded dispatch through plain `fn` pointers. No
//! `unsafe`, no JIT: every op body is safe Rust over the same `Vm` state
//! the interpreter mutates.
//!
//! Two function pointers are compiled per op:
//!
//! * **fast** — specialised for the single-lane precise configuration
//!   (`lanes == 1 && !ac_en`): no lane loop, no approximation tests, no
//!   RNG. This covers precise-mode runs, which dominate the cold serving
//!   path and the repro sweeps.
//! * **gen** — an exact replica of the interpreter's match arm (it calls
//!   the same `write_alu`/`do_store` helpers), used whenever SIMD lanes or
//!   approximation are active.
//!
//! The dispatcher picks per run segment based on the live
//! [`ApproxConfig`](crate::ApproxConfig), so compiled execution is
//! bit-identical to stepping in **every** configuration — same
//! register/memory values, same precision tags, same
//! RNG consumption, same retired/cycle counters. The system simulator's
//! lockstep differential suite (`nvp-sim/tests/compiled_lockstep.rs`)
//! enforces that contract across power profiles, governors, and backup
//! scopes.
//!
//! Bounds-check hoisting is advisory, not load-bearing for memory safety:
//! an op whose access was proven in range skips the interpreter's
//! `check_addr` fault test, but the underlying `VersionedMemory` indexing
//! is still safe Rust (it would panic, not scribble, if an interval proof
//! were ever wrong). Ops whose access cannot be proven keep the exact
//! per-access fault behaviour of [`Vm::step`].

use crate::approx::FULL_BITS;
use crate::instr::{Instr, InstrClass, Reg, NUM_REGS};
use crate::program::Program;
use crate::regfile::RegFile;
use crate::vm::{Vm, VmError};
use nvp_nvm::VersionedMemory;

/// Per-program facts the compiler consumes, produced by `nvp-analysis`
/// (which owns the interval dataflow) and handed across the crate boundary
/// in this dependency-free form.
#[derive(Debug, Clone, Default)]
pub struct CompileHints {
    /// `in_range[pc]` is `true` when every address the memory instruction
    /// at `pc` can compute is proven inside `[0, mem_words)`, so its
    /// per-access fault check can be hoisted out of the op body.
    pub in_range: Vec<bool>,
    /// Compile only pcs below `limit` (`None` = the whole program). Pcs at
    /// or past the limit are not covered by the table and fall back to the
    /// step interpreter; used to exercise the fallback path under test.
    pub limit: Option<usize>,
}

impl CompileHints {
    /// Hints that prove nothing: every access keeps its per-access check.
    pub fn none(program_len: usize) -> Self {
        CompileHints {
            in_range: vec![false; program_len],
            limit: None,
        }
    }
}

/// What a compiled op reported back to the chain runner. A compressed
/// [`crate::vm::StepEvent`]: resume markers retire as ordinary control
/// instructions (the incidental controller never runs compiled chains, so
/// nothing downstream consumes the marker id here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEvent {
    /// An ordinary instruction retired.
    Executed,
    /// A frame-commit marker retired.
    FrameDone,
    /// The op was `halt` (or the pc ran off the end).
    Halted,
}

const EV_EXEC: u8 = 0;
const EV_FRAME: u8 = 1;
const EV_HALT: u8 = 2;

/// Post-op control word: where the pc goes next and what kind of event
/// retired. Returned by value so op bodies stay branch-light.
#[derive(Clone, Copy)]
struct Ctl {
    next: u32,
    ev: u8,
}

type OpFn = fn(&mut Vm, &Op) -> Result<Ctl, VmError>;

/// One pre-decoded instruction: operands, control metadata, and the two
/// specialised executors.
#[derive(Clone, Copy)]
struct Op {
    fast: OpFn,
    gen: OpFn,
    d: Reg,
    a: Reg,
    b: Reg,
    imm: i32,
    /// Absolute memory address or branch target.
    addr: u32,
    /// This op's own pc (for fault reporting).
    pc: u32,
    /// Fallthrough successor (`pc + 1`).
    next: u32,
    /// Cycle cost when retired (class cycles; `max(1)`-safe for ticks).
    cycles: u8,
    /// Instruction class, for class-keyed energy tables.
    class: InstrClass,
    /// Memory ops only: per-access bounds check still required.
    checked: bool,
}

impl Op {
    #[inline]
    fn fall(&self) -> Ctl {
        Ctl {
            next: self.next,
            ev: EV_EXEC,
        }
    }
}

macro_rules! alu_rr {
    ($f:ident, $g:ident, |$x:ident, $y:ident| $e:expr) => {
        fn $f(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
            let $x = vm.regs.read(op.a, 0);
            let $y = vm.regs.read(op.b, 0);
            vm.regs.write(op.d, 0, $e);
            Ok(op.fall())
        }
        fn $g(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
            let (a, b) = (op.a, op.b);
            vm.write_alu(op.d, move |r, l| {
                let $x = r.read(a, l);
                let $y = r.read(b, l);
                $e
            });
            Ok(op.fall())
        }
    };
}

macro_rules! alu_ri {
    ($f:ident, $g:ident, |$x:ident, $i:ident| $e:expr) => {
        fn $f(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
            let $x = vm.regs.read(op.a, 0);
            let $i = op.imm;
            vm.regs.write(op.d, 0, $e);
            Ok(op.fall())
        }
        fn $g(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
            let a = op.a;
            let $i = op.imm;
            vm.write_alu(op.d, move |r, l| {
                let $x = r.read(a, l);
                $e
            });
            Ok(op.fall())
        }
    };
}

alu_rr!(f_add, g_add, |x, y| x.wrapping_add(y));
alu_rr!(f_sub, g_sub, |x, y| x.wrapping_sub(y));
alu_rr!(f_mul, g_mul, |x, y| x.wrapping_mul(y));
alu_rr!(f_and, g_and, |x, y| x & y);
alu_rr!(f_or, g_or, |x, y| x | y);
alu_rr!(f_xor, g_xor, |x, y| x ^ y);
alu_rr!(f_min, g_min, |x, y| x.min(y));
alu_rr!(f_max, g_max, |x, y| x.max(y));
alu_ri!(f_addi, g_addi, |x, i| x.wrapping_add(i));
alu_ri!(f_muli, g_muli, |x, i| x.wrapping_mul(i));
alu_ri!(f_mini, g_mini, |x, i| x.min(i));
alu_ri!(f_maxi, g_maxi, |x, i| x.max(i));
// Shift amounts are pre-clamped at compile time (`shr` to 31, matching the
// interpreter's `.min(31)`), so the op body is a plain shift.
alu_ri!(f_shl, g_shl, |x, i| x.wrapping_shl(i as u32));
alu_ri!(f_shr, g_shr, |x, i| x >> i);
alu_ri!(f_mov, g_mov, |x, _i| x);
alu_ri!(f_abs, g_abs, |x, _i| x.wrapping_abs());

fn f_ldi(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    vm.regs.write(op.d, 0, op.imm);
    Ok(op.fall())
}

fn g_ldi(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let lanes = vm.lanes();
    vm.regs.write_broadcast(op.d, lanes, op.imm);
    Ok(op.fall())
}

#[inline]
fn abs_addr(vm: &mut Vm, op: &Op) -> Result<usize, VmError> {
    if op.checked {
        vm.check_addr(op.pc as usize, op.addr as i64)
            .inspect_err(|_| vm.halted = true)
    } else {
        Ok(op.addr as usize)
    }
}

#[inline]
fn ind_addr(vm: &mut Vm, op: &Op) -> Result<usize, VmError> {
    let a = vm.regs.read(op.b, 0) as i64 + op.imm as i64;
    if op.checked {
        vm.check_addr(op.pc as usize, a)
            .inspect_err(|_| vm.halted = true)
    } else {
        Ok(a as usize)
    }
}

fn f_ld(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = abs_addr(vm, op)?;
    let v = vm.mem.read(addr, 0);
    vm.regs.write(op.d, 0, v);
    Ok(op.fall())
}

fn g_ld(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = abs_addr(vm, op)?;
    vm.do_load(op.d, addr);
    Ok(op.fall())
}

fn f_st(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = abs_addr(vm, op)?;
    let v = vm.regs.read(op.a, 0);
    vm.mem.write(addr, 0, v, FULL_BITS);
    Ok(op.fall())
}

fn g_st(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = abs_addr(vm, op)?;
    vm.do_store(addr, op.a);
    Ok(op.fall())
}

fn f_ld_ind(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = ind_addr(vm, op)?;
    let v = vm.mem.read(addr, 0);
    vm.regs.write(op.d, 0, v);
    Ok(op.fall())
}

fn g_ld_ind(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = ind_addr(vm, op)?;
    vm.do_load(op.d, addr);
    Ok(op.fall())
}

fn f_st_ind(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = ind_addr(vm, op)?;
    let v = vm.regs.read(op.a, 0);
    vm.mem.write(addr, 0, v, FULL_BITS);
    Ok(op.fall())
}

fn g_st_ind(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let addr = ind_addr(vm, op)?;
    vm.do_store(addr, op.a);
    Ok(op.fall())
}

// Branches read lane 0 in every configuration, so one body serves both
// dispatch tables.
fn b_jmp(_vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    Ok(Ctl {
        next: op.addr,
        ev: EV_EXEC,
    })
}

fn b_brz(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let next = if vm.regs.read(op.a, 0) == 0 {
        op.addr
    } else {
        op.next
    };
    Ok(Ctl { next, ev: EV_EXEC })
}

fn b_brnz(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let next = if vm.regs.read(op.a, 0) != 0 {
        op.addr
    } else {
        op.next
    };
    Ok(Ctl { next, ev: EV_EXEC })
}

fn b_brlt(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let next = if vm.regs.read(op.a, 0) < vm.regs.read(op.b, 0) {
        op.addr
    } else {
        op.next
    };
    Ok(Ctl { next, ev: EV_EXEC })
}

fn b_brge(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    let next = if vm.regs.read(op.a, 0) >= vm.regs.read(op.b, 0) {
        op.addr
    } else {
        op.next
    };
    Ok(Ctl { next, ev: EV_EXEC })
}

fn c_halt(vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    vm.halted = true;
    Ok(Ctl {
        next: op.next,
        ev: EV_HALT,
    })
}

fn c_nop(_vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    Ok(op.fall())
}

fn c_frame(_vm: &mut Vm, op: &Op) -> Result<Ctl, VmError> {
    Ok(Ctl {
        next: op.next,
        ev: EV_FRAME,
    })
}

/// Compact opcode for the switch-dispatch whole-frame runner. Checked and
/// unchecked memory forms are distinct opcodes so the hot loop carries no
/// per-access `checked` test at all.
#[derive(Clone, Copy)]
enum FastCode {
    Ldi,
    Mov,
    Ld,
    LdChk,
    St,
    StChk,
    LdInd,
    LdIndChk,
    StInd,
    StIndChk,
    Add,
    Sub,
    Mul,
    AddI,
    MulI,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Min,
    Max,
    MinI,
    MaxI,
    Abs,
    Jmp,
    Brz,
    Brnz,
    Brlt,
    Brge,
    Halt,
    Nop,
    Frame,
    // Superinstructions built by the fusion peephole: one dispatch retiring
    // two or three fallthrough instructions. `Fuse2`/`Fuse3` carry their
    // sub-ops as micro-codes; `CmpXchg` is the sorting networks'
    // `min t,a,b; max b,a,b; mov a,t` idiom collapsed to two register reads
    // and three writes.
    Fuse2,
    Fuse3,
    CmpXchg,
    // Two and three back-to-back compare-exchanges in one dispatch (6 and
    // 9 instructions retired): each consumes one (t, a, b) register triple,
    // so three of them exactly fill the record's nine register slots. The
    // sorting networks run almost entirely through these.
    CmpXchg2,
    CmpXchg3,
    CmpXchg4,
    // Explicit superinstructions for the hottest fallthrough triples over
    // the kernel catalog (dynamic-frequency data in DESIGN.md §13): their
    // bodies are straight-line code, so one dispatch retires three
    // instructions with no per-sub-op jump at all. `F3AddILdiBrlt` and
    // `F2LdiBrlt` fuse the universal loop latch — a branch may end a fused
    // record (every earlier sub-op falls through into it) but never start
    // or middle one.
    F3MulIAddLd,
    F3LdLdLd,
    F3LdShlAdd,
    F3AddShlAdd,
    F3AddSubAbs,
    F3ShlAddAdd,
    F3SubAbsAdd,
    F3MinIStAddI,
    F3LdSubAbs,
    F3SubAbsAddI,
    F3LdMulIShr,
    F3MinIMaxISt,
    F3AddILdiBrlt,
    F2LdiBrlt,
}

/// Sub-opcode of a fused record: the non-faulting, non-branching subset of
/// the ISA (checked memory forms and control flow stay unfused, so a fused
/// dispatch always retires all of its sub-ops).
#[derive(Clone, Copy)]
enum Micro {
    Ldi,
    Mov,
    Abs,
    Add,
    Sub,
    Mul,
    AddI,
    MulI,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Min,
    Max,
    MinI,
    MaxI,
    Ld,
    St,
    LdInd,
    StInd,
    Nop,
}

/// Micro-code for a single-op record, or `None` if the op cannot be a
/// fused sub-op (it may fault, branch, or halt).
fn micro_of(code: FastCode) -> Option<Micro> {
    Some(match code {
        FastCode::Ldi => Micro::Ldi,
        FastCode::Mov => Micro::Mov,
        FastCode::Abs => Micro::Abs,
        FastCode::Add => Micro::Add,
        FastCode::Sub => Micro::Sub,
        FastCode::Mul => Micro::Mul,
        FastCode::AddI => Micro::AddI,
        FastCode::MulI => Micro::MulI,
        FastCode::Shl => Micro::Shl,
        FastCode::Shr => Micro::Shr,
        FastCode::And => Micro::And,
        FastCode::Or => Micro::Or,
        FastCode::Xor => Micro::Xor,
        FastCode::Min => Micro::Min,
        FastCode::Max => Micro::Max,
        FastCode::MinI => Micro::MinI,
        FastCode::MaxI => Micro::MaxI,
        FastCode::Ld => Micro::Ld,
        FastCode::St => Micro::St,
        FastCode::LdInd => Micro::LdInd,
        FastCode::StInd => Micro::StInd,
        // Markers and frame fences have no architectural effect on the
        // whole-frame path (events are only surfaced by `step_vm`).
        FastCode::Nop | FastCode::Frame => Micro::Nop,
        _ => return None,
    })
}

/// Executes one fused sub-op on the split-borrowed register file and
/// memory. Inlined at three distinct call sites so each position in a
/// fused record dispatches through its own (periodically repeating,
/// well-predicted) jump site.
#[inline(always)]
fn micro(
    regs: &mut RegFile,
    mem: &mut VersionedMemory,
    u: Micro,
    d: Reg,
    a: Reg,
    b: Reg,
    imm: i32,
) {
    match u {
        Micro::Ldi => regs.write0(d, imm),
        Micro::Mov => {
            let v = regs.read0(a);
            regs.write0(d, v);
        }
        Micro::Abs => {
            let v = regs.read0(a).wrapping_abs();
            regs.write0(d, v);
        }
        Micro::Add => {
            let v = regs.read0(a).wrapping_add(regs.read0(b));
            regs.write0(d, v);
        }
        Micro::Sub => {
            let v = regs.read0(a).wrapping_sub(regs.read0(b));
            regs.write0(d, v);
        }
        Micro::Mul => {
            let v = regs.read0(a).wrapping_mul(regs.read0(b));
            regs.write0(d, v);
        }
        Micro::AddI => {
            let v = regs.read0(a).wrapping_add(imm);
            regs.write0(d, v);
        }
        Micro::MulI => {
            let v = regs.read0(a).wrapping_mul(imm);
            regs.write0(d, v);
        }
        Micro::Shl => {
            let v = regs.read0(a).wrapping_shl(imm as u32);
            regs.write0(d, v);
        }
        Micro::Shr => {
            // Shift amount pre-clamped at decode.
            let v = regs.read0(a) >> imm;
            regs.write0(d, v);
        }
        Micro::And => {
            let v = regs.read0(a) & regs.read0(b);
            regs.write0(d, v);
        }
        Micro::Or => {
            let v = regs.read0(a) | regs.read0(b);
            regs.write0(d, v);
        }
        Micro::Xor => {
            let v = regs.read0(a) ^ regs.read0(b);
            regs.write0(d, v);
        }
        Micro::Min => {
            let v = regs.read0(a).min(regs.read0(b));
            regs.write0(d, v);
        }
        Micro::Max => {
            let v = regs.read0(a).max(regs.read0(b));
            regs.write0(d, v);
        }
        Micro::MinI => {
            let v = regs.read0(a).min(imm);
            regs.write0(d, v);
        }
        Micro::MaxI => {
            let v = regs.read0(a).max(imm);
            regs.write0(d, v);
        }
        // Memory sub-ops are only ever the unchecked (proven in-range or
        // absolute-below-size) forms.
        Micro::Ld => {
            let v = mem.read(imm as u32 as usize, 0);
            regs.write0(d, v);
        }
        Micro::St => {
            let v = regs.read0(a);
            mem.write(imm as u32 as usize, 0, v, FULL_BITS);
        }
        Micro::LdInd => {
            let x = regs.read0(b) as i64 + imm as i64;
            let v = mem.read(x as usize, 0);
            regs.write0(d, v);
        }
        Micro::StInd => {
            let x = regs.read0(b) as i64 + imm as i64;
            let v = regs.read0(a);
            mem.write(x as usize, 0, v, FULL_BITS);
        }
        Micro::Nop => {}
    }
}

/// One pre-decoded instruction in the compact form the single-lane precise
/// frame runner consumes: a jump-table `match` over `code` with operands
/// read straight from this record, no function-pointer indirection.
///
/// Superinstruction records (built by the fusion peephole over fallthrough
/// runs) carry up to four operand sets and retire `w` instructions per
/// dispatch (up to 12 for a chained compare-exchange run). The single-op
/// records at the covered pcs are kept, so
/// branching into the middle of a fused run executes identically — fusion
/// is transparent to control flow. Absolute addresses and branch targets
/// share the `imm` slot (no op uses both), keeping the record compact.
#[derive(Clone, Copy)]
struct FastOp {
    code: FastCode,
    /// Instructions retired per dispatch (1 for singles, 2–12 fused).
    w: u8,
    /// Cycles per dispatch: `w` plus one per multiply sub-op.
    cyc: u8,
    u0: Micro,
    u1: Micro,
    u2: Micro,
    d: Reg,
    a: Reg,
    b: Reg,
    d2: Reg,
    a2: Reg,
    b2: Reg,
    d3: Reg,
    a3: Reg,
    b3: Reg,
    // Fourth register triple, used only by `CmpXchg4` (the widest record).
    d4: Reg,
    a4: Reg,
    b4: Reg,
    imm: i32,
    imm2: i32,
    imm3: i32,
}

impl FastOp {
    fn from_op(instr: Instr, op: &Op) -> FastOp {
        use Instr::*;
        // Validated once here so the hot loop's masked register accessors
        // (`RegFile::read0`/`write0`) are exactly equivalent to the
        // interpreter's bounds-checked ones for every op in the table.
        assert!(
            op.d.index() < NUM_REGS && op.a.index() < NUM_REGS && op.b.index() < NUM_REGS,
            "register operand out of range at pc {}",
            op.pc
        );
        let code = match instr {
            Ldi(..) => FastCode::Ldi,
            Mov(..) => FastCode::Mov,
            Ld(..) if op.checked => FastCode::LdChk,
            Ld(..) => FastCode::Ld,
            St(..) if op.checked => FastCode::StChk,
            St(..) => FastCode::St,
            LdInd(..) if op.checked => FastCode::LdIndChk,
            LdInd(..) => FastCode::LdInd,
            StInd(..) if op.checked => FastCode::StIndChk,
            StInd(..) => FastCode::StInd,
            Add(..) => FastCode::Add,
            Sub(..) => FastCode::Sub,
            Mul(..) => FastCode::Mul,
            AddI(..) => FastCode::AddI,
            MulI(..) => FastCode::MulI,
            Shl(..) => FastCode::Shl,
            Shr(..) => FastCode::Shr,
            And(..) => FastCode::And,
            Or(..) => FastCode::Or,
            Xor(..) => FastCode::Xor,
            Min(..) => FastCode::Min,
            Max(..) => FastCode::Max,
            MinI(..) => FastCode::MinI,
            MaxI(..) => FastCode::MaxI,
            Abs(..) => FastCode::Abs,
            Jmp(..) => FastCode::Jmp,
            Brz(..) => FastCode::Brz,
            Brnz(..) => FastCode::Brnz,
            Brlt(..) => FastCode::Brlt,
            Brge(..) => FastCode::Brge,
            Halt => FastCode::Halt,
            Nop | MarkResume(..) => FastCode::Nop,
            FrameDone => FastCode::Frame,
        };
        // Absolute addresses and branch targets ride in `imm`
        // (bit-preserving u32 -> i32, round-tripped at use sites).
        let imm = match instr {
            Ld(..) | St(..) | Jmp(..) | Brz(..) | Brnz(..) | Brlt(..) | Brge(..) => op.addr as i32,
            _ => op.imm,
        };
        FastOp {
            code,
            w: 1,
            cyc: op.cycles,
            u0: Micro::Nop,
            u1: Micro::Nop,
            u2: Micro::Nop,
            d: op.d,
            a: op.a,
            b: op.b,
            d2: Reg(0),
            a2: Reg(0),
            b2: Reg(0),
            d3: Reg(0),
            a3: Reg(0),
            b3: Reg(0),
            d4: Reg(0),
            a4: Reg(0),
            b4: Reg(0),
            imm,
            imm2: 0,
            imm3: 0,
        }
    }
}

/// A program pre-decoded for direct-threaded execution.
///
/// Compile once per kernel (the repro catalog memoises by kernel identity)
/// and share behind an `Arc`: the table is immutable and `Sync`.
pub struct CompiledProgram {
    ops: Vec<Op>,
    fast_tab: Vec<FastOp>,
    mem_words: usize,
    program_len: usize,
}

impl CompiledProgram {
    /// Pre-decodes `program` for a data memory of `mem_words` words.
    ///
    /// `hints` carries the interval analysis' in-range proofs (see
    /// [`CompileHints`]); pass [`CompileHints::none`] to keep every
    /// per-access check.
    pub fn compile(program: &Program, mem_words: usize, hints: &CompileHints) -> Self {
        let len = program.len();
        let covered = hints.limit.unwrap_or(len).min(len);
        let mut ops = Vec::with_capacity(covered);
        let mut fast_tab = Vec::with_capacity(covered);
        for (pc, &instr) in program.instrs().iter().take(covered).enumerate() {
            let proven = hints.in_range.get(pc).copied().unwrap_or(false);
            let op = Self::decode(pc, instr, mem_words, proven);
            fast_tab.push(FastOp::from_op(instr, &op));
            ops.push(op);
        }
        Self::fuse(&mut fast_tab);
        CompiledProgram {
            ops,
            fast_tab,
            mem_words,
            program_len: len,
        }
    }

    fn decode(pc: usize, instr: Instr, mem_words: usize, proven: bool) -> Op {
        let class = instr.class();
        let mut op = Op {
            fast: c_nop,
            gen: c_nop,
            d: Reg(0),
            a: Reg(0),
            b: Reg(0),
            imm: 0,
            addr: 0,
            pc: pc as u32,
            next: pc as u32 + 1,
            cycles: class.cycles() as u8,
            class,
            checked: true,
        };
        use Instr::*;
        let (fast, gen): (OpFn, OpFn) = match instr {
            Ldi(..) => (f_ldi, g_ldi),
            Mov(..) => (f_mov, g_mov),
            Ld(..) => (f_ld, g_ld),
            St(..) => (f_st, g_st),
            LdInd(..) => (f_ld_ind, g_ld_ind),
            StInd(..) => (f_st_ind, g_st_ind),
            Add(..) => (f_add, g_add),
            Sub(..) => (f_sub, g_sub),
            Mul(..) => (f_mul, g_mul),
            AddI(..) => (f_addi, g_addi),
            MulI(..) => (f_muli, g_muli),
            Shl(..) => (f_shl, g_shl),
            Shr(..) => (f_shr, g_shr),
            And(..) => (f_and, g_and),
            Or(..) => (f_or, g_or),
            Xor(..) => (f_xor, g_xor),
            Min(..) => (f_min, g_min),
            Max(..) => (f_max, g_max),
            MinI(..) => (f_mini, g_mini),
            MaxI(..) => (f_maxi, g_maxi),
            Abs(..) => (f_abs, g_abs),
            Jmp(..) => (b_jmp, b_jmp),
            Brz(..) => (b_brz, b_brz),
            Brnz(..) => (b_brnz, b_brnz),
            Brlt(..) => (b_brlt, b_brlt),
            Brge(..) => (b_brge, b_brge),
            Halt => (c_halt, c_halt),
            Nop => (c_nop, c_nop),
            // Markers retire as plain control ops in compiled chains; the
            // incidental controller (the only marker consumer) never runs
            // them compiled.
            MarkResume(..) => (c_nop, c_nop),
            FrameDone => (c_frame, c_frame),
        };
        op.fast = fast;
        op.gen = gen;
        match instr {
            Ldi(d, imm) => {
                op.d = d;
                op.imm = imm;
            }
            Mov(d, s) | Abs(d, s) => {
                op.d = d;
                op.a = s;
            }
            Ld(d, a) => {
                op.d = d;
                op.addr = a;
                // Absolute addresses need no interval proof: in range iff
                // below the memory size the table was compiled for.
                op.checked = (a as usize) >= mem_words;
            }
            St(a, s) => {
                op.a = s;
                op.addr = a;
                op.checked = (a as usize) >= mem_words;
            }
            LdInd(d, b, off) => {
                op.d = d;
                op.b = b;
                op.imm = off;
                op.checked = !proven;
            }
            StInd(b, off, s) => {
                op.a = s;
                op.b = b;
                op.imm = off;
                op.checked = !proven;
            }
            Add(d, a, b)
            | Sub(d, a, b)
            | Mul(d, a, b)
            | And(d, a, b)
            | Or(d, a, b)
            | Xor(d, a, b)
            | Min(d, a, b)
            | Max(d, a, b) => {
                (op.d, op.a, op.b) = (d, a, b);
            }
            AddI(d, a, i) | MulI(d, a, i) | MinI(d, a, i) | MaxI(d, a, i) => {
                (op.d, op.a, op.imm) = (d, a, i);
            }
            Shl(d, a, s) => {
                (op.d, op.a, op.imm) = (d, a, s as i32);
            }
            Shr(d, a, s) => {
                // Pre-clamp to the interpreter's `.min(31)`.
                (op.d, op.a, op.imm) = (d, a, (s as i32).min(31));
            }
            Jmp(t) => op.addr = t,
            Brz(r, t) | Brnz(r, t) => {
                (op.a, op.addr) = (r, t);
            }
            Brlt(a, b, t) | Brge(a, b, t) => {
                (op.a, op.b, op.addr) = (a, b, t);
            }
            Halt | Nop | MarkResume(..) | FrameDone => {}
        }
        op
    }

    /// Whether the compare-exchange idiom `min t,a,b; max b,a,b; mov a,t`
    /// (with `t` distinct from `a` and `b`) starts at `pc`. The sorting
    /// networks' entire hot loop is this triple back to back.
    fn cmpxchg_at(tab: &[FastOp], pc: usize) -> bool {
        if pc + 2 >= tab.len() {
            return false;
        }
        let (f, s1, s2) = (tab[pc], tab[pc + 1], tab[pc + 2]);
        matches!(
            (f.code, s1.code, s2.code),
            (FastCode::Min, FastCode::Max, FastCode::Mov)
        ) && s1.a == f.a
            && s1.b == f.b
            && s1.d == f.b
            && s2.a == f.d
            && s2.d == f.a
            && f.d != f.a
            && f.d != f.b
    }

    /// Whether the universal loop latch `addi; ldi; brlt` starts at `pc`.
    fn latch_at(tab: &[FastOp], pc: usize) -> bool {
        pc + 2 < tab.len()
            && matches!(
                (tab[pc].code, tab[pc + 1].code, tab[pc + 2].code),
                (FastCode::AddI, FastCode::Ldi, FastCode::Brlt)
            )
    }

    /// Explicit-arm triple menu: the hottest fallthrough triples over the
    /// kernel catalog, executed as straight-line bodies.
    fn menu3(tab: &[FastOp], pc: usize) -> Option<FastCode> {
        if pc + 2 >= tab.len() {
            return None;
        }
        use FastCode::*;
        Some(match (tab[pc].code, tab[pc + 1].code, tab[pc + 2].code) {
            (MulI, Add, LdInd) => F3MulIAddLd,
            (LdInd, LdInd, LdInd) => F3LdLdLd,
            (LdInd, Shl, Add) => F3LdShlAdd,
            (Add, Shl, Add) => F3AddShlAdd,
            (Add, Sub, Abs) => F3AddSubAbs,
            (Shl, Add, Add) => F3ShlAddAdd,
            (Sub, Abs, Add) => F3SubAbsAdd,
            (MinI, StInd, AddI) => F3MinIStAddI,
            (LdInd, Sub, Abs) => F3LdSubAbs,
            (Sub, Abs, AddI) => F3SubAbsAddI,
            (LdInd, MulI, Shr) => F3LdMulIShr,
            (MinI, MaxI, StInd) => F3MinIMaxISt,
            _ => return None,
        })
    }

    /// The superinstruction peephole: rewrites each record whose next one
    /// or two fallthrough successors are fusable into a record retiring
    /// the whole run in one dispatch. Preference order per entry pc:
    /// specialised compare-exchange, fused loop latch, the explicit triple
    /// menu, then the generic micro-coded `Fuse3`/`Fuse2` forms. Rewrites
    /// are anchored to the *entry* pc only: the single-op records at
    /// covered successor pcs are left untouched, so a branch landing
    /// mid-run executes identically. Generic records shrink rather than
    /// straddle a downstream compare-exchange or latch start, keeping the
    /// canonical entry chain aligned with the specialised records.
    fn fuse(tab: &mut [FastOp]) {
        let n = tab.len();
        let mut anchor = vec![false; n];
        for (pc, a) in anchor.iter_mut().enumerate() {
            *a = Self::cmpxchg_at(tab, pc) || Self::latch_at(tab, pc);
        }
        for pc in 0..n {
            // Successor records are read before their own (higher-pc)
            // iteration rewrites them: always original singles.
            if Self::cmpxchg_at(tab, pc) {
                // Chain up to four consecutive compare-exchanges into one
                // record; their (t, a, b) triples fill the operand slots.
                let two = Self::cmpxchg_at(tab, pc + 3);
                let three = two && Self::cmpxchg_at(tab, pc + 6);
                let four = three && Self::cmpxchg_at(tab, pc + 9);
                let (s1, s2, s3) = (
                    tab[(pc + 3).min(n - 1)],
                    tab[(pc + 6).min(n - 1)],
                    tab[(pc + 9).min(n - 1)],
                );
                let f = &mut tab[pc];
                if four {
                    f.code = FastCode::CmpXchg4;
                    f.w = 12;
                    f.cyc = 12;
                    (f.d2, f.a2, f.b2) = (s1.d, s1.a, s1.b);
                    (f.d3, f.a3, f.b3) = (s2.d, s2.a, s2.b);
                    (f.d4, f.a4, f.b4) = (s3.d, s3.a, s3.b);
                } else if three {
                    f.code = FastCode::CmpXchg3;
                    f.w = 9;
                    f.cyc = 9;
                    (f.d2, f.a2, f.b2) = (s1.d, s1.a, s1.b);
                    (f.d3, f.a3, f.b3) = (s2.d, s2.a, s2.b);
                } else if two {
                    f.code = FastCode::CmpXchg2;
                    f.w = 6;
                    f.cyc = 6;
                    (f.d2, f.a2, f.b2) = (s1.d, s1.a, s1.b);
                } else {
                    f.code = FastCode::CmpXchg;
                    f.w = 3;
                    f.cyc = 3;
                }
                continue;
            }
            if Self::latch_at(tab, pc) {
                let (s1, s2) = (tab[pc + 1], tab[pc + 2]);
                let f = &mut tab[pc];
                f.code = FastCode::F3AddILdiBrlt;
                f.w = 3;
                f.cyc = 3;
                f.d2 = s1.d;
                f.imm2 = s1.imm;
                f.a3 = s2.a;
                f.b3 = s2.b;
                f.imm3 = s2.imm;
                continue;
            }
            if let Some(code) = Self::menu3(tab, pc) {
                let (s1, s2) = (tab[pc + 1], tab[pc + 2]);
                let f = &mut tab[pc];
                f.code = code;
                f.w = 3;
                f.cyc += s1.cyc + s2.cyc;
                f.d2 = s1.d;
                f.a2 = s1.a;
                f.b2 = s1.b;
                f.imm2 = s1.imm;
                f.d3 = s2.d;
                f.a3 = s2.a;
                f.b3 = s2.b;
                f.imm3 = s2.imm;
                continue;
            }
            // The loop latch's tail when the addi was consumed upstream.
            if pc + 1 < n
                && matches!(
                    (tab[pc].code, tab[pc + 1].code),
                    (FastCode::Ldi, FastCode::Brlt)
                )
            {
                let s1 = tab[pc + 1];
                let f = &mut tab[pc];
                f.code = FastCode::F2LdiBrlt;
                f.w = 2;
                f.cyc = 2;
                f.a2 = s1.a;
                f.b2 = s1.b;
                f.imm2 = s1.imm;
                continue;
            }
            // Generic micro-coded fusion for everything else fusable.
            let Some(u0) = micro_of(tab[pc].code) else {
                continue;
            };
            let s1 = match tab.get(pc + 1) {
                Some(s) if !anchor[pc + 1] => *s,
                _ => continue,
            };
            let Some(u1) = micro_of(s1.code) else {
                continue;
            };
            let second = match tab.get(pc + 2) {
                Some(s) if !anchor[pc + 2] => micro_of(s.code).map(|u| (*s, u)),
                _ => None,
            };
            let f = &mut tab[pc];
            f.u0 = u0;
            f.u1 = u1;
            f.d2 = s1.d;
            f.a2 = s1.a;
            f.b2 = s1.b;
            f.imm2 = s1.imm;
            if let Some((s2, u2)) = second {
                f.code = FastCode::Fuse3;
                f.w = 3;
                f.cyc += s1.cyc + s2.cyc;
                f.u2 = u2;
                f.d3 = s2.d;
                f.a3 = s2.a;
                f.b3 = s2.b;
                f.imm3 = s2.imm;
            } else {
                f.code = FastCode::Fuse2;
                f.w = 2;
                f.cyc += s1.cyc;
            }
        }
    }

    /// Whether `pc` has a compiled op (false past a [`CompileHints::limit`]
    /// or off the end of the program).
    #[inline]
    pub fn covers(&self, pc: usize) -> bool {
        pc < self.ops.len()
    }

    /// Number of leading pcs covered by the table.
    pub fn covered(&self) -> usize {
        self.ops.len()
    }

    /// Length of the source program (instruction count).
    pub fn len(&self) -> usize {
        self.program_len
    }

    /// Whether the source program was empty.
    pub fn is_empty(&self) -> bool {
        self.program_len == 0
    }

    /// Data-memory size (words) the bounds hoisting was compiled against.
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }

    /// Instruction class at `pc`, for class-keyed energy tables.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not covered.
    #[inline]
    pub fn class_of(&self, pc: usize) -> InstrClass {
        self.ops[pc].class
    }

    /// Whether `vm`'s live configuration allows the single-lane precise
    /// specialisation.
    #[inline]
    fn fast_mode(vm: &Vm) -> bool {
        !vm.cfg.ac_en && vm.cfg.lanes == 1
    }

    /// Asserts this table was compiled for `vm`'s program and memory.
    fn check_compatible(&self, vm: &Vm) {
        assert_eq!(
            self.program_len,
            vm.program().len(),
            "compiled table does not match the loaded program"
        );
        assert_eq!(
            self.mem_words,
            vm.mem().len(),
            "compiled table was hoisted against a different memory size"
        );
    }

    /// Retires exactly the instruction at `vm.pc()` through the compiled
    /// table — identical state mutation, counters, and pc update to
    /// [`Vm::step`], minus fetch and decode.
    ///
    /// The caller must ensure `!vm.halted()` and `self.covers(vm.pc())`;
    /// this is the per-instruction entry the system simulator uses inside
    /// armed block chains.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MemFault`] exactly where stepping would: the
    /// faulting instruction is not retired, the pc stays on it, and the VM
    /// halts.
    #[inline]
    pub fn step_vm(&self, vm: &mut Vm) -> Result<ChainEvent, VmError> {
        debug_assert!(!vm.halted());
        debug_assert!(self.covers(vm.pc));
        let op = &self.ops[vm.pc];
        let f = if Self::fast_mode(vm) { op.fast } else { op.gen };
        let ctl = f(vm, op)?;
        if ctl.ev != EV_HALT {
            vm.instructions_retired += 1;
            vm.cycles_elapsed += op.cycles as u64;
        }
        vm.pc = ctl.next as usize;
        Ok(match ctl.ev {
            EV_FRAME => ChainEvent::FrameDone,
            EV_HALT => ChainEvent::Halted,
            _ => ChainEvent::Executed,
        })
    }

    /// Runs `vm` to halt through the compiled table; behaviourally
    /// identical to [`Vm::run_to_halt`], including counters, fault
    /// behaviour, and the step-limit check order. Pcs the table does not
    /// cover fall back to single-step interpretation.
    ///
    /// Returns the number of instructions retired by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::MemFault`] and returns [`VmError::StepLimit`]
    /// when the budget is exhausted before `halt`.
    ///
    /// # Panics
    ///
    /// Panics if the table was compiled for a different program length or
    /// memory size than `vm` carries.
    pub fn run_to_halt(&self, vm: &mut Vm, limit: u64) -> Result<u64, VmError> {
        self.check_compatible(vm);
        if Self::fast_mode(vm) {
            self.run_fast(vm, limit)
        } else {
            self.run_gen(vm, limit)
        }
    }

    /// [`Self::run_to_halt`] for configurations with SIMD lanes or
    /// approximation enabled: direct-threaded through the per-op `gen`
    /// function pointers, which call the interpreter's own
    /// `write_alu`/`do_store` helpers for exact replica semantics.
    fn run_gen(&self, vm: &mut Vm, limit: u64) -> Result<u64, VmError> {
        let start = vm.instructions_retired;
        let covered = self.ops.len();
        let mut pc = vm.pc;
        // Batched counters: flushed to the VM at every exit and around
        // step-interpreter fallbacks so observable state never diverges.
        let mut retired = 0u64;
        let mut cycles = 0u64;
        macro_rules! flush {
            () => {
                vm.pc = pc;
                vm.instructions_retired += retired;
                vm.cycles_elapsed += cycles;
            };
        }
        while !vm.halted {
            if vm.instructions_retired - start + retired >= limit {
                flush!();
                return Err(VmError::StepLimit { limit });
            }
            if pc >= covered {
                // Uncovered pc (compile limit) or off the end: one
                // interpreter step keeps exact semantics, then resume.
                flush!();
                retired = 0;
                cycles = 0;
                vm.step()?;
                pc = vm.pc;
                continue;
            }
            let op = &self.ops[pc];
            match (op.gen)(vm, op) {
                Ok(ctl) => {
                    pc = ctl.next as usize;
                    if ctl.ev == EV_HALT {
                        break; // halt retires nothing; op set vm.halted
                    }
                    retired += 1;
                    cycles += op.cycles as u64;
                }
                Err(e) => {
                    // Fault: pc stays on the faulting instruction.
                    flush!();
                    return Err(e);
                }
            }
        }
        flush!();
        Ok(vm.instructions_retired - start)
    }

    /// [`Self::run_to_halt`] specialised for the single-lane precise
    /// configuration: a switch-dispatch loop over the compact [`FastOp`]
    /// table with the pc and retirement counters held in locals and the
    /// register file / data memory split-borrowed once, outside the loop.
    /// In this configuration the interpreter consumes no RNG and never
    /// touches precision floors, so the only architectural effects are
    /// register/memory words and the counters — all replicated exactly.
    fn run_fast(&self, vm: &mut Vm, limit: u64) -> Result<u64, VmError> {
        debug_assert!(Self::fast_mode(vm));
        let start = vm.instructions_retired;
        loop {
            if vm.halted {
                return Ok(vm.instructions_retired - start);
            }
            let done = vm.instructions_retired - start;
            if done >= limit {
                return Err(VmError::StepLimit { limit });
            }
            if !self.covers(vm.pc) {
                // Uncovered pc (compile limit) or off the end: one
                // interpreter step keeps exact semantics, then resume.
                vm.step()?;
                continue;
            }
            if limit - done < 12 {
                // Less budget than the widest fused record, which cannot
                // split across the limit: take exact interpreter steps for
                // the tail instead.
                vm.step()?;
                continue;
            }
            // The tight segment: runs until halt, fault, budget
            // exhaustion, or an uncovered pc, then flushes the batched
            // counters back into the VM. `left` counts the remaining
            // budget down by each record's retire weight; `cyc` tallies
            // cycles from the records' static per-dispatch counts.
            let mut pc = vm.pc;
            let budget = limit - done;
            let mut left = budget;
            let mut cyc: u64 = 0;
            let mut halted = false;
            let mut fault: Option<VmError> = None;
            {
                let tab = &self.fast_tab[..];
                let (regs, mem) = vm.split_mut();
                'seg: while let Some(&op) = tab.get(pc) {
                    if left < op.w as u64 {
                        break 'seg;
                    }
                    match op.code {
                        FastCode::Ldi => {
                            regs.write0(op.d, op.imm);
                            pc += 1;
                        }
                        FastCode::Mov => {
                            let v = regs.read0(op.a);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Ld => {
                            let v = mem.read(op.imm as u32 as usize, 0);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::LdChk => {
                            if (op.imm as u32 as usize) >= mem.len() {
                                fault = Some(VmError::MemFault {
                                    pc,
                                    addr: op.imm as u32 as i64,
                                });
                                break 'seg;
                            }
                            let v = mem.read(op.imm as u32 as usize, 0);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::St => {
                            let v = regs.read0(op.a);
                            mem.write(op.imm as u32 as usize, 0, v, FULL_BITS);
                            pc += 1;
                        }
                        FastCode::StChk => {
                            if (op.imm as u32 as usize) >= mem.len() {
                                fault = Some(VmError::MemFault {
                                    pc,
                                    addr: op.imm as u32 as i64,
                                });
                                break 'seg;
                            }
                            let v = regs.read0(op.a);
                            mem.write(op.imm as u32 as usize, 0, v, FULL_BITS);
                            pc += 1;
                        }
                        FastCode::LdInd => {
                            // Proven in `[0, mem_words)` by the interval
                            // analysis; the cast cannot wrap.
                            let a = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = mem.read(a as usize, 0);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::LdIndChk => {
                            let a = regs.read0(op.b) as i64 + op.imm as i64;
                            if a < 0 || a as usize >= mem.len() {
                                fault = Some(VmError::MemFault { pc, addr: a });
                                break 'seg;
                            }
                            let v = mem.read(a as usize, 0);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::StInd => {
                            let a = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = regs.read0(op.a);
                            mem.write(a as usize, 0, v, FULL_BITS);
                            pc += 1;
                        }
                        FastCode::StIndChk => {
                            let a = regs.read0(op.b) as i64 + op.imm as i64;
                            if a < 0 || a as usize >= mem.len() {
                                fault = Some(VmError::MemFault { pc, addr: a });
                                break 'seg;
                            }
                            let v = regs.read0(op.a);
                            mem.write(a as usize, 0, v, FULL_BITS);
                            pc += 1;
                        }
                        FastCode::Add => {
                            let v = regs.read0(op.a).wrapping_add(regs.read0(op.b));
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Sub => {
                            let v = regs.read0(op.a).wrapping_sub(regs.read0(op.b));
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Mul => {
                            let v = regs.read0(op.a).wrapping_mul(regs.read0(op.b));
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::AddI => {
                            let v = regs.read0(op.a).wrapping_add(op.imm);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::MulI => {
                            let v = regs.read0(op.a).wrapping_mul(op.imm);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Shl => {
                            let v = regs.read0(op.a).wrapping_shl(op.imm as u32);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Shr => {
                            // Shift amount pre-clamped at decode.
                            let v = regs.read0(op.a) >> op.imm;
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::And => {
                            let v = regs.read0(op.a) & regs.read0(op.b);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Or => {
                            let v = regs.read0(op.a) | regs.read0(op.b);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Xor => {
                            let v = regs.read0(op.a) ^ regs.read0(op.b);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Min => {
                            let v = regs.read0(op.a).min(regs.read0(op.b));
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Max => {
                            let v = regs.read0(op.a).max(regs.read0(op.b));
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::MinI => {
                            let v = regs.read0(op.a).min(op.imm);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::MaxI => {
                            let v = regs.read0(op.a).max(op.imm);
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Abs => {
                            let v = regs.read0(op.a).wrapping_abs();
                            regs.write0(op.d, v);
                            pc += 1;
                        }
                        FastCode::Jmp => {
                            pc = op.imm as u32 as usize;
                        }
                        FastCode::Brz => {
                            pc = if regs.read0(op.a) == 0 {
                                op.imm as u32 as usize
                            } else {
                                pc + 1
                            };
                        }
                        FastCode::Brnz => {
                            pc = if regs.read0(op.a) != 0 {
                                op.imm as u32 as usize
                            } else {
                                pc + 1
                            };
                        }
                        FastCode::Brlt => {
                            pc = if regs.read0(op.a) < regs.read0(op.b) {
                                op.imm as u32 as usize
                            } else {
                                pc + 1
                            };
                        }
                        FastCode::Brge => {
                            pc = if regs.read0(op.a) >= regs.read0(op.b) {
                                op.imm as u32 as usize
                            } else {
                                pc + 1
                            };
                        }
                        FastCode::Halt => {
                            // Halt retires nothing and skips the budget
                            // decrement below.
                            halted = true;
                            pc += 1;
                            break 'seg;
                        }
                        FastCode::Nop | FastCode::Frame => {
                            pc += 1;
                        }
                        // Fused records retire `w` instructions through
                        // the shared decrement below; the loop guard
                        // already refused records wider than the budget.
                        FastCode::Fuse2 => {
                            micro(regs, mem, op.u0, op.d, op.a, op.b, op.imm);
                            micro(regs, mem, op.u1, op.d2, op.a2, op.b2, op.imm2);
                            pc += 2;
                        }
                        FastCode::Fuse3 => {
                            micro(regs, mem, op.u0, op.d, op.a, op.b, op.imm);
                            micro(regs, mem, op.u1, op.d2, op.a2, op.b2, op.imm2);
                            micro(regs, mem, op.u2, op.d3, op.a3, op.b3, op.imm3);
                            pc += 3;
                        }
                        FastCode::CmpXchg => {
                            // min t,a,b ; max b,a,b ; mov a,t with t
                            // distinct: both operands read once.
                            let x = regs.read0(op.a);
                            let y = regs.read0(op.b);
                            let lo = x.min(y);
                            regs.write0(op.d, lo);
                            regs.write0(op.b, x.max(y));
                            regs.write0(op.a, lo);
                            pc += 3;
                        }
                        FastCode::CmpXchg2 => {
                            let x = regs.read0(op.a);
                            let y = regs.read0(op.b);
                            let lo = x.min(y);
                            regs.write0(op.d, lo);
                            regs.write0(op.b, x.max(y));
                            regs.write0(op.a, lo);
                            let x = regs.read0(op.a2);
                            let y = regs.read0(op.b2);
                            let lo = x.min(y);
                            regs.write0(op.d2, lo);
                            regs.write0(op.b2, x.max(y));
                            regs.write0(op.a2, lo);
                            pc += 6;
                        }
                        FastCode::CmpXchg3 => {
                            let x = regs.read0(op.a);
                            let y = regs.read0(op.b);
                            let lo = x.min(y);
                            regs.write0(op.d, lo);
                            regs.write0(op.b, x.max(y));
                            regs.write0(op.a, lo);
                            let x = regs.read0(op.a2);
                            let y = regs.read0(op.b2);
                            let lo = x.min(y);
                            regs.write0(op.d2, lo);
                            regs.write0(op.b2, x.max(y));
                            regs.write0(op.a2, lo);
                            let x = regs.read0(op.a3);
                            let y = regs.read0(op.b3);
                            let lo = x.min(y);
                            regs.write0(op.d3, lo);
                            regs.write0(op.b3, x.max(y));
                            regs.write0(op.a3, lo);
                            pc += 9;
                        }
                        FastCode::CmpXchg4 => {
                            let x = regs.read0(op.a);
                            let y = regs.read0(op.b);
                            let lo = x.min(y);
                            regs.write0(op.d, lo);
                            regs.write0(op.b, x.max(y));
                            regs.write0(op.a, lo);
                            let x = regs.read0(op.a2);
                            let y = regs.read0(op.b2);
                            let lo = x.min(y);
                            regs.write0(op.d2, lo);
                            regs.write0(op.b2, x.max(y));
                            regs.write0(op.a2, lo);
                            let x = regs.read0(op.a3);
                            let y = regs.read0(op.b3);
                            let lo = x.min(y);
                            regs.write0(op.d3, lo);
                            regs.write0(op.b3, x.max(y));
                            regs.write0(op.a3, lo);
                            let x = regs.read0(op.a4);
                            let y = regs.read0(op.b4);
                            let lo = x.min(y);
                            regs.write0(op.d4, lo);
                            regs.write0(op.b4, x.max(y));
                            regs.write0(op.a4, lo);
                            pc += 12;
                        }
                        FastCode::F3MulIAddLd => {
                            let v = regs.read0(op.a).wrapping_mul(op.imm);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_add(regs.read0(op.b2));
                            regs.write0(op.d2, v2);
                            let x = regs.read0(op.b3) as i64 + op.imm3 as i64;
                            let v3 = mem.read(x as usize, 0);
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3LdLdLd => {
                            let x = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = mem.read(x as usize, 0);
                            regs.write0(op.d, v);
                            let y = regs.read0(op.b2) as i64 + op.imm2 as i64;
                            let v2 = mem.read(y as usize, 0);
                            regs.write0(op.d2, v2);
                            let z = regs.read0(op.b3) as i64 + op.imm3 as i64;
                            let v3 = mem.read(z as usize, 0);
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3LdShlAdd => {
                            let x = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = mem.read(x as usize, 0);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_shl(op.imm2 as u32);
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_add(regs.read0(op.b3));
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3AddShlAdd => {
                            let v = regs.read0(op.a).wrapping_add(regs.read0(op.b));
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_shl(op.imm2 as u32);
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_add(regs.read0(op.b3));
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3AddSubAbs => {
                            let v = regs.read0(op.a).wrapping_add(regs.read0(op.b));
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_sub(regs.read0(op.b2));
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_abs();
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3ShlAddAdd => {
                            let v = regs.read0(op.a).wrapping_shl(op.imm as u32);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_add(regs.read0(op.b2));
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_add(regs.read0(op.b3));
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3SubAbsAdd => {
                            let v = regs.read0(op.a).wrapping_sub(regs.read0(op.b));
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_abs();
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_add(regs.read0(op.b3));
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3MinIStAddI => {
                            let v = regs.read0(op.a).min(op.imm);
                            regs.write0(op.d, v);
                            let x = regs.read0(op.b2) as i64 + op.imm2 as i64;
                            let s = regs.read0(op.a2);
                            mem.write(x as usize, 0, s, FULL_BITS);
                            let v3 = regs.read0(op.a3).wrapping_add(op.imm3);
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3LdSubAbs => {
                            let x = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = mem.read(x as usize, 0);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_sub(regs.read0(op.b2));
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_abs();
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3SubAbsAddI => {
                            let v = regs.read0(op.a).wrapping_sub(regs.read0(op.b));
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_abs();
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3).wrapping_add(op.imm3);
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3LdMulIShr => {
                            let x = regs.read0(op.b) as i64 + op.imm as i64;
                            let v = mem.read(x as usize, 0);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).wrapping_mul(op.imm2);
                            regs.write0(op.d2, v2);
                            let v3 = regs.read0(op.a3) >> op.imm3;
                            regs.write0(op.d3, v3);
                            pc += 3;
                        }
                        FastCode::F3MinIMaxISt => {
                            let v = regs.read0(op.a).min(op.imm);
                            regs.write0(op.d, v);
                            let v2 = regs.read0(op.a2).max(op.imm2);
                            regs.write0(op.d2, v2);
                            let x = regs.read0(op.b3) as i64 + op.imm3 as i64;
                            let s = regs.read0(op.a3);
                            mem.write(x as usize, 0, s, FULL_BITS);
                            pc += 3;
                        }
                        FastCode::F3AddILdiBrlt => {
                            let v = regs.read0(op.a).wrapping_add(op.imm);
                            regs.write0(op.d, v);
                            regs.write0(op.d2, op.imm2);
                            pc = if regs.read0(op.a3) < regs.read0(op.b3) {
                                op.imm3 as u32 as usize
                            } else {
                                pc + 3
                            };
                        }
                        FastCode::F2LdiBrlt => {
                            regs.write0(op.d, op.imm);
                            pc = if regs.read0(op.a2) < regs.read0(op.b2) {
                                op.imm2 as u32 as usize
                            } else {
                                pc + 2
                            };
                        }
                    }
                    left -= op.w as u64;
                    cyc += op.cyc as u64;
                }
            }
            let retired = budget - left;
            vm.pc = pc;
            vm.instructions_retired += retired;
            vm.cycles_elapsed += cyc;
            if halted {
                vm.halted = true;
            }
            if let Some(e) = fault {
                // Fault: pc stays on the faulting instruction.
                vm.halted = true;
                return Err(e);
            }
        }
    }
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("covered", &self.ops.len())
            .field("program_len", &self.program_len)
            .field("mem_words", &self.mem_words)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxConfig;
    use crate::program::ProgramBuilder;
    use std::sync::Arc;

    fn sum_loop() -> Program {
        // r2 = sum of 1..=5, stored to mem[3]
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).ldi(Reg(1), 6).ldi(Reg(2), 0);
        let top = b.label();
        b.place(top);
        b.add(Reg(2), Reg(2), Reg(0));
        b.addi(Reg(0), Reg(0), 1);
        b.brlt(Reg(0), Reg(1), top);
        b.st(3, Reg(2));
        b.halt();
        b.build().unwrap()
    }

    fn lockstep(program: Program, mem_words: usize, cfg: ApproxConfig, seed: u64) {
        let program = Arc::new(program);
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, mem_words, &hints);
        let mut a = Vm::new(program.clone(), mem_words);
        let mut b = Vm::new(program, mem_words);
        a.set_approx(cfg);
        b.set_approx(cfg);
        a.seed_noise(seed);
        b.seed_noise(seed);
        let ra = a.run_to_halt(100_000);
        let rb = compiled.run_to_halt(&mut b, 100_000);
        assert_eq!(ra.ok(), rb.ok());
        assert_eq!(a.pc(), b.pc());
        assert_eq!(a.halted(), b.halted());
        assert_eq!(a.instructions_retired(), b.instructions_retired());
        assert_eq!(a.cycles_elapsed(), b.cycles_elapsed());
        assert_eq!(a.regfile().snapshot(), b.regfile().snapshot());
        for w in 0..mem_words {
            for l in 0..4 {
                assert_eq!(a.mem().read(w, l), b.mem().read(w, l));
                assert_eq!(a.mem().precision(w, l), b.mem().precision(w, l));
            }
        }
    }

    #[test]
    fn compiled_matches_step_precise() {
        lockstep(sum_loop(), 8, ApproxConfig::default(), 7);
    }

    #[test]
    fn compiled_matches_step_approximate() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(2));
        b.approx_region(0, 8);
        b.ldi(Reg(0), 0x55)
            .ldi(Reg(1), 0x2A)
            .add(Reg(2), Reg(0), Reg(1))
            .st(2, Reg(2))
            .add(Reg(2), Reg(2), Reg(0))
            .st(4, Reg(2))
            .halt();
        lockstep(b.build().unwrap(), 16, ApproxConfig::fixed(3), 99);
    }

    #[test]
    fn compiled_matches_step_simd_lanes() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(0), 0)
            .ld(Reg(1), 1)
            .add(Reg(2), Reg(0), Reg(1))
            .st(3, Reg(2))
            .halt();
        let program = Arc::new(b.build().unwrap());
        let cfg = ApproxConfig {
            lanes: 2,
            ..Default::default()
        };
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        let mut vm = Vm::new(program, 8);
        vm.set_approx(cfg);
        vm.mem_mut().write(0, 0, 10, 8);
        vm.mem_mut().write(1, 0, 1, 8);
        vm.mem_mut().write(0, 1, 20, 8);
        vm.mem_mut().write(1, 1, 2, 8);
        compiled.run_to_halt(&mut vm, 100).unwrap();
        assert_eq!(vm.mem().read(3, 0), 11);
        assert_eq!(vm.mem().read(3, 1), 22);
    }

    #[test]
    fn compiled_faults_like_step() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 2).ld_ind(Reg(1), Reg(0), -5).halt();
        let program = Arc::new(b.build().unwrap());
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        let mut vm = Vm::new(program, 8);
        let e = compiled.run_to_halt(&mut vm, 100).unwrap_err();
        assert_eq!(e, VmError::MemFault { pc: 1, addr: -3 });
        assert!(vm.halted());
        assert_eq!(vm.pc(), 1);
        assert_eq!(vm.instructions_retired(), 1);
    }

    #[test]
    fn compiled_step_limit_matches() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.place(top);
        b.jmp(top).halt();
        let program = Arc::new(b.build().unwrap());
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 4, &hints);
        let mut vm = Vm::new(program, 4);
        assert_eq!(
            compiled.run_to_halt(&mut vm, 10).unwrap_err(),
            VmError::StepLimit { limit: 10 }
        );
        assert_eq!(vm.instructions_retired(), 10);
    }

    #[test]
    fn uncovered_pc_falls_back_to_interpreter() {
        let program = Arc::new(sum_loop());
        let hints = CompileHints {
            in_range: vec![false; program.len()],
            limit: Some(4), // loop body tail and store run interpreted
        };
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        assert!(compiled.covers(3));
        assert!(!compiled.covers(4));
        let mut a = Vm::new(program.clone(), 8);
        let mut b = Vm::new(program, 8);
        a.run_to_halt(1000).unwrap();
        compiled.run_to_halt(&mut b, 1000).unwrap();
        assert_eq!(a.mem().read(3, 0), 15);
        assert_eq!(b.mem().read(3, 0), 15);
        assert_eq!(a.instructions_retired(), b.instructions_retired());
        assert_eq!(a.cycles_elapsed(), b.cycles_elapsed());
    }

    #[test]
    fn hoisted_absolute_checks_skip_fault_test() {
        // In-range absolute accesses compile unchecked; out-of-range ones
        // keep the fault path.
        let mut b = ProgramBuilder::new();
        b.ld(Reg(0), 2).st(99, Reg(0)).halt();
        let program = Arc::new(b.build().unwrap());
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        let mut vm = Vm::new(program, 8);
        let e = compiled.run_to_halt(&mut vm, 100).unwrap_err();
        assert_eq!(e, VmError::MemFault { pc: 1, addr: 99 });
    }

    #[test]
    fn step_vm_retires_one_instruction() {
        let program = Arc::new(sum_loop());
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        let mut vm = Vm::new(program, 8);
        assert_eq!(compiled.step_vm(&mut vm).unwrap(), ChainEvent::Executed);
        assert_eq!(vm.pc(), 1);
        assert_eq!(vm.instructions_retired(), 1);
        assert_eq!(vm.reg(Reg(0), 0), 1);
    }
}
