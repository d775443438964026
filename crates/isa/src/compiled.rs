//! Pre-decoded per-instruction execution: the compiled op table.
//!
//! [`Vm::step`] pays a fetch, a 30-way opcode match, and per-lane closure
//! dispatch for every instruction. This module compiles a [`Program`] once
//! into a per-pc table of `Op` records — operands resolved at compile
//! time, cycle/class metadata baked in, memory bounds checks hoisted where
//! an interval analysis has proven the access in range — and retires one
//! record per [`CompiledProgram::step_vm`] call through plain `fn`
//! pointers. No `unsafe`, no JIT: every op body is safe Rust over the same
//! `Vm` state the interpreter mutates.
//!
//! The system simulator does not run the table: both of its engines
//! retire instructions through the one metered loop, [`Vm::run_metered`],
//! whose inlined interpreter match measured as fast as dispatching through
//! this table. The table is compiled, memoised and injected only through
//! the public API the benchmark drives (`nvp_repro::catalog::compiled_for`,
//! `nvp_sim::SystemSim::set_compiled`), and goes together with that API.
//!
//! Two function pointers are compiled per op:
//!
//! * **fast** — specialised for the single-lane precise configuration
//!   (`lanes == 1 && !ac_en`): no lane loop, no approximation tests, no
//!   RNG.
//! * **gen** — an exact replica of the interpreter's match arm (it calls
//!   the same `write_alu`/`do_store` helpers), used whenever SIMD lanes or
//!   approximation are active.
//!
//! `step_vm` picks one per instruction from the live
//! [`ApproxConfig`](crate::ApproxConfig), so compiled execution is
//! bit-identical to stepping in **every** configuration — same
//! register/memory values, same precision tags, same RNG consumption, same
//! retired/cycle counters. The unit tests below and
//! `nvp-sim/tests/compiled_kernels.rs`, which runs every shipped kernel to
//! halt through `step_vm` against [`Vm::run_to_halt`], enforce that
//! contract.
//!
//! Bounds-check hoisting is advisory, not load-bearing for memory safety:
//! an op whose access was proven in range skips the interpreter's
//! `check_addr` fault test, but the underlying `VersionedMemory` indexing
//! is still safe Rust (it would panic, not scribble, if an interval proof
//! were ever wrong). Ops whose access cannot be proven keep the exact
//! per-access fault behaviour of [`Vm::step`].

use crate::approx::FULL_BITS;
use crate::instr::{Instr, InstrClass, Reg};
use crate::program::Program;
use crate::vm::{StepEvent, Vm, VmError};

/// Per-program facts the compiler consumes, produced by `nvp-analysis`
/// (which owns the interval dataflow) and handed across the crate boundary
/// in this dependency-free form.
#[derive(Debug, Clone, Default)]
pub struct CompileHints {
    /// `in_range[pc]` is `true` when every address the memory instruction
    /// at `pc` can compute is proven inside `[0, mem_words)`, so its
    /// per-access fault check can be hoisted out of the op body.
    pub in_range: Vec<bool>,
}

impl CompileHints {
    /// Hints that prove nothing: every access keeps its per-access check.
    pub fn none(program_len: usize) -> Self {
        CompileHints {
            in_range: vec![false; program_len],
        }
    }
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

/// A program pre-decoded into one `Op` record per pc.
///
/// Compile once per kernel (the repro catalog memoises by kernel identity)
/// and share behind an `Arc`: the table is immutable and `Sync`.
pub struct CompiledProgram {
    ops: Vec<Op>,
    mem_words: usize,
}

impl CompiledProgram {
    /// Pre-decodes `program` for a data memory of `mem_words` words.
    ///
    /// `hints` carries the interval analysis' in-range proofs (see
    /// [`CompileHints`]); pass [`CompileHints::none`] to keep every
    /// per-access check.
    pub fn compile(program: &Program, mem_words: usize, hints: &CompileHints) -> Self {
        let ops = program
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, &instr)| {
                let proven = hints.in_range.get(pc).copied().unwrap_or(false);
                Self::decode(pc, instr, mem_words, proven)
            })
            .collect();
        CompiledProgram { ops, mem_words }
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
            // Markers retire as plain control ops: the incidental
            // controller watches for pc 0, not for the marker's event.
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

    /// Length of the source program (instruction count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the source program was empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Data-memory size (words) the bounds hoisting was compiled against.
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }

    /// Whether `vm`'s live configuration allows the single-lane precise
    /// specialisation.
    #[inline]
    fn fast_mode(vm: &Vm) -> bool {
        !vm.cfg.ac_en && vm.cfg.lanes == 1
    }

    /// Retires exactly the instruction at `vm.pc()` through the compiled
    /// table — identical state mutation, counters, pc update and event to
    /// [`Vm::step`], minus fetch and decode.
    ///
    /// The caller must ensure `!vm.halted()` and `vm.pc() < self.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MemFault`] exactly where stepping would: the
    /// faulting instruction is not retired, the pc stays on it, and the VM
    /// halts.
    pub fn step_vm(&self, vm: &mut Vm) -> Result<StepEvent, VmError> {
        debug_assert!(!vm.halted());
        let op = &self.ops[vm.pc];
        let f = if Self::fast_mode(vm) { op.fast } else { op.gen };
        let ctl = f(vm, op)?;
        if ctl.ev != EV_HALT {
            vm.instructions_retired += 1;
            vm.cycles_elapsed += op.cycles as u64;
        }
        vm.pc = ctl.next as usize;
        Ok(match ctl.ev {
            EV_FRAME => StepEvent::FrameDone,
            EV_HALT => StepEvent::Halted,
            _ => StepEvent::Executed(op.class),
        })
    }
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("len", &self.ops.len())
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

    /// Runs `vm` to halt one instruction at a time through `step_vm`.
    fn run(compiled: &CompiledProgram, vm: &mut Vm) -> Result<(), VmError> {
        while !vm.halted() {
            compiled.step_vm(vm)?;
        }
        Ok(())
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
        let ra = a.run_to_halt(100_000).map(|_| ());
        let rb = run(&compiled, &mut b);
        assert_eq!(ra, rb);
        assert_eq!(a.pc(), b.pc());
        assert_eq!(a.halted(), b.halted());
        assert_eq!(a.instructions_retired(), b.instructions_retired());
        assert_eq!(a.cycles_elapsed(), b.cycles_elapsed());
        assert_eq!(a.regfile(), b.regfile());
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
        run(&compiled, &mut vm).unwrap();
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
        let e = run(&compiled, &mut vm).unwrap_err();
        assert_eq!(e, VmError::MemFault { pc: 1, addr: -3 });
        assert!(vm.halted());
        assert_eq!(vm.pc(), 1);
        assert_eq!(vm.instructions_retired(), 1);
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
        let e = run(&compiled, &mut vm).unwrap_err();
        assert_eq!(e, VmError::MemFault { pc: 1, addr: 99 });
    }

    #[test]
    fn step_vm_retires_one_instruction() {
        let program = Arc::new(sum_loop());
        let hints = CompileHints::none(program.len());
        let compiled = CompiledProgram::compile(&program, 8, &hints);
        let mut vm = Vm::new(program, 8);
        assert_eq!(
            compiled.step_vm(&mut vm).unwrap(),
            StepEvent::Executed(InstrClass::Move)
        );
        assert_eq!(vm.pc(), 1);
        assert_eq!(vm.instructions_retired(), 1);
        assert_eq!(vm.reg(Reg(0), 0), 1);
    }
}
