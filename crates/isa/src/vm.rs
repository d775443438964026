//! The steppable NVP interpreter.
//!
//! One [`Vm::step`] call retires one instruction (on every active SIMD
//! lane), so the system-level simulator can cut power at any instruction
//! boundary and resume later — exactly the granularity at which the paper's
//! hardware-managed NVP checkpoints. Architectural state stays in place
//! across an outage (it lives in nonvolatile flip-flops); the simulator
//! only prices the backup.
//!
//! # Lane semantics
//!
//! Incidental SIMD applies *one* instruction stream to up to four data
//! versions. Control flow and effective addresses are computed from lane 0
//! (legal because a SIMD merge is only performed while every lane is at the
//! resume marker, pc 0; from then on index arithmetic evolves identically
//! in every lane). Data values are
//! per-lane: register version `l` and memory version `l`.
//!
//! # Approximation
//!
//! * ALU results whose destination register carries an AC bit are degraded
//!   to the lane's ALU bitwidth (low bits randomized).
//! * Stores into the program's declared approximable region are truncated
//!   to the lane's memory bitwidth, and the stored word's precision tag
//!   records the bitwidth it was computed at (used by recompute-and-combine).
//! * Address/control registers are never degraded — corrupting them would
//!   crash the program rather than dent output quality, so the compiler
//!   (Section 5) simply never marks them.

use crate::approx::{alu_approximate, mem_truncate, ApproxConfig, FULL_BITS};
use crate::instr::{Instr, InstrClass, Reg};
use crate::program::Program;
use crate::regfile::RegFile;
use nvp_nvm::VersionedMemory;
use std::fmt;
use std::sync::Arc;

/// Outcome of retiring one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction retired.
    Executed(InstrClass),
    /// A resume-point marker retired; `pc` is the marker's own address.
    ResumeMark {
        /// Loop identifier from the `incidental_recover_from` pragma.
        id: u8,
        /// Address of the marker instruction.
        pc: usize,
    },
    /// A frame-commit marker retired.
    FrameDone,
    /// The VM reached (or was already at) `halt`.
    Halted,
}

impl StepEvent {
    /// Cycle cost of the retired instruction.
    pub fn cycles(self) -> u64 {
        match self {
            StepEvent::Executed(c) => c.cycles(),
            StepEvent::ResumeMark { .. } | StepEvent::FrameDone => InstrClass::Control.cycles(),
            StepEvent::Halted => 0,
        }
    }

    /// The instruction class for energy accounting.
    pub fn class(self) -> InstrClass {
        match self {
            StepEvent::Executed(c) => c,
            _ => InstrClass::Control,
        }
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A load/store addressed a word outside data memory.
    MemFault {
        /// The faulting program counter.
        pc: usize,
        /// The out-of-range word address.
        addr: i64,
    },
    /// `run_to_halt` exceeded its instruction budget.
    StepLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MemFault { pc, addr } => {
                write!(f, "memory fault at pc {pc}: address {addr} out of range")
            }
            VmError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for VmError {}

/// The NVP core.
///
/// The program is held behind an [`Arc`] so that sweep engines running
/// thousands of simulations of the same kernel share one immutable copy
/// instead of deep-cloning the instruction stream per run.
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) program: Arc<Program>,
    pub(crate) pc: usize,
    pub(crate) regs: RegFile,
    pub(crate) mem: VersionedMemory,
    pub(crate) cfg: ApproxConfig,
    pub(crate) halted: bool,
    /// Per-lane running minimum of ALU bits since the last approximate
    /// store — the hardware precision tracker feeding the 3-bit precision
    /// metadata (Section 4's "3 bits for each data" tracking).
    bits_floor: [u8; 4],
    rng_state: u64,
    pub(crate) instructions_retired: u64,
    pub(crate) cycles_elapsed: u64,
}

impl Vm {
    /// Creates a VM over `program` with a zeroed data memory of `mem_words`
    /// words, full-precision single-lane configuration.
    ///
    /// Accepts either an owned [`Program`] or an `Arc<Program>`; pass the
    /// `Arc` when many VMs run the same kernel so they share one copy.
    pub fn new(program: impl Into<Arc<Program>>, mem_words: usize) -> Self {
        Vm {
            program: program.into(),
            pc: 0,
            regs: RegFile::new(),
            mem: VersionedMemory::new(mem_words),
            cfg: ApproxConfig::default(),
            halted: false,
            bits_floor: [FULL_BITS; 4],
            rng_state: 0x9E37_79B9_7F4A_7C15,
            instructions_retired: 0,
            cycles_elapsed: 0,
        }
    }

    /// Seeds the ALU-noise generator (deterministic approximation).
    pub fn seed_noise(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Replaces the approximation configuration (the control unit's job).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ApproxConfig::validate`].
    pub fn set_approx(&mut self, cfg: ApproxConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid approximation config: {e}");
        }
        self.cfg = cfg;
    }

    /// Current approximation configuration.
    pub fn approx(&self) -> ApproxConfig {
        self.cfg
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The instruction about to be retired by the next [`Vm::step`], if any.
    ///
    /// Cheaper than `program().fetch(pc())` on the hot path: one shared
    /// bounds check against the instruction slice, no halted special case.
    #[inline]
    pub fn peek(&self) -> Option<Instr> {
        self.program.instrs().get(self.pc).copied()
    }

    /// Data memory (shared with the system simulator for frame I/O).
    pub fn mem(&self) -> &VersionedMemory {
        &self.mem
    }

    /// Mutable data memory access.
    pub fn mem_mut(&mut self) -> &mut VersionedMemory {
        &mut self.mem
    }

    /// Register file access.
    pub fn regfile(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable register file access (used by the incidental controller when
    /// seeding SIMD lanes).
    pub fn regfile_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Register `r`, version `v` (convenience).
    pub fn reg(&self, r: Reg, v: usize) -> i32 {
        self.regs.read(r, v)
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Forces the program counter (roll-forward recovery).
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc.min(self.program.len());
        self.halted = false;
    }

    /// Whether the core has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instructions retired since construction.
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Cycles elapsed since construction.
    pub fn cycles_elapsed(&self) -> u64 {
        self.cycles_elapsed
    }

    #[inline]
    fn noise(&mut self) -> u32 {
        // xorshift64*: cheap, deterministic per-seed.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }

    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.cfg.lanes as usize
    }

    /// Whether `r` carries approximable data.
    #[inline]
    fn is_ac(&self, r: Reg) -> bool {
        self.program.ac_regs() & (1 << r.0) != 0
    }

    /// Writes an ALU result to `d` on every lane, applying per-lane ALU
    /// approximation when the destination is AC-marked.
    #[inline]
    pub(crate) fn write_alu<F: Fn(&RegFile, usize) -> i32>(&mut self, d: Reg, f: F) {
        let lanes = self.lanes();
        let approx = self.cfg.ac_en && self.is_ac(d);
        for l in 0..lanes {
            let v = f(&self.regs, l);
            let v = if approx {
                let bits = self.cfg.effective_alu_bits(l);
                self.bits_floor[l] = self.bits_floor[l].min(bits);
                if bits < FULL_BITS {
                    let n = self.noise();
                    alu_approximate(v, bits, n)
                } else {
                    v
                }
            } else {
                v
            };
            self.regs.write(d, l, v);
        }
    }

    /// Disjoint mutable borrows of the register file and data memory, for
    /// the compiled engine's switch-dispatch loop (which keeps the pc and
    /// retirement counters in locals and needs both state halves at once).
    #[inline]
    pub(crate) fn split_mut(&mut self) -> (&mut RegFile, &mut VersionedMemory) {
        (&mut self.regs, &mut self.mem)
    }

    #[inline]
    pub(crate) fn check_addr(&self, pc: usize, addr: i64) -> Result<usize, VmError> {
        if addr < 0 || addr as usize >= self.mem.len() {
            Err(VmError::MemFault { pc, addr })
        } else {
            Ok(addr as usize)
        }
    }

    #[inline]
    fn in_approx_region(&self, addr: usize) -> bool {
        match self.program.approx_region() {
            Some(r) => (addr as u32) >= r.start && (addr as u32) < r.end,
            None => false,
        }
    }

    #[inline]
    pub(crate) fn do_load(&mut self, d: Reg, addr: usize) {
        for l in 0..self.lanes() {
            let v = self.mem.read(addr, l);
            self.regs.write(d, l, v);
        }
    }

    #[inline]
    pub(crate) fn do_store(&mut self, addr: usize, s: Reg) {
        let approx = self.cfg.ac_en && self.in_approx_region(addr) && self.is_ac(s);
        for l in 0..self.lanes() {
            let v = self.regs.read(s, l);
            let (v, prec) = if approx {
                let mbits = self.cfg.effective_mem_bits(l);
                let floor = self.bits_floor[l].min(self.cfg.effective_alu_bits(l));
                self.bits_floor[l] = FULL_BITS;
                (mem_truncate(v, mbits), mbits.min(floor))
            } else {
                (v, FULL_BITS)
            };
            self.mem.write(addr, l, v, prec);
        }
    }

    /// Retires one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MemFault`] on an out-of-range access; the faulting
    /// instruction is not retired and the VM halts (a real core would trap).
    pub fn step(&mut self) -> Result<StepEvent, VmError> {
        if self.halted {
            return Ok(StepEvent::Halted);
        }
        let Some(instr) = self.program.instrs().get(self.pc).copied() else {
            // Running off the end behaves as halt (defensive; build()
            // requires an explicit halt).
            self.halted = true;
            return Ok(StepEvent::Halted);
        };

        let mut next_pc = self.pc + 1;
        let mut event = StepEvent::Executed(instr.class());

        use Instr::*;
        match instr {
            Ldi(d, imm) => {
                let lanes = self.lanes();
                self.regs.write_broadcast(d, lanes, imm);
            }
            Mov(d, s) => self.write_alu(d, |r, l| r.read(s, l)),
            Ld(d, a) => {
                let addr = self.check_addr(self.pc, a as i64).inspect_err(|_| {
                    self.halted = true;
                })?;
                self.do_load(d, addr);
            }
            St(a, s) => {
                let addr = self.check_addr(self.pc, a as i64).inspect_err(|_| {
                    self.halted = true;
                })?;
                self.do_store(addr, s);
            }
            LdInd(d, b, off) => {
                let a = self.regs.read(b, 0) as i64 + off as i64;
                let addr = self.check_addr(self.pc, a).inspect_err(|_| {
                    self.halted = true;
                })?;
                self.do_load(d, addr);
            }
            StInd(b, off, s) => {
                let a = self.regs.read(b, 0) as i64 + off as i64;
                let addr = self.check_addr(self.pc, a).inspect_err(|_| {
                    self.halted = true;
                })?;
                self.do_store(addr, s);
            }
            Add(d, a, b) => self.write_alu(d, |r, l| r.read(a, l).wrapping_add(r.read(b, l))),
            Sub(d, a, b) => self.write_alu(d, |r, l| r.read(a, l).wrapping_sub(r.read(b, l))),
            Mul(d, a, b) => self.write_alu(d, |r, l| r.read(a, l).wrapping_mul(r.read(b, l))),
            AddI(d, a, i) => self.write_alu(d, |r, l| r.read(a, l).wrapping_add(i)),
            MulI(d, a, i) => self.write_alu(d, |r, l| r.read(a, l).wrapping_mul(i)),
            Shl(d, a, s) => self.write_alu(d, |r, l| r.read(a, l).wrapping_shl(s as u32)),
            Shr(d, a, s) => self.write_alu(d, |r, l| r.read(a, l) >> (s as u32).min(31)),
            And(d, a, b) => self.write_alu(d, |r, l| r.read(a, l) & r.read(b, l)),
            Or(d, a, b) => self.write_alu(d, |r, l| r.read(a, l) | r.read(b, l)),
            Xor(d, a, b) => self.write_alu(d, |r, l| r.read(a, l) ^ r.read(b, l)),
            Min(d, a, b) => self.write_alu(d, |r, l| r.read(a, l).min(r.read(b, l))),
            Max(d, a, b) => self.write_alu(d, |r, l| r.read(a, l).max(r.read(b, l))),
            MinI(d, a, i) => self.write_alu(d, |r, l| r.read(a, l).min(i)),
            MaxI(d, a, i) => self.write_alu(d, |r, l| r.read(a, l).max(i)),
            Abs(d, a) => self.write_alu(d, |r, l| r.read(a, l).wrapping_abs()),
            Jmp(t) => next_pc = t as usize,
            Brz(r, t) => {
                if self.regs.read(r, 0) == 0 {
                    next_pc = t as usize;
                }
            }
            Brnz(r, t) => {
                if self.regs.read(r, 0) != 0 {
                    next_pc = t as usize;
                }
            }
            Brlt(a, b, t) => {
                if self.regs.read(a, 0) < self.regs.read(b, 0) {
                    next_pc = t as usize;
                }
            }
            Brge(a, b, t) => {
                if self.regs.read(a, 0) >= self.regs.read(b, 0) {
                    next_pc = t as usize;
                }
            }
            Halt => {
                self.halted = true;
                event = StepEvent::Halted;
            }
            Nop => {}
            MarkResume(id) => {
                event = StepEvent::ResumeMark { id, pc: self.pc };
            }
            FrameDone => {
                event = StepEvent::FrameDone;
            }
        }

        if !matches!(event, StepEvent::Halted) {
            self.instructions_retired += 1;
            self.cycles_elapsed += event.cycles();
        }
        self.pc = next_pc;
        Ok(event)
    }

    /// Runs until `halt`, retiring at most `limit` instructions.
    ///
    /// Returns the number of instructions retired by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::MemFault`] and returns [`VmError::StepLimit`]
    /// if the budget is exhausted before `halt`.
    pub fn run_to_halt(&mut self, limit: u64) -> Result<u64, VmError> {
        let start = self.instructions_retired;
        while !self.halted {
            if self.instructions_retired - start >= limit {
                return Err(VmError::StepLimit { limit });
            }
            self.step()?;
        }
        Ok(self.instructions_retired - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn simple_sum_program() -> Program {
        // mem[10] = mem[0] + mem[1]
        let mut b = ProgramBuilder::new();
        b.ld(Reg(0), 0)
            .ld(Reg(1), 1)
            .add(Reg(2), Reg(0), Reg(1))
            .st(10, Reg(2))
            .halt();
        b.build().unwrap()
    }

    #[test]
    fn executes_simple_program() {
        let mut vm = Vm::new(simple_sum_program(), 16);
        vm.mem_mut().write(0, 0, 30, 8);
        vm.mem_mut().write(1, 0, 12, 8);
        let n = vm.run_to_halt(100).unwrap();
        assert_eq!(n, 4);
        assert_eq!(vm.mem().read(10, 0), 42);
        assert!(vm.halted());
        assert_eq!(vm.cycles_elapsed(), 4);
    }

    #[test]
    fn loop_with_branches() {
        // r2 = sum of 1..=5
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).ldi(Reg(1), 6).ldi(Reg(2), 0);
        let top = b.label();
        b.place(top);
        b.add(Reg(2), Reg(2), Reg(0));
        b.addi(Reg(0), Reg(0), 1);
        b.brlt(Reg(0), Reg(1), top);
        b.halt();
        let mut vm = Vm::new(b.build().unwrap(), 4);
        vm.run_to_halt(1000).unwrap();
        assert_eq!(vm.reg(Reg(2), 0), 15);
    }

    #[test]
    fn step_limit_error() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.place(top);
        b.jmp(top).halt();
        let mut vm = Vm::new(b.build().unwrap(), 4);
        assert_eq!(
            vm.run_to_halt(10).unwrap_err(),
            VmError::StepLimit { limit: 10 }
        );
    }

    #[test]
    fn mem_fault_halts() {
        let mut b = ProgramBuilder::new();
        b.ld(Reg(0), 999).halt();
        let mut vm = Vm::new(b.build().unwrap(), 8);
        let e = vm.step().unwrap_err();
        assert_eq!(e, VmError::MemFault { pc: 0, addr: 999 });
        assert!(vm.halted());
    }

    #[test]
    fn indirect_addressing() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 5)
            .ld_ind(Reg(1), Reg(0), 2) // r1 = mem[7]
            .st_ind(Reg(0), -1, Reg(1)) // mem[4] = r1
            .halt();
        let mut vm = Vm::new(b.build().unwrap(), 16);
        vm.mem_mut().write(7, 0, 123, 8);
        vm.run_to_halt(10).unwrap();
        assert_eq!(vm.mem().read(4, 0), 123);
    }

    #[test]
    fn negative_indirect_address_faults() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 0).ld_ind(Reg(1), Reg(0), -5).halt();
        let mut vm = Vm::new(b.build().unwrap(), 16);
        vm.step().unwrap();
        assert!(matches!(vm.step(), Err(VmError::MemFault { addr: -5, .. })));
    }

    #[test]
    fn alu_approximation_respects_ac_bits() {
        // Two adds: r2 (AC) approximated, r3 (not AC) precise.
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(2));
        b.ldi(Reg(0), 0b1010_0000)
            .ldi(Reg(1), 0b0000_0101)
            .add(Reg(2), Reg(0), Reg(1))
            .add(Reg(3), Reg(0), Reg(1))
            .halt();
        let mut vm = Vm::new(b.build().unwrap(), 4);
        vm.set_approx(ApproxConfig::alu_only(4));
        vm.seed_noise(99);
        vm.run_to_halt(10).unwrap();
        let precise = 0b1010_0101;
        assert_eq!(vm.reg(Reg(3), 0), precise);
        // The AC register suffers only a bounded gradient-VDD error.
        assert!((vm.reg(Reg(2), 0) - precise).abs() <= 8);
    }

    #[test]
    fn memory_truncation_in_region_only() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(0));
        b.approx_region(0, 4);
        b.ldi(Reg(0), 0xFF)
            .st(2, Reg(0)) // in region: truncated
            .st(8, Reg(0)) // outside: precise
            .halt();
        let mut vm = Vm::new(b.build().unwrap(), 16);
        vm.set_approx(ApproxConfig::mem_only(4));
        vm.run_to_halt(10).unwrap();
        assert_eq!(vm.mem().read(2, 0), 0xF0);
        assert_eq!(vm.mem().precision(2, 0), 4);
        assert_eq!(vm.mem().read(8, 0), 0xFF);
        assert_eq!(vm.mem().precision(8, 0), 8);
    }

    #[test]
    fn simd_lanes_compute_independently() {
        // One add executed on two lanes with different data versions.
        let mut b = ProgramBuilder::new();
        b.ld(Reg(0), 0)
            .ld(Reg(1), 1)
            .add(Reg(2), Reg(0), Reg(1))
            .st(3, Reg(2))
            .halt();
        let mut vm = Vm::new(b.build().unwrap(), 8);
        let cfg = ApproxConfig {
            lanes: 2,
            ..Default::default()
        };
        vm.set_approx(cfg);
        vm.mem_mut().write(0, 0, 10, 8);
        vm.mem_mut().write(1, 0, 1, 8);
        vm.mem_mut().write(0, 1, 20, 8);
        vm.mem_mut().write(1, 1, 2, 8);
        vm.run_to_halt(10).unwrap();
        assert_eq!(vm.mem().read(3, 0), 11);
        assert_eq!(vm.mem().read(3, 1), 22);
    }

    #[test]
    fn markers_surface_events() {
        let mut b = ProgramBuilder::new();
        b.mark_resume(3).frame_done().halt();
        let mut vm = Vm::new(b.build().unwrap(), 4);
        assert_eq!(vm.step().unwrap(), StepEvent::ResumeMark { id: 3, pc: 0 });
        assert_eq!(vm.step().unwrap(), StepEvent::FrameDone);
        assert_eq!(vm.step().unwrap(), StepEvent::Halted);
        // Stepping a halted VM stays halted and free.
        assert_eq!(vm.step().unwrap(), StepEvent::Halted);
        assert_eq!(vm.instructions_retired(), 2);
    }

    #[test]
    fn set_pc_clears_halt_for_roll_forward() {
        let mut vm = Vm::new(simple_sum_program(), 16);
        vm.run_to_halt(10).unwrap();
        assert!(vm.halted());
        vm.set_pc(0);
        assert!(!vm.halted());
        assert_eq!(vm.pc(), 0);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut b = ProgramBuilder::new();
            b.mark_ac(Reg(2));
            b.ldi(Reg(0), 0x55)
                .ldi(Reg(1), 0x2A)
                .add(Reg(2), Reg(0), Reg(1))
                .halt();
            let mut vm = Vm::new(b.build().unwrap(), 4);
            vm.set_approx(ApproxConfig::alu_only(1));
            vm.seed_noise(seed);
            vm.run_to_halt(10).unwrap();
            vm.reg(Reg(2), 0)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "invalid approximation config")]
    fn set_approx_validates() {
        let mut vm = Vm::new(simple_sum_program(), 4);
        let cfg = ApproxConfig {
            lanes: 9,
            ..Default::default()
        };
        vm.set_approx(cfg);
    }
}
