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
use nvp_power::{Capacitor, Energy};
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
        let Some(instr) = self.peek() else {
            // Running off the end behaves as halt (defensive; build()
            // requires an explicit halt).
            self.halted = true;
            return Ok(StepEvent::Halted);
        };
        self.execute(instr)
    }

    /// Retires `instr`, the instruction at the pc: the body of
    /// [`Vm::step`] after the fetch, shared with [`Vm::run_metered`].
    #[inline(always)]
    fn execute(&mut self, instr: Instr) -> Result<StepEvent, VmError> {
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

    /// Retires instructions while `cap` pays for them: the system
    /// simulator's per-instruction capacitor check, fused with the
    /// interpreter into one loop.
    ///
    /// Before each instruction the loop prices it from
    /// [`Meter::prices`] and requires `cap` to hold that price on top of
    /// [`Meter::reserve`]; then it drains the price, adds it to `compute`,
    /// and retires the instruction exactly as [`Vm::step`] would. The
    /// capacitor level and the compute sum live in locals for the whole
    /// call, but every drain and every add happens in instruction order,
    /// so both end bit-equal to the same instructions paid one
    /// [`Capacitor::try_drain`] and one `+=` at a time. The call ends at
    /// the first [`MeterStop`] reason; nothing in it recharges the
    /// capacitor or changes the configuration, which is why one
    /// [`Meter`] prices the whole call.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MemFault`] where [`Vm::step`] would. The faulting
    /// instruction has been paid for (it passed its check), and `cap` and
    /// `compute` include its price.
    pub fn run_metered(
        &mut self,
        cap: &mut Capacitor,
        compute: &mut Energy,
        meter: &Meter,
    ) -> Result<Metered, VmError> {
        let mut done = Metered {
            stop: MeterStop::Halted,
            retired: 0,
            cycles: 0,
        };
        if self.halted {
            return Ok(done);
        }
        let mut level = cap.level();
        let mut spent = *compute;
        let stop = loop {
            if done.cycles >= meter.budget {
                break Ok(MeterStop::Budget);
            }
            if meter.stop_at_resume && done.retired > 0 && self.pc == 0 {
                break Ok(MeterStop::ResumePoint);
            }
            let Some(instr) = self.peek() else {
                break Ok(MeterStop::OffEnd);
            };
            let e = meter.prices[instr.class().index()];
            if level < meter.reserve + e {
                break Ok(MeterStop::Brownout);
            }
            // `level >= reserve + e >= e`: the drain `try_drain` would make.
            level -= e;
            spent += e;
            done.retired += 1;
            match self.execute(instr) {
                Ok(event) => {
                    done.cycles += event.cycles().max(1);
                    match event {
                        StepEvent::FrameDone => break Ok(MeterStop::FrameDone),
                        StepEvent::Halted => break Ok(MeterStop::Halted),
                        _ => {}
                    }
                }
                Err(fault) => break Err(fault),
            }
        };
        cap.drain_to(level);
        *compute = spent;
        done.stop = stop?;
        Ok(done)
    }
}

/// The prices and limits of one [`Vm::run_metered`] call. Both stay fixed
/// for the call: nothing inside it recharges the capacitor or changes the
/// approximation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Meter {
    /// Energy of one instruction of each class at the live configuration,
    /// indexed by [`InstrClass::index`].
    pub prices: [Energy; 6],
    /// Energy the capacitor must still hold after any instruction (the
    /// backup reserve).
    pub reserve: Energy,
    /// Cycles the call may spend. An instruction starts only while fewer
    /// have elapsed, and each counts at least one.
    pub budget: u64,
    /// Stop when the pc comes back to 0, the resume marker where the
    /// incidental controller merges parked frames. The call's first
    /// instruction never stops here, so a call that starts at pc 0 makes
    /// progress.
    pub stop_at_resume: bool,
}

/// Why a [`Vm::run_metered`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterStop {
    /// The cycle budget is spent.
    Budget,
    /// The capacitor cannot pay the next instruction on top of the
    /// reserve (a power emergency). That instruction was not paid for,
    /// retired or executed: the pc, registers, counters, level and
    /// compute sum are as it found them.
    Brownout,
    /// A `frame_done` marker retired.
    FrameDone,
    /// A `halt` retired, or the core was already halted.
    Halted,
    /// The pc is past the last instruction; nothing retired there.
    OffEnd,
    /// The pc came back to 0 with [`Meter::stop_at_resume`] set.
    ResumePoint,
}

/// What one [`Vm::run_metered`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metered {
    /// Why the call stopped.
    pub stop: MeterStop,
    /// Instructions paid for and retired, a final `halt` included.
    pub retired: u64,
    /// Cycles spent, each instruction counted as at least one.
    pub cycles: u64,
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

    /// Per-class prices with rounding-sensitive fractions, so an add or a
    /// drain out of order would change the low bits.
    fn meter(reserve_nj: f64, budget: u64, stop_at_resume: bool) -> Meter {
        let mut prices = [Energy::ZERO; 6];
        for (i, p) in prices.iter_mut().enumerate() {
            *p = Energy::from_nj(0.1 + 0.037 * i as f64);
        }
        Meter {
            prices,
            reserve: Energy::from_nj(reserve_nj),
            budget,
            stop_at_resume,
        }
    }

    fn charged(nj: f64) -> Capacitor {
        let mut cap = Capacitor::new(Energy::from_nj(1_000.0));
        cap.charge(Energy::from_nj(nj));
        cap
    }

    /// A loop that never ends on its own: two ALU ops, a multiply and a
    /// back-edge to pc 0. The sum and the product are approximable.
    fn spin_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(1)).mark_ac(Reg(2));
        let top = b.label();
        b.place(top);
        b.addi(Reg(0), Reg(0), 1)
            .add(Reg(1), Reg(1), Reg(0))
            .mul(Reg(2), Reg(1), Reg(0))
            .jmp(top)
            .halt();
        b.build().unwrap()
    }

    #[test]
    fn metered_drains_bit_equal_to_sequential_steps() {
        let m = meter(5.0, 1_000, false);
        let cfgs = [
            ApproxConfig::default(),
            ApproxConfig::fixed(3),
            ApproxConfig {
                lanes: 3,
                ..ApproxConfig::fixed(5)
            },
        ];
        for cfg in cfgs {
            let mut vm = Vm::new(spin_program(), 4);
            vm.set_approx(cfg);
            vm.seed_noise(11);
            let mut reference = vm.clone();
            let mut cap = charged(700.0);
            let mut ref_cap = cap.clone();
            let start = Energy::from_nj(1.0 / 3.0);
            let (mut compute, mut ref_compute) = (start, start);
            let run = vm.run_metered(&mut cap, &mut compute, &m).unwrap();
            assert_eq!(run.stop, MeterStop::Budget);
            for _ in 0..run.retired {
                let e = m.prices[reference.peek().unwrap().class().index()];
                assert!(ref_cap.level() >= m.reserve + e);
                assert!(ref_cap.try_drain(e));
                ref_compute += e;
                reference.step().unwrap();
            }
            assert!(run.retired > 100);
            assert_eq!(
                cap.level().as_nj().to_bits(),
                ref_cap.level().as_nj().to_bits()
            );
            assert_eq!(compute.as_nj().to_bits(), ref_compute.as_nj().to_bits());
            assert_eq!(vm.pc(), reference.pc());
            assert_eq!(vm.regfile(), reference.regfile(), "{cfg:?}");
            assert_eq!(vm.instructions_retired(), run.retired);
            assert_eq!(vm.cycles_elapsed(), run.cycles);
        }
    }

    #[test]
    fn metered_stops_when_the_budget_is_spent() {
        // 1 + 1 + 2 + 1 cycles per iteration: a budget of 4 lets the
        // multiply start at 2 cycles and end at 4.
        let mut vm = Vm::new(spin_program(), 4);
        let mut compute = Energy::ZERO;
        let run = vm
            .run_metered(&mut charged(100.0), &mut compute, &meter(0.0, 4, false))
            .unwrap();
        assert_eq!(
            (run.stop, run.retired, run.cycles),
            (MeterStop::Budget, 3, 4)
        );
        assert_eq!(vm.pc(), 3);
    }

    #[test]
    fn brownout_leaves_the_unaffordable_instruction_untouched() {
        // Reserve 1 nJ: the level covers the two ALU ops (0.1 nJ each)
        // but not the multiply (0.137 nJ) on top of the reserve.
        let m = meter(1.0, 1_000, false);
        let mut vm = Vm::new(spin_program(), 4);
        let mut cap = charged(1.0 + 0.2 + 0.13);
        let mut compute = Energy::from_nj(2.5);
        let run = vm.run_metered(&mut cap, &mut compute, &m).unwrap();
        assert_eq!((run.stop, run.retired), (MeterStop::Brownout, 2));
        let (pc, regs, level, spent) = (vm.pc(), *vm.regfile(), cap.level(), compute);
        let counters = (vm.instructions_retired(), vm.cycles_elapsed());
        assert_eq!(pc, 2);
        // Calling again changes nothing: the multiply still does not fit.
        let again = vm.run_metered(&mut cap, &mut compute, &m).unwrap();
        assert_eq!(
            (again.stop, again.retired, again.cycles),
            (MeterStop::Brownout, 0, 0)
        );
        assert_eq!(vm.pc(), pc);
        assert_eq!(vm.regfile(), &regs);
        assert_eq!((vm.instructions_retired(), vm.cycles_elapsed()), counters);
        assert_eq!(cap.level().as_nj().to_bits(), level.as_nj().to_bits());
        assert_eq!(compute.as_nj().to_bits(), spent.as_nj().to_bits());
    }

    #[test]
    fn metered_stops_at_frame_done_halt_and_the_end() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).frame_done().halt();
        let program = b.build().unwrap();
        let len = program.len();
        let m = meter(0.0, 1_000, false);
        let mut vm = Vm::new(program, 4);
        let mut cap = charged(100.0);
        let mut compute = Energy::ZERO;
        let mut next = || vm_run(&mut vm, &mut cap, &mut compute, &m);
        assert_eq!(next(), (MeterStop::FrameDone, 2, 2));
        // `halt` is paid for and counts as a retired instruction of one
        // cycle, although the core's own counters skip it.
        assert_eq!(next(), (MeterStop::Halted, 1, 1));
        // A halted core stops at once.
        assert_eq!(next(), (MeterStop::Halted, 0, 0));
        vm.set_pc(len);
        let run = vm.run_metered(&mut cap, &mut compute, &m).unwrap();
        assert_eq!((run.stop, run.retired), (MeterStop::OffEnd, 0));
    }

    fn vm_run(
        vm: &mut Vm,
        cap: &mut Capacitor,
        compute: &mut Energy,
        m: &Meter,
    ) -> (MeterStop, u64, u64) {
        let run = vm.run_metered(cap, compute, m).unwrap();
        (run.stop, run.retired, run.cycles)
    }

    #[test]
    fn resume_stop_needs_one_instruction_first() {
        // The spin loop is back at pc 0 after 4 instructions (5 cycles).
        let mut vm = Vm::new(spin_program(), 4);
        let mut cap = charged(100.0);
        let mut compute = Energy::ZERO;
        let m = meter(0.0, 1_000, true);
        assert_eq!(vm.pc(), 0);
        assert_eq!(
            vm_run(&mut vm, &mut cap, &mut compute, &m),
            (MeterStop::ResumePoint, 4, 5)
        );
        assert_eq!(vm.pc(), 0);
        assert_eq!(
            vm_run(&mut vm, &mut cap, &mut compute, &m),
            (MeterStop::ResumePoint, 4, 5)
        );
        // Without the flag the loop runs on through pc 0.
        let run = vm
            .run_metered(&mut cap, &mut compute, &meter(0.0, 12, false))
            .unwrap();
        assert_eq!((run.stop, run.retired), (MeterStop::Budget, 10));
    }

    #[test]
    fn metered_fault_is_paid_for_and_reported() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).ld(Reg(1), 99).halt();
        let mut vm = Vm::new(b.build().unwrap(), 8);
        let m = meter(0.0, 1_000, false);
        let mut cap = charged(10.0);
        let mut compute = Energy::ZERO;
        let err = vm.run_metered(&mut cap, &mut compute, &m).unwrap_err();
        assert_eq!(err, VmError::MemFault { pc: 1, addr: 99 });
        assert!(vm.halted());
        let paid = m.prices[InstrClass::Move.index()] + m.prices[InstrClass::Mem.index()];
        assert_eq!(compute.as_nj().to_bits(), paid.as_nj().to_bits());
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
