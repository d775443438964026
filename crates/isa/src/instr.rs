//! The NVP instruction set.
//!
//! A compact 8051-class RISC-ified ISA: 16 registers, absolute and
//! register-indirect addressing into word-addressed data memory, two-operand
//! branches, and the incidental-computing marker instructions of Section 4
//! (resume-point marking and frame commit).

use std::fmt;

/// A register name (`R0`–`R15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

impl Reg {
    /// Validates the register index.
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_REGS
    }

    /// Index into the register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Instruction classes for the energy model (Section 7's per-instruction
/// energy accounting distinguishes datapath, memory and control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Single-cycle ALU operation (add, sub, logic, min/max, shifts).
    Alu,
    /// Multiply (multi-cycle on an 8051-class core).
    Mul,
    /// Data-memory access (the NVM array).
    Mem,
    /// Branch / jump.
    Branch,
    /// Register move / immediate load.
    Move,
    /// Markers, halt, nop — control bookkeeping.
    Control,
}

impl InstrClass {
    /// Every class, in [`index`](Self::index) order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Alu,
        InstrClass::Mul,
        InstrClass::Mem,
        InstrClass::Branch,
        InstrClass::Move,
        InstrClass::Control,
    ];

    /// Dense index of this class (position in [`ALL`](Self::ALL)), for
    /// class-keyed tables.
    pub fn index(self) -> usize {
        match self {
            InstrClass::Alu => 0,
            InstrClass::Mul => 1,
            InstrClass::Mem => 2,
            InstrClass::Branch => 3,
            InstrClass::Move => 4,
            InstrClass::Control => 5,
        }
    }

    /// Cycle cost of this class at the core's 1 MHz clock.
    pub fn cycles(self) -> u64 {
        match self {
            InstrClass::Mul => 2,
            _ => 1,
        }
    }
}

/// One NVP instruction.
///
/// All ALU forms are `(dst, src…)`. Branch targets are absolute instruction
/// indices, produced by [`crate::program::ProgramBuilder`] label resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    // --- data movement ---
    /// `dst = imm`
    Ldi(Reg, i32),
    /// `dst = src`
    Mov(Reg, Reg),
    /// `dst = mem[addr]` (absolute)
    Ld(Reg, u32),
    /// `mem[addr] = src` (absolute)
    St(u32, Reg),
    /// `dst = mem[base + off]` (register-indirect)
    LdInd(Reg, Reg, i32),
    /// `mem[base + off] = src` (register-indirect)
    StInd(Reg, i32, Reg),

    // --- ALU ---
    /// `dst = a + b`
    Add(Reg, Reg, Reg),
    /// `dst = a - b`
    Sub(Reg, Reg, Reg),
    /// `dst = a * b`
    Mul(Reg, Reg, Reg),
    /// `dst = a + imm`
    AddI(Reg, Reg, i32),
    /// `dst = a * imm`
    MulI(Reg, Reg, i32),
    /// `dst = a << sh` (logical)
    Shl(Reg, Reg, u8),
    /// `dst = a >> sh` (arithmetic)
    Shr(Reg, Reg, u8),
    /// `dst = a & b`
    And(Reg, Reg, Reg),
    /// `dst = a | b`
    Or(Reg, Reg, Reg),
    /// `dst = a ^ b`
    Xor(Reg, Reg, Reg),
    /// `dst = min(a, b)`
    Min(Reg, Reg, Reg),
    /// `dst = max(a, b)`
    Max(Reg, Reg, Reg),
    /// `dst = min(a, imm)`
    MinI(Reg, Reg, i32),
    /// `dst = max(a, imm)`
    MaxI(Reg, Reg, i32),
    /// `dst = |a|`
    Abs(Reg, Reg),

    // --- control ---
    /// Unconditional jump.
    Jmp(u32),
    /// Branch if `r == 0`.
    Brz(Reg, u32),
    /// Branch if `r != 0`.
    Brnz(Reg, u32),
    /// Branch if `a < b` (signed).
    Brlt(Reg, Reg, u32),
    /// Branch if `a >= b` (signed).
    Brge(Reg, Reg, u32),
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,

    // --- incidental computing markers (Section 4 / Table 1) ---
    /// Candidate resume point: the `incidental_recover_from` pragma lowers
    /// to this. The operand identifies the loop the marker belongs to.
    MarkResume(u8),
    /// One logical frame of output is complete and committed.
    FrameDone,
}

impl Instr {
    /// Energy/latency class.
    pub fn class(self) -> InstrClass {
        use Instr::*;
        match self {
            Ldi(..) | Mov(..) => InstrClass::Move,
            Ld(..) | St(..) | LdInd(..) | StInd(..) => InstrClass::Mem,
            Mul(..) | MulI(..) => InstrClass::Mul,
            Add(..) | Sub(..) | AddI(..) | Shl(..) | Shr(..) | And(..) | Or(..) | Xor(..)
            | Min(..) | Max(..) | MinI(..) | MaxI(..) | Abs(..) => InstrClass::Alu,
            Jmp(..) | Brz(..) | Brnz(..) | Brlt(..) | Brge(..) => InstrClass::Branch,
            Halt | Nop | MarkResume(..) | FrameDone => InstrClass::Control,
        }
    }

    /// Destination register written by this instruction, if any.
    pub fn dst(self) -> Option<Reg> {
        use Instr::*;
        match self {
            Ldi(d, _)
            | Mov(d, _)
            | Ld(d, _)
            | LdInd(d, _, _)
            | Add(d, _, _)
            | Sub(d, _, _)
            | Mul(d, _, _)
            | AddI(d, _, _)
            | MulI(d, _, _)
            | Shl(d, _, _)
            | Shr(d, _, _)
            | And(d, _, _)
            | Or(d, _, _)
            | Xor(d, _, _)
            | Min(d, _, _)
            | Max(d, _, _)
            | MinI(d, _, _)
            | MaxI(d, _, _)
            | Abs(d, _) => Some(d),
            _ => None,
        }
    }

    /// All registers read by this instruction.
    pub fn srcs(self) -> Vec<Reg> {
        use Instr::*;
        match self {
            Mov(_, s)
            | AddI(_, s, _)
            | MulI(_, s, _)
            | Shl(_, s, _)
            | Shr(_, s, _)
            | MinI(_, s, _)
            | MaxI(_, s, _)
            | Abs(_, s)
            | LdInd(_, s, _) => vec![s],
            St(_, s) | Brz(s, _) | Brnz(s, _) => vec![s],
            StInd(b, _, s) => vec![b, s],
            Add(_, a, b)
            | Sub(_, a, b)
            | Mul(_, a, b)
            | And(_, a, b)
            | Or(_, a, b)
            | Xor(_, a, b)
            | Min(_, a, b)
            | Max(_, a, b) => {
                vec![a, b]
            }
            Brlt(a, b, _) | Brge(a, b, _) => vec![a, b],
            _ => vec![],
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Ldi(d, i) => write!(f, "ldi   {d}, {i}"),
            Mov(d, s) => write!(f, "mov   {d}, {s}"),
            Ld(d, a) => write!(f, "ld    {d}, [{a}]"),
            St(a, s) => write!(f, "st    [{a}], {s}"),
            LdInd(d, b, o) => write!(f, "ld    {d}, [{b}{o:+}]"),
            StInd(b, o, s) => write!(f, "st    [{b}{o:+}], {s}"),
            Add(d, a, b) => write!(f, "add   {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub   {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul   {d}, {a}, {b}"),
            AddI(d, a, i) => write!(f, "addi  {d}, {a}, {i}"),
            MulI(d, a, i) => write!(f, "muli  {d}, {a}, {i}"),
            Shl(d, a, s) => write!(f, "shl   {d}, {a}, {s}"),
            Shr(d, a, s) => write!(f, "shr   {d}, {a}, {s}"),
            And(d, a, b) => write!(f, "and   {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or    {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor   {d}, {a}, {b}"),
            Min(d, a, b) => write!(f, "min   {d}, {a}, {b}"),
            Max(d, a, b) => write!(f, "max   {d}, {a}, {b}"),
            MinI(d, a, i) => write!(f, "mini  {d}, {a}, {i}"),
            MaxI(d, a, i) => write!(f, "maxi  {d}, {a}, {i}"),
            Abs(d, a) => write!(f, "abs   {d}, {a}"),
            Jmp(t) => write!(f, "jmp   @{t}"),
            Brz(r, t) => write!(f, "brz   {r}, @{t}"),
            Brnz(r, t) => write!(f, "brnz  {r}, @{t}"),
            Brlt(a, b, t) => write!(f, "brlt  {a}, {b}, @{t}"),
            Brge(a, b, t) => write!(f, "brge  {a}, {b}, @{t}"),
            Halt => write!(f, "halt"),
            Nop => write!(f, "nop"),
            MarkResume(id) => write!(f, "mark_resume #{id}"),
            FrameDone => write!(f, "frame_done"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_cycles() {
        assert_eq!(Instr::Add(Reg(0), Reg(1), Reg(2)).class(), InstrClass::Alu);
        assert_eq!(Instr::Mul(Reg(0), Reg(1), Reg(2)).class(), InstrClass::Mul);
        assert_eq!(Instr::Ld(Reg(0), 0).class(), InstrClass::Mem);
        assert_eq!(Instr::Jmp(0).class(), InstrClass::Branch);
        assert_eq!(Instr::Ldi(Reg(0), 1).class(), InstrClass::Move);
        assert_eq!(Instr::FrameDone.class(), InstrClass::Control);
        assert_eq!(InstrClass::Mul.cycles(), 2);
        assert_eq!(InstrClass::Alu.cycles(), 1);
    }

    #[test]
    fn dst_and_srcs() {
        let i = Instr::Add(Reg(3), Reg(1), Reg(2));
        assert_eq!(i.dst(), Some(Reg(3)));
        assert_eq!(i.srcs(), vec![Reg(1), Reg(2)]);
        assert_eq!(Instr::Halt.dst(), None);
        assert_eq!(Instr::StInd(Reg(4), 2, Reg(5)).srcs(), vec![Reg(4), Reg(5)]);
        assert_eq!(Instr::Brz(Reg(7), 9).srcs(), vec![Reg(7)]);
    }

    #[test]
    fn display_disassembly() {
        assert_eq!(
            Instr::Add(Reg(1), Reg(2), Reg(3)).to_string(),
            "add   r1, r2, r3"
        );
        assert_eq!(
            Instr::LdInd(Reg(0), Reg(1), -4).to_string(),
            "ld    r0, [r1-4]"
        );
        assert_eq!(Instr::MarkResume(2).to_string(), "mark_resume #2");
    }

    #[test]
    fn class_all_agrees_with_index() {
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn reg_validity() {
        assert!(Reg(15).is_valid());
        assert!(!Reg(16).is_valid());
    }
}
