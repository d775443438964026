//! Program construction: a builder/assembler with forward labels.
//!
//! Kernels (in `nvp-kernels`) are lowered to the ISA through
//! [`ProgramBuilder`], which plays the role of the paper's compiler
//! (Section 5, "Compiler's role"): it resolves control flow, records which
//! registers carry approximable data (the AC bits), and records the
//! compiler-generated *loop-variable mask* used to validate incidental SIMD
//! resume points.

use crate::instr::{Instr, Reg, NUM_REGS};
use std::collections::HashMap;
use std::fmt;

/// An unresolved branch target handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Errors from program construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was referenced but never placed.
    UnboundLabel(Label),
    /// A label was placed twice.
    DuplicateLabel(Label),
    /// An instruction names a register outside `r0..r15`.
    BadRegister(usize, Reg),
    /// The program has no `Halt` (it would run off the end).
    MissingHalt,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel(l) => write!(f, "label {l:?} referenced but never placed"),
            ProgramError::DuplicateLabel(l) => write!(f, "label {l:?} placed twice"),
            ProgramError::BadRegister(pc, r) => {
                write!(f, "instruction {pc} uses invalid register {r}")
            }
            ProgramError::MissingHalt => write!(f, "program has no halt instruction"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A fully-resolved, executable program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
    /// Bitmask of registers carrying approximable data (AC bits, Section 4).
    ac_regs: u16,
    /// Bitmask of key loop variables whose equality must hold for an
    /// incidental SIMD merge (the compiler-generated mask of Section 4).
    loop_var_mask: u16,
    /// Data-memory region holding approximable data (the `incidental`
    /// pragma's variable), as a half-open word range.
    approx_region: Option<(u32, u32)>,
}

impl Program {
    /// The instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<Instr> {
        self.instrs.get(pc).copied()
    }

    /// The full instruction slice (bounds-checked once by the caller).
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The AC-bit register mask: registers holding approximable data.
    #[inline]
    pub fn ac_regs(&self) -> u16 {
        self.ac_regs
    }

    /// The compiler-generated loop-variable mask for resume matching.
    pub fn loop_var_mask(&self) -> u16 {
        self.loop_var_mask
    }

    /// The approximable data-memory region, if one was declared.
    pub fn approx_region(&self) -> Option<std::ops::Range<u32>> {
        self.approx_region.map(|(a, b)| a..b)
    }

    /// Iterator over instructions.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Instr)> + '_ {
        self.instrs.iter().copied().enumerate()
    }

    /// Disassembly listing.
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        for (pc, i) in self.iter() {
            s.push_str(&format!("{pc:5}: {i}\n"));
        }
        s
    }
}

/// Incremental program builder with forward-label support.
///
/// Builder methods return `&mut Self` for chaining (non-consuming builder).
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: HashMap<Label, usize>,
    next_label: u32,
    /// (instruction index, label) pairs awaiting resolution.
    fixups: Vec<(usize, Label)>,
    duplicate_labels: Vec<Label>,
    ac_regs: u16,
    loop_var_mask: u16,
    approx_region: Option<(u32, u32)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, not-yet-placed label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Places `label` at the current instruction position.
    ///
    /// Placing the same label at two different positions is recorded and
    /// reported as [`ProgramError::DuplicateLabel`] at build time.
    pub fn place(&mut self, label: Label) -> &mut Self {
        let here = self.instrs.len();
        let pos = *self.labels.entry(label).or_insert(here);
        if pos != here {
            self.duplicate_labels.push(label);
        }
        self
    }

    /// Marks a register as carrying approximable data (sets its AC bit).
    pub fn mark_ac(&mut self, r: Reg) -> &mut Self {
        self.ac_regs |= 1 << r.0;
        self
    }

    /// Marks a register as a key loop variable for resume matching.
    pub fn mark_loop_var(&mut self, r: Reg) -> &mut Self {
        self.loop_var_mask |= 1 << r.0;
        self
    }

    /// Declares the approximable data-memory region (word range).
    pub fn approx_region(&mut self, start: u32, end: u32) -> &mut Self {
        assert!(start <= end, "approx region start must be <= end");
        self.approx_region = Some((start, end));
        self
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Current instruction index (the address the next emit will get).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    // --- ergonomic emitters -------------------------------------------

    /// `dst = imm`
    pub fn ldi(&mut self, d: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::Ldi(d, imm))
    }

    /// `dst = src`
    pub fn mov(&mut self, d: Reg, s: Reg) -> &mut Self {
        self.emit(Instr::Mov(d, s))
    }

    /// `dst = mem[addr]`
    pub fn ld(&mut self, d: Reg, addr: u32) -> &mut Self {
        self.emit(Instr::Ld(d, addr))
    }

    /// `mem[addr] = src`
    pub fn st(&mut self, addr: u32, s: Reg) -> &mut Self {
        self.emit(Instr::St(addr, s))
    }

    /// `dst = mem[base + off]`
    pub fn ld_ind(&mut self, d: Reg, base: Reg, off: i32) -> &mut Self {
        self.emit(Instr::LdInd(d, base, off))
    }

    /// `mem[base + off] = src`
    pub fn st_ind(&mut self, base: Reg, off: i32, s: Reg) -> &mut Self {
        self.emit(Instr::StInd(base, off, s))
    }

    /// `dst = a + b`
    pub fn add(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Instr::Add(d, a, b))
    }

    /// `dst = a - b`
    pub fn sub(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Instr::Sub(d, a, b))
    }

    /// `dst = a * b`
    pub fn mul(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Instr::Mul(d, a, b))
    }

    /// `dst = a + imm`
    pub fn addi(&mut self, d: Reg, a: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::AddI(d, a, imm))
    }

    /// `dst = a * imm`
    pub fn muli(&mut self, d: Reg, a: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::MulI(d, a, imm))
    }

    /// `dst = a << sh`
    pub fn shl(&mut self, d: Reg, a: Reg, sh: u8) -> &mut Self {
        self.emit(Instr::Shl(d, a, sh))
    }

    /// `dst = a >> sh` (arithmetic)
    pub fn shr(&mut self, d: Reg, a: Reg, sh: u8) -> &mut Self {
        self.emit(Instr::Shr(d, a, sh))
    }

    /// `dst = min(a, b)`
    pub fn min(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Instr::Min(d, a, b))
    }

    /// `dst = max(a, b)`
    pub fn max(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Instr::Max(d, a, b))
    }

    /// `dst = min(a, imm)`
    pub fn mini(&mut self, d: Reg, a: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::MinI(d, a, imm))
    }

    /// `dst = max(a, imm)`
    pub fn maxi(&mut self, d: Reg, a: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::MaxI(d, a, imm))
    }

    /// `dst = |a|`
    pub fn abs(&mut self, d: Reg, a: Reg) -> &mut Self {
        self.emit(Instr::Abs(d, a))
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Jmp(u32::MAX))
    }

    /// Branch to `label` if `r == 0`.
    pub fn brz(&mut self, r: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Brz(r, u32::MAX))
    }

    /// Branch to `label` if `r != 0`.
    pub fn brnz(&mut self, r: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Brnz(r, u32::MAX))
    }

    /// Branch to `label` if `a < b`.
    pub fn brlt(&mut self, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Brlt(a, b, u32::MAX))
    }

    /// Branch to `label` if `a >= b`.
    pub fn brge(&mut self, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Brge(a, b, u32::MAX))
    }

    /// Stop execution.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Halt)
    }

    /// Emits a resume-point marker for loop `id` (the
    /// `incidental_recover_from` pragma).
    pub fn mark_resume(&mut self, id: u8) -> &mut Self {
        self.emit(Instr::MarkResume(id))
    }

    /// Emits a frame-commit marker.
    pub fn frame_done(&mut self) -> &mut Self {
        self.emit(Instr::FrameDone)
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found: unbound/duplicate labels,
    /// invalid registers, or a missing `halt`.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        if let Some(&l) = self.duplicate_labels.first() {
            return Err(ProgramError::DuplicateLabel(l));
        }
        for (pos, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or(ProgramError::UnboundLabel(label))? as u32;
            use Instr::*;
            self.instrs[pos] = match self.instrs[pos] {
                Jmp(_) => Jmp(target),
                Brz(r, _) => Brz(r, target),
                Brnz(r, _) => Brnz(r, target),
                Brlt(a, b, _) => Brlt(a, b, target),
                Brge(a, b, _) => Brge(a, b, target),
                other => other,
            };
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            for r in i.dst().into_iter().chain(i.srcs()) {
                if r.index() >= NUM_REGS {
                    return Err(ProgramError::BadRegister(pc, r));
                }
            }
        }
        if !self.instrs.iter().any(|i| matches!(i, Instr::Halt)) {
            return Err(ProgramError::MissingHalt);
        }
        Ok(Program {
            instrs: self.instrs,
            ac_regs: self.ac_regs,
            loop_var_mask: self.loop_var_mask,
            approx_region: self.approx_region,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_resolves_forward_label() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.ldi(Reg(0), 5).brz(Reg(0), end).addi(Reg(0), Reg(0), 1);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(1), Some(Instr::Brz(Reg(0), 3)));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jmp(l).halt();
        assert_eq!(b.build().unwrap_err(), ProgramError::UnboundLabel(l));
    }

    #[test]
    fn missing_halt_is_error() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1);
        assert_eq!(b.build().unwrap_err(), ProgramError::MissingHalt);
    }

    #[test]
    fn bad_register_is_error() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(99), 1).halt();
        assert!(matches!(
            b.build().unwrap_err(),
            ProgramError::BadRegister(0, Reg(99))
        ));
    }

    #[test]
    fn ac_and_loop_masks_recorded() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(2)).mark_ac(Reg(3)).mark_loop_var(Reg(1));
        b.approx_region(100, 200);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.ac_regs(), 0b1100);
        assert_eq!(p.loop_var_mask(), 0b10);
        assert_eq!(p.approx_region(), Some(100..200));
    }

    #[test]
    fn disassembly_lists_all_instrs() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).halt();
        let p = b.build().unwrap();
        let d = p.disassemble();
        assert!(d.contains("ldi"));
        assert!(d.contains("halt"));
        assert_eq!(d.lines().count(), 2);
    }

    #[test]
    fn backward_label_loop() {
        // for r0 in 0..3 {} — counts via backward branch.
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 0).ldi(Reg(1), 3);
        let top = b.label();
        b.place(top);
        b.addi(Reg(0), Reg(0), 1);
        b.brlt(Reg(0), Reg(1), top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(3), Some(Instr::Brlt(Reg(0), Reg(1), 2)));
    }
}
