//! Flow-sensitive approximation-taint analysis.
//!
//! A fixpoint dataflow pass over the CFG that tracks taint through both
//! registers and data memory. The safety contract (paper
//! Section 5) is that approximate values never reach control flow,
//! effective addresses, or precise memory:
//!
//! * `NVP-E001` — a branch tests a tainted register,
//! * `NVP-E002` — an indirect access computes its address from a tainted
//!   base register,
//! * `NVP-E003` — a tainted absolute store lands outside the declared
//!   approximable region.
//!
//! Compared to the seed's register-only global fixpoint this pass is
//! flow-sensitive (a precise redefinition of a derived register clears its
//! taint on the paths that follow) and tracks **memory taint**: a tainted
//! store taints its target location, and a later load from that location
//! taints the destination register — including around loop back-edges,
//! the hole the old linear scan could not see (a value stored late in an
//! iteration and reloaded at the top of the next one).
//!
//! AC-marked registers are permanently tainted: the hardware approximates
//! *every* ALU write to them (`ApproxConfig::ac_en`), so no assignment can
//! launder them. Memory locations are named precisely: absolute addresses
//! as-is, indirect accesses symbolically as `(base register, unique
//! reaching definition of the base, offset)`. Indirect and absolute
//! accesses are not aliased against each other, and neither are indirect
//! accesses with different offsets — kernels select disjoint regions
//! (constant tables / input / output) through the offset, with the base
//! register a small element index. A tainted store whose base has no
//! unique definition (e.g. a loop induction variable at the loop head)
//! conservatively taints every later indirect load *at the same offset*.

use crate::cfg::Cfg;
use crate::dataflow::{solve, Analysis, Direction};
use crate::diag::{Diagnostic, LintCode};
use crate::lattice::{entry_defs, join_defs, sym_for, union_into, DefSite, Sym};
use crate::{Pass, PassContext};
use nvp_isa::{Instr, Program, Reg, NUM_REGS};
use std::collections::BTreeSet;

/// The taint lattice element at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaintState {
    /// Tainted registers (bitmask).
    pub regs: u16,
    /// Reaching definition of each register, for symbol naming.
    pub defs: [DefSite; NUM_REGS],
    /// Tainted absolute memory addresses.
    pub mem_abs: BTreeSet<u32>,
    /// Tainted symbolic (indirect) memory locations.
    pub mem_sym: BTreeSet<Sym>,
    /// Offsets of tainted stores through bases with no unique definition:
    /// any later indirect load at one of these offsets is tainted.
    pub unknown_offs: BTreeSet<i32>,
}

impl TaintState {
    fn entry(ac_regs: u16) -> Self {
        TaintState {
            regs: ac_regs,
            defs: entry_defs(),
            mem_abs: BTreeSet::new(),
            mem_sym: BTreeSet::new(),
            unknown_offs: BTreeSet::new(),
        }
    }

    fn is_tainted(&self, r: Reg) -> bool {
        self.regs & (1 << r.0) != 0
    }

    /// Is the location `base + off` possibly tainted? Checks the exact
    /// symbol when the base has a unique definition, and in either case
    /// any tainted access at the same offset whose base was merged.
    fn mem_tainted(&self, base: Reg, off: i32) -> bool {
        if self.unknown_offs.contains(&off) {
            return true;
        }
        match self.sym(base, off) {
            Some(sym) => self.mem_sym.contains(&sym),
            // Merged base: alias against every tainted symbol at this
            // offset.
            None => self.mem_sym.iter().any(|&(_, _, o)| o == off),
        }
    }

    /// Symbol for `base + off`, if the base has a unique reaching def.
    pub(crate) fn sym(&self, base: Reg, off: i32) -> Option<Sym> {
        sym_for(&self.defs, base, off)
    }
}

struct TaintAnalysis {
    ac_regs: u16,
}

impl TaintAnalysis {
    fn set_reg(&self, s: &mut TaintState, d: Reg, tainted: bool, pc: usize) {
        // AC-marked registers never lose taint: the datapath approximates
        // every ALU write to them.
        let bit = 1u16 << d.0;
        if tainted || self.ac_regs & bit != 0 {
            s.regs |= bit;
        } else {
            s.regs &= !bit;
        }
        s.defs[d.index()] = DefSite::Unique(pc);
    }
}

impl Analysis for TaintAnalysis {
    type State = TaintState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> TaintState {
        TaintState::entry(self.ac_regs)
    }

    fn transfer(&self, pc: usize, instr: Instr, before: &TaintState) -> TaintState {
        let mut s = before.clone();
        match instr {
            Instr::Ldi(d, _) => {
                // Immediates are written precisely (no ALU involved).
                self.set_reg(&mut s, d, false, pc);
            }
            Instr::Ld(d, a) => {
                let t = before.mem_abs.contains(&a);
                self.set_reg(&mut s, d, t, pc);
            }
            Instr::LdInd(d, base, off) => {
                // A tainted base yields an unpredictable value; otherwise
                // the value is tainted iff the named location may be.
                let t = before.is_tainted(base) || before.mem_tainted(base, off);
                self.set_reg(&mut s, d, t, pc);
            }
            Instr::St(a, src) => {
                if before.is_tainted(src) {
                    s.mem_abs.insert(a);
                } else {
                    s.mem_abs.remove(&a);
                }
            }
            Instr::StInd(base, off, src) => {
                let t = before.is_tainted(src) || before.is_tainted(base);
                match before.sym(base, off) {
                    Some(sym) => {
                        if t {
                            s.mem_sym.insert(sym);
                        } else {
                            s.mem_sym.remove(&sym);
                        }
                    }
                    None => {
                        if t {
                            s.unknown_offs.insert(off);
                        }
                    }
                }
            }
            _ => {
                if let Some(d) = instr.dst() {
                    let t = instr.srcs().iter().any(|&r| before.is_tainted(r));
                    self.set_reg(&mut s, d, t, pc);
                }
            }
        }
        s
    }

    fn join(&self, into: &mut TaintState, other: &TaintState) {
        into.regs |= other.regs;
        join_defs(&mut into.defs, &other.defs);
        union_into(&mut into.mem_abs, &other.mem_abs);
        union_into(&mut into.mem_sym, &other.mem_sym);
        union_into(&mut into.unknown_offs, &other.unknown_offs);
    }
}

/// The approximation-isolation taint pass.
#[derive(Debug, Default)]
pub struct TaintPass;

impl Pass for TaintPass {
    fn name(&self) -> &'static str {
        "taint"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        check_taint(cx.program, cx.cfg, cx.config.sanitized_regs)
    }
}

/// Runs the taint pass directly, returning its diagnostics.
pub fn check_taint(program: &Program, cfg: &Cfg, sanitized: u16) -> Vec<Diagnostic> {
    let analysis = TaintAnalysis {
        ac_regs: program.ac_regs(),
    };
    let sol = solve(program, cfg, &analysis);
    let region = program.approx_region();
    let mut out = Vec::new();
    let tainted = |s: &TaintState, r: Reg| s.is_tainted(r) && sanitized & (1 << r.0) == 0;
    for (pc, i) in program.iter() {
        let Some(s) = sol.before_at(pc) else {
            continue; // unreachable code
        };
        let mut branch_on = |r: Reg| {
            if tainted(s, r) {
                out.push(
                    Diagnostic::at(
                        LintCode::BranchOnApprox,
                        pc,
                        format!("branch tests approximate register {r}"),
                    )
                    .with_context(program),
                );
            }
        };
        match i {
            Instr::Brz(r, _) | Instr::Brnz(r, _) => branch_on(r),
            Instr::Brlt(a, b, _) | Instr::Brge(a, b, _) => {
                branch_on(a);
                branch_on(b);
            }
            Instr::LdInd(_, base, _) | Instr::StInd(base, _, _) if tainted(s, base) => {
                out.push(
                    Diagnostic::at(
                        LintCode::AddressFromApprox,
                        pc,
                        format!("address computed from approximate register {base}"),
                    )
                    .with_context(program),
                );
            }
            Instr::St(addr, src)
                if tainted(s, src)
                    && !region.as_ref().map(|r| r.contains(&addr)).unwrap_or(false) =>
            {
                out.push(
                    Diagnostic::at(
                        LintCode::StoreOutsideRegion,
                        pc,
                        format!("approximate store of {src} to [{addr}] outside the marked region"),
                    )
                    .with_context(program),
                );
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::ProgramBuilder;

    fn run(p: &Program, sanitized: u16) -> Vec<Diagnostic> {
        check_taint(p, &Cfg::build(p), sanitized)
    }

    #[test]
    fn clean_program_is_silent() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(0, 100);
        b.ldi(Reg(0), 5)
            .ld_ind(Reg(4), Reg(0), 0)
            .addi(Reg(4), Reg(4), 1)
            .st(10, Reg(4))
            .halt();
        let p = b.build().unwrap();
        assert!(run(&p, 0).is_empty());
    }

    #[test]
    fn branch_on_ac_reg_flagged_even_after_ldi() {
        // AC registers are hardware-approximated on every ALU write; the
        // conservative contract keeps them tainted through immediates.
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4));
        let end = b.label();
        b.ldi(Reg(4), 1).brz(Reg(4), end);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        let v = run(&p, 0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, LintCode::BranchOnApprox);
    }

    #[test]
    fn derived_taint_cleared_by_precise_redefinition() {
        // r5 = r4 (tainted), then r5 = 3 (precise) — branching on r5 after
        // the redefinition is fine (a flow-insensitive pass would flag it).
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4));
        let end = b.label();
        b.mov(Reg(5), Reg(4)).ldi(Reg(5), 3).brz(Reg(5), end);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        assert!(run(&p, 0).is_empty());
    }

    #[test]
    fn memory_taint_through_absolute_store_and_load() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(0, 100);
        let end = b.label();
        b.st(20, Reg(4)) // taints [20]
            .ld(Reg(0), 20) // r0 now tainted through memory
            .brz(Reg(0), end);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        let v = run(&p, 0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, LintCode::BranchOnApprox);
        assert_eq!(v[0].pc, Some(2));
    }

    #[test]
    fn memory_taint_killed_by_precise_overwrite() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(0, 100);
        let end = b.label();
        b.st(20, Reg(4)) // taints [20]
            .ldi(Reg(1), 0)
            .st(20, Reg(1)) // precise overwrite clears it
            .ld(Reg(0), 20)
            .brz(Reg(0), end);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        assert!(run(&p, 0).is_empty());
    }

    #[test]
    fn symbolic_memory_taint_through_indirect_store() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(0, 100);
        let end = b.label();
        b.ldi(Reg(2), 10)
            .st_ind(Reg(2), 0, Reg(4)) // taints (r2@0, +0)
            .ld_ind(Reg(0), Reg(2), 0) // same symbol — tainted
            .brz(Reg(0), end);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        let v = run(&p, 0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, LintCode::BranchOnApprox);
    }

    #[test]
    fn merged_base_store_taints_same_offset_only() {
        // A loop stores an AC value through its induction variable (merged
        // definition at the loop head, offset 200). A later load through
        // the same variable at offset 0 reads a different region (the
        // constant-table pattern every kernel uses) and must stay precise;
        // a load at offset 200 may alias the tainted store.
        let build = |load_off: i32| {
            let mut b = ProgramBuilder::new();
            b.mark_ac(Reg(4)).approx_region(200, 300);
            let (i, n) = (Reg(0), Reg(1));
            b.ldi(i, 0).ldi(n, 4);
            let top = b.label();
            b.place(top);
            b.st_ind(i, 200, Reg(4)) // tainted store, merged base in loop
                .addi(i, i, 1)
                .brlt(i, n, top);
            let end = b.label();
            b.ld_ind(Reg(2), i, load_off).brz(Reg(2), end);
            b.place(end);
            b.halt();
            b.build().unwrap()
        };
        assert!(run(&build(0), 0).is_empty());
        let v = run(&build(200), 0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, LintCode::BranchOnApprox);
    }

    #[test]
    fn sanitized_registers_are_exempt_at_use_sites() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4));
        b.add(Reg(5), Reg(4), Reg(4))
            .mini(Reg(5), Reg(5), 9)
            .maxi(Reg(5), Reg(5), 0)
            .ld_ind(Reg(6), Reg(5), 0)
            .halt();
        let p = b.build().unwrap();
        assert!(!run(&p, 0).is_empty());
        assert!(run(&p, 1 << 5).is_empty());
    }

    #[test]
    fn store_outside_region_flagged() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(0, 8);
        b.st(100, Reg(4)).halt();
        let p = b.build().unwrap();
        let v = run(&p, 0);
        assert_eq!(v[0].code, LintCode::StoreOutsideRegion);
    }
}
