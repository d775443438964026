//! Compile hints for the compiled engine's op table.
//!
//! `nvp_isa::compiled` pre-decodes programs into per-pc op tables
//! and wants to hoist per-access memory fault checks out of op bodies.
//! Absolute accesses it can prove alone; register-indirect accesses need a
//! value analysis — which this crate already has. [`compile_hints`] reuses
//! the error-bound interval dataflow ([`crate::error_bound`], the same
//! per-pc register intervals the dirty-set analyzer trusts for store
//! addresses) to mark every `ld`/`st` whose address range is provably
//! inside data memory.
//!
//! Soundness inherits from the interval domain's guarantees:
//!
//! * the dataflow's entry state is ⊤ for every register, so re-entry with
//!   stale register contents (roll-forward to pc 0) is covered;
//! * loads return ⊤ intervals, covering NVM retention decay;
//! * AC-marked writes are widened by the worst-case approximation bound at
//!   1 bit, the maximum over every runtime bitwidth ≥ 1;
//! * restores resume at a saved pc with values captured at that pc, where
//!   the per-pc invariant held when they were saved.
//!
//! A proof is only ever used to skip the interpreter's fault *test*; the
//! underlying memory indexing stays bounds-checked safe Rust, so an
//! invalid proof would panic loudly rather than corrupt state.

use crate::cfg::Cfg;
use crate::error_bound::solve_error_bounds;
use nvp_isa::compiled::CompileHints;
use nvp_isa::{Instr, Program};

/// Computes [`CompileHints`] for compiling `program` against a data memory
/// of `mem_words` words.
///
/// `in_range[pc]` is set for register-indirect memory ops whose base
/// register interval (at 1-bit worst-case widening) proves every reachable
/// address lies inside `[0, mem_words)`. Absolute ops are left to the
/// compiler, which ranges-checks their constant address directly.
pub fn compile_hints(program: &Program, cfg: &Cfg, mem_words: usize) -> CompileHints {
    let sol = solve_error_bounds(program, cfg, 1);
    let mw = mem_words as i64;
    let in_range = program
        .instrs()
        .iter()
        .enumerate()
        .map(|(pc, &instr)| {
            let (base, off) = match instr {
                Instr::LdInd(_, b, off) => (b, off),
                Instr::StInd(b, off, _) => (b, off),
                _ => return false,
            };
            let Some(state) = sol.before_at(pc) else {
                return false;
            };
            let iv = state.reg(base).iv;
            if iv.wrapped {
                return false;
            }
            let lo = iv.lo.checked_add(off as i64);
            let hi = iv.hi.checked_add(off as i64);
            matches!((lo, hi), (Some(lo), Some(hi)) if lo >= 0 && hi < mw)
        })
        .collect();
    CompileHints { in_range }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::program::ProgramBuilder;
    use nvp_isa::Reg;

    fn hints_for(program: &Program, mem_words: usize) -> CompileHints {
        let cfg = Cfg::build(program);
        compile_hints(program, &cfg, mem_words)
    }

    #[test]
    fn constant_base_indirect_access_is_proven() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 5)
            .ld_ind(Reg(1), Reg(0), 2) // mem[7]: in range for 16 words
            .st_ind(Reg(0), -1, Reg(1)) // mem[4]
            .halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 16);
        assert!(h.in_range[1]);
        assert!(h.in_range[2]);
    }

    #[test]
    fn bounded_loop_index_is_proven_and_unknown_base_is_not() {
        // for i in 0..8 { st_ind(i, +4) }  -- addresses 4..=11, 16 words
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 0).ldi(Reg(1), 8).ldi(Reg(2), 1);
        let top = b.label();
        b.place(top);
        b.st_ind(Reg(0), 4, Reg(2));
        b.addi(Reg(0), Reg(0), 1);
        b.brlt(Reg(0), Reg(1), top);
        // Base loaded from memory: interval is top, unprovable.
        b.ld(Reg(3), 0).ld_ind(Reg(4), Reg(3), 0);
        b.halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 16);
        assert!(h.in_range[3], "loop-bounded store should be proven");
        assert!(!h.in_range[7], "loaded base must stay checked");
    }

    #[test]
    fn out_of_range_offset_is_not_proven() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 5).ld_ind(Reg(1), Reg(0), 20).halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 16); // mem[25] out of range
        assert!(!h.in_range[1]);
    }

    #[test]
    fn negative_reach_is_not_proven() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).ld_ind(Reg(1), Reg(0), -3).halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 16); // mem[-2] faults
        assert!(!h.in_range[1]);
    }

    #[test]
    fn ac_widened_base_respects_error_bound() {
        // An AC-marked base register's interval is widened by the ALU
        // error bound; a tight fit must not be proven.
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(0));
        b.ldi(Reg(1), 7)
            .addi(Reg(0), Reg(1), 0) // AC write: widened
            .ld_ind(Reg(2), Reg(0), 0)
            .halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 8);
        assert!(!h.in_range[2], "widened AC base cannot prove a tight range");
    }

    #[test]
    fn hints_cover_every_pc() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).halt();
        let p = b.build().unwrap();
        let h = hints_for(&p, 4);
        assert_eq!(h.in_range.len(), p.len());
    }
}
