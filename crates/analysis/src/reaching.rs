//! Forward reaching-definitions dataflow.
//!
//! For every program point and register, the set of definition sites
//! (instruction indices, or [`ENTRY_DEF`] for the value live-in at program
//! entry) whose value may still be current. The taint and WAR passes use
//! the *unique-definition* query to name symbolic memory locations
//! (`base register as defined at pc d, plus offset`), and diagnostics use
//! it to point at where a tainted value was produced.

use crate::cfg::Cfg;
use crate::dataflow::{solve, Analysis, Direction, Solution};
use nvp_isa::{Instr, Program, NUM_REGS};
use std::collections::BTreeSet;

/// Pseudo definition site for values already in a register at entry.
pub const ENTRY_DEF: usize = usize::MAX;

/// Per-register sets of reaching definition sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegDefs {
    defs: [BTreeSet<usize>; NUM_REGS],
}

impl Default for RegDefs {
    fn default() -> Self {
        RegDefs {
            defs: std::array::from_fn(|_| BTreeSet::new()),
        }
    }
}

impl RegDefs {
    fn entry() -> Self {
        let mut s = RegDefs::default();
        for d in &mut s.defs {
            d.insert(ENTRY_DEF);
        }
        s
    }

    /// The single definition site of `r` if exactly one reaches, else
    /// `None` (merged definitions).
    pub fn unique_def(&self, r: u8) -> Option<usize> {
        let d = &self.defs[r as usize];
        if d.len() == 1 {
            d.iter().next().copied()
        } else {
            None
        }
    }
}

/// Reaching-definitions result.
#[derive(Debug, Clone)]
pub struct Reaching {
    sol: Solution<RegDefs>,
}

impl Reaching {
    /// Definitions reaching the point just before `pc` executes.
    pub fn before(&self, pc: usize) -> Option<&RegDefs> {
        self.sol.before_at(pc)
    }
}

struct ReachingAnalysis;

impl Analysis for ReachingAnalysis {
    type State = RegDefs;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RegDefs {
        RegDefs::entry()
    }

    fn transfer(&self, pc: usize, instr: Instr, before: &RegDefs) -> RegDefs {
        let mut s = before.clone();
        if let Some(d) = instr.dst() {
            let set = &mut s.defs[d.index()];
            set.clear();
            set.insert(pc);
        }
        s
    }

    fn join(&self, into: &mut RegDefs, other: &RegDefs) {
        for (a, b) in into.defs.iter_mut().zip(&other.defs) {
            a.extend(b.iter().copied());
        }
    }
}

/// Computes reaching definitions for `program`.
pub fn reaching(program: &Program, cfg: &Cfg) -> Reaching {
    Reaching {
        sol: solve(program, cfg, &ReachingAnalysis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::{ProgramBuilder, Reg};

    #[test]
    fn straight_line_unique_defs() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1)
            .addi(Reg(0), Reg(0), 1)
            .st(9, Reg(0))
            .halt();
        let p = b.build().unwrap();
        let r = reaching(&p, &Cfg::build(&p));
        assert_eq!(r.before(1).unwrap().unique_def(0), Some(0));
        assert_eq!(r.before(2).unwrap().unique_def(0), Some(1));
        // An untouched register still has its entry definition.
        assert_eq!(r.before(2).unwrap().unique_def(5), Some(ENTRY_DEF));
    }

    #[test]
    fn loop_merges_definitions_at_head() {
        // 0: ldi r0,0  1: addi r0,r0,1  2: brlt r0,r0,@1  3: halt
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 0);
        let top = b.label();
        b.place(top);
        b.addi(Reg(0), Reg(0), 1);
        b.brlt(Reg(0), Reg(0), top);
        b.halt();
        let p = b.build().unwrap();
        let r = reaching(&p, &Cfg::build(&p));
        // At the loop head both the initial ldi and the addi reach.
        let defs = r.before(1).unwrap().defs[0].clone();
        assert_eq!(defs, BTreeSet::from([0, 1]));
        assert_eq!(r.before(1).unwrap().unique_def(0), None);
        // Inside the body after the addi, the definition is unique again.
        assert_eq!(r.before(2).unwrap().unique_def(0), Some(1));
    }
}
