//! Shared lattice building blocks for the dataflow passes.
//!
//! The taint pass ([`crate::taint`]), the WAR-hazard pass ([`crate::war`])
//! and the error-bound pass ([`crate::error_bound`]) all name memory the
//! same way (absolute addresses exactly, indirect accesses as
//! `(base, unique reaching def, offset)` symbols) and join their per-point
//! facts with the same three combinators: definition-site merge, MAY-set
//! union, and MUST-set intersection. This module holds those pieces once
//! so a new pass cannot drift from the established naming discipline.

use nvp_isa::{Reg, NUM_REGS};
use std::collections::BTreeSet;

/// Pseudo definition site for values already in a register at entry.
pub const ENTRY_DEF: usize = usize::MAX;

/// A definition site for symbolic address naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefSite {
    /// Exactly one definition reaches (pc, or [`ENTRY_DEF`]).
    Unique(usize),
    /// Multiple definitions merged; the value is not a stable symbol.
    Merged,
}

/// A symbolic memory location: value of `base` as defined at `def`, plus
/// `offset` words.
pub type Sym = (u8, usize, i32);

/// The definition vector at region entry: every register carries the
/// synthetic [`ENTRY_DEF`] definition.
pub fn entry_defs() -> [DefSite; NUM_REGS] {
    [DefSite::Unique(ENTRY_DEF); NUM_REGS]
}

/// Joins two definition vectors in place: sites that disagree merge to
/// [`DefSite::Merged`] (the value is no longer a stable symbol).
pub fn join_defs(into: &mut [DefSite; NUM_REGS], other: &[DefSite; NUM_REGS]) {
    for (a, b) in into.iter_mut().zip(other) {
        if *a != *b {
            *a = DefSite::Merged;
        }
    }
}

/// Symbol for `base + off` under `defs`, if the base has a unique
/// reaching definition.
pub fn sym_for(defs: &[DefSite; NUM_REGS], base: Reg, off: i32) -> Option<Sym> {
    match defs[base.index()] {
        DefSite::Unique(d) => Some((base.0, d, off)),
        DefSite::Merged => None,
    }
}

/// MAY-fact join: the union of both sets.
pub fn union_into<T: Ord + Copy>(into: &mut BTreeSet<T>, other: &BTreeSet<T>) {
    into.extend(other.iter().copied());
}

/// MUST-fact join: the intersection of both sets.
pub fn intersect_into<T: Ord + Copy>(into: &mut BTreeSet<T>, other: &BTreeSet<T>) {
    *into = into.intersection(other).copied().collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_merge_only_on_disagreement() {
        let mut a = entry_defs();
        let mut b = entry_defs();
        b[3] = DefSite::Unique(7);
        join_defs(&mut a, &b);
        assert_eq!(a[3], DefSite::Merged);
        assert_eq!(a[0], DefSite::Unique(ENTRY_DEF));
    }

    #[test]
    fn sym_requires_unique_def() {
        let mut defs = entry_defs();
        defs[2] = DefSite::Unique(5);
        assert_eq!(sym_for(&defs, Reg(2), 10), Some((2, 5, 10)));
        defs[2] = DefSite::Merged;
        assert_eq!(sym_for(&defs, Reg(2), 10), None);
    }

    #[test]
    fn may_unions_and_must_intersects() {
        let mut may: BTreeSet<u32> = [1, 2].into();
        let mut must: BTreeSet<u32> = [1, 2].into();
        let other: BTreeSet<u32> = [2, 3].into();
        union_into(&mut may, &other);
        intersect_into(&mut must, &other);
        assert_eq!(may, [1, 2, 3].into());
        assert_eq!(must, [2].into());
    }
}
