//! Natural-loop discovery and trip-count bounding.
//!
//! The WCEC solver needs, for every cycle in the CFG, an upper bound on
//! how many times the cycle can turn per entry. This module finds natural
//! loops structurally (dominators → back edges → body closure) and then
//! bounds each loop by pattern-matching its induction register against the
//! interval invariants proven by [`crate::error_bound`]:
//!
//! * every in-loop write of a candidate register must be a same-sign
//!   self-increment `addi r, r, c`, and every latch block must contain at
//!   least one — so each head-to-head traversal advances the counter by at
//!   least the smallest per-latch stride sum;
//! * the interval invariant at the loop head then caps the number of
//!   consecutive head visits at `diam / stride + 1`.
//!
//! When no register matches (or the head interval is ⊤ / tainted by
//! possible concrete wraparound) the loop is reported
//! [`TripBound::Unbounded`] — the honest answer, surfaced to users as
//! `NVP-W004`. The bound is parameterized by the governor bit floor
//! because AC noise on an approximate counter widens its interval: a loop
//! can be provably bounded at 8 bits and unbounded at 1.

use crate::cfg::Cfg;
use crate::dataflow::Solution;
use crate::error_bound::{solve_error_bounds, ApproxState};
use nvp_isa::{Instr, Program, Reg};
use std::fmt;

/// Upper bound on a loop's per-entry trip count (head visits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripBound {
    /// The loop head is visited at most this many times per loop entry.
    Bounded(u64),
    /// No sound bound could be derived.
    Unbounded,
}

impl TripBound {
    /// Is a finite bound known?
    pub fn is_bounded(&self) -> bool {
        matches!(self, TripBound::Bounded(_))
    }
}

/// Largest trip count accepted as a credible bound.
///
/// Intervals inherited from ⊤ (memory loads, widening-ladder rungs at
/// ±2¹⁶ and beyond) can survive branch refinement as "bounded" ranges of
/// two billion values. The resulting trip counts are numerically sound
/// but certify nothing — worse, they would let `NVP-E006` "prove" a
/// livelock from what is really an *unknown* bound. Anything above this
/// cutoff is therefore demoted to the honest [`TripBound::Unbounded`]
/// (loosening an upper bound to ∞ is always sound).
pub const MAX_CREDIBLE_TRIPS: u64 = 1 << 20;

impl fmt::Display for TripBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripBound::Bounded(n) => write!(f, "≤{n}"),
            TripBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// One natural loop (back edges sharing a head are merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Header block id.
    pub head: usize,
    /// Member block ids (sorted, includes the head).
    pub members: Vec<usize>,
    /// Blocks whose terminator takes a back edge to the head.
    pub latches: Vec<usize>,
    /// The induction register the bound was derived from, if any.
    pub counter: Option<Reg>,
    /// Guaranteed counter advance per iteration (0 when no counter).
    pub stride: u64,
    /// Trip-count bound.
    pub bound: TripBound,
    /// Proven *minimum* latch executions per entry (0 when nothing could
    /// be proven). Unlike [`bound`](Self::bound), which over-approximates,
    /// this under-approximates: every entry into the loop runs at least
    /// this many iterations. It is what lets the energy lints *prove*
    /// livelock rather than merely fail to disprove it.
    pub min_bound: u64,
}

impl NaturalLoop {
    /// First pc of the loop header block.
    pub fn head_pc(&self, cfg: &Cfg) -> usize {
        cfg.blocks()[self.head].start
    }
}

/// All loops of a program, innermost-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// Loops sorted by body size ascending, so nested loops precede the
    /// loops containing them (a strict subset is strictly smaller).
    pub loops: Vec<NaturalLoop>,
    /// A retreating edge whose target does not dominate its source was
    /// found: the CFG is irreducible and cycles through it are not
    /// captured by any [`NaturalLoop`].
    pub irreducible: bool,
}

/// Block-level dominator sets (`dom[b][d]` ⇔ `d` dominates `b`), plus the
/// set of blocks reachable from the entry. Unreachable blocks keep the
/// full set (vacuously dominated by everything) and are excluded from
/// loop discovery.
fn dominators(cfg: &Cfg) -> (Vec<Vec<bool>>, Vec<bool>) {
    let n = cfg.blocks().len();
    let mut dom = vec![vec![true; n]; n];
    let mut reachable = vec![false; n];
    let rpo = cfg.rpo();
    for &b in &rpo {
        reachable[b] = true;
    }
    if n == 0 || rpo.is_empty() {
        return (dom, reachable);
    }
    let entry = rpo[0];
    for (d, v) in dom[entry].iter_mut().enumerate() {
        *v = d == entry;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new: Vec<bool> = vec![true; n];
            let mut any = false;
            for &p in &cfg.blocks()[b].preds {
                if !reachable[p] {
                    continue;
                }
                for (nd, pd) in new.iter_mut().zip(&dom[p]) {
                    *nd = *nd && *pd;
                }
                any = true;
            }
            if !any {
                // In rpo yet no reachable pred: only possible for the
                // entry, handled above.
                continue;
            }
            new[b] = true;
            if new != dom[b] {
                dom[b] = new;
                changed = true;
            }
        }
    }
    (dom, reachable)
}

/// Finds the natural loops of `cfg` (structure only, no bounds).
pub fn find_loops(cfg: &Cfg) -> LoopReport {
    let (dom, reachable) = dominators(cfg);
    let rpo = cfg.rpo();
    let mut rpo_pos = vec![usize::MAX; cfg.blocks().len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_pos[b] = i;
    }

    let mut irreducible = false;
    // head → (members, latches)
    let mut by_head: Vec<(usize, Vec<bool>, Vec<usize>)> = Vec::new();
    for (u, blk) in cfg.blocks().iter().enumerate() {
        if !reachable[u] {
            continue;
        }
        for &h in &blk.succs {
            if !reachable[h] {
                continue;
            }
            if dom[u][h] {
                // Back edge u → h: body = {h} ∪ reverse-reach from u
                // stopping at h.
                let n = cfg.blocks().len();
                let entry = by_head.iter_mut().find(|(head, ..)| *head == h);
                let (members, latches) = match entry {
                    Some((_, m, l)) => (m, l),
                    None => {
                        by_head.push((h, vec![false; n], Vec::new()));
                        let last = by_head.last_mut().expect("just pushed");
                        (&mut last.1, &mut last.2)
                    }
                };
                members[h] = true;
                let mut stack = vec![u];
                while let Some(x) = stack.pop() {
                    if members[x] {
                        continue;
                    }
                    members[x] = true;
                    for &p in &cfg.blocks()[x].preds {
                        if reachable[p] && !members[p] {
                            stack.push(p);
                        }
                    }
                }
                if !latches.contains(&u) {
                    latches.push(u);
                }
            } else if rpo_pos[h] <= rpo_pos[u] && h != u {
                // Retreating but not a back edge: irreducible region.
                irreducible = true;
            }
        }
    }

    let mut loops: Vec<NaturalLoop> = by_head
        .into_iter()
        .map(|(head, members, mut latches)| {
            latches.sort_unstable();
            NaturalLoop {
                head,
                members: members
                    .iter()
                    .enumerate()
                    .filter_map(|(b, &m)| m.then_some(b))
                    .collect(),
                latches,
                counter: None,
                stride: 0,
                bound: TripBound::Unbounded,
                min_bound: 0,
            }
        })
        .collect();
    loops.sort_by_key(|l| (l.members.len(), l.head));
    LoopReport { loops, irreducible }
}

/// Bound derivation for one loop against an interval solution.
fn bound_loop(program: &Program, cfg: &Cfg, l: &mut NaturalLoop, sol: &Solution<ApproxState>) {
    let head_pc = l.head_pc(cfg);
    let Some(head_state) = sol.before_at(head_pc) else {
        // The fixpoint never reached the head: the loop is dead code.
        l.bound = TripBound::Bounded(0);
        return;
    };

    let member_pcs: Vec<usize> = l
        .members
        .iter()
        .flat_map(|&b| cfg.blocks()[b].pcs())
        .collect();

    let mut best: Option<(Reg, u64, u64)> = None; // (reg, stride, trips)
    'regs: for r in 0..nvp_isa::NUM_REGS as u8 {
        let r = Reg(r);
        // Every in-loop write must be a same-sign self-increment.
        let mut strides: Vec<(usize, i64)> = Vec::new();
        for &pc in &member_pcs {
            let instr = program.fetch(pc).expect("pc in range");
            if instr.dst() == Some(r) {
                match instr {
                    Instr::AddI(d, s, c) if d == s && c != 0 => {
                        strides.push((pc, c as i64));
                    }
                    _ => continue 'regs,
                }
            }
        }
        if strides.is_empty()
            || !(strides.iter().all(|&(_, c)| c > 0) || strides.iter().all(|&(_, c)| c < 0))
        {
            continue;
        }
        // Guaranteed advance per iteration: each head-to-head traversal
        // runs exactly one latch block to completion, so it executes that
        // latch's increments (plus possibly others of the same sign).
        let mut advance = u64::MAX;
        for &latch in &l.latches {
            let blk = &cfg.blocks()[latch];
            let sum: u64 = strides
                .iter()
                .filter(|(pc, _)| blk.pcs().contains(pc))
                .map(|&(_, c)| c.unsigned_abs())
                .sum();
            if sum == 0 {
                continue 'regs; // a latch that skips the counter
            }
            advance = advance.min(sum);
        }
        // The head invariant caps consecutive monotone visits.
        let iv = head_state.reg(r).iv;
        if iv.wrapped || iv.lo == i32::MIN as i64 || iv.hi == i32::MAX as i64 {
            continue;
        }
        let trips = iv.diam() / advance + 1;
        if trips > MAX_CREDIBLE_TRIPS {
            continue;
        }
        if best.is_none_or(|(_, _, t)| trips < t) {
            best = Some((r, advance, trips));
        }
    }

    if let Some((r, stride, trips)) = best {
        l.counter = Some(r);
        l.stride = stride;
        l.bound = TripBound::Bounded(trips);
    }
}

/// Minimum-trip derivation for one loop: a *lower* bound on latch
/// executions per entry. The upper bound says "no more than N"; this says
/// "no fewer than N" — the direction a livelock *proof* needs, since an
/// over-approximate WCEC exceeding the budget proves nothing (the slack
/// may be analysis looseness, as in kernels whose per-entry intervals are
/// joined across outer iterations).
///
/// The derivation is deliberately narrow; every condition is required:
///
/// * a single latch, and the latch terminator is the only exit from the
///   loop (any other escape could cut an execution short);
/// * the latch terminator is `brlt r, limit, head` (runs while
///   `r < limit`) or `brnz r, head` (runs while `r != 0`);
/// * the counter `r` has exactly one in-loop write — `addi r, r, c` in
///   the head or latch block, so each head-to-head traversal advances it
///   by exactly `c` (a stride in a conditional arm or inner loop could
///   advance faster);
/// * every entry edge ends with an exact `ldi r, k` initial value.
///
/// Then at the `t`-th latch branch the counter is exactly `k + t·c`, and
/// the branch cannot fall through before the counter reaches the limit's
/// interval floor: `t ≥ ⌈(lo(limit) − k)/c⌉` (resp. `⌈k/|c|⌉` for the
/// countdown form). Wraparound only ever jumps the counter *away* from
/// the `brlt` goal, and the `brnz` form exits only on an exact zero, so
/// the bound survives overflow. When any condition fails, `min_bound`
/// stays 0 — "nothing proven", never "proven small".
fn min_bound_loop(program: &Program, cfg: &Cfg, l: &mut NaturalLoop, sol: &Solution<ApproxState>) {
    let &[latch] = l.latches.as_slice() else {
        return;
    };
    let is_member = |b: usize| l.members.binary_search(&b).is_ok();
    for &m in &l.members {
        if m != latch && cfg.blocks()[m].succs.iter().any(|&s| !is_member(s)) {
            return; // an exit that bypasses the latch terminator
        }
    }
    let head_pc = l.head_pc(cfg) as u32;
    let term_pc = cfg.blocks()[latch].end - 1;
    let (r, count_up, goal_lo) = match program.fetch(term_pc) {
        Some(Instr::Brlt(a, b, t)) if t == head_pc => {
            let Some(st) = sol.before_at(term_pc) else {
                return;
            };
            let iv = st.reg(b).iv;
            if iv.wrapped {
                return;
            }
            (a, true, iv.lo)
        }
        Some(Instr::Brnz(a, t)) if t == head_pc => (a, false, 0),
        _ => return,
    };
    let mut stride: Option<i64> = None;
    for &m in &l.members {
        for pc in cfg.blocks()[m].pcs() {
            let instr = program.fetch(pc).expect("pc in range");
            if instr.dst() != Some(r) {
                continue;
            }
            match instr {
                Instr::AddI(d, s, c)
                    if d == s && c != 0 && (m == l.head || m == latch) && stride.is_none() =>
                {
                    stride = Some(c as i64);
                }
                _ => return,
            }
        }
    }
    let Some(c) = stride else {
        return;
    };
    // An exact initial value on every entry edge; the fewest iterations
    // come from the entry value closest to the exit goal.
    let mut init: Option<i64> = None;
    for (p, blk) in cfg.blocks().iter().enumerate() {
        if is_member(p) || !blk.succs.contains(&l.head) {
            continue;
        }
        let mut found = None;
        for pc in blk.pcs().rev() {
            let instr = program.fetch(pc).expect("pc in range");
            if instr.dst() == Some(r) {
                if let Instr::Ldi(_, k) = instr {
                    found = Some(k as i64);
                }
                break;
            }
        }
        let Some(k) = found else {
            return;
        };
        init = Some(match init {
            None => k,
            Some(prev) if count_up => prev.max(k),
            Some(prev) => prev.min(k),
        });
    }
    let Some(k) = init else {
        return;
    };
    let trips = if count_up {
        if c <= 0 {
            return;
        }
        let gap = goal_lo - k;
        if gap <= 0 {
            0
        } else {
            (gap + c - 1) / c
        }
    } else {
        if c >= 0 || k <= 0 {
            return;
        }
        (k + (-c) - 1) / (-c)
    };
    // The loop only exits through the latch, so merely entering it
    // already costs one latch execution.
    l.min_bound = trips.max(1) as u64;
}

/// Finds and bounds all loops of `program` at governor floor `bits`,
/// using the value-range invariants of [`solve_error_bounds`].
pub fn loop_report(program: &Program, cfg: &Cfg, bits: u8) -> LoopReport {
    let mut report = find_loops(cfg);
    if report.loops.is_empty() {
        return report;
    }
    let sol = solve_error_bounds(program, cfg, bits);
    for l in &mut report.loops {
        bound_loop(program, cfg, l, &sol);
        min_bound_loop(program, cfg, l, &sol);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::ProgramBuilder;

    fn report(p: &Program, bits: u8) -> LoopReport {
        loop_report(p, &Cfg::build(p), bits)
    }

    #[test]
    fn counting_loop_is_bounded_by_its_limit() {
        // i = 0; do { i += 1 } while (i < 10)
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert!(!r.irreducible);
        assert_eq!(r.loops.len(), 1);
        let l = &r.loops[0];
        assert_eq!(l.counter, Some(i));
        assert_eq!(l.stride, 1);
        // Head interval [0, 9] → at most 10 head visits.
        assert_eq!(l.bound, TripBound::Bounded(10));
    }

    #[test]
    fn strided_loop_divides_by_the_stride() {
        // for (i = 0; i < 100; i += 5)
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 100);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 5).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].stride, 5);
        assert_eq!(r.loops[0].bound, TripBound::Bounded(95 / 5 + 1));
    }

    #[test]
    fn countdown_loop_is_bounded() {
        // i = 50; do { i -= 1 } while (i != 0)
        let mut b = ProgramBuilder::new();
        let i = Reg(0);
        b.ldi(i, 50);
        let top = b.label();
        b.place(top);
        b.addi(i, i, -1).brnz(i, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].counter, Some(i));
        assert!(r.loops[0].bound.is_bounded());
    }

    #[test]
    fn data_dependent_exit_is_unbounded() {
        // The exit compares against a memory load: no interval bound.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ld(n, 3);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].bound, TripBound::Unbounded);
    }

    #[test]
    fn non_induction_update_defeats_the_bound() {
        // The "counter" is also multiplied inside the body.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 1).ldi(n, 100);
        let top = b.label();
        b.place(top);
        b.muli(i, i, 2).addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].counter, None);
        assert_eq!(r.loops[0].bound, TripBound::Unbounded);
    }

    #[test]
    fn nested_loops_are_innermost_first_and_both_bounded() {
        // for (i = 0; i < 4; i++) for (j = 0; j < 8; j++)
        let mut b = ProgramBuilder::new();
        let (i, j, ni, nj) = (Reg(0), Reg(1), Reg(2), Reg(3));
        b.ldi(ni, 4).ldi(nj, 8).ldi(i, 0);
        let outer = b.label();
        b.place(outer);
        b.ldi(j, 0);
        let inner = b.label();
        b.place(inner);
        b.addi(j, j, 1).brlt(j, nj, inner);
        b.addi(i, i, 1).brlt(i, ni, outer);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops.len(), 2);
        // Innermost (smaller body) first.
        assert!(r.loops[0].members.len() < r.loops[1].members.len());
        assert_eq!(r.loops[0].bound, TripBound::Bounded(8));
        assert_eq!(r.loops[1].bound, TripBound::Bounded(4));
    }

    #[test]
    fn min_trips_are_proven_for_exact_count_up_and_countdown() {
        // Count-up: exact init 0, exact limit 10 → at least 10 latch runs.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].min_bound, 10);

        // Countdown: init 50, brnz, stride −1 → at least 50.
        let mut b = ProgramBuilder::new();
        let i = Reg(0);
        b.ldi(i, 50);
        let top = b.label();
        b.place(top);
        b.addi(i, i, -1).brnz(i, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].min_bound, 50);
    }

    #[test]
    fn unknown_limit_proves_only_one_iteration() {
        // The limit comes from memory: its interval floor is i32::MIN, so
        // the only thing provable is the do-while entry iteration.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ld(n, 3);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].bound, TripBound::Unbounded);
        assert_eq!(r.loops[0].min_bound, 1);
    }

    #[test]
    fn nested_loops_prove_min_trips_independently() {
        let mut b = ProgramBuilder::new();
        let (i, j, ni, nj) = (Reg(0), Reg(1), Reg(2), Reg(3));
        b.ldi(ni, 4).ldi(nj, 8).ldi(i, 0);
        let outer = b.label();
        b.place(outer);
        b.ldi(j, 0);
        let inner = b.label();
        b.place(inner);
        b.addi(j, j, 1).brlt(j, nj, inner);
        b.addi(i, i, 1).brlt(i, ni, outer);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].min_bound, 8);
        assert_eq!(r.loops[1].min_bound, 4);
    }

    #[test]
    fn an_extra_exit_voids_the_min_proof() {
        // A break guarded by a memory load: the loop may leave after one
        // pass, so no multi-trip floor may be claimed.
        let mut b = ProgramBuilder::new();
        let (i, n, g) = (Reg(0), Reg(1), Reg(2));
        let out = b.label();
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.ld(g, 7).brnz(g, out);
        b.addi(i, i, 1).brlt(i, n, top);
        b.place(out);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.loops[0].min_bound, 0);
    }

    #[test]
    fn infeasible_loop_is_bounded_at_zero() {
        // The guard always branches over the loop; the CFG still has the
        // fall-through edge, but branch refinement proves it infeasible.
        let mut b = ProgramBuilder::new();
        let (i, g) = (Reg(0), Reg(1));
        let end = b.label();
        b.ldi(g, 0).brz(g, end);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brnz(i, top);
        b.place(end);
        b.halt();
        let p = b.build().unwrap();
        let r = report(&p, 8);
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].bound, TripBound::Bounded(0));
    }
}
