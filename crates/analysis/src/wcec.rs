//! Whole-program worst-case energy consumption (WCEC) certificates.
//!
//! The dynamic simulator answers "how much energy *did* this run cost";
//! this module answers "how much energy *can* any run cost" — statically,
//! before deployment, per basic block, per checkpoint-to-checkpoint region,
//! and for the whole program. The bound is the classic WCET recipe
//! transplanted to energy:
//!
//! 1. price every instruction with [`CostModel`] (the exact arithmetic the
//!    simulator charges at runtime, tabulated per class at one governor
//!    bitwidth);
//! 2. bound every natural loop's trip count from the interval invariants
//!    ([`crate::loop_bound`]);
//! 3. contract loops innermost-first into supernodes weighing
//!    `trips × worst-iteration-cost`, then take the longest weighted path
//!    over the resulting DAG.
//!
//! Everything is computed in nJ as `f64`, with `f64::INFINITY` standing in
//! for "no finite bound" internally; the public [`Wcec`] type makes that
//! honest (`Unbounded`, never a silently infinite float). An unbounded
//! loop whose body lies entirely outside the queried region contributes
//! nothing — the region cannot execute it.
//!
//! **Regions.** Checkpoints are the pcs where a power cycle can (re)enter
//! the program: the entry, every `mark_resume`, and the instruction after
//! every `frame_done` (the commit point a resumed run restarts behind).
//! The region at a checkpoint is everything reachable from it without
//! crossing another checkpoint; its WCEC bounds the compute energy one
//! charge cycle must deliver to *guarantee* the region completes.
//!
//! **Two-sided bounds.** Each region also carries a proven *minimum*
//! traversal cost ([`Region::min_nj`]): the shortest weighted path to an
//! exit, with loops whose minimum trip count was proven multiplied in.
//! The two directions serve different lints. Headroom certification
//! (`NVP-I002`) wants the upper bound — "no execution can cost more".
//! Livelock detection (`NVP-E006`) needs the lower bound — an
//! over-approximate WCEC exceeding the budget may just be analysis
//! looseness (per-entry intervals joined across outer iterations inflate
//! inner trip counts), but if even the *cheapest* complete traversal
//! exceeds what a full capacitor can deliver, the region provably never
//! finishes.

use crate::cfg::Cfg;
use crate::cost_model::CostModel;
use crate::loop_bound::{loop_report, LoopReport, TripBound};
use nvp_isa::{Instr, Program};
use std::fmt;

/// A worst-case energy bound, in nJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wcec {
    /// Any execution costs at most this many nJ.
    Bounded(f64),
    /// No finite bound is known (an unbounded loop or irreducible cycle
    /// carries nonzero cost on some path).
    Unbounded,
}

impl Wcec {
    /// Converts from the solver's internal representation
    /// (`f64::INFINITY` ⇒ unbounded).
    fn from_nj(nj: f64) -> Wcec {
        if nj.is_finite() {
            Wcec::Bounded(nj)
        } else {
            Wcec::Unbounded
        }
    }

    /// The bound in nJ, if finite.
    pub fn nj(&self) -> Option<f64> {
        match *self {
            Wcec::Bounded(nj) => Some(nj),
            Wcec::Unbounded => None,
        }
    }

    /// Is a finite bound known?
    pub fn is_bounded(&self) -> bool {
        matches!(self, Wcec::Bounded(_))
    }
}

impl fmt::Display for Wcec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wcec::Bounded(nj) => write!(f, "≤{nj:.1} nJ"),
            Wcec::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Why a pc is a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// The program entry (pc 0): where a cold start begins.
    Entry,
    /// A `mark_resume` point with the given id.
    Resume(u8),
    /// The instruction after a `frame_done`: a resumed run restarts behind
    /// the committed frame.
    PostFrame,
    /// A checkpoint proposed by placement synthesis
    /// ([`crate::ckpt_place`]) rather than declared by the program.
    Synthetic,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::Entry => write!(f, "entry"),
            RegionKind::Resume(id) => write!(f, "resume#{id}"),
            RegionKind::PostFrame => write!(f, "post-frame"),
            RegionKind::Synthetic => write!(f, "synth"),
        }
    }
}

/// One checkpoint-to-checkpoint region and its energy bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// The checkpoint pc the region starts at.
    pub start_pc: usize,
    /// What kind of checkpoint starts it.
    pub kind: RegionKind,
    /// Pcs belonging to the region (sorted; includes bounding checkpoints).
    pub pcs: Vec<usize>,
    /// Worst-case energy to run from the checkpoint to the next one.
    pub wcec: Wcec,
    /// Proven *lower* bound, in nJ, on the energy of any complete
    /// traversal of the region (0.0 when nothing could be proven). The
    /// WCEC over-approximates, so "WCEC exceeds the budget" never proves
    /// anything; "even the cheapest traversal exceeds the budget" does,
    /// and that is the comparison the `NVP-E006` livelock lint makes.
    pub min_nj: f64,
}

/// The full WCEC certificate of a program at one governor bitwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct WcecReport {
    /// Governor bitwidth the certificate holds at.
    pub bits: u8,
    /// Static cost of each basic block (straight-line sum), in nJ,
    /// indexed by block id.
    pub block_nj: Vec<f64>,
    /// The loops and their trip bounds the certificate folded in.
    pub loops: LoopReport,
    /// Checkpoint-to-checkpoint regions, sorted by start pc.
    pub regions: Vec<Region>,
    /// Worst-case energy of any complete execution from the entry.
    pub program: Wcec,
}

impl WcecReport {
    /// The largest bounded region WCEC, if every region is bounded.
    pub fn worst_region(&self) -> Option<&Region> {
        self.regions.iter().max_by(|a, b| match (a.wcec, b.wcec) {
            (Wcec::Unbounded, Wcec::Unbounded) => std::cmp::Ordering::Equal,
            (Wcec::Unbounded, _) => std::cmp::Ordering::Greater,
            (_, Wcec::Unbounded) => std::cmp::Ordering::Less,
            (Wcec::Bounded(x), Wcec::Bounded(y)) => {
                x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
            }
        })
    }
}

/// Is `pc` a *declared* checkpoint, and of what kind? The entry, every
/// `mark_resume`, and the instruction after every `frame_done` are the pcs
/// a power cycle can (re)enter at; placement synthesis may add
/// [`RegionKind::Synthetic`] pcs on top of these.
pub fn checkpoint_kind(program: &Program, pc: usize) -> Option<RegionKind> {
    if pc == 0 {
        return Some(RegionKind::Entry);
    }
    match program.fetch(pc) {
        Some(Instr::MarkResume(id)) => Some(RegionKind::Resume(id)),
        _ => match pc.checked_sub(1).and_then(|p| program.fetch(p)) {
            Some(Instr::FrameDone) => Some(RegionKind::PostFrame),
            _ => None,
        },
    }
}

/// Union-find over pcs with per-root weights (nJ, `INFINITY` = unbounded).
struct Contraction {
    parent: Vec<usize>,
    weight: Vec<f64>,
}

impl Contraction {
    fn new(weights: Vec<f64>) -> Contraction {
        Contraction {
            parent: (0..weights.len()).collect(),
            weight: weights,
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges every rep in `members` into one supernode of weight `w`,
    /// returning the new root.
    fn contract(&mut self, members: &[usize], w: f64) -> usize {
        let root = members[0];
        for &m in members {
            let r = self.find(m);
            self.parent[r] = root;
        }
        self.parent[root] = root;
        self.weight[root] = w;
        root
    }
}

/// Which side of a region's energy a [`solve`] bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bound {
    /// The WCEC ceiling ([`Region::wcec`]).
    Ceiling,
    /// The proven floor ([`Region::min_nj`]).
    Floor,
}

/// The pcs one checkpoint-to-checkpoint region covers.
pub(crate) struct CutRegion {
    /// The checkpoint pc the region starts at.
    pub(crate) start_pc: usize,
    /// What kind of checkpoint starts it.
    pub(crate) kind: RegionKind,
    /// Its pcs, sorted (bounding checkpoints included).
    pub(crate) pcs: Vec<usize>,
    /// `active[pc]` ⇔ `pc` is in `pcs`.
    pub(crate) active: Vec<bool>,
}

/// A program cut into regions at one checkpoint set: the checkpoint
/// mask, and per checkpoint the pcs reachable from it without crossing
/// another. The WCEC certificate, the dirty-set analysis and placement
/// synthesis all price regions cut this one way.
pub(crate) struct RegionCut {
    /// `is_checkpoint[pc]` ⇔ `pc` starts a region.
    pub(crate) is_checkpoint: Vec<bool>,
    /// One region per in-range checkpoint, in checkpoint order.
    pub(crate) regions: Vec<CutRegion>,
}

impl RegionCut {
    /// Cuts `cfg`'s program at `checkpoints`; a checkpoint at or past the
    /// end of the program cuts nothing.
    pub(crate) fn new(cfg: &Cfg, checkpoints: &[(usize, RegionKind)]) -> RegionCut {
        let len = cfg.len();
        let mut is_checkpoint = vec![false; len];
        for &(pc, _) in checkpoints {
            if pc < len {
                is_checkpoint[pc] = true;
            }
        }
        let regions = checkpoints
            .iter()
            .filter(|&&(start_pc, _)| start_pc < len)
            .map(|&(start_pc, kind)| {
                let pcs = cfg.reachable_until(start_pc, |pc| pc != start_pc && is_checkpoint[pc]);
                let mut active = vec![false; len];
                for &pc in &pcs {
                    active[pc] = true;
                }
                CutRegion {
                    start_pc,
                    kind,
                    pcs,
                    active,
                }
            })
            .collect();
        RegionCut {
            is_checkpoint,
            regions,
        }
    }
}

/// The rep graph induced by `edges` (pairs of *pc*-level endpoints,
/// mapped through the contraction): deduplicated, without self loops
/// (those are internal to supernodes).
fn rep_adjacency(uf: &mut Contraction, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); uf.parent.len()];
    for &(a, b) in edges {
        let (a, b) = (uf.find(a), uf.find(b));
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
        }
    }
    adj
}

/// Longest weighted path from `start` over the rep graph of `edges`.
/// Node weights come from the contraction roots. Returns `INFINITY` when a
/// cycle is reachable from `start` — with loops already contracted that
/// only happens for irreducible flow, and every instruction has positive
/// cost, so any residual reachable cycle genuinely breaks the bound.
fn longest_path(uf: &mut Contraction, edges: &[(usize, usize)], start: usize) -> f64 {
    let n = uf.parent.len();
    let start = uf.find(start);
    let adj = rep_adjacency(uf, edges);
    // Restrict to reps reachable from start.
    let mut reach = vec![false; n];
    let mut stack = vec![start];
    while let Some(x) = stack.pop() {
        if reach[x] {
            continue;
        }
        reach[x] = true;
        stack.extend(adj[x].iter().copied());
    }
    let mut indeg = vec![0usize; n];
    for (a, succs) in adj.iter().enumerate() {
        if !reach[a] {
            continue;
        }
        for &b in succs {
            indeg[b] += 1;
        }
    }
    // Kahn from the start; track how many reachable reps we retire.
    let mut dist = vec![f64::NEG_INFINITY; n];
    dist[start] = uf.weight[start];
    let mut queue: Vec<usize> = (0..n).filter(|&x| reach[x] && indeg[x] == 0).collect();
    let mut retired = 0usize;
    let total = reach.iter().filter(|&&r| r).count();
    let mut best = dist[start];
    while let Some(a) = queue.pop() {
        retired += 1;
        best = best.max(dist[a]);
        for &b in &adj[a] {
            if dist[a] > f64::NEG_INFINITY {
                let cand = dist[a] + uf.weight[b];
                if cand > dist[b] {
                    dist[b] = cand;
                }
            }
            indeg[b] -= 1;
            if indeg[b] == 0 {
                queue.push(b);
            }
        }
    }
    if retired < total {
        // A reachable cycle survived contraction.
        return f64::INFINITY;
    }
    best
}

/// Shortest-path distances from `start` over the rep graph of `edges`,
/// charging node weights at both endpoints — the best-case counterpart
/// of [`longest_path`]. Unlike the longest path, the shortest is
/// well-defined even with residual cycles (extra laps only add
/// non-negative cost), so this is a plain heap-less Dijkstra. Unreached
/// reps stay at `INFINITY`.
fn shortest_dists(uf: &mut Contraction, edges: &[(usize, usize)], start: usize) -> Vec<f64> {
    let n = uf.parent.len();
    let start = uf.find(start);
    let adj = rep_adjacency(uf, edges);
    let mut dist = vec![f64::INFINITY; n];
    dist[start] = uf.weight[start];
    let mut done = vec![false; n];
    loop {
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for (x, &d) in dist.iter().enumerate() {
            if !done[x] && d < best {
                best = d;
                u = x;
            }
        }
        if u == usize::MAX {
            break;
        }
        done[u] = true;
        for &v in &adj[u] {
            let cand = dist[u] + uf.weight[v];
            if cand < dist[v] {
                dist[v] = cand;
            }
        }
    }
    dist
}

/// Solves `bound` over `region` of `cut`, or over the whole program
/// from its entry when `region` is `None`. A region is entered at its
/// checkpoint; successors of every other checkpoint are not crossed
/// (the checkpoint itself is still charged), and edges back into its
/// own checkpoint are cut: a path that returns there has completed
/// the region, so a loop wrapped around a checkpoint contributes one
/// traversal per region, not its whole trip count.
///
/// The ceiling ([`Bound::Ceiling`]) is the longest weighted path, loops
/// contracted innermost-first at `trips × worst-iteration`. The floor
/// ([`Bound::Floor`]) is a proven lower bound on the energy of any
/// *complete* traversal: the shortest weighted path from the start to
/// any exit, with loops whose minimum trip count was proven
/// ([`crate::loop_bound`]) contracted at `min_bound × cheapest-iteration`.
/// Everything unprovable collapses to a floor contribution of 0 — the
/// floor under-approximates by construction, which is what lets
/// `NVP-E006` treat "floor exceeds budget" as a proof rather than a
/// suspicion.
pub(crate) fn solve(
    program: &Program,
    cfg: &Cfg,
    loops: &LoopReport,
    cost: &CostModel,
    region: Option<(&RegionCut, &CutRegion)>,
    bound: Bound,
) -> f64 {
    let active = |pc: usize| region.is_none_or(|(_, r)| r.active[pc]);
    let start_pc = region.map_or(0, |(_, r)| r.start_pc);
    let stop = |pc: usize| region.is_some_and(|(cut, _)| cut.is_checkpoint[pc]);
    let cut_reentry = region.is_some();
    let len = program.len();
    if len == 0 || !active(start_pc) {
        return 0.0;
    }
    let weights: Vec<f64> = (0..len)
        .map(|pc| {
            if active(pc) {
                cost.instr_nj(program.fetch(pc).expect("pc in range"))
            } else {
                0.0
            }
        })
        .collect();
    let mut uf = Contraction::new(weights);

    // Edge set under the region restriction.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for pc in 0..len {
        if !active(pc) || (stop(pc) && pc != start_pc) {
            continue;
        }
        for &s in cfg.succs(pc) {
            if active(s) && !(cut_reentry && s == start_pc) {
                edges.push((pc, s));
            }
        }
    }

    // Contract loops innermost-first (the report is sorted that way).
    for l in &loops.loops {
        let member_pcs: Vec<usize> = l
            .members
            .iter()
            .flat_map(|&b| cfg.blocks()[b].pcs())
            .collect();
        let head = uf.find(l.head_pc(cfg));
        let mut in_loop = vec![false; len];
        for &pc in &member_pcs {
            in_loop[uf.find(pc)] = true;
        }
        // One iteration: paths from the head inside the loop with the
        // back edges (rep edges into the head) removed.
        let iter_edges: Vec<(usize, usize)> = edges
            .iter()
            .copied()
            .filter(|&(a, b)| {
                let (ra, rb) = (uf.find(a), uf.find(b));
                in_loop[ra] && in_loop[rb] && rb != head
            })
            .collect();
        // The loop only multiplies if it can still turn under this edge
        // set: a surviving back edge whose latch the head still reaches.
        // A checkpoint inside the loop body severs exactly this — each
        // turn completes the region — and then the members stay ordinary
        // DAG nodes, paid at most once per traversal.
        let mut reach = vec![false; len];
        let mut stack = vec![head];
        while let Some(x) = stack.pop() {
            if reach[x] {
                continue;
            }
            reach[x] = true;
            for &(a, b) in &iter_edges {
                if uf.find(a) == x {
                    stack.push(uf.find(b));
                }
            }
        }
        let turns = edges.iter().any(|&(a, b)| {
            let (ra, rb) = (uf.find(a), uf.find(b));
            rb == head && in_loop[ra] && reach[ra]
        });
        if !turns {
            continue;
        }
        let total = match bound {
            Bound::Ceiling => {
                let iter_nj = longest_path(&mut uf, &iter_edges, l.head_pc(cfg));
                let trips = match l.bound {
                    TripBound::Bounded(n) => n as f64,
                    TripBound::Unbounded => f64::INFINITY,
                };
                // An inactive loop body costs nothing no matter how often
                // it could turn — and 0 × ∞ must be 0 here, not NaN.
                if iter_nj == 0.0 {
                    0.0
                } else {
                    trips * iter_nj
                }
            }
            Bound::Floor => {
                // The min-trip derivation assumed the latch terminator is
                // the only exit; a checkpoint inside the body adds one (the
                // region completes there), so the multiplied bound no
                // longer holds.
                let internal_stop = member_pcs
                    .iter()
                    .any(|&pc| (stop(pc) && pc != start_pc) || (cut_reentry && pc == start_pc));
                let min_iter = if internal_stop || l.min_bound == 0 {
                    0.0
                } else {
                    // Cheapest single iteration: shortest head →
                    // latch-terminator path (iterations are disjoint in
                    // time, so they sum).
                    let dists = shortest_dists(&mut uf, &iter_edges, l.head_pc(cfg));
                    l.latches
                        .iter()
                        .map(|&latch| dists[uf.find(cfg.blocks()[latch].end - 1)])
                        .fold(f64::INFINITY, f64::min)
                };
                if min_iter.is_finite() {
                    l.min_bound as f64 * min_iter
                } else {
                    0.0
                }
            }
        };
        uf.contract(&member_pcs, total);
    }

    match bound {
        Bound::Ceiling => longest_path(&mut uf, &edges, start_pc),
        Bound::Floor => {
            // A complete traversal ends at a sink: a stop pc (its
            // out-edges were dropped) or a halt. Cheapest such path is
            // the bound.
            let dists = shortest_dists(&mut uf, &edges, start_pc);
            let adj = rep_adjacency(&mut uf, &edges);
            let best = (0..len)
                .filter(|&x| adj[x].is_empty())
                .map(|x| dists[x])
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                best
            } else {
                0.0
            }
        }
    }
}

/// Every declared checkpoint of `program`, sorted by pc.
pub fn declared_checkpoints(program: &Program) -> Vec<(usize, RegionKind)> {
    (0..program.len())
        .filter_map(|pc| checkpoint_kind(program, pc).map(|k| (pc, k)))
        .collect()
}

/// Computes the full WCEC certificate of `program` at the governor
/// bitwidth of `cost` (loop bounds are re-derived at that bitwidth, since
/// AC noise widens counter intervals).
pub fn wcec_report(program: &Program, cfg: &Cfg, cost: &CostModel) -> WcecReport {
    wcec_report_at(program, cfg, cost, &declared_checkpoints(program))
}

/// [`wcec_report`] over an *explicit* checkpoint set — the entry point
/// placement synthesis uses to price candidate placements. `checkpoints`
/// must be sorted by pc and include pc 0; regions are cut at exactly
/// these pcs (the declared set is ignored), and one at or past the end
/// of the program cuts nothing.
pub fn wcec_report_at(
    program: &Program,
    cfg: &Cfg,
    cost: &CostModel,
    checkpoints: &[(usize, RegionKind)],
) -> WcecReport {
    let loops = loop_report(program, cfg, cost.bits);
    let block_nj: Vec<f64> = cfg
        .blocks()
        .iter()
        .map(|b| {
            b.pcs()
                .map(|pc| cost.instr_nj(program.fetch(pc).expect("pc in range")))
                .sum()
        })
        .collect();

    let program_wcec = Wcec::from_nj(solve(program, cfg, &loops, cost, None, Bound::Ceiling));

    // One region per checkpoint.
    let cut = RegionCut::new(cfg, checkpoints);
    let regions = cut
        .regions
        .iter()
        .map(|r| {
            let region = Some((&cut, r));
            Region {
                start_pc: r.start_pc,
                kind: r.kind,
                pcs: r.pcs.clone(),
                wcec: Wcec::from_nj(solve(program, cfg, &loops, cost, region, Bound::Ceiling)),
                min_nj: solve(program, cfg, &loops, cost, region, Bound::Floor),
            }
        })
        .collect();

    WcecReport {
        bits: cost.bits,
        block_nj,
        loops,
        regions,
        program: program_wcec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::vm::Vm;
    use nvp_isa::{ProgramBuilder, Reg};

    fn report(p: &Program, bits: u8) -> WcecReport {
        wcec_report(p, &Cfg::build(p), &CostModel::for_bits(bits))
    }

    #[test]
    fn straight_line_program_sums_its_instructions() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).addi(Reg(1), Reg(0), 2).halt();
        let p = b.build().unwrap();
        let cost = CostModel::for_bits(8);
        let expected: f64 = (0..p.len())
            .map(|pc| cost.instr_nj(p.fetch(pc).unwrap()))
            .sum();
        let r = report(&p, 8);
        assert_eq!(r.program, Wcec::Bounded(expected));
        assert_eq!(r.block_nj.len(), 1);
        assert!((r.block_nj[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn branch_takes_the_more_expensive_arm() {
        // if (r0) { mul } else { nop } — the bound must price the mul arm.
        let mut b = ProgramBuilder::new();
        let (cheap, join) = (b.label(), b.label());
        b.ldi(Reg(0), 1).brz(Reg(0), cheap);
        b.mul(Reg(1), Reg(1), Reg(1)).jmp(join);
        b.place(cheap).mov(Reg(2), Reg(2));
        b.place(join).halt();
        let p = b.build().unwrap();
        let cost = CostModel::for_bits(8);
        let r = report(&p, 8);
        let Wcec::Bounded(total) = r.program else {
            panic!("expected bounded")
        };
        let mul_path: f64 = [0usize, 1, 2, 3, 5]
            .iter()
            .map(|&pc| cost.instr_nj(p.fetch(pc).unwrap()))
            .sum();
        assert!((total - mul_path).abs() < 1e-9, "{total} vs {mul_path}");
    }

    #[test]
    fn bounded_loop_multiplies_iteration_cost() {
        // 10-trip counting loop: body cost × 10 plus prologue/epilogue.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let cost = CostModel::for_bits(8);
        let r = report(&p, 8);
        let iter = cost.instr_nj(p.fetch(2).unwrap()) + cost.instr_nj(p.fetch(3).unwrap());
        let pre = cost.instr_nj(p.fetch(0).unwrap()) + cost.instr_nj(p.fetch(1).unwrap());
        let halt = cost.instr_nj(p.fetch(4).unwrap());
        let expected = pre + 10.0 * iter + halt;
        let Wcec::Bounded(total) = r.program else {
            panic!("expected bounded")
        };
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }

    #[test]
    fn unbounded_loop_makes_the_program_unbounded() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ld(n, 3);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        assert_eq!(r.program, Wcec::Unbounded);
        assert!(r.regions.iter().any(|rg| rg.wcec == Wcec::Unbounded));
    }

    #[test]
    fn resume_marks_split_regions_and_cap_their_cost() {
        // prologue; mark_resume; expensive loop; frame_done; halt.
        // The entry region stops at the mark: it must not pay for the loop.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 50);
        b.mark_resume(0);
        let top = b.label();
        b.place(top);
        b.mul(Reg(2), Reg(2), Reg(2)).addi(i, i, 1).brlt(i, n, top);
        b.frame_done().halt();
        let p = b.build().unwrap();
        let r = report(&p, 8);
        let kinds: Vec<RegionKind> = r.regions.iter().map(|rg| rg.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RegionKind::Entry,
                RegionKind::Resume(0),
                RegionKind::PostFrame
            ]
        );
        let entry = &r.regions[0];
        let resume = &r.regions[1];
        let (Wcec::Bounded(e), Wcec::Bounded(m)) = (entry.wcec, resume.wcec) else {
            panic!("expected bounded regions")
        };
        // The loop costs two orders of magnitude more than the prologue.
        assert!(e < m / 10.0, "entry {e} vs resume {m}");
        // Entry region: ldi, ldi, and the mark itself.
        assert_eq!(entry.pcs, vec![0, 1, 2]);
    }

    #[test]
    fn wcec_is_an_upper_bound_on_a_real_run() {
        // Walk the VM and charge every retired instruction at the static
        // price; the certificate must dominate the actual total.
        let mut b = ProgramBuilder::new();
        let (i, n, acc) = (Reg(0), Reg(1), Reg(2));
        b.ldi(i, 0).ldi(n, 20).ldi(acc, 1);
        let top = b.label();
        b.place(top);
        b.muli(acc, acc, 3)
            .mini(acc, acc, 127)
            .addi(i, i, 1)
            .brlt(i, n, top);
        b.st(0, acc).halt();
        let p = b.build().unwrap();
        let cost = CostModel::for_bits(8);
        let r = report(&p, 8);

        let mut vm = Vm::new(p.clone(), 16);
        let mut actual = 0.0;
        for _ in 0..10_000 {
            let Some(instr) = vm.peek() else { break };
            actual += cost.instr_nj(instr);
            if vm.step().unwrap() == nvp_isa::StepEvent::Halted {
                break;
            }
        }
        let Wcec::Bounded(total) = r.program else {
            panic!("expected bounded")
        };
        assert!(actual > 0.0);
        assert!(total >= actual, "certificate {total} below actual {actual}");
        // The region floor brackets the same run from below.
        let entry = &r.regions[0];
        assert!(entry.min_nj > 0.0, "nothing proven for a fully exact loop");
        assert!(
            entry.min_nj <= actual + 1e-9,
            "floor {} above actual {actual}",
            entry.min_nj
        );
    }

    #[test]
    fn exact_single_path_loop_has_matching_floor_and_ceiling() {
        // One path, exact init and limit: min and max must coincide.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        let entry = &r.regions[0];
        let Wcec::Bounded(ceiling) = entry.wcec else {
            panic!("expected bounded")
        };
        assert!(
            (entry.min_nj - ceiling).abs() < 1e-9,
            "floor {} vs ceiling {ceiling}",
            entry.min_nj
        );
    }

    #[test]
    fn unknown_trip_count_keeps_the_floor_honest_and_small() {
        // Data-dependent limit: the ceiling is unbounded, and the floor
        // must claim no more than a single proven iteration.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ld(n, 3);
        let top = b.label();
        b.place(top);
        b.mul(Reg(2), Reg(2), Reg(2)).addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let r = report(&b.build().unwrap(), 8);
        let entry = &r.regions[0];
        assert_eq!(entry.wcec, Wcec::Unbounded);
        assert!(
            entry.min_nj > 0.0 && entry.min_nj < 5.0,
            "floor {} should be roughly one cheap pass",
            entry.min_nj
        );
    }

    #[test]
    fn narrower_bits_certify_lower_energy() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 30);
        let top = b.label();
        b.place(top);
        b.mul(Reg(2), Reg(2), Reg(2)).addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r8 = report(&p, 8);
        let r2 = report(&p, 2);
        let (Wcec::Bounded(w8), Wcec::Bounded(w2)) = (r8.program, r2.program) else {
            panic!("expected bounded at both widths")
        };
        assert!(w2 < w8, "2b {w2} not below 8b {w8}");
    }

    #[test]
    fn checkpoints_past_the_end_cut_nothing() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).halt();
        let p = b.build().unwrap();
        let (cfg, cost) = (Cfg::build(&p), CostModel::for_bits(8));
        let past = [(0, RegionKind::Entry), (p.len(), RegionKind::Synthetic)];
        assert_eq!(
            wcec_report_at(&p, &cfg, &cost, &past),
            wcec_report(&p, &cfg, &cost)
        );
    }

    #[test]
    fn empty_and_trivial_programs_do_not_panic() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let r = report(&p, 8);
        assert!(r.program.is_bounded());
        assert_eq!(r.regions.len(), 1);
        assert_eq!(r.regions[0].kind, RegionKind::Entry);
    }
}
