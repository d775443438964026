//! Checkpoint placement synthesis: the checkpoint set as a decision
//! variable.
//!
//! PR 6 certified the energy of the *declared* checkpoint regions; this
//! pass turns the placement itself into a search problem. A candidate
//! placement is the declared checkpoint set plus any subset of basic
//! block entry pcs ([`RegionKind::Synthetic`]). A placement is
//! **feasible** when every region it induces
//!
//! 1. is provably re-executable — the WAR pass finds no non-idempotent
//!    write inside it ([`crate::war::region_hazards`]), and
//! 2. fits the capacitor — its WCEC ceiling is bounded and at most
//!    [`usable_nj`] at every governor bitwidth in the declared range
//!    (note a checkpoint inside a loop body cuts the back edge and can
//!    bound a previously-unbounded region).
//!
//! Among feasible placements the search greedily minimizes an expected
//! backup cost: the loop-trip-weighted average over pcs of the scoped
//! backup energy of that pc's `live ∩ dirty` mask
//! ([`crate::dirty`]), plus a commit term charging each checkpoint
//! crossing (loop-trip-weighted — a checkpoint in a hot loop is crossed
//! every iteration) for persisting the mask arriving at it. Emergency
//! backups and crossings have different dynamic frequencies; weighting
//! both by static execution weight is a deliberate modeling choice the
//! certificate records (DESIGN.md §12).
//!
//! The result is a machine-checkable [`Synthesis`] certificate built as
//! the workspace's one JSON tree ([`Json`], from `nvp_trace::json`), and the per-pc masks the
//! repro catalog hands the simulator as a `BackupScope::LiveDirty` run's
//! `CheckpointPlan`.

use crate::cfg::Cfg;
use crate::cost_model::{usable_nj, CostModel, BACKUP_POLICY};
use crate::diag::{Diagnostic, LintCode};
use crate::dirty::{DirtyAnalyzer, MemDirty};
use crate::loop_bound::{loop_report, LoopReport, TripBound};
use crate::safe_bits::DeclaredBits;
use crate::war::region_hazards;
use crate::wcec::{declared_checkpoints, solve, Bound, RegionCut, RegionKind};
use crate::{AnalysisReport, Pass, PassContext};
use nvp_isa::energy::backup_energy_scoped;
use nvp_isa::{Instr, Program, NUM_REGS};
use nvp_kernels::KernelSpec;
use nvp_trace::json::Json;

/// Static execution weight assumed for a loop whose trip count could
/// not be bounded.
const UNBOUNDED_TRIP_WEIGHT: f64 = 256.0;
/// Cap on any single loop's contribution to a pc's execution weight.
const TRIP_WEIGHT_CAP: f64 = 10_000.0;
/// Maximum synthetic checkpoints the greedy search may add.
const MAX_ADDED: usize = 6;
/// `NVP-I003` savings threshold, in percent.
const MIN_SAVINGS_PCT: f64 = 10.0;

/// Tunables of the placement search.
#[derive(Debug, Clone)]
pub struct CkptOptions {
    /// Lowest governor bitwidth the placement must be feasible at.
    pub bits_lo: u8,
    /// Highest governor bitwidth (costs are scored at this width).
    pub bits_hi: u8,
    /// Total data-memory words (bounds degraded store ranges).
    pub mem_words: usize,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            bits_lo: 1,
            bits_hi: 8,
            mem_words: 1024,
        }
    }
}

impl CkptOptions {
    /// The options a shipped kernel implies: its declared bitwidth range
    /// and its memory size.
    pub fn for_kernel(spec: &KernelSpec) -> CkptOptions {
        let (bits_lo, bits_hi) = spec.id.declared_bits();
        CkptOptions {
            bits_lo,
            bits_hi,
            mem_words: spec.mem_words,
        }
    }
}

/// One region's entry in a placement certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCert {
    /// Checkpoint pc the region starts at.
    pub start_pc: usize,
    /// Why that pc is a checkpoint.
    pub kind: RegionKind,
    /// Number of pcs in the region.
    pub len: usize,
    /// Union of registers any execution of the region may write.
    pub dirty_regs: u16,
    /// Possibly-written memory words (`None` = degraded to whole
    /// memory).
    pub mem_dirty_words: Option<usize>,
    /// Pcs of non-idempotent writes; empty = provably re-executable.
    pub hazard_pcs: Vec<usize>,
    /// WCEC ceiling at the *highest* bitwidth in range, in nJ
    /// (`None` = unbounded).
    pub wcec_hi_nj: Option<f64>,
    /// Proven minimum traversal cost at the highest bitwidth, in nJ.
    pub min_nj: f64,
}

/// One evaluated placement: its regions, masks, and scalar cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementEval {
    /// The checkpoint set, sorted by pc.
    pub checkpoints: Vec<(usize, RegionKind)>,
    /// Per-region certificates.
    pub regions: Vec<RegionCert>,
    /// Per-pc `live ∩ dirty` backup masks under this placement.
    pub masks: Vec<u16>,
    /// Loop-trip-weighted expected emergency-backup energy, in nJ.
    pub expected_backup_nj: f64,
    /// Loop-trip-weighted checkpoint-crossing commit energy, in nJ
    /// (amortized over the same weight total).
    pub crossing_nj: f64,
    /// Bitwidths in the declared range at which some region is
    /// unbounded or exceeds the usable capacitor energy.
    pub infeasible_bits: Vec<u8>,
}

impl PlacementEval {
    /// The scalar cost the search minimizes.
    pub fn cost_nj(&self) -> f64 {
        self.expected_backup_nj + self.crossing_nj
    }

    /// Are all regions provably re-executable?
    pub fn reexecutable(&self) -> bool {
        self.regions.iter().all(|r| r.hazard_pcs.is_empty())
    }

    /// Re-executable at every region and WCEC-feasible at every
    /// bitwidth in range.
    pub fn feasible(&self) -> bool {
        self.reexecutable() && self.infeasible_bits.is_empty()
    }
}

/// The full synthesis result: declared vs. synthesized placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesis {
    /// Lowest bitwidth feasibility was checked at.
    pub bits_lo: u8,
    /// Highest bitwidth (cost scoring width).
    pub bits_hi: u8,
    /// The program's declared checkpoint set, evaluated.
    pub declared: PlacementEval,
    /// The best placement the search found (the declared one if no
    /// addition helped).
    pub synthesized: PlacementEval,
    /// Expected-backup-cost saving of synthesized vs. declared, in
    /// percent (0 when the declared cost is 0).
    pub savings_pct: f64,
}

/// Per-pc static execution weight: the product of the trip bounds of
/// the loops containing the pc (unbounded loops contribute a fixed
/// weight, each factor capped).
fn pc_weights(cfg: &Cfg, loops: &LoopReport, len: usize) -> Vec<f64> {
    let mut w = vec![1.0f64; len];
    for l in &loops.loops {
        let factor = match l.bound {
            TripBound::Bounded(n) => (n.max(1) as f64).min(TRIP_WEIGHT_CAP),
            TripBound::Unbounded => UNBOUNDED_TRIP_WEIGHT,
        };
        for &b in &l.members {
            for pc in cfg.blocks()[b].pcs() {
                w[pc] = (w[pc] * factor).min(TRIP_WEIGHT_CAP * TRIP_WEIGHT_CAP);
            }
        }
    }
    w
}

/// Evaluates one placement end to end.
fn evaluate(
    program: &Program,
    cfg: &Cfg,
    analyzer: &DirtyAnalyzer<'_>,
    loops_per_bits: &[(u8, LoopReport, CostModel)],
    weights: &[f64],
    checkpoints: &[(usize, RegionKind)],
) -> PlacementEval {
    let len = program.len();
    let cut = RegionCut::new(cfg, checkpoints);
    let dirty = analyzer.report_cut(&cut);

    // Per-region certificates at the scoring width (the last entry of
    // `loops_per_bits`), plus feasibility across the range.
    let cost_hi = &loops_per_bits.last().expect("at least one bits setting").2;
    let mut regions = Vec::with_capacity(cut.regions.len());
    let mut infeasible_bits = Vec::new();
    for &(bits, ref loops, ref cost) in loops_per_bits {
        let usable = usable_nj(bits);
        let mut feasible_here = true;
        for (r, rd) in cut.regions.iter().zip(&dirty.regions) {
            let scope = Some((&cut, r));
            let ceiling = solve(program, cfg, loops, cost, scope, Bound::Ceiling);
            if !(ceiling.is_finite() && ceiling <= usable) {
                feasible_here = false;
            }
            if bits == cost_hi.bits {
                let min_nj = solve(program, cfg, loops, cost, scope, Bound::Floor);
                let region: Vec<usize> = r
                    .pcs
                    .iter()
                    .copied()
                    .filter(|&pc| pc == r.start_pc || !cut.is_checkpoint[pc])
                    .collect();
                let hazard_pcs = region_hazards(program, cfg, r.start_pc, &region);
                regions.push(RegionCert {
                    start_pc: r.start_pc,
                    kind: r.kind,
                    len: r.pcs.len(),
                    dirty_regs: rd.dirty_regs,
                    mem_dirty_words: match &rd.mem {
                        MemDirty::Words(w) => Some(w.len()),
                        MemDirty::Whole => None,
                    },
                    hazard_pcs,
                    wcec_hi_nj: ceiling.is_finite().then_some(ceiling),
                    min_nj,
                });
            }
        }
        if !feasible_here {
            infeasible_bits.push(bits);
        }
    }

    // Scalar cost at the scoring width.
    let scoped = |mask: u16| {
        backup_energy_scoped(
            BACKUP_POLICY,
            cost_hi.bits,
            f64::from(mask.count_ones()) / NUM_REGS as f64,
        )
        .as_nj()
    };
    let weight_total: f64 = weights.iter().sum::<f64>().max(1.0);
    let expected_backup_nj = (0..len)
        .map(|pc| weights[pc] * scoped(dirty.mask_at(pc)))
        .sum::<f64>()
        / weight_total;
    let crossing_nj = checkpoints
        .iter()
        .filter(|&&(pc, _)| pc < len)
        .map(|&(pc, _)| weights[pc] * scoped(dirty.mask_at(pc)))
        .sum::<f64>()
        / weight_total;

    PlacementEval {
        checkpoints: checkpoints.to_vec(),
        regions,
        masks: dirty.masks().to_vec(),
        expected_backup_nj,
        crossing_nj,
        infeasible_bits,
    }
}

/// Candidate synthetic checkpoint pcs: basic-block entries that are not
/// already checkpoints and whose instruction can meaningfully anchor a
/// re-entry (not a terminator or commit).
fn candidates(program: &Program, cfg: &Cfg, declared: &[(usize, RegionKind)]) -> Vec<usize> {
    let is_declared = |pc: usize| declared.iter().any(|&(p, _)| p == pc);
    cfg.blocks()
        .iter()
        .map(|b| b.pcs().start)
        .filter(|&pc| !is_declared(pc))
        .filter(|&pc| {
            !matches!(
                program.fetch(pc),
                None | Some(Instr::Halt | Instr::FrameDone | Instr::MarkResume(_))
            )
        })
        .collect()
}

/// Runs the placement search: evaluates the declared checkpoint set,
/// then greedily adds synthetic checkpoints while additions repair
/// feasibility or reduce the expected backup cost.
pub fn synthesize(program: &Program, cfg: &Cfg, opts: &CkptOptions) -> Synthesis {
    let (lo, hi) = (opts.bits_lo.clamp(1, 8), opts.bits_hi.clamp(1, 8));
    let (lo, hi) = (lo.min(hi), hi.max(lo));
    let analyzer = DirtyAnalyzer::new(program, cfg, lo, opts.mem_words);
    let loops_per_bits: Vec<(u8, LoopReport, CostModel)> = (lo..=hi)
        .map(|bits| {
            (
                bits,
                loop_report(program, cfg, bits),
                CostModel::for_bits(bits),
            )
        })
        .collect();
    let weights = pc_weights(
        cfg,
        &loops_per_bits.last().expect("nonempty range").1,
        program.len(),
    );

    let declared_set = declared_checkpoints(program);
    let eval = |ckpts: &[(usize, RegionKind)]| {
        evaluate(program, cfg, &analyzer, &loops_per_bits, &weights, ckpts)
    };
    let declared = eval(&declared_set);

    // Greedy ascent: (infeasibility, cost) lexicographic. Trials whose
    // regions are not all provably re-executable are rejected outright —
    // splitting a region can *create* WAR hazards (a read that was
    // preceded by a write in the larger region becomes exposed when
    // re-entry moves past that write), and such a placement is unsound
    // no matter how much backup energy it saves.
    let key = |e: &PlacementEval| (e.infeasible_bits.len(), e.cost_nj());
    let better = |a: (usize, f64), b: (usize, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1 - 1e-12);

    let cands = candidates(program, cfg, &declared_set);
    let mut current = declared.clone();
    for _ in 0..MAX_ADDED {
        let cur_key = key(&current);
        let mut best: Option<PlacementEval> = None;
        for &c in &cands {
            if current.checkpoints.iter().any(|&(pc, _)| pc == c) {
                continue;
            }
            let mut trial_set = current.checkpoints.clone();
            trial_set.push((c, RegionKind::Synthetic));
            trial_set.sort_by_key(|&(pc, _)| pc);
            let trial = eval(&trial_set);
            if !trial.reexecutable() {
                continue;
            }
            let tk = key(&trial);
            if better(tk, cur_key) && best.as_ref().is_none_or(|b| better(tk, key(b))) {
                best = Some(trial);
            }
        }
        match best {
            Some(b) => current = b,
            None => break,
        }
    }

    let savings_pct = if declared.cost_nj() > 0.0 {
        (declared.cost_nj() - current.cost_nj()) / declared.cost_nj() * 100.0
    } else {
        0.0
    };
    Synthesis {
        bits_lo: lo,
        bits_hi: hi,
        declared,
        synthesized: current,
        savings_pct,
    }
}

fn placement_json(e: &PlacementEval) -> Json {
    let checkpoints = e
        .checkpoints
        .iter()
        .map(|&(pc, kind)| {
            Json::obj(vec![
                ("pc", Json::Num(pc as f64)),
                ("kind", Json::str(kind.to_string())),
            ])
        })
        .collect();
    let regions = e
        .regions
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("start_pc", Json::Num(r.start_pc as f64)),
                ("kind", Json::str(r.kind.to_string())),
                ("len", Json::Num(r.len as f64)),
                ("dirty_regs", Json::str(format!("{:#06x}", r.dirty_regs))),
                (
                    "mem_dirty_words",
                    r.mem_dirty_words
                        .map_or(Json::Null, |n| Json::Num(n as f64)),
                ),
                (
                    "hazard_pcs",
                    Json::Arr(r.hazard_pcs.iter().map(|&p| Json::Num(p as f64)).collect()),
                ),
                ("wcec_hi_nj", r.wcec_hi_nj.map_or(Json::Null, Json::num)),
                ("min_nj", Json::num(r.min_nj)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("checkpoints", Json::Arr(checkpoints)),
        ("expected_backup_nj", Json::num(e.expected_backup_nj)),
        ("crossing_nj", Json::num(e.crossing_nj)),
        ("cost_nj", Json::num(e.cost_nj())),
        ("reexecutable", Json::Bool(e.reexecutable())),
        (
            "infeasible_bits",
            Json::Arr(
                e.infeasible_bits
                    .iter()
                    .map(|&b| Json::Num(f64::from(b)))
                    .collect(),
            ),
        ),
        ("regions", Json::Arr(regions)),
    ])
}

impl Synthesis {
    /// The machine-checkable placement certificate, built as the shared
    /// `nvp_trace::json` tree (`nvp-lint` renders it with
    /// [`Json::render_pretty`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str("nvp-ckpt-cert-v1")),
            ("bits_lo", Json::Num(f64::from(self.bits_lo))),
            ("bits_hi", Json::Num(f64::from(self.bits_hi))),
            ("declared", placement_json(&self.declared)),
            ("synthesized", placement_json(&self.synthesized)),
            ("savings_pct", Json::num(self.savings_pct)),
        ])
    }
}

/// The checkpoint-synthesis lint pass (`nvp-lint --checkpoint`).
///
/// Not part of [`crate::default_passes`]: like the WCEC pass it is
/// opt-in, since placement search is considerably more expensive than
/// the safety lints.
#[derive(Debug, Default)]
pub struct CkptPass;

impl CkptPass {
    fn options(&self, cx: &PassContext<'_>) -> CkptOptions {
        let (lo, hi) = match cx.config.declared {
            Some(DeclaredBits { minbits, maxbits }) => (minbits, maxbits),
            None => (1, 8),
        };
        CkptOptions {
            bits_lo: lo,
            bits_hi: hi,
            mem_words: cx.config.mem_words.unwrap_or(1024),
        }
    }

    /// Runs the synthesis this pass lints (exposed so the lint driver
    /// can export the certificate it judged).
    pub fn synthesis(&self, cx: &PassContext<'_>) -> Synthesis {
        synthesize(cx.program, cx.cfg, &self.options(cx))
    }

    /// The lints over `synth`, the [`synthesis`](Self::synthesis) of `cx`,
    /// in report order: what [`Pass::run`] returns, without searching
    /// again.
    pub fn diagnostics(&self, cx: &PassContext<'_>, synth: &Synthesis) -> AnalysisReport {
        let mut out = Vec::new();
        for r in &synth.declared.regions {
            if let Some(&first) = r.hazard_pcs.first() {
                out.push(
                    Diagnostic::at(
                        LintCode::DirtyNotReexecutable,
                        first,
                        format!(
                            "declared region at pc {} ({}) is not provably re-executable \
                             under its live∩dirty mask: {} WAR hazard(s) at pcs {:?}",
                            r.start_pc,
                            r.kind,
                            r.hazard_pcs.len(),
                            r.hazard_pcs
                        ),
                    )
                    .with_context(cx.program),
                );
            }
        }
        if !synth.synthesized.infeasible_bits.is_empty() {
            out.push(Diagnostic::program_level(
                LintCode::NoFeasiblePlacement,
                format!(
                    "no re-executable, WCEC-feasible checkpoint placement found at \
                     bitwidth(s) {:?} (searched {} synthetic candidates on top of the \
                     declared set)",
                    synth.synthesized.infeasible_bits,
                    synth.synthesized.checkpoints.len() - synth.declared.checkpoints.len()
                ),
            ));
        }
        if synth.savings_pct >= MIN_SAVINGS_PCT {
            out.push(Diagnostic::program_level(
                LintCode::PlacementSavings,
                format!(
                    "synthesized placement ({} checkpoints, +{} synthetic) cuts expected \
                     backup energy by {:.1}% vs. declared ({:.2} → {:.2} nJ)",
                    synth.synthesized.checkpoints.len(),
                    synth.synthesized.checkpoints.len() - synth.declared.checkpoints.len(),
                    synth.savings_pct,
                    synth.declared.cost_nj(),
                    synth.synthesized.cost_nj()
                ),
            ));
        }
        AnalysisReport::sorted(out)
    }
}

impl Pass for CkptPass {
    fn name(&self) -> &'static str {
        "checkpoint-placement"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        self.diagnostics(cx, &self.synthesis(cx)).diagnostics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_with, AnalysisConfig};
    use nvp_isa::{ProgramBuilder, Reg};

    fn loopy_program() -> Program {
        // Prologue, then a hot bounded loop writing out[i], then commit.
        let mut b = ProgramBuilder::new();
        let (i, n, v) = (Reg(0), Reg(1), Reg(2));
        b.mark_resume(0).ldi(i, 0).ldi(n, 64);
        let top = b.label();
        b.place(top);
        b.ld_ind(v, i, 0)
            .addi(v, v, 1)
            .st_ind(i, 128, v)
            .addi(i, i, 1)
            .brlt(i, n, top);
        b.frame_done().halt();
        b.build().unwrap()
    }

    #[test]
    fn synthesis_reduces_cost_on_a_loopy_program() {
        let p = loopy_program();
        let cfg = Cfg::build(&p);
        let opts = CkptOptions {
            mem_words: 256,
            bits_lo: 4,
            bits_hi: 8,
        };
        let s = synthesize(&p, &cfg, &opts);
        assert!(s.declared.reexecutable(), "declared regions hazard-free");
        assert!(
            s.synthesized.cost_nj() <= s.declared.cost_nj() + 1e-9,
            "search must never return something worse: {} vs {}",
            s.synthesized.cost_nj(),
            s.declared.cost_nj()
        );
        // Masks are pc-indexed over the whole program.
        assert_eq!(s.synthesized.masks.len(), p.len());
    }

    #[test]
    fn certificate_round_trips_through_shared_serializer() {
        let p = loopy_program();
        let cfg = Cfg::build(&p);
        let s = synthesize(
            &p,
            &cfg,
            &CkptOptions {
                mem_words: 256,
                ..CkptOptions::default()
            },
        );
        let json = s.to_json();
        let text = json.render_pretty();
        let back = Json::parse(&text).expect("certificate parses");
        assert_eq!(back, json);
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("nvp-ckpt-cert-v1")
        );
        let declared = back.get("declared").expect("declared placement");
        assert!(declared.get("regions").and_then(Json::as_array).is_some());
    }

    #[test]
    fn war_hazard_region_raises_e007() {
        // mem[50] += 1 inside the roll-forward region: not re-executable.
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ld(Reg(0), 50)
            .addi(Reg(0), Reg(0), 1)
            .st(50, Reg(0))
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let report = analyze_with(
            &p,
            &AnalysisConfig::default(),
            &[Box::new(CkptPass) as Box<dyn Pass>],
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DirtyNotReexecutable));
    }

    #[test]
    fn clean_program_has_no_errors_from_the_pass() {
        let p = loopy_program();
        let report = analyze_with(
            &p,
            &AnalysisConfig::default(),
            &[Box::new(CkptPass) as Box<dyn Pass>],
        );
        assert!(!report.has_errors(), "{:#?}", report.diagnostics);
    }
}
