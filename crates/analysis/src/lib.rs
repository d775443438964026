//! `nvp-analysis`: a multi-pass static-analysis framework for NVP
//! programs.
//!
//! The seed repo validated programs with a single linear register scan
//! that was unsound across loop back-edges and blind to memory (it has
//! since been deleted). This crate replaces it with a proper pass
//! infrastructure over [`nvp_isa::Program`]:
//!
//! * [`cfg`](mod@cfg) — basic-block discovery and a per-pc control-flow graph;
//! * [`dataflow`] — a generic worklist fixpoint engine (forward and
//!   backward, whole-program and region-restricted);
//! * [`liveness`](mod@liveness) — backward register liveness;
//! * [`reaching`](mod@reaching) — forward reaching definitions;
//! * [`taint`] — a flow-sensitive approximation-taint lattice over
//!   registers *and* memory, generalizing AC-isolation checking
//!   (`NVP-E001`..`E003`);
//! * [`war`] — write-after-read / idempotency hazards inside
//!   roll-forward regions (`NVP-W001`);
//! * [`backup_liveness`] — live register sets at backup points, feeding
//!   the sim's live-only backup scope (`NVP-I001`, `NVP-W002`);
//! * [`lattice`] — the shared symbolic-memory naming and join/meet
//!   combinators the memory-aware passes are built on;
//! * [`interval`] / [`error_bound`] — a value-range abstract domain with
//!   widening/narrowing, coupled with worst-case deviation bounds for
//!   the VM's approximation semantics;
//! * [`safe_bits`] — statically proven safe bitwidth floors per
//!   instruction/block/program (`NVP-E004`, `NVP-E005`, `NVP-W003`),
//!   feeding `nvp-lint --bitwidth` and the sim's governor clamp;
//! * [`loop_bound`] — natural-loop discovery with trip-count bounds
//!   derived from the interval invariants;
//! * [`cost_model`] / [`wcec`] — static per-instruction energy pricing
//!   (sharing the simulator's calibrated model) and whole-program
//!   worst-case energy certificates per block, per
//!   checkpoint-to-checkpoint region, and per program;
//! * [`wcec_lint`] — forward-progress lints over the certificates
//!   (`NVP-E006` provable livelock, `NVP-W004` unknown loop bound,
//!   `NVP-I002` energy headroom), driving `nvp-lint --energy`;
//! * [`dirty`] — per-region sound upper bounds on the registers and
//!   memory words any execution can write between two checkpoints,
//!   intersected with backup liveness into per-pc `live ∩ dirty`
//!   backup masks;
//! * [`ckpt_place`] — checkpoint placement synthesis: searches over
//!   checkpoint sets, rejecting placements that are not provably
//!   re-executable or exceed the capacitor WCEC ceiling, minimizing
//!   expected backup energy, and emitting a machine-checkable
//!   certificate (`NVP-E007`, `NVP-W005`, `NVP-I003`), driving
//!   `nvp-lint --checkpoint`.
//!
//! Passes share a [`PassContext`] and report [`Diagnostic`]s with stable
//! lint codes. [`analyze_program`] runs the default pipeline; the
//! `nvp-lint` binary applies it to every kernel generator in
//! `nvp-kernels` and exits non-zero on violations.
//!
//! ```
//! use nvp_analysis::{analyze_program, AnalysisConfig};
//! use nvp_isa::{ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.ldi(Reg(0), 1).st(0, Reg(0)).halt();
//! let program = b.build().unwrap();
//! let report = analyze_program(&program, &AnalysisConfig::default());
//! assert!(!report.has_errors());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup_liveness;
pub mod cfg;
pub mod ckpt_place;
pub mod cost_model;
pub mod dataflow;
pub mod diag;
pub mod dirty;
pub mod error_bound;
pub mod hints;
pub mod interval;
pub mod lattice;
pub mod liveness;
pub mod loop_bound;
pub mod reaching;
pub mod safe_bits;
pub mod taint;
pub mod war;
pub mod wcec;
pub mod wcec_lint;

pub use backup_liveness::{BackupLiveness, BackupLivenessPass};
pub use cfg::Cfg;
pub use ckpt_place::{synthesize, CkptOptions, CkptPass, PlacementEval, RegionCert, Synthesis};
pub use cost_model::{CostModel, EnergyBudget};
pub use diag::{Diagnostic, Json, LintCode, Severity};
pub use dirty::{dirty_report, dirty_report_at, DirtyAnalyzer, DirtyReport, MemDirty, RegionDirty};
pub use error_bound::{dev_bound, solve_error_bounds, AbsVal, ApproxState, ErrorBoundAnalysis};
pub use hints::compile_hints;
pub use interval::Interval;
pub use liveness::{liveness, Liveness};
pub use loop_bound::{find_loops, loop_report, LoopReport, NaturalLoop, TripBound};
pub use reaching::{reaching, Reaching, ENTRY_DEF};
pub use safe_bits::{
    bitwidth_report, static_floor, BitwidthPass, BitwidthReport, DeclaredBits, NEVER_SAFE,
};
pub use taint::TaintPass;
pub use war::{region_hazards, WarPass};
pub use wcec::{
    checkpoint_kind, declared_checkpoints, wcec_report, wcec_report_at, Region, RegionKind, Wcec,
    WcecReport,
};
pub use wcec_lint::WcecPass;

use nvp_isa::Program;

/// Knobs shared by every pass.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Registers whose taint is deliberately accepted at use sites
    /// (kernel-declared sanitization, e.g. a value about to be clamped).
    pub sanitized_regs: u16,
    /// Total data-memory words, when known (kernel specs carry it). Lets
    /// the bitwidth pass prove sanitized address ranges in bounds.
    pub mem_words: Option<usize>,
    /// The kernel's declared governor operating range. `None` disables
    /// the bitwidth lints (there is no declaration to judge).
    pub declared: Option<DeclaredBits>,
}

/// Everything a pass needs to run: the program, its CFG, and the shared
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct PassContext<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its control-flow graph.
    pub cfg: &'a Cfg,
    /// Shared analysis configuration.
    pub config: &'a AnalysisConfig,
}

/// A static-analysis pass over one program.
pub trait Pass {
    /// Stable pass name (used by `nvp-lint` output).
    fn name(&self) -> &'static str;
    /// Runs the pass, returning any diagnostics.
    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic>;
}

/// The default lint pipeline: taint, WAR-hazard, backup-liveness,
/// bitwidth safety.
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(TaintPass),
        Box::new(WarPass),
        Box::new(BackupLivenessPass),
        Box::new(BitwidthPass),
    ]
}

/// The combined result of running a pass pipeline over one program.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All diagnostics, sorted most-severe first, then by pc.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.count_at_least(Severity::Error) > 0
    }

    /// Number of diagnostics at or above `floor`.
    pub fn count_at_least(&self, floor: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() >= floor)
            .count()
    }

    /// Diagnostics at or above `floor`, in report order.
    pub fn at_least(&self, floor: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity() >= floor)
    }
}

/// Runs the default pass pipeline over `program`.
pub fn analyze_program(program: &Program, config: &AnalysisConfig) -> AnalysisReport {
    analyze_with(program, config, &default_passes())
}

/// Runs an explicit pass pipeline over `program`.
pub fn analyze_with(
    program: &Program,
    config: &AnalysisConfig,
    passes: &[Box<dyn Pass>],
) -> AnalysisReport {
    let cfg = Cfg::build(program);
    let cx = PassContext {
        program,
        cfg: &cfg,
        config,
    };
    let mut diagnostics: Vec<Diagnostic> = passes.iter().flat_map(|p| p.run(&cx)).collect();
    diagnostics.sort_by(|a, b| {
        b.severity()
            .cmp(&a.severity())
            .then(a.pc.unwrap_or(usize::MAX).cmp(&b.pc.unwrap_or(usize::MAX)))
    });
    AnalysisReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::{ProgramBuilder, Reg};

    #[test]
    fn clean_program_yields_only_info() {
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ldi(Reg(0), 1)
            .st(0, Reg(0))
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let r = analyze_program(&p, &AnalysisConfig::default());
        assert!(!r.has_errors());
        assert_eq!(r.count_at_least(Severity::Warning), 0);
        // The resume marker still yields its informational live-set line.
        assert_eq!(r.count_at_least(Severity::Info), 1);
    }

    #[test]
    fn report_sorted_most_severe_first() {
        // Branch on an AC register (error) + a WAR hazard (warning) in one
        // program: the error must sort first regardless of pc order.
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.mark_resume(0)
            .ld(Reg(0), 50)
            .addi(Reg(0), Reg(0), 1)
            .st(50, Reg(0)) // WAR hazard at pc 3
            .ldi(Reg(1), 0)
            .brz(Reg(2), end) // r2 is AC: branch-on-approx at pc 5
            .frame_done();
        b.place(end);
        b.halt();
        b.mark_ac(Reg(2));
        let p = b.build().unwrap();
        let r = analyze_program(&p, &AnalysisConfig::default());
        assert!(r.has_errors());
        let sevs: Vec<Severity> = r.diagnostics.iter().map(|d| d.severity()).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted);
        assert_eq!(r.diagnostics[0].code, LintCode::BranchOnApprox);
    }
}
