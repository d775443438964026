//! Forward-progress lints over WCEC certificates.
//!
//! [`WcecPass`] evaluates the [`crate::wcec`] certificate across the
//! kernel's declared governor range and reports:
//!
//! * **`NVP-E006` (error)** — a checkpoint-to-checkpoint region whose
//!   *proven minimum* traversal cost ([`crate::wcec::Region::min_nj`])
//!   exceeds the usable capacitor energy at **every** governor setting.
//!   No single charge cycle — even one that recharges to full capacity —
//!   can carry the region from its checkpoint to the next, so the program
//!   backs up, restores, and re-executes the same prefix forever:
//!   provable livelock. The comparison deliberately uses the lower bound,
//!   not the WCEC: the WCEC over-approximates (joined intervals can
//!   inflate inner-loop trip counts by orders of magnitude on real
//!   kernels), and an inflated ceiling exceeding the budget proves
//!   nothing. A floor exceeding the budget does.
//! * **`NVP-W004` (warning)** — a loop whose trip count could not be
//!   bounded at some setting, plus irreducible control flow. Every
//!   `Unbounded` entry in the certificate traces back to one of these.
//! * **`NVP-I002` (info)** — the headroom summary at the declared floor:
//!   worst bounded region vs. the usable budget.
//!
//! The pass is not part of [`crate::default_passes`]; `nvp-lint --energy`
//! runs it explicitly (energy certification is a deliberate opt-in, like
//! the bitwidth mode).

use crate::cost_model::{usable_nj, CostModel};
use crate::diag::{Diagnostic, LintCode};
use crate::wcec::{wcec_report, Wcec, WcecReport};
use crate::{AnalysisReport, Pass, PassContext};

/// The WCEC certification pass, judged against the platform's
/// [`usable_nj`]. See the module docs for the lints.
#[derive(Debug, Default)]
pub struct WcecPass;

impl WcecPass {
    /// The governor settings to evaluate for `cx`: the kernel's declared
    /// range, or the full 1..=8 when nothing is declared.
    fn bit_range(cx: &PassContext<'_>) -> (u8, u8) {
        match cx.config.declared {
            Some(d) => (d.minbits, d.maxbits),
            None => (1, 8),
        }
    }

    /// Certificates for every setting in the declared range, lowest first.
    pub fn certificates(&self, cx: &PassContext<'_>) -> Vec<WcecReport> {
        let (lo, hi) = Self::bit_range(cx);
        (lo..=hi)
            .map(|bits| wcec_report(cx.program, cx.cfg, &CostModel::for_bits(bits)))
            .collect()
    }

    /// The lints over `reports`, the [`certificates`](Self::certificates)
    /// of `cx`, in report order: what [`Pass::run`] returns, without
    /// computing the certificates again.
    pub fn diagnostics(&self, cx: &PassContext<'_>, reports: &[WcecReport]) -> AnalysisReport {
        let Some(floor) = reports.first() else {
            return AnalysisReport::default();
        };
        let mut diags = Vec::new();

        // W004: a loop unbounded at any evaluated setting (reported once,
        // at the setting where it first fails), plus irreducible flow.
        let mut warned_heads: Vec<usize> = Vec::new();
        for r in reports {
            if r.loops.irreducible {
                diags.push(Diagnostic::program_level(
                    LintCode::UnboundedLoop,
                    format!(
                        "irreducible control flow at {} bits: cycles exist that no \
                         natural-loop bound covers, so the WCEC certificate is unbounded",
                        r.bits
                    ),
                ));
                break;
            }
        }
        for r in reports {
            for l in &r.loops.loops {
                let head_pc = l.head_pc(cx.cfg);
                if !l.bound.is_bounded() && !warned_heads.contains(&head_pc) {
                    warned_heads.push(head_pc);
                    diags.push(
                        Diagnostic::at(
                            LintCode::UnboundedLoop,
                            head_pc,
                            format!(
                                "loop trip count unknown at {} bits: no register matches a \
                                 bounded monotone counter pattern",
                                r.bits
                            ),
                        )
                        .with_context(cx.program),
                    );
                }
            }
        }

        // E006: judged on the *proven minimum* traversal cost — the WCEC
        // over-approximates, so only the floor can prove livelock. Judge
        // by region index so the verdict aggregates across settings.
        for (ri, region) in floor.regions.iter().enumerate() {
            let mut min_excess: Option<f64> = None; // smallest overshoot seen
            let mut livelock = true;
            for r in reports {
                let usable = usable_nj(r.bits);
                let need = r.regions[ri].min_nj;
                if need > usable {
                    let excess = need - usable;
                    min_excess = Some(min_excess.map_or(excess, |e: f64| e.min(excess)));
                } else {
                    // The cheapest traversal fits (or no floor was proven)
                    // at this setting: no livelock proof.
                    livelock = false;
                    break;
                }
            }
            if livelock {
                let (lo, hi) = Self::bit_range(cx);
                diags.push(
                    Diagnostic::at(
                        LintCode::RegionLivelock,
                        region.start_pc,
                        format!(
                            "region {} (pc {}) can never complete: even its cheapest \
                             traversal exceeds the usable capacitor energy at every \
                             governor setting {}..={} bits (closest miss: {:.1} nJ over)",
                            region.kind,
                            region.start_pc,
                            lo,
                            hi,
                            min_excess.unwrap_or(0.0)
                        ),
                    )
                    .with_context(cx.program),
                );
            }
        }

        // I002: headroom at the declared floor.
        if let Some(worst) = floor.worst_region() {
            let usable = usable_nj(floor.bits);
            let msg = match worst.wcec {
                Wcec::Bounded(nj) => format!(
                    "WCEC headroom at {} bits: worst region {} (pc {}) needs ≤{:.1} nJ of \
                     {:.1} nJ usable ({:.0}% of budget); program {}",
                    floor.bits,
                    worst.kind,
                    worst.start_pc,
                    nj,
                    usable,
                    nj / usable * 100.0,
                    floor.program,
                ),
                Wcec::Unbounded => format!(
                    "WCEC headroom at {} bits: region {} (pc {}) is unbounded — see NVP-W004",
                    floor.bits, worst.kind, worst.start_pc,
                ),
            };
            diags.push(Diagnostic::program_level(LintCode::WcecHeadroom, msg));
        }

        AnalysisReport::sorted(diags)
    }
}

impl Pass for WcecPass {
    fn name(&self) -> &'static str {
        "wcec"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        self.diagnostics(cx, &self.certificates(cx)).diagnostics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_with, AnalysisConfig};
    use nvp_isa::{Program, ProgramBuilder, Reg};

    fn run_pass(p: &Program) -> Vec<Diagnostic> {
        let report = analyze_with(
            p,
            &AnalysisConfig::default(),
            &[Box::new(WcecPass) as Box<dyn Pass>],
        );
        report.diagnostics
    }

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn small_kernel_gets_headroom_info_only() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 10);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let diags = run_pass(&b.build().unwrap());
        assert_eq!(codes(&diags), vec![LintCode::WcecHeadroom]);
        assert!(diags[0].message.contains("headroom"), "{}", diags[0]);
    }

    /// A synthetic livelock kernel: one checkpointless region that must
    /// execute ~200k multiplies — orders of magnitude beyond what a full
    /// 3.5 µJ capacitor can deliver at any bitwidth.
    fn livelock_program() -> Program {
        let mut b = ProgramBuilder::new();
        let (i, j, ni, nj) = (Reg(0), Reg(1), Reg(2), Reg(3));
        b.ldi(ni, 1000).ldi(nj, 200).ldi(i, 0);
        let outer = b.label();
        b.place(outer);
        b.ldi(j, 0);
        let inner = b.label();
        b.place(inner);
        b.mul(Reg(4), Reg(4), Reg(4))
            .addi(j, j, 1)
            .brlt(j, nj, inner);
        b.addi(i, i, 1).brlt(i, ni, outer);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn oversized_region_triggers_provable_livelock() {
        let diags = run_pass(&livelock_program());
        assert!(
            codes(&diags).contains(&LintCode::RegionLivelock),
            "expected E006 in {diags:?}"
        );
        let e = diags
            .iter()
            .find(|d| d.code == LintCode::RegionLivelock)
            .unwrap();
        assert!(e.message.contains("every governor setting"), "{e}");
        // No W004: the loops are bounded — that is what makes it provable.
        assert!(!codes(&diags).contains(&LintCode::UnboundedLoop));
    }

    #[test]
    fn splitting_the_livelock_with_checkpoints_clears_e006() {
        // Same work, but a frame_done inside the outer loop: each region
        // is now one inner sweep, well within budget.
        let mut b = ProgramBuilder::new();
        let (i, j, ni, nj) = (Reg(0), Reg(1), Reg(2), Reg(3));
        b.ldi(ni, 1000).ldi(nj, 200).ldi(i, 0);
        b.mark_resume(0);
        let outer = b.label();
        b.place(outer);
        b.ldi(j, 0);
        let inner = b.label();
        b.place(inner);
        b.mul(Reg(4), Reg(4), Reg(4))
            .addi(j, j, 1)
            .brlt(j, nj, inner);
        b.frame_done();
        b.addi(i, i, 1).brlt(i, ni, outer);
        b.halt();
        let diags = run_pass(&b.build().unwrap());
        assert!(
            !codes(&diags).contains(&LintCode::RegionLivelock),
            "checkpointed program still flagged: {diags:?}"
        );
    }

    #[test]
    fn unbounded_loop_warns_but_never_errors() {
        // Data-dependent trip count: W004, and *no* E006 even though the
        // loop could run forever — an unknown bound proves nothing.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ld(n, 3);
        let top = b.label();
        b.place(top);
        b.mul(Reg(2), Reg(2), Reg(2)).addi(i, i, 1).brlt(i, n, top);
        b.halt();
        let diags = run_pass(&b.build().unwrap());
        let cs = codes(&diags);
        assert!(cs.contains(&LintCode::UnboundedLoop), "{diags:?}");
        assert!(!cs.contains(&LintCode::RegionLivelock), "{diags:?}");
    }

    #[test]
    fn certificates_cover_the_declared_range() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).halt();
        let p = b.build().unwrap();
        let cfg = crate::Cfg::build(&p);
        let config = AnalysisConfig {
            declared: Some(crate::DeclaredBits::new(3, 6)),
            ..Default::default()
        };
        let cx = PassContext {
            program: &p,
            cfg: &cfg,
            config: &config,
        };
        let certs = WcecPass.certificates(&cx);
        assert_eq!(
            certs.iter().map(|c| c.bits).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }
}
