//! Backup-liveness: which architectural state must a backup persist?
//!
//! A power emergency can interrupt the program at any pc, and the backup
//! must persist enough state for execution to continue after restore. A
//! register that is dead at the interruption point (rewritten before any
//! read on every path) contributes nothing to the continuation — skipping
//! it shrinks the backup, and backup energy is the dominant overhead of
//! an NVP (20–33 % of income, paper Section 3.2). The sim consumes
//! [`BackupLiveness::live_at`] through its `BackupScope::LiveOnly` option;
//! `nvp-lint` reports the live sets at resume markers (`NVP-I001`) and
//! flags resume loop-variables that are never read (`NVP-W002`) — their
//! backed-up values can never influence resume matching or execution.

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, LintCode};
use crate::liveness::{liveness, Liveness};
use crate::{Pass, PassContext};
use nvp_isa::{Instr, Program, NUM_REGS};

/// Per-pc live-register masks with resume-point summaries.
#[derive(Debug, Clone)]
pub struct BackupLiveness {
    live_in: Vec<u16>,
    /// `(pc, live mask)` for every `mark_resume` in the program.
    pub resume_points: Vec<(usize, u16)>,
}

impl BackupLiveness {
    /// Computes backup-liveness for `program`.
    pub fn compute(program: &Program) -> BackupLiveness {
        let cfg = Cfg::build(program);
        let Liveness { live_in, .. } = liveness(program, &cfg);
        let resume_points = program
            .iter()
            .filter_map(|(pc, i)| match i {
                Instr::MarkResume(_) => Some((pc, live_in[pc])),
                _ => None,
            })
            .collect();
        BackupLiveness {
            live_in,
            resume_points,
        }
    }

    /// Registers that must be persisted by a backup taken just before the
    /// instruction at `pc` executes. Out-of-range or unreachable pcs
    /// conservatively report all registers live.
    pub fn live_at(&self, pc: usize) -> u16 {
        match self.live_in.get(pc) {
            Some(&m) => m,
            None => u16::MAX,
        }
    }

    /// Fraction of the register file live at `pc` (`0.0..=1.0`).
    pub fn live_fraction(&self, pc: usize) -> f64 {
        f64::from(self.live_at(pc).count_ones()) / NUM_REGS as f64
    }
}

/// The backup-liveness pass.
#[derive(Debug, Default)]
pub struct BackupLivenessPass;

impl Pass for BackupLivenessPass {
    fn name(&self) -> &'static str {
        "backup-liveness"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        let bl = BackupLiveness::compute(cx.program);
        let mut out = Vec::new();
        // Registers read anywhere in the program.
        let mut read_anywhere: u16 = 0;
        for (_, i) in cx.program.iter() {
            for r in i.srcs() {
                read_anywhere |= 1 << r.0;
            }
        }
        let dead_loop_vars = cx.program.loop_var_mask() & !read_anywhere;
        for r in 0..NUM_REGS as u8 {
            if dead_loop_vars & (1 << r) != 0 {
                out.push(Diagnostic::program_level(
                    LintCode::DeadResumeReg,
                    format!(
                        "resume loop-variable r{r} is never read: its backed-up value \
                         cannot influence resume matching and wastes backup energy"
                    ),
                ));
            }
        }
        for &(pc, mask) in &bl.resume_points {
            out.push(Diagnostic::at(
                LintCode::BackupLiveSet,
                pc,
                format!(
                    "resume point backs up {} of {} registers (mask {mask:#06x})",
                    mask.count_ones(),
                    NUM_REGS
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;
    use nvp_isa::{ProgramBuilder, Reg};

    #[test]
    fn live_sets_shrink_where_registers_are_dead() {
        // 0: mark_resume  1: ldi r0  2: st [5],r0  3: frame_done  4: halt
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ldi(Reg(0), 1)
            .st(5, Reg(0))
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let bl = BackupLiveness::compute(&p);
        assert_eq!(bl.live_at(0), 0); // r0 redefined before any read
        assert_eq!(bl.live_at(2), 1 << 0);
        assert_eq!(bl.live_at(4), 0);
        assert_eq!(bl.resume_points, vec![(0, 0)]);
        assert!(bl.live_fraction(2) > 0.0);
    }

    #[test]
    fn out_of_range_pc_is_conservative() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let bl = BackupLiveness::compute(&b.build().unwrap());
        assert_eq!(bl.live_at(99), u16::MAX);
    }

    #[test]
    fn dead_loop_var_flagged_live_one_silent() {
        let run = |dead: bool| {
            let mut b = ProgramBuilder::new();
            let lv = Reg(9);
            b.mark_loop_var(lv);
            b.mark_resume(0);
            b.ldi(Reg(0), 0).ldi(Reg(1), 3);
            let top = b.label();
            b.place(top);
            if dead {
                b.ldi(lv, 1); // written, never read
            } else {
                b.mov(lv, Reg(0)).addi(Reg(2), lv, 0); // read back
            }
            b.addi(Reg(0), Reg(0), 1);
            b.brlt(Reg(0), Reg(1), top);
            b.frame_done().halt();
            let p = b.build().unwrap();
            let cfg = Cfg::build(&p);
            let config = AnalysisConfig::default();
            let cx = PassContext {
                program: &p,
                cfg: &cfg,
                config: &config,
            };
            BackupLivenessPass.run(&cx)
        };
        let dead = run(true);
        assert!(dead
            .iter()
            .any(|d| d.code == LintCode::DeadResumeReg && d.message.contains("r9")));
        let live = run(false);
        assert!(live.iter().all(|d| d.code != LintCode::DeadResumeReg));
        // Both still report the informational live-set summary.
        assert!(live.iter().any(|d| d.code == LintCode::BackupLiveSet));
    }
}
