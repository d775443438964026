//! The incidental executor: kernel + pragmas + power trace → results.
//!
//! This is the programmer-facing entry point matching Section 6's "putting
//! it all together": pick a kernel, annotate it with pragmas (Figure 8),
//! choose an input stream, and run it under a harvested-power trace. The
//! executor lowers the pragmas onto the simulator — `incidental (…)`
//! selects the SIMD bit range and backup policy, `incidental_recover_from`
//! turns on roll-forward recovery — and scores every committed frame
//! against the golden reference.

use crate::pragma::PragmaSet;
use crate::report::{ProgressSummary, QualityReport};
use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::PowerProfile;
use nvp_sim::{ExecMode, RunReport, SystemConfig, SystemSim};

/// Results of one executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentalReport {
    /// Raw simulator report (committed frames included).
    pub run: RunReport,
    /// Progress summary.
    pub progress: ProgressSummary,
    /// Per-frame quality.
    pub quality: QualityReport,
}

/// Builder for [`IncidentalExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorBuilder {
    kernel: KernelId,
    width: usize,
    height: usize,
    pragmas: PragmaSet,
    frames: usize,
    input_seed: u64,
    system: SystemConfig,
    mode_override: Option<ExecMode>,
    explicit_frames: Option<Vec<Vec<i32>>>,
}

impl ExecutorBuilder {
    /// Sets the pragma annotations (defaults to none: a precise NVP).
    pub fn pragmas(mut self, pragmas: PragmaSet) -> Self {
        self.pragmas = pragmas;
        self
    }

    /// Number of synthetic input frames to generate (cycled; default 4).
    pub fn frames(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one frame");
        self.frames = n;
        self
    }

    /// Supplies explicit input frames instead of synthetic ones.
    pub fn input_frames(mut self, frames: Vec<Vec<i32>>) -> Self {
        assert!(!frames.is_empty(), "need at least one frame");
        self.explicit_frames = Some(frames);
        self
    }

    /// Seed for synthetic input generation.
    pub fn input_seed(mut self, seed: u64) -> Self {
        self.input_seed = seed;
        self
    }

    /// Overrides the system configuration.
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Forces a specific execution mode (baselines, ablations) instead of
    /// deriving it from the pragmas.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode_override = Some(mode);
        self
    }

    /// Finalizes the executor.
    pub fn build(self) -> IncidentalExecutor {
        let spec = self.kernel.spec(self.width, self.height);
        let frames = self.explicit_frames.unwrap_or_else(|| {
            (0..self.frames)
                .map(|i| {
                    self.kernel
                        .make_input(self.width, self.height, self.input_seed + i as u64)
                })
                .collect()
        });
        let mut system = self.system;
        let mode = self.mode_override.unwrap_or_else(|| {
            match (self.pragmas.incidental(), self.pragmas.rolls_forward()) {
                (Some((minbits, maxbits, policy)), true) => {
                    system.backup_policy = policy;
                    ExecMode::Incidental(minbits, maxbits)
                }
                (Some((minbits, maxbits, policy)), false) => {
                    // Approximation without roll-forward: dynamic bitwidth
                    // on the live lane.
                    system.backup_policy = policy;
                    ExecMode::Dynamic(minbits, maxbits)
                }
                (None, _) => ExecMode::Precise,
            }
        });
        IncidentalExecutor {
            kernel: self.kernel,
            width: self.width,
            height: self.height,
            spec,
            pragmas: self.pragmas,
            frames,
            system,
            mode,
        }
    }
}

/// A configured incidental-computing run.
///
/// Only `incidental (…)` and `incidental_recover_from` are lowered onto
/// the simulator. The `recompute` and `assemble` pragmas are parsed
/// ([`PragmaSet::recompute_minbits`], [`PragmaSet::assemble_mode`]) but
/// not lowered: a run makes one pass, and recompute-and-combine lives in
/// [`recompute_and_combine`](crate::recompute_and_combine).
#[derive(Debug, Clone)]
pub struct IncidentalExecutor {
    kernel: KernelId,
    width: usize,
    height: usize,
    spec: KernelSpec,
    pragmas: PragmaSet,
    frames: Vec<Vec<i32>>,
    system: SystemConfig,
    mode: ExecMode,
}

impl IncidentalExecutor {
    /// Starts a builder for `kernel` on `width × height` frames.
    pub fn builder(kernel: KernelId, width: usize, height: usize) -> ExecutorBuilder {
        ExecutorBuilder {
            kernel,
            width,
            height,
            pragmas: PragmaSet::default(),
            frames: 4,
            input_seed: 0xF00D,
            system: SystemConfig::default(),
            mode_override: None,
            explicit_frames: None,
        }
    }

    /// The kernel under test.
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// The derived execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The pragma set in force.
    pub fn pragmas(&self) -> &PragmaSet {
        &self.pragmas
    }

    /// The input frames (before cycling).
    pub fn frames(&self) -> &[Vec<i32>] {
        &self.frames
    }

    /// The kernel spec (program + memory map).
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// Runs under `profile` and scores the outputs.
    pub fn run(&self, profile: &PowerProfile) -> IncidentalReport {
        let sim = SystemSim::new(
            self.spec.clone(),
            self.frames.clone(),
            self.mode,
            self.system.clone(),
        );
        let run = sim.run(profile);
        let quality =
            QualityReport::score(self.kernel, self.width, self.height, &self.frames, &run);
        IncidentalReport {
            progress: ProgressSummary::from(&run),
            quality,
            run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_power::synth::WatchProfile;
    use nvp_power::{Power, Ticks};

    /// Figure 8's (a1) annotation: `(src, 2, 8, linear)` with per-frame
    /// roll-forward.
    fn figure8_a1() -> PragmaSet {
        PragmaSet::parse([
            "#pragma ac incidental (src, 2, 8, linear);",
            "#pragma ac incidental_recover_from (frame);",
        ])
        .unwrap()
    }

    #[test]
    fn pragmas_select_incidental_mode() {
        let exec = IncidentalExecutor::builder(KernelId::Median, 8, 8)
            .pragmas(figure8_a1())
            .build();
        assert!(matches!(exec.mode(), ExecMode::Incidental(2, _)));
    }

    #[test]
    fn no_pragmas_mean_precise() {
        let exec = IncidentalExecutor::builder(KernelId::Median, 8, 8).build();
        assert!(matches!(exec.mode(), ExecMode::Precise));
    }

    #[test]
    fn incidental_without_rollforward_is_dynamic() {
        let pragmas = PragmaSet::parse(["#pragma ac incidental (src, 3, 8, log)"]).unwrap();
        let exec = IncidentalExecutor::builder(KernelId::Median, 8, 8)
            .pragmas(pragmas)
            .build();
        assert!(matches!(exec.mode(), ExecMode::Dynamic(..)));
    }

    #[test]
    fn steady_power_run_produces_perfect_quality() {
        let exec = IncidentalExecutor::builder(KernelId::Tiff2Bw, 8, 8)
            .frames(2)
            .build();
        let profile = PowerProfile::constant(Power::from_uw(600.0), Ticks::from_seconds(4.0));
        let rep = exec.run(&profile);
        assert!(rep.progress.frames_committed >= 2);
        assert_eq!(rep.quality.mean_mse(), 0.0);
    }

    #[test]
    fn incidental_run_on_watch_profile_beats_precise_fp() {
        let profile = WatchProfile::P1.synthesize_seconds(3.0);
        let base = IncidentalExecutor::builder(KernelId::Median, 12, 12)
            .frames(3)
            .build()
            .run(&profile);
        let inc = IncidentalExecutor::builder(KernelId::Median, 12, 12)
            .frames(3)
            .pragmas(figure8_a1())
            .build()
            .run(&profile);
        assert!(
            inc.progress.forward_progress > base.progress.forward_progress,
            "incidental {} should beat precise {}",
            inc.progress.forward_progress,
            base.progress.forward_progress
        );
    }

    #[test]
    fn explicit_frames_are_used() {
        let id = KernelId::Tiff2Bw;
        let f = id.make_input(8, 8, 77);
        let exec = IncidentalExecutor::builder(id, 8, 8)
            .input_frames(vec![f.clone()])
            .build();
        assert_eq!(exec.frames(), &[f]);
    }
}
