//! **incidental** — incidental computing for energy-harvesting nonvolatile
//! processors.
//!
//! A from-scratch reproduction of *Incidental Computing on IoT Nonvolatile
//! Processors* (Ma et al., MICRO-50, 2017). Batteryless devices buffer more
//! sensor frames than their harvested energy can process; instead of rolling
//! back after every power failure, an incidental NVP **rolls forward** to
//! the newest frame and finishes abandoned older frames opportunistically,
//! as extra SIMD lanes at reduced precision, whenever surplus power exists.
//! Backups are made cheaper by **retention-time shaping** (low-order bits
//! persisted just long enough to survive a typical outage), and interesting
//! low-quality outputs can later be improved by **recompute-and-combine**.
//!
//! # Crate map
//!
//! * [`pragma`] — the four `#pragma ac` annotations of Table 1, with a
//!   parser, validation and the lowering onto a run's mode and backup
//!   policy ([`PragmaSet::lower`]),
//! * [`rac`] — recompute-and-combine quality recovery (Section 8.5): the
//!   merge and scoring of recomputation passes,
//! * [`tuning`] — the fine-tuned QoS policies of Table 2,
//! * [`report`] — quality scoring shared by the examples and the
//!   reproduction harness.
//!
//! Runs themselves are `nvp_repro::catalog::RunRequest`s: the catalog
//! builds every simulator, memoizes and traces its runs. The substrates
//! live in their own crates: [`nvp_nvm`] (STT-RAM retention model,
//! versioned memory), [`nvp_kernels`] (the ten MiBench-style testbenches)
//! and [`nvp_sim`] (the system-level simulator).
//!
//! # Quickstart
//!
//! ```
//! use incidental::PragmaSet;
//! use nvp_nvm::RetentionPolicy;
//! use nvp_sim::ExecMode;
//!
//! // Figure 8's (a1) annotation of a wearable camera's median filter:
//! // 2–8 bit frames backed up under linear retention, rolling forward.
//! let pragmas = PragmaSet::parse([
//!     "#pragma ac incidental (src, 2, 8, linear)",
//!     "#pragma ac incidental_recover_from (frame)",
//! ])
//! .unwrap();
//! let (mode, backup) = pragmas.lower();
//! assert_eq!(mode, ExecMode::Incidental(2, 8));
//! assert_eq!(backup, RetentionPolicy::Linear);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pragma;
pub mod rac;
pub mod report;
pub mod tuning;

pub use pragma::{Pragma, PragmaError, PragmaSet};
pub use rac::{combine_passes, RacOutcome};
pub use report::{FrameQuality, QualityReport};
pub use tuning::{policy_for, table2, QosPolicy, QosTarget};

/// A kernel run under lowered pragmas and a power trace, scored against
/// the golden reference — the path a `RunRequest` takes, on the simulator
/// directly so a constant-power profile can drive it.
#[cfg(test)]
mod executor {
    mod tests {
        use crate::{PragmaSet, QualityReport};
        use nvp_kernels::KernelId;
        use nvp_power::synth::WatchProfile;
        use nvp_power::{Power, PowerProfile, Ticks};
        use nvp_sim::{RunReport, SystemConfig, SystemSim};

        /// `frames` inputs of `kernel` at `w`×`h` (seeded from 0xF00D) run
        /// under `pragmas` on `profile`.
        fn run(
            kernel: KernelId,
            w: usize,
            h: usize,
            frames: u64,
            pragmas: &PragmaSet,
            profile: &PowerProfile,
        ) -> (RunReport, QualityReport) {
            let inputs: Vec<Vec<i32>> = (0..frames)
                .map(|i| kernel.make_input(w, h, 0xF00D + i))
                .collect();
            let (mode, backup_policy) = pragmas.lower();
            let system = SystemConfig {
                backup_policy,
                ..SystemConfig::default()
            };
            let rep = SystemSim::new(kernel.spec(w, h), inputs.clone(), mode, system).run(profile);
            let quality = QualityReport::score(kernel, w, h, &inputs, &rep);
            (rep, quality)
        }

        #[test]
        fn steady_power_run_produces_perfect_quality() {
            let profile = PowerProfile::constant(Power::from_uw(600.0), Ticks::from_seconds(4.0));
            let (progress, quality) =
                run(KernelId::Tiff2Bw, 8, 8, 2, &PragmaSet::default(), &profile);
            assert!(progress.frames_committed >= 2);
            assert_eq!(quality.mean_mse(), 0.0);
        }

        #[test]
        fn incidental_run_on_watch_profile_beats_precise_fp() {
            // Figure 8's (a1) annotation: `(src, 2, 8, linear)` with
            // per-frame roll-forward.
            let a1 = PragmaSet::parse([
                "#pragma ac incidental (src, 2, 8, linear);",
                "#pragma ac incidental_recover_from (frame);",
            ])
            .unwrap();
            let profile = WatchProfile::P1.synthesize_seconds(3.0);
            let (base, _) = run(KernelId::Median, 12, 12, 3, &PragmaSet::default(), &profile);
            let (inc, _) = run(KernelId::Median, 12, 12, 3, &a1, &profile);
            assert!(
                inc.forward_progress > base.forward_progress,
                "incidental {} should beat precise {}",
                inc.forward_progress,
                base.forward_progress
            );
        }
    }
}
