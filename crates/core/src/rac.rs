//! Recompute-and-combine (RAC), Section 8.5.
//!
//! When a low-quality incidental output turns out to be "interesting", the
//! programmer issues `recompute`/`assemble` pragmas: the kernel is re-run
//! with dynamic precision, and because power varies randomly over a pass,
//! *different* output elements come out at high precision each time. Merging
//! passes by per-element precision metadata ("higherbits") converges toward
//! the precise result — the paper finds "little value in recomputation
//! beyond four to five passes" (Figure 27).

use nvp_kernels::quality;
use nvp_kernels::spec::QualityDomain;
use nvp_kernels::KernelId;
use nvp_nvm::MergeMode;
use nvp_power::PowerProfile;
use nvp_sim::{ExecMode, Governor, SystemConfig, SystemSim};
use serde::{Deserialize, Serialize};

/// Result of an N-pass recompute-and-combine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RacOutcome {
    /// PSNR (dB) of the merged output after each pass (index 0 = one pass).
    pub psnr_after_pass: Vec<f64>,
    /// MSE of the merged output after each pass.
    pub mse_after_pass: Vec<f64>,
    /// The final merged output.
    pub merged: Vec<i32>,
}

impl RacOutcome {
    /// PSNR improvement from first to last pass.
    pub fn total_gain_db(&self) -> f64 {
        match (self.psnr_after_pass.first(), self.psnr_after_pass.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }
}

/// Runs `passes` dynamic-precision recomputation passes of `kernel` over
/// `input` and merges them element-wise by the given mode (the paper's
/// model: "always performs entire output passes with dynamic precision and
/// then takes the highest precision output pixel from each").
///
/// Each pass executes under a different segment of `profile`, so the
/// random power variation exposes different elements at high precision.
///
/// # Panics
///
/// Panics if `passes` is zero, `minbits` is outside `1..=8`, or the profile
/// is empty.
#[allow(clippy::too_many_arguments)]
pub fn recompute_and_combine(
    kernel: KernelId,
    width: usize,
    height: usize,
    input: &[i32],
    minbits: u8,
    passes: usize,
    mode: MergeMode,
    profile: &PowerProfile,
) -> RacOutcome {
    assert!(passes > 0, "need at least one pass");
    assert!((1..=8).contains(&minbits), "minbits must be 1..=8");
    assert!(!profile.is_empty(), "profile must be non-empty");

    let spec = kernel.spec(width, height);
    let golden = kernel.golden(input, width, height);
    let out_len = spec.output_len();

    let mut merged: Vec<i32> = vec![0; out_len];
    let mut merged_prec: Vec<u8> = vec![0; out_len];
    let mut psnr_after = Vec::with_capacity(passes);
    let mut mse_after = Vec::with_capacity(passes);

    for pass in 0..passes {
        // Each pass sees the trace rotated to a different phase (and a
        // fresh decay/noise seed): consecutive recomputations ride
        // different power conditions.
        let offset = nvp_power::Ticks((pass as u64 * profile.len() as u64) / passes as u64);
        let mut segment = profile.segment(offset, profile.duration());
        segment.extend(&profile.segment(nvp_power::Ticks(0), offset));
        // Give the pass room to finish its frame even from a weak phase.
        let segment = segment.tiled(nvp_power::Ticks(2 * profile.len() as u64));
        let cfg = SystemConfig {
            frames_limit: Some(1),
            seed: 0xAC ^ (pass as u64).wrapping_mul(0x9E37_79B9),
            ..Default::default()
        };
        let sim = SystemSim::new(
            spec.clone(),
            vec![input.to_vec()],
            ExecMode::Dynamic(Governor::new(minbits, 8)),
            cfg,
        );
        let run = sim.run(&segment);
        let Some(frame) = run.committed.iter().find(|c| !c.output.is_empty()) else {
            // Pass starved of power: record unchanged quality and continue.
            let (m, p) = score(kernel, &golden, &merged);
            mse_after.push(m);
            psnr_after.push(p);
            continue;
        };

        for i in 0..out_len {
            let src = (frame.output[i], frame.precision[i]);
            // An empty accumulator (precision 0) takes the first pass's
            // value under `Min`; folding it in would pin the minimum at 0.
            (merged[i], merged_prec[i]) = if mode == MergeMode::Min && merged_prec[i] == 0 {
                src
            } else {
                mode.merge((merged[i], merged_prec[i]), src)
            };
        }
        let (m, p) = score(kernel, &golden, &merged);
        mse_after.push(m);
        psnr_after.push(p);
    }

    RacOutcome {
        psnr_after_pass: psnr_after,
        mse_after_pass: mse_after,
        merged,
    }
}

fn score(kernel: KernelId, golden: &[i32], merged: &[i32]) -> (f64, f64) {
    match kernel.quality_domain() {
        QualityDomain::Clamped => (quality::mse(golden, merged), quality::psnr(golden, merged)),
        QualityDomain::Raw => (
            quality::mse_raw(golden, merged),
            quality::psnr_raw(golden, merged),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_power::synth::WatchProfile;

    #[test]
    fn quality_improves_monotonically_with_passes() {
        let id = KernelId::Median;
        let input = id.make_input(12, 12, 3);
        let profile = WatchProfile::P1.synthesize_seconds(4.0);
        let out = recompute_and_combine(id, 12, 12, &input, 2, 5, MergeMode::HigherBits, &profile);
        assert_eq!(out.psnr_after_pass.len(), 5);
        // Merging is statistically improving: no pass may regress much,
        // and the final merge must clearly beat the first pass.
        for w in out.mse_after_pass.windows(2) {
            assert!(
                w[1] <= w[0] * 1.2 + 1.0,
                "MSE regressed sharply: {:?}",
                out.mse_after_pass
            );
        }
        let first = out.mse_after_pass[0];
        let last = *out.mse_after_pass.last().unwrap();
        assert!(last < first, "final MSE {last} must beat first {first}");
        assert!(out.total_gain_db() > 0.0);
    }

    #[test]
    fn gains_flatten_after_early_passes() {
        // Figure 27: most of the improvement lands in the first few passes.
        let id = KernelId::Median;
        let input = id.make_input(12, 12, 9);
        let profile = WatchProfile::P2.synthesize_seconds(4.0);
        let out = recompute_and_combine(id, 12, 12, &input, 2, 6, MergeMode::HigherBits, &profile);
        let early = out.mse_after_pass[0] - out.mse_after_pass[3];
        let late = out.mse_after_pass[3] - out.mse_after_pass[5];
        assert!(
            early >= late,
            "early gain {early} should dominate late gain {late} ({:?})",
            out.mse_after_pass
        );
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_panics() {
        let id = KernelId::Median;
        let input = id.make_input(8, 8, 1);
        let profile = WatchProfile::P1.synthesize_seconds(0.5);
        recompute_and_combine(id, 8, 8, &input, 2, 0, MergeMode::HigherBits, &profile);
    }
}
