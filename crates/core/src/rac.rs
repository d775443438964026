//! Recompute-and-combine (RAC), Section 8.5.
//!
//! When a low-quality incidental output turns out to be "interesting", the
//! programmer issues `recompute`/`assemble` pragmas: the kernel is re-run
//! with dynamic precision, and because power varies randomly over a pass,
//! *different* output elements come out at high precision each time. Merging
//! passes by per-element precision metadata ("higherbits") converges toward
//! the precise result — the paper finds "little value in recomputation
//! beyond four to five passes" (Figure 27).
//!
//! The passes are ordinary runs; `nvp_repro::experiments::racx` issues
//! them as catalog requests. This module merges and scores what they
//! committed.

use nvp_kernels::KernelId;
use nvp_nvm::MergeMode;
use nvp_sim::CommittedFrame;

/// Result of an N-pass recompute-and-combine run.
#[derive(Debug, Clone, PartialEq)]
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

/// Merges recomputation passes of `kernel` over `input` element-wise by
/// `mode` (the paper's model: "always performs entire output passes with
/// dynamic precision and then takes the highest precision output pixel
/// from each"), scoring the merge against the golden output after each
/// pass. Each pass is the frame it committed, or `None` if it was starved
/// of power, which leaves the merge unchanged.
///
/// # Panics
///
/// Panics if there are no passes.
pub fn combine_passes<'a>(
    kernel: KernelId,
    width: usize,
    height: usize,
    input: &[i32],
    mode: MergeMode,
    passes: impl IntoIterator<Item = Option<&'a CommittedFrame>>,
) -> RacOutcome {
    let golden = kernel.golden(input, width, height);
    let mut merged: Vec<(i32, u8)> = vec![(0, 0); golden.len()];
    let mut outcome = RacOutcome {
        psnr_after_pass: Vec::new(),
        mse_after_pass: Vec::new(),
        merged: Vec::new(),
    };
    for frame in passes {
        if let Some(frame) = frame {
            let src = frame.output.iter().zip(&frame.precision);
            for (dst, (&value, &precision)) in merged.iter_mut().zip(src) {
                // An empty accumulator (precision 0) takes the first pass's
                // value under `Min`; folding it in would pin the minimum at 0.
                *dst = if mode == MergeMode::Min && dst.1 == 0 {
                    (value, precision)
                } else {
                    mode.merge(*dst, (value, precision))
                };
            }
        }
        outcome.merged = merged.iter().map(|&(value, _)| value).collect();
        let (mse, psnr) = kernel.score(&golden, &outcome.merged);
        outcome.mse_after_pass.push(mse);
        outcome.psnr_after_pass.push(psnr);
    }
    assert!(!outcome.mse_after_pass.is_empty(), "need at least one pass");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pass `pass` as the simulator commits it under a varying supply:
    /// every element at a pseudo-random precision in 1..=8, its value the
    /// golden one with the bits below that precision cleared.
    fn pass(golden: &[i32], pass: u64) -> CommittedFrame {
        let precision: Vec<u8> = (0..golden.len() as u64)
            .map(|e| {
                let x = (pass * 1_000_003 + e).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                1 + ((x ^ (x >> 29)) % 8) as u8
            })
            .collect();
        let output = golden
            .iter()
            .zip(&precision)
            .map(|(&v, &p)| v & !((1 << (8 - p)) - 1))
            .collect();
        CommittedFrame {
            input_index: 0,
            lane: 0,
            commit_tick: Default::default(),
            output,
            precision,
        }
    }

    fn combine(seed: u64, passes: u64) -> RacOutcome {
        let id = KernelId::Median;
        let input = id.make_input(12, 12, seed);
        let golden = id.golden(&input, 12, 12);
        let frames: Vec<CommittedFrame> = (0..passes).map(|p| pass(&golden, p)).collect();
        combine_passes(
            id,
            12,
            12,
            &input,
            MergeMode::HigherBits,
            frames.iter().map(Some),
        )
    }

    #[test]
    fn quality_improves_monotonically_with_passes() {
        let out = combine(3, 5);
        assert_eq!(out.psnr_after_pass.len(), 5);
        // Higherbits never lowers an element's precision, so no pass may
        // regress, and the final merge must clearly beat the first pass.
        for w in out.mse_after_pass.windows(2) {
            assert!(w[1] <= w[0], "MSE regressed: {:?}", out.mse_after_pass);
        }
        let first = out.mse_after_pass[0];
        let last = *out.mse_after_pass.last().unwrap();
        assert!(last < first, "final MSE {last} must beat first {first}");
        assert!(out.total_gain_db() > 0.0);
    }

    #[test]
    fn gains_flatten_after_early_passes() {
        // Figure 27: most of the improvement lands in the first few passes.
        let out = combine(9, 6);
        let early = out.mse_after_pass[0] - out.mse_after_pass[3];
        let late = out.mse_after_pass[3] - out.mse_after_pass[5];
        assert!(
            early >= late,
            "early gain {early} should dominate late gain {late} ({:?})",
            out.mse_after_pass
        );
    }

    #[test]
    fn a_starved_pass_leaves_the_merge_unchanged() {
        let id = KernelId::Median;
        let input = id.make_input(12, 12, 3);
        let first = pass(&id.golden(&input, 12, 12), 0);
        let out = combine_passes(
            id,
            12,
            12,
            &input,
            MergeMode::HigherBits,
            [Some(&first), None],
        );
        assert_eq!(out.mse_after_pass[0], out.mse_after_pass[1]);
        assert_eq!(out.merged, first.output);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_panics() {
        let id = KernelId::Median;
        let input = id.make_input(8, 8, 1);
        combine_passes(id, 8, 8, &input, MergeMode::HigherBits, []);
    }
}
