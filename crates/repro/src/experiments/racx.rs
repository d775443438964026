//! Figures 26–27: recompute-and-combine quality recovery.

use super::{base, run};
use crate::catalog::{RunRequest, TraceShape};
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use incidental::{combine_passes, RacOutcome};
use nvp_kernels::KernelId;
use nvp_nvm::MergeMode;
use nvp_power::synth::WatchProfile;
use nvp_sim::ExecMode;

/// The frame the figures recompute and show: median's input seeded
/// `0x26` at `img` under `mode`, over profile 1 for at least 3 s.
pub(crate) fn figure_frame(scale: Scale, img: usize, mode: ExecMode) -> RunRequest {
    RunRequest {
        img,
        input_seed: 0x26,
        trace_seconds: scale.trace_seconds.max(3.0),
        ..base(KernelId::Median, scale, WatchProfile::P1, mode)
    }
}

/// Recompute-and-combine of `frame`'s first input frame (Section 8.5):
/// `passes` runs of it, each committing one frame under its own
/// retention-decay seed and its own phase of the trace ([`TraceShape`]),
/// merged by `merge` (the `assemble` pragma's mode). The passes are
/// ordinary runs, so the run memo and trace captures see them.
pub fn recompute(frame: &RunRequest, passes: u32, merge: MergeMode) -> RacOutcome {
    let runs: Vec<_> = (0..passes)
        .map(|pass| {
            run(&RunRequest {
                frames: 1,
                frames_limit: Some(1),
                seed: 0xAC ^ u64::from(pass).wrapping_mul(0x9E37_79B9),
                trace_shape: Some(TraceShape { pass, passes }),
                record_outputs: true,
                ..frame.clone()
            })
        })
        .collect();
    let (w, h) = dims(frame.kernel, frame.img);
    let input = &frame.inputs()[0];
    let committed = runs.iter().map(|r| r.committed.first());
    combine_passes(frame.kernel, w, h, input, merge, committed)
}

/// Figure 27 (and the right half of Figure 26): PSNR vs recomputation
/// passes for several `minbits` floors.
pub fn fig27(scale: Scale) -> Vec<Table> {
    let passes = 8;
    let mut t = Table::new(
        "fig27_recompute",
        "Figure 27 — PSNR (dB) vs recomputation passes (median, higherbits merge)",
        &["passes", "minbits 1", "minbits 2", "minbits 4", "minbits 6"],
    );
    let series: Vec<Vec<f64>> = sweep(scale, vec![1u8, 2, 4, 6], |mb| {
        let frame = figure_frame(scale, scale.img, ExecMode::Dynamic(mb, 8));
        recompute(&frame, passes, MergeMode::HigherBits).psnr_after_pass
    });
    for p in 0..passes as usize {
        let cells: Vec<String> = std::iter::once((p + 1).to_string())
            .chain(series.iter().map(|s| fnum(s[p])))
            .collect();
        t.row(cells);
    }
    t.note("paper: little value in recomputation beyond 4–5 passes");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_improve_quality() {
        let t = &fig27(Scale::quick())[0];
        assert_eq!(t.rows.len(), 8);
        for col in 1..=4 {
            let first: f64 = t.rows[0][col].parse().unwrap_or(f64::INFINITY);
            let last: f64 = t.rows[7][col].parse().unwrap_or(f64::INFINITY);
            assert!(
                last >= first || !last.is_finite(),
                "col {col}: {first} -> {last}"
            );
        }
    }
}
