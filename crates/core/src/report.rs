//! Quality reporting.
//!
//! Scores raw simulator output ([`nvp_sim::RunReport`]) in the paper's
//! evaluation vocabulary: per-frame MSE/PSNR against the golden
//! reference. Progress (forward progress, backups, system-on time) is the
//! report's own fields and accessors.

use nvp_kernels::KernelId;
use nvp_sim::RunReport;

/// Quality of one committed output frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameQuality {
    /// Which input frame.
    pub input_index: u64,
    /// SIMD lane it committed on (0 = live/current).
    pub lane: u8,
    /// Mean squared error against the golden output.
    pub mse: f64,
    /// PSNR in dB against the golden output.
    pub psnr: f64,
}

/// Per-run quality report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityReport {
    /// Quality of every committed frame, in commit order.
    pub frames: Vec<FrameQuality>,
}

impl QualityReport {
    /// Scores every committed frame of `report` against golden outputs
    /// computed from `inputs` (indexed modulo its length, matching the
    /// simulator's frame cycling).
    pub fn score(
        kernel: KernelId,
        width: usize,
        height: usize,
        inputs: &[Vec<i32>],
        report: &RunReport,
    ) -> QualityReport {
        assert!(!inputs.is_empty(), "need at least one input frame");
        // Cache goldens per distinct input.
        let goldens: Vec<Vec<i32>> = inputs
            .iter()
            .map(|f| kernel.golden(f, width, height))
            .collect();
        let frames = report
            .committed
            .iter()
            .map(|c| {
                let golden = &goldens[(c.input_index as usize) % goldens.len()];
                let (mse, psnr) = kernel.score(golden, &c.output);
                FrameQuality {
                    input_index: c.input_index,
                    lane: c.lane,
                    mse,
                    psnr,
                }
            })
            .collect();
        QualityReport { frames }
    }

    /// Mean MSE across frames (NaN-free; empty report gives 0).
    pub fn mean_mse(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.mse).sum::<f64>() / self.frames.len() as f64
    }

    /// Mean PSNR in dB across frames, ignoring infinite (perfect) frames;
    /// returns `f64::INFINITY` if every frame is perfect, 0 if empty.
    pub fn mean_psnr(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let finite: Vec<f64> = self
            .frames
            .iter()
            .map(|f| f.psnr)
            .filter(|p| p.is_finite())
            .collect();
        if finite.is_empty() {
            f64::INFINITY
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// Quality restricted to one lane class.
    pub fn lane_frames(&self, incidental: bool) -> impl Iterator<Item = &FrameQuality> {
        self.frames
            .iter()
            .filter(move |f| (f.lane > 0) == incidental)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_power::Ticks;
    use nvp_sim::CommittedFrame;

    fn report_with(outputs: Vec<(u64, u8, Vec<i32>)>) -> RunReport {
        let mut r = RunReport::default();
        for (idx, lane, output) in outputs {
            let n = output.len();
            r.committed.push(CommittedFrame {
                input_index: idx,
                lane,
                commit_tick: Ticks(0),
                output,
                precision: vec![8; n],
            });
        }
        r
    }

    #[test]
    fn perfect_output_scores_infinite_psnr() {
        let id = KernelId::Tiff2Bw;
        let input = id.make_input(4, 4, 1);
        let golden = id.golden(&input, 4, 4);
        let rep = report_with(vec![(0, 0, golden)]);
        let q = QualityReport::score(id, 4, 4, &[input], &rep);
        assert_eq!(q.frames.len(), 1);
        assert_eq!(q.frames[0].psnr, f64::INFINITY);
        assert_eq!(q.mean_mse(), 0.0);
        assert_eq!(q.mean_psnr(), f64::INFINITY);
    }

    #[test]
    fn corrupted_output_scores_finite_psnr() {
        let id = KernelId::Tiff2Bw;
        let input = id.make_input(4, 4, 1);
        let mut bad = id.golden(&input, 4, 4);
        for v in bad.iter_mut() {
            *v = (*v + 60).min(255);
        }
        let rep = report_with(vec![(0, 0, bad)]);
        let q = QualityReport::score(id, 4, 4, &[input], &rep);
        assert!(q.frames[0].psnr < 20.0);
        assert!(q.mean_mse() > 1000.0);
    }

    #[test]
    fn raw_domain_kernels_use_raw_metrics() {
        let id = KernelId::Integral;
        let input = id.make_input(4, 4, 1);
        let golden = id.golden(&input, 4, 4);
        // Integral outputs exceed 255; clamped MSE would be wrong.
        let rep = report_with(vec![(0, 0, golden.clone())]);
        let q = QualityReport::score(id, 4, 4, &[input], &rep);
        assert_eq!(q.frames[0].mse, 0.0);
    }

    #[test]
    fn lane_filter_splits_incidental() {
        let id = KernelId::Tiff2Bw;
        let input = id.make_input(4, 4, 1);
        let golden = id.golden(&input, 4, 4);
        let rep = report_with(vec![(0, 0, golden.clone()), (1, 2, golden)]);
        let q = QualityReport::score(id, 4, 4, &[input.clone(), input], &rep);
        assert_eq!(q.lane_frames(false).count(), 1);
        assert_eq!(q.lane_frames(true).count(), 1);
    }

    #[test]
    fn empty_report_defaults() {
        let q = QualityReport::default();
        assert_eq!(q.mean_mse(), 0.0);
        assert_eq!(q.mean_psnr(), 0.0);
        // A 0-tick, 0-income run report's ratios are 0, not NaN.
        let r = RunReport::default();
        assert_eq!(r.system_on_fraction(), 0.0);
        assert_eq!(r.backup_energy_fraction(), 0.0);
    }
}
