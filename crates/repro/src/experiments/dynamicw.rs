//! Figures 17–21: dynamic-bitwidth approximation.

use super::{base, make_frames, run};
use crate::catalog::RunRequest;
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use incidental::QualityReport;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{ExecMode, RunReport};
use std::sync::Arc;

const KERNEL: KernelId = KernelId::Median;

/// Runs the kernel under `mode`, keeping its outputs only when the
/// figure scores them (`scored`).
fn kernel_run(scale: Scale, w: WatchProfile, mode: ExecMode, scored: bool) -> Arc<RunReport> {
    run(&RunRequest {
        record_outputs: scored,
        ..base(KERNEL, scale, w, mode)
    })
}

fn dynamic_run(scale: Scale, w: WatchProfile, minbits: u8, scored: bool) -> Arc<RunReport> {
    kernel_run(scale, w, ExecMode::Dynamic(minbits, 8), scored)
}

fn fixed_run(scale: Scale, w: WatchProfile, bits: u8, scored: bool) -> Arc<RunReport> {
    kernel_run(scale, w, ExecMode::Fixed(bits), scored)
}

fn score(scale: Scale, rep: &RunReport) -> QualityReport {
    let (w, h) = dims(KERNEL, scale.img);
    QualityReport::score(KERNEL, w, h, &make_frames(KERNEL, scale), rep)
}

/// Figures 17–18: bitwidth utilization under dynamic approximation.
pub fn fig18(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig18_bit_utilization",
        "Figure 18 — time at each bitwidth, dynamic approximation (median)",
        &[
            "profile", "OFF %", "1b %", "2b %", "3b %", "4b %", "5b %", "6b %", "7b %", "8b %",
        ],
    );
    for cells in sweep(scale, WatchProfile::ALL[..3].to_vec(), |w| {
        let rep = dynamic_run(scale, w, 1, false);
        let total = rep.total_ticks.max(1) as f64;
        let mut cells = vec![w.to_string()];
        for i in 0..9 {
            cells.push(fnum(rep.bit_utilization[i] as f64 / total * 100.0));
        }
        cells
    }) {
        t.row(cells);
    }
    t.note("paper (profile 1): OFF 59.7%, 8-bit 19.8%, thin tail across 1–7 bits");
    vec![t]
}

/// Figure 19: dynamic-bitwidth output quality vs the similar-quality fixed
/// configuration (2-bit).
pub fn fig19(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig19_dynamic_quality",
        "Figure 19 — QoS of dynamic bitwidth (median)",
        &[
            "profile",
            "dynamic MSE",
            "dynamic PSNR",
            "2-bit MSE",
            "2-bit PSNR",
        ],
    );
    for row in sweep(scale, WatchProfile::ALL[..3].to_vec(), |w| {
        let dynq = score(scale, &dynamic_run(scale, w, 1, true));
        let fixq = score(scale, &fixed_run(scale, w, 2, true));
        [
            w.to_string(),
            fnum(dynq.mean_mse()),
            fnum(dynq.mean_psnr()),
            fnum(fixq.mean_mse()),
            fnum(fixq.mean_psnr()),
        ]
    }) {
        t.row(row);
    }
    t.note("paper: dynamic quality roughly comparable to a 2-bit fixed solution");
    vec![t]
}

/// Figure 20: forward progress of dynamic bitwidth vs the iso-quality
/// 2-bit fixed configuration.
pub fn fig20(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig20_dynamic_fp",
        "Figure 20 — forward progress, dynamic vs 2-bit fixed (median)",
        &["profile", "dynamic FP", "2-bit FP", "dynamic / fixed"],
    );
    let mut ratios = Vec::new();
    for (w, d, f) in sweep(scale, WatchProfile::ALL[..3].to_vec(), |w| {
        let d = dynamic_run(scale, w, 1, false).forward_progress;
        let f = fixed_run(scale, w, 2, false).forward_progress;
        (w, d, f)
    }) {
        let r = d as f64 / f.max(1) as f64;
        ratios.push(r);
        t.row([w.to_string(), d.to_string(), f.to_string(), fnum(r)]);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.note(format!(
        "mean dynamic/fixed FP ratio {} (paper: ~1.2x — dynamic gains ~20%)",
        fnum(mean)
    ));
    vec![t]
}

/// Figure 21: `minbits = 4` dynamic vs the iso-quality 7-bit fixed
/// configuration.
pub fn fig21(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig21_minbits4",
        "Figure 21 — minbits=4 dynamic vs 7-bit fixed (median)",
        &[
            "profile",
            "dyn4 MSE",
            "dyn4 PSNR",
            "7-bit MSE",
            "7-bit PSNR",
            "dyn4 FP",
            "7-bit FP",
            "FP ratio",
        ],
    );
    let mut ratios = Vec::new();
    for (row, r) in sweep(scale, WatchProfile::ALL[..3].to_vec(), |w| {
        let d = dynamic_run(scale, w, 4, true);
        let f = fixed_run(scale, w, 7, true);
        let dq = score(scale, &d);
        let fq = score(scale, &f);
        let r = d.forward_progress as f64 / f.forward_progress.max(1) as f64;
        (
            [
                w.to_string(),
                fnum(dq.mean_mse()),
                fnum(dq.mean_psnr()),
                fnum(fq.mean_mse()),
                fnum(fq.mean_psnr()),
                d.forward_progress.to_string(),
                f.forward_progress.to_string(),
                fnum(r),
            ],
            r,
        )
    }) {
        ratios.push(r);
        t.row(row);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.note(format!(
        "mean FP ratio {} (paper: ~1.22x at similar MSE/PSNR)",
        fnum(mean)
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_percentages_sum_to_100() {
        let t = &fig18(Scale::quick())[0];
        for r in &t.rows {
            let sum: f64 = r[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((sum - 100.0).abs() < 1.5, "{sum}");
        }
    }

    #[test]
    fn fig20_dynamic_beats_fixed_two_bit_quality_tradeoff() {
        let t = &fig20(Scale::quick())[0];
        // dynamic runs fewer instructions than a 2-bit core (it spends time
        // at higher widths) — the ratio should be below ~1.3 but nonzero.
        for r in &t.rows {
            let ratio: f64 = r[3].parse().unwrap();
            assert!(ratio > 0.2 && ratio < 3.0, "{ratio}");
        }
    }
}
