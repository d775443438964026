//! Figures 22–25: backup/recovery approximation via retention shaping.

use super::{base, make_frames, run};
use crate::catalog::RunRequest;
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use incidental::QualityReport;
use nvp_kernels::KernelId;
use nvp_nvm::RetentionPolicy;
use nvp_power::synth::WatchProfile;
use nvp_sim::{ExecMode, RunReport};
use std::sync::Arc;

const KERNEL: KernelId = KernelId::Median;

/// Runs the kernel under backup `policy`, keeping its outputs only when
/// the figure scores them (`scored`).
fn run_with_policy(
    scale: Scale,
    w: WatchProfile,
    policy: RetentionPolicy,
    scored: bool,
) -> Arc<RunReport> {
    run(&RunRequest {
        backup_policy: policy,
        record_outputs: scored,
        ..base(KERNEL, scale, w, ExecMode::Precise)
    })
}

/// Figure 22: per-bit retention times and failure counts for the three
/// shaping policies across profiles 1–3.
pub fn fig22(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    // Policy-major, profile-minor: the same order the serial loops used.
    let cells: Vec<(RetentionPolicy, WatchProfile)> = RetentionPolicy::SHAPED
        .iter()
        .flat_map(|&p| WatchProfile::ALL[..3].iter().map(move |&w| (p, w)))
        .collect();
    let flat = sweep(scale, cells, |(policy, w)| {
        run_with_policy(scale, w, policy, false)
    });
    for (policy, reps) in RetentionPolicy::SHAPED.iter().zip(flat.chunks(3)) {
        let policy = *policy;
        let mut t = Table::new(
            format!("fig22_failures_{policy}"),
            format!("Figure 22 — retention times & failures, {policy} policy (median)"),
            &[
                "bit (8=MSB)",
                "retention (ticks)",
                "fails p1",
                "fails p2",
                "fails p3",
            ],
        );
        for b in (1..=8u8).rev() {
            t.row([
                b.to_string(),
                policy.retention_ticks(b).0.to_string(),
                reps[0].retention_failures[(b - 1) as usize].to_string(),
                reps[1].retention_failures[(b - 1) as usize].to_string(),
                reps[2].retention_failures[(b - 1) as usize].to_string(),
            ]);
        }
        t.note("paper: failure counts range ~15–1200, concentrated in low-order bits");
        tables.push(t);
    }
    tables
}

/// Figures 23–24: output quality under the three retention policies.
pub fn fig24(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig24_retention_quality",
        "Figures 23–24 — MSE / PSNR vs retention policy (median)",
        &[
            "policy", "p1 MSE", "p2 MSE", "p3 MSE", "p1 PSNR", "p2 PSNR", "p3 PSNR",
        ],
    );
    let (wd, hd) = dims(KERNEL, scale.img);
    let frames = make_frames(KERNEL, scale);
    let combos: Vec<(RetentionPolicy, WatchProfile)> = RetentionPolicy::SHAPED
        .iter()
        .flat_map(|&p| WatchProfile::ALL[..3].iter().map(move |&w| (p, w)))
        .collect();
    let flat = sweep(scale, combos, |(policy, w)| {
        let rep = run_with_policy(scale, w, policy, true);
        let q = QualityReport::score(KERNEL, wd, hd, &frames, &rep);
        (fnum(q.mean_mse()), fnum(q.mean_psnr()))
    });
    for (policy, scores) in RetentionPolicy::SHAPED.iter().zip(flat.chunks(3)) {
        let mut cells = vec![policy.to_string()];
        cells.extend(scores.iter().map(|(mse, _)| mse.clone()));
        cells.extend(scores.iter().map(|(_, psnr)| psnr.clone()));
        t.row(cells);
    }
    t.note("paper: PSNR similar across policies; log surprisingly best on MSE");
    vec![t]
}

/// Figure 25: forward-progress improvement of the shaped policies over the
/// "8-bit 1-day" uniform baseline.
pub fn fig25(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig25_retention_fp",
        "Figure 25 — FP improvement vs 8-bit/1-day backup baseline (median)",
        &["policy", "profile 1", "profile 2", "profile 3", "mean"],
    );
    let baseline: Vec<u64> = sweep(scale, WatchProfile::ALL[..3].to_vec(), |w| {
        run_with_policy(scale, w, RetentionPolicy::OneDay, false).forward_progress
    });
    let combos: Vec<(RetentionPolicy, WatchProfile)> = RetentionPolicy::SHAPED
        .iter()
        .flat_map(|&p| WatchProfile::ALL[..3].iter().map(move |&w| (p, w)))
        .collect();
    let flat = sweep(scale, combos, |(policy, w)| {
        run_with_policy(scale, w, policy, false).forward_progress
    });
    for (policy, fps) in RetentionPolicy::SHAPED.iter().zip(flat.chunks(3)) {
        let mut cells = vec![policy.to_string()];
        let mut ratios = Vec::new();
        for (i, &fp) in fps.iter().enumerate() {
            let r = fp as f64 / baseline[i].max(1) as f64;
            ratios.push(r);
            cells.push(format!("{}x", fnum(r)));
        }
        cells.push(format!(
            "{}x",
            fnum(ratios.iter().sum::<f64>() / ratios.len() as f64)
        ));
        t.row(cells);
    }
    t.note("paper: ~1.39–1.57x, ordering log > linear > parabola");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig22_low_bits_fail_most() {
        let tables = fig22(Scale::quick());
        for t in &tables {
            // Row 0 is the MSB, row 7 the LSB.
            let msb: u64 = t.rows[0][2].parse().unwrap();
            let lsb: u64 = t.rows[7][2].parse().unwrap();
            assert!(lsb >= msb, "{}: lsb {lsb} < msb {msb}", t.title);
        }
    }

    #[test]
    fn fig25_policies_beat_baseline() {
        let t = &fig25(Scale::quick())[0];
        for r in &t.rows {
            let mean: f64 = r[4].trim_end_matches('x').parse().unwrap();
            assert!(mean > 1.0, "{}: {mean}", r[0]);
        }
    }
}
