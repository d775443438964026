//! Figures 15 and 16: forward progress and backup counts vs bitwidth.

use super::{base, run};
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{Scale, Table};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::ExecMode;

fn bit_sweep(scale: Scale) -> Vec<Vec<(u64, u64)>> {
    // [profile][bit index: 8..=1] -> (forward progress, backups)
    // Flattened profile-major (bits descending inside) so the parallel
    // sweep's job order matches the serial iteration order exactly.
    let cells: Vec<(WatchProfile, u8)> = WatchProfile::ALL
        .iter()
        .flat_map(|&w| (1..=8u8).rev().map(move |bits| (w, bits)))
        .collect();
    let flat = sweep(scale, cells, |(w, bits)| {
        let rep = run(&base(KernelId::Median, scale, w, ExecMode::Fixed(bits)));
        (rep.forward_progress, rep.backups)
    });
    flat.chunks(8).map(|c| c.to_vec()).collect()
}

/// Figure 15: forward progress on different bitwidths (ALU + memory
/// reduced in tandem), five power profiles.
pub fn fig15(scale: Scale) -> Vec<Table> {
    let data = bit_sweep(scale);
    let mut t = Table::new(
        "fig15_fp_vs_bits",
        "Figure 15 — forward progress vs reliable bits (median)",
        &[
            "bits",
            "profile 1",
            "profile 2",
            "profile 3",
            "profile 4",
            "profile 5",
        ],
    );
    for (i, bits) in (1..=8u8).rev().enumerate() {
        let cells: Vec<String> = std::iter::once(bits.to_string())
            .chain(data.iter().map(|d| d[i].0.to_string()))
            .collect();
        t.row(cells);
    }
    let ratio: f64 = data
        .iter()
        .map(|d| d[7].0 as f64 / d[0].0.max(1) as f64)
        .sum::<f64>()
        / data.len() as f64;
    t.note(format!(
        "mean FP(1 bit)/FP(8 bit) = {} (paper: ~2x)",
        fnum(ratio)
    ));
    vec![t]
}

/// Figure 16: backups on different bitwidths.
pub fn fig16(scale: Scale) -> Vec<Table> {
    let data = bit_sweep(scale);
    let mut t = Table::new(
        "fig16_backups_vs_bits",
        "Figure 16 — number of backups vs reliable bits (median)",
        &[
            "bits",
            "profile 1",
            "profile 2",
            "profile 3",
            "profile 4",
            "profile 5",
        ],
    );
    for (i, bits) in (1..=8u8).rev().enumerate() {
        let cells: Vec<String> = std::iter::once(bits.to_string())
            .chain(data.iter().map(|d| d[i].1.to_string()))
            .collect();
        t.row(cells);
    }
    let reduction: f64 = data
        .iter()
        .map(|d| 1.0 - d[7].1 as f64 / d[0].1.max(1) as f64)
        .sum::<f64>()
        / data.len() as f64;
    t.note(format!(
        "mean backup reduction 8→1 bit = {:.0}% (paper: ~45%)",
        reduction * 100.0
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_beats_eight_bit_progress() {
        let t = &fig15(Scale::quick())[0];
        assert_eq!(t.rows.len(), 8);
        // First row is 8 bits, last is 1 bit; every profile column grows.
        for col in 1..=5 {
            let fp8: u64 = t.rows[0][col].parse().unwrap();
            let fp1: u64 = t.rows[7][col].parse().unwrap();
            assert!(fp1 > fp8, "profile {col}: {fp1} !> {fp8}");
        }
    }
}
