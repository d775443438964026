//! Figures 11–14: fixed-bitwidth quality study (no power interruptions),
//! plus the statically-proven safe-bits companion table.

use super::cached_spec;
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use nvp_analysis::{bitwidth_report, Cfg, NEVER_SAFE};
use nvp_isa::ApproxConfig;
use nvp_kernels::KernelId;
use nvp_sim::run_fixed;

fn quality_sweep(
    name: &str,
    title: &str,
    scale: Scale,
    cfg_for: impl Fn(u8) -> ApproxConfig + Sync,
) -> Vec<Table> {
    let mut mse_t = Table::new(
        format!("{name}_mse"),
        format!("{title} — MSE vs reliable bits"),
        &["bits", "sobel", "median", "integral"],
    );
    let mut psnr_t = Table::new(
        format!("{name}_psnr"),
        format!("{title} — PSNR (dB) vs reliable bits"),
        &["bits", "sobel", "median", "integral"],
    );
    // Kernel-major, bits ascending inside — one sweep job per cell.
    let cells: Vec<(KernelId, u8)> = KernelId::QUALITY_TRIO
        .iter()
        .flat_map(|&id| (1..=7u8).map(move |bits| (id, bits)))
        .collect();
    let cfg_for = &cfg_for;
    let flat = sweep(scale, cells, |(id, bits)| {
        let (w, h) = dims(id, scale.img.max(16));
        let spec = cached_spec(id, w, h);
        let input = id.make_input(w, h, 0x51);
        let golden = id.golden(&input, w, h);
        let out = run_fixed(&spec, &input, cfg_for(bits), 0xB1 + bits as u64);
        id.score(&golden, &out)
    });
    let per_kernel: Vec<(KernelId, Vec<(f64, f64)>)> = KernelId::QUALITY_TRIO
        .iter()
        .zip(flat.chunks(7))
        .map(|(&id, series)| (id, series.to_vec()))
        .collect();
    for (i, bits) in (1..=7u8).enumerate().collect::<Vec<_>>().into_iter().rev() {
        let cells_mse: Vec<String> = std::iter::once(bits.to_string())
            .chain(per_kernel.iter().map(|(_, s)| fnum(s[i].0)))
            .collect();
        let cells_psnr: Vec<String> = std::iter::once(bits.to_string())
            .chain(per_kernel.iter().map(|(_, s)| fnum(s[i].1)))
            .collect();
        mse_t.row(cells_mse);
        psnr_t.row(cells_psnr);
    }
    mse_t.note("paper: median/integral degrade below ~3 bits; sobel already below 6 bits");
    psnr_t.note("paper: median/integral stay >20 dB even at 1 bit; sobel cannot reach 20 dB below full precision");
    vec![mse_t, psnr_t]
}

/// Figures 11–12: approximate-ALU quality (noisy low bits).
pub fn fig12(scale: Scale) -> Vec<Table> {
    quality_sweep(
        "fig12_alu_quality",
        "Figures 11–12 — approximate ALU",
        scale,
        ApproxConfig::alu_only,
    )
}

/// Figures 13–14: approximate-memory quality (truncated low bits).
pub fn fig14(scale: Scale) -> Vec<Table> {
    quality_sweep(
        "fig14_mem_quality",
        "Figures 13–14 — approximate memory",
        scale,
        ApproxConfig::mem_only,
    )
}

/// Statically-proven safe bitwidths: the `nvp-lint --bitwidth` result as
/// a table — per-kernel governor floor and worst-case output-region error
/// bound at every governor setting. The measured MSE curves of Figures
/// 11–14 sit *under* these bounds. The floor is reported, not enforced:
/// the simulator's governor picks widths from power alone.
pub fn safebits(scale: Scale) -> Vec<Table> {
    let fmt_err = |e: u64| {
        if e == u64::MAX {
            "unbounded".to_string()
        } else {
            e.to_string()
        }
    };
    let mut t = Table::new(
        "safe_bits",
        "Statically-proven safe bitwidths and output error bounds",
        &[
            "kernel", "floor", "1b", "2b", "3b", "4b", "5b", "6b", "7b", "8b",
        ],
    );
    for cells in sweep(scale, KernelId::ALL.to_vec(), |id| {
        let (w, h) = dims(id, scale.img.max(16));
        let spec = cached_spec(id, w, h);
        let cfg = Cfg::build(&spec.program);
        let report = bitwidth_report(
            &spec.program,
            &cfg,
            id.sanitized_regs(),
            Some(spec.mem_words),
        );
        let floor = if report.program_floor == NEVER_SAFE {
            "never".to_string()
        } else {
            report.program_floor.to_string()
        };
        let cells: Vec<String> = [id.name().to_string(), floor]
            .into_iter()
            .chain((1..=8usize).map(|b| fmt_err(report.output_err[b - 1])))
            .collect();
        cells
    }) {
        t.row(cells);
    }
    t.note("abstract-interpretation worst cases, not measurements; 8b is exactly 0 by the deterministic-op rule");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_degrades_toward_one_bit() {
        let tables = fig12(Scale::quick());
        let mse = &tables[0];
        assert_eq!(mse.rows.len(), 7);
        // Rows are bits 7 (first) down to 1 (last); median column must grow.
        let first: f64 = mse.rows[0][2].parse().unwrap();
        let last: f64 = mse.rows[6][2].parse().unwrap();
        assert!(last > first, "median MSE: 7-bit {first} vs 1-bit {last}");
    }

    #[test]
    fn sobel_worst_of_trio_at_midwidth() {
        let tables = fig12(Scale::quick());
        let psnr = &tables[1];
        // 4-bit row (index 3): sobel PSNR below median PSNR.
        let row = &psnr.rows[3];
        assert_eq!(row[0], "4");
        let sobel: f64 = row[1].parse().unwrap();
        let median: f64 = row[2].parse().unwrap();
        assert!(sobel < median, "sobel {sobel} vs median {median}");
    }

    #[test]
    fn mem_tables_have_same_shape() {
        let tables = fig14(Scale::quick());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 7);
    }

    #[test]
    fn safebits_covers_every_kernel_with_monotone_bounds() {
        let tables = safebits(Scale::quick());
        let t = &tables[0];
        assert_eq!(t.rows.len(), KernelId::ALL.len());
        for row in &t.rows {
            // Every shipped kernel proves down to 1 bit.
            assert_eq!(row[1], "1", "{} floor", row[0]);
            // Bounds never increase with more bits, and 8 bits is exact.
            assert_eq!(*row.last().unwrap(), "0", "{} at 8 bits", row[0]);
            let errs: Vec<u64> = row[2..]
                .iter()
                .map(|c| c.parse().unwrap_or(u64::MAX))
                .collect();
            assert!(
                errs.windows(2).all(|w| w[0] >= w[1]),
                "{} bounds not monotone: {errs:?}",
                row[0]
            );
        }
    }
}
