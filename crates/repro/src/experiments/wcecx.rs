//! WCEC certificates.
//!
//! Not a paper figure: the MICRO'17 evaluation assumes per-instruction
//! capacitor checks. This experiment prints the static energy certificates
//! `nvp-lint --energy` derives for every kernel (two-sided: the I002
//! ceiling and the E006 floor). Its second table, `wcec_block_engine`,
//! keeps its name, title and columns from when the compiled engine
//! scheduled capacitor checks per certified block. No engine does that
//! any more: both run the one metered loop, which checks every
//! instruction, so the table compares that loop with itself and shows no
//! block-engine equivalence.

use super::{base, cached_spec, run};
use crate::catalog::RunRequest;
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use nvp_analysis::{usable_nj, wcec_report, Cfg, CostModel, TripBound, Wcec};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{ExecEngine, ExecMode};

fn fmt_wcec(w: Wcec) -> String {
    match w {
        Wcec::Bounded(nj) => fnum(nj),
        Wcec::Unbounded => "unbounded".into(),
    }
}

/// Static WCEC certificate table: per-kernel program ceiling at the
/// governor extremes, the proven entry-region floor, region/loop coverage,
/// and whether the worst region fits the usable capacitor energy.
pub fn wcec(scale: Scale) -> Vec<Table> {
    let usable8 = usable_nj(8);
    let mut t = Table::new(
        "wcec_certificates",
        "Whole-program WCEC certificates (nvp-lint --energy)",
        &[
            "kernel",
            "wcec@1b",
            "wcec@8b",
            "floor@8b",
            "regions",
            "worst region@8b",
            "loops bounded",
            "fits@8b",
        ],
    );
    for cells in sweep(scale, KernelId::ALL.to_vec(), |id| {
        let (w, h) = dims(id, scale.img.max(16));
        let spec = cached_spec(id, w, h);
        let cfg = Cfg::build(&spec.program);
        let r1 = wcec_report(&spec.program, &cfg, &CostModel::for_bits(1));
        let r8 = wcec_report(&spec.program, &cfg, &CostModel::for_bits(8));
        let worst = r8
            .regions
            .iter()
            .map(|r| match r.wcec {
                Wcec::Bounded(nj) => nj,
                Wcec::Unbounded => f64::INFINITY,
            })
            .fold(0.0f64, f64::max);
        let bounded = r8
            .loops
            .loops
            .iter()
            .filter(|l| matches!(l.bound, TripBound::Bounded(_)))
            .count();
        let fits = if worst.is_infinite() {
            "unbounded".to_string()
        } else if worst <= usable8 {
            "yes".to_string()
        } else {
            // An over-budget *ceiling* only means certification fails at
            // full width; the governor may still fit it at narrower bits.
            "no".to_string()
        };
        vec![
            id.name().to_string(),
            fmt_wcec(r1.program),
            fmt_wcec(r8.program),
            fnum(r8.regions[0].min_nj),
            r8.regions.len().to_string(),
            fnum(worst),
            format!("{bounded}/{}", r8.loops.loops.len()),
            fits,
        ]
    }) {
        t.row(cells);
    }
    t.note(format!(
        "usable capacitor energy at 8b: {} nJ (capacity - 1.1x backup reserve - restore)",
        fnum(usable8)
    ));
    t.note("floor@8b = proven minimum cost of the entry region; the E006 livelock lint compares floors, never ceilings");

    let mut bt = Table::new(
        "wcec_block_engine",
        "Certificate-driven block execution vs per-instruction checks (sobel)",
        &["profile", "fp step", "fp block", "backups", "identical"],
    );
    for cells in sweep(scale, WatchProfile::ALL.to_vec(), |p| {
        let on = |engine| {
            run(&RunRequest {
                engine,
                ..base(KernelId::Sobel, scale, p, ExecMode::Precise)
            })
        };
        let step = on(ExecEngine::Step);
        let compiled = on(ExecEngine::Compiled);
        vec![
            format!("{p:?}"),
            step.forward_progress.to_string(),
            compiled.forward_progress.to_string(),
            compiled.backups.to_string(),
            (step == compiled).to_string(),
        ]
    }) {
        bt.row(cells);
    }
    bt.note("expectation: every row identical=true — block scheduling must be observationally equivalent");
    vec![t, bt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_gets_a_certificate_row() {
        let tables = wcec(Scale::quick());
        let cert = &tables[0];
        assert_eq!(cert.rows.len(), KernelId::ALL.len());
        for row in &cert.rows {
            // The floor column must parse as a number (never "unbounded"):
            // floors are always finite, 0 when nothing was proven.
            let floor: f64 = row[3].parse().expect("floor is numeric");
            assert!(floor >= 0.0);
        }
    }

    #[test]
    fn block_engine_rows_are_all_identical() {
        let tables = wcec(Scale::quick());
        let bt = &tables[1];
        assert_eq!(bt.rows.len(), WatchProfile::ALL.len());
        for row in &bt.rows {
            assert_eq!(row[4], "true", "profile {} diverged", row[0]);
        }
    }
}
