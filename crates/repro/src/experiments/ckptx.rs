//! Checkpoint synthesis and backup-scope accounting.
//!
//! Not a paper figure: the MICRO'17 platform always backs up the full
//! architectural state. This experiment prints the placement certificates
//! `nvp-lint --checkpoint` synthesizes for every kernel, then compares the
//! four backup scopes (full state, live-only, live∩dirty, and live∩dirty
//! under the explicitly synthesized placement) across the five watch
//! profiles — committed outputs must not move, only the backup energy.

use super::{cached_spec, run_system, run_system_on};
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{catalog, dims, Scale, Table};
use nvp_analysis::{synthesize, Cfg, CkptOptions};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_power::PowerProfile;
use nvp_sim::{BackupScope, CheckpointPlan, ExecMode, SystemConfig};

/// The checkpoint plan for `id` at `scale` dims — the placement
/// `BackupScope::LiveDirty` synthesizes internally, made explicit so a
/// run can be pinned to a reviewed certificate.
fn plan_for(id: KernelId, scale: Scale) -> CheckpointPlan {
    let (w, h) = dims(id, scale.img.max(16));
    CheckpointPlan::clone(&catalog::plan_for(id, w, h))
}

/// Placement certificates and the scope comparison across watch profiles.
pub fn ckpt(scale: Scale) -> Vec<Table> {
    let mut cert = Table::new(
        "ckpt_placements",
        "Synthesized checkpoint placements (nvp-lint --checkpoint)",
        &[
            "kernel",
            "ckpts decl",
            "ckpts synth",
            "cost decl nJ",
            "cost synth nJ",
            "saved %",
            "infeasible bits",
        ],
    );
    for cells in sweep(scale, KernelId::ALL.to_vec(), |id| {
        let (w, h) = dims(id, scale.img.max(16));
        let spec = cached_spec(id, w, h);
        let acfg = Cfg::build(&spec.program);
        let (bits_lo, bits_hi) = id.declared_bits();
        let opts = CkptOptions {
            bits_lo,
            bits_hi,
            mem_words: spec.mem_words,
            ..Default::default()
        };
        let s = synthesize(&spec.program, &acfg, &opts);
        let infeasible = if s.synthesized.infeasible_bits.is_empty() {
            "-".to_string()
        } else {
            format!("{:?}", s.synthesized.infeasible_bits)
        };
        vec![
            id.name().to_string(),
            s.declared.checkpoints.len().to_string(),
            s.synthesized.checkpoints.len().to_string(),
            fnum(s.declared.cost_nj()),
            fnum(s.synthesized.cost_nj()),
            format!("{:.1}", s.savings_pct),
            infeasible,
        ]
    }) {
        cert.row(cells);
    }
    cert.note("cost = loop-trip-weighted expected backup energy + checkpoint crossing commits");
    cert.note("saved % vs the declared placement; negative would mean the search regressed (it never keeps such a placement)");

    let mut st = Table::new(
        "ckpt_scopes",
        "Backup scope vs backup energy across watch profiles (median)",
        &[
            "profile",
            "backup nJ full",
            "saved live",
            "saved dirty",
            "saved plan",
            "fp full",
            "fp dirty",
        ],
    );
    let id = KernelId::Median;
    let plan = plan_for(id, scale);
    for cells in sweep(scale, WatchProfile::ALL.to_vec(), |p| {
        let run = |scope: BackupScope, plan: Option<CheckpointPlan>| {
            run_system(id, scale, p, ExecMode::Precise, |c| {
                c.backup_scope = scope;
                c.checkpoint_plan = plan;
            })
        };
        let full = run(BackupScope::FullState, None);
        let live = run(BackupScope::LiveOnly, None);
        let dirty = run(BackupScope::LiveDirty, None);
        let planned = run(BackupScope::LiveDirty, Some(plan.clone()));
        vec![
            format!("{p:?}"),
            fnum(full.energy_backup.as_nj()),
            fnum(live.energy_backup_saved.as_nj()),
            fnum(dirty.energy_backup_saved.as_nj()),
            fnum(planned.energy_backup_saved.as_nj()),
            full.forward_progress.to_string(),
            dirty.forward_progress.to_string(),
        ]
    }) {
        st.row(cells);
    }
    st.note("saved = backup energy avoided vs what the same backups cost at full scope");
    st.note("cheaper backups leave more residual energy, so forward progress may shift; committed outputs never do (see sim tests)");
    vec![cert, st]
}

/// Backup-energy probe on bursty power: one median run per scope,
/// reporting the full-scope backup spend and the nJ each scoped run
/// saved, plus whether every scoped run reconciles (spend + saved == its
/// backups × the constant full cost per backup).
pub fn backup_scope_savings(scale: Scale) -> (f64, f64, f64, f64, bool) {
    let pattern: Vec<f64> = (0..100_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    let profile = PowerProfile::from_uw(pattern);
    let id = KernelId::Median;
    let plan = plan_for(id, scale);
    let run = |scope: BackupScope, plan: Option<CheckpointPlan>| {
        run_system_on(
            id,
            scale,
            &profile,
            ExecMode::Precise,
            |c: &mut SystemConfig| {
                c.backup_scope = scope;
                c.checkpoint_plan = plan;
                c.max_simd_lanes = 1;
            },
        )
    };
    let full = run(BackupScope::FullState, None);
    let live = run(BackupScope::LiveOnly, None);
    let dirty = run(BackupScope::LiveDirty, None);
    let planned = run(BackupScope::LiveDirty, Some(plan));
    let per_backup = full.energy_backup.as_nj() / (full.backups.max(1)) as f64;
    let reconciled = [&live, &dirty, &planned].iter().all(|r| {
        r.backups == 0
            || ((r.energy_backup.as_nj() + r.energy_backup_saved.as_nj()) / r.backups as f64
                - per_backup)
                .abs()
                < 1e-9
    });
    (
        full.energy_backup.as_nj(),
        live.energy_backup_saved.as_nj(),
        dirty.energy_backup_saved.as_nj(),
        planned.energy_backup_saved.as_nj(),
        reconciled,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_gets_a_placement_row() {
        let tables = ckpt(Scale::quick());
        let cert = &tables[0];
        assert_eq!(cert.rows.len(), KernelId::ALL.len());
        for row in &cert.rows {
            let saved: f64 = row[5].parse().expect("saved % is numeric");
            assert!(
                saved >= -1e-9,
                "{}: synthesis must never keep a worse placement",
                row[0]
            );
        }
    }

    #[test]
    fn scope_rows_cover_every_profile_and_dirty_beats_live() {
        let tables = ckpt(Scale::quick());
        let st = &tables[1];
        assert_eq!(st.rows.len(), WatchProfile::ALL.len());
        for row in &st.rows {
            let live: f64 = row[2].parse().expect("saved live numeric");
            let dirty: f64 = row[3].parse().expect("saved dirty numeric");
            assert!(
                dirty >= live - 1e-9,
                "{}: live∩dirty saved less than live alone",
                row[0]
            );
        }
    }

    #[test]
    fn bursty_probe_reconciles_and_orders_scopes() {
        let (full, live, dirty, planned, reconciled) = backup_scope_savings(Scale::quick());
        assert!(reconciled, "scoped ledgers must reconcile");
        assert!(full > 0.0);
        assert!(live > 0.0, "live-only saved nothing on bursty power");
        assert!(
            dirty > live,
            "live∩dirty ({dirty} nJ) must beat live-only ({live} nJ) on bursty power"
        );
        assert!(planned > 0.0);
    }
}
