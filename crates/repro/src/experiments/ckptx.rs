//! Checkpoint synthesis and backup-scope accounting.
//!
//! Not a paper figure: the MICRO'17 platform always backs up the full
//! architectural state. This experiment prints the placement certificates
//! `nvp-lint --checkpoint` synthesizes for every kernel, then compares the
//! backup scopes (full state, live-only, live∩dirty under the plan for
//! the run's own dims, and live∩dirty pinned to the certificate dims'
//! plan) across the five watch profiles — committed outputs must not
//! move, only the backup energy.

use super::{base, cached_spec, run};
use crate::catalog::{self, RunRequest};
use crate::sweep::sweep;
use crate::table::fnum;
use crate::{dims, Scale, Table};
use nvp_analysis::{synthesize, Cfg, CkptOptions};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{BackupScope, CheckpointPlan, ExecMode};
use std::sync::Arc;

/// The checkpoint plan the "saved plan" column pins every profile's run
/// to: the catalog's cached plan for `id` at `scale`'s image size raised
/// to at least 16 (the dims the placement certificates are printed at),
/// rather than the run's own dims a plain `LiveDirty` request takes.
fn plan_for(id: KernelId, scale: Scale) -> Arc<CheckpointPlan> {
    let (w, h) = dims(id, scale.img.max(16));
    catalog::plan_for(id, w, h)
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
        let s = synthesize(&spec.program, &acfg, &CkptOptions::for_kernel(&spec));
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
        let scoped = |scope: BackupScope, checkpoint_plan: Option<Arc<CheckpointPlan>>| {
            run(&RunRequest {
                scope,
                checkpoint_plan,
                ..base(id, scale, p, ExecMode::Precise)
            })
        };
        let full = scoped(BackupScope::FullState, None);
        let live = scoped(BackupScope::LiveOnly, None);
        let dirty = scoped(BackupScope::LiveDirty, None);
        let planned = scoped(BackupScope::LiveDirty, Some(plan.clone()));
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
}
