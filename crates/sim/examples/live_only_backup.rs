//! Demonstrates the live-only backup scope: run the median kernel under a
//! bursty power trace with both scopes and compare backup energy. The
//! simulator runs no analysis; the live-only plan it backs up under is
//! computed here from static backup liveness, as the repro catalog
//! computes it for every `LiveOnly` run.
//!
//! ```sh
//! cargo run --release -p nvp-sim --example live_only_backup
//! ```

use nvp_kernels::KernelId;
use nvp_power::PowerProfile;
use nvp_sim::{BackupScope, CheckpointPlan, ExecMode, RunReport, SystemConfig, SystemSim};
use std::sync::Arc;

fn run(scope: BackupScope) -> RunReport {
    let id = KernelId::Median;
    let (w, h) = (16, 16);
    let spec = id.spec(w, h);
    // Registers live at each pc: the masks a live-only backup persists.
    let live = nvp_analysis::BackupLiveness::compute(&spec.program);
    let plan = CheckpointPlan {
        checkpoints: Vec::new(),
        masks: (0..spec.program.len()).map(|pc| live.live_at(pc)).collect(),
    };
    // Short charge bursts: the capacitor funds only a slice of the frame,
    // so every outage forces a backup at an arbitrary program point.
    let pattern: Vec<f64> = (0..100_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    let cfg = SystemConfig {
        frames_limit: Some(1),
        backup_scope: scope,
        checkpoint_plan: Some(Arc::new(plan)),
        ..Default::default()
    };
    SystemSim::new(spec, vec![id.make_input(w, h, 7)], ExecMode::Precise, cfg)
        .run(&PowerProfile::from_uw(pattern))
}

fn main() {
    let full = run(BackupScope::FullState);
    let live = run(BackupScope::LiveOnly);
    println!("scope      backups  backup energy  saved");
    println!(
        "full-state {:>7}  {:>10.1} nJ  {:>6.1} nJ",
        full.backups,
        full.energy_backup.as_nj(),
        full.energy_backup_saved.as_nj()
    );
    println!(
        "live-only  {:>7}  {:>10.1} nJ  {:>6.1} nJ",
        live.backups,
        live.energy_backup.as_nj(),
        live.energy_backup_saved.as_nj()
    );
    assert_eq!(
        full.outputs_for(0)[0].output,
        live.outputs_for(0)[0].output,
        "scopes must produce identical results"
    );
    println!("outputs identical across scopes");
}
