//! Differential gate for [`ExecEngine::Compiled`]: across every
//! synthesized watch profile plus hand-built constant, bursty and
//! adversarial patterns, a Compiled run must be indistinguishable from the reference
//! Step run — byte-identical JSONL traces, equal `RunReport`s, and a
//! self-reconciling energy ledger. Both engines now run the one metered
//! loop, so this suite guards the engine tag itself: nothing that names
//! an engine may change a result. It also crosses the three backup
//! scopes, since they read the pc at which power dies.

use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::synth::WatchProfile;
use nvp_power::{Power, PowerProfile, Ticks};
use nvp_sim::{
    BackupScope, CheckpointPlan, ExecEngine, ExecMode, RunReport, SystemConfig, SystemSim,
};
use nvp_trace::{CounterSink, JsonlBufSink, TeeSink};
use std::sync::Arc;

fn frames(id: KernelId, w: usize, h: usize, n: usize) -> Arc<Vec<Vec<i32>>> {
    Arc::new((0..n).map(|i| id.make_input(w, h, 90 + i as u64)).collect())
}

/// The masks the repro catalog hands a `scope` run of `spec`: backup
/// liveness for `LiveOnly`, the synthesized placement's for `LiveDirty`
/// (the simulator reads only the masks).
fn plan(scope: BackupScope, spec: &KernelSpec) -> Option<Arc<CheckpointPlan>> {
    let masks = match scope {
        BackupScope::FullState => return None,
        BackupScope::LiveOnly => {
            let live = nvp_analysis::BackupLiveness::compute(&spec.program);
            (0..spec.program.len()).map(|pc| live.live_at(pc)).collect()
        }
        BackupScope::LiveDirty => {
            let opts = nvp_analysis::CkptOptions::for_kernel(spec);
            let cfg = nvp_analysis::Cfg::build(&spec.program);
            nvp_analysis::synthesize(&spec.program, &cfg, &opts)
                .synthesized
                .masks
        }
    };
    let checkpoints = Vec::new();
    Some(Arc::new(CheckpointPlan { checkpoints, masks }))
}

/// Runs `id` under `mode`/`profile` with the given engine and backup
/// scope, returning the report, the full JSONL trace, and the summary.
fn run(
    id: KernelId,
    mode: ExecMode,
    profile: &PowerProfile,
    engine: ExecEngine,
    scope: BackupScope,
) -> (RunReport, String, nvp_trace::TraceSummary) {
    let (w, h) = id.min_dims();
    let spec = id.spec(w, h);
    let cfg = SystemConfig {
        exec_engine: engine,
        backup_scope: scope,
        frames_limit: Some(4),
        // Only an incidental run reads the deadline.
        staleness: Ticks(50),
        checkpoint_plan: plan(scope, &spec),
        ..Default::default()
    };
    let sim = SystemSim::new(spec, frames(id, w, h, 4), mode, cfg);
    let mut jsonl = JsonlBufSink::new();
    let mut counts = CounterSink::default();
    let mut tee = TeeSink {
        a: &mut jsonl,
        b: &mut counts,
    };
    let report = sim.run_traced(profile, &mut tee);
    (report, jsonl.into_string(), counts.summary)
}

fn assert_lockstep_scoped(
    id: KernelId,
    mode: ExecMode,
    profile: &PowerProfile,
    scope: BackupScope,
    label: &str,
) {
    let (step_rep, step_trace, _) = run(id, mode, profile, ExecEngine::Step, scope);
    let (comp_rep, comp_trace, comp_sum) = run(id, mode, profile, ExecEngine::Compiled, scope);
    assert_eq!(
        step_trace,
        comp_trace,
        "{label}: traces diverge for {}",
        id.name()
    );
    assert_eq!(
        step_rep,
        comp_rep,
        "{label}: reports diverge for {}",
        id.name()
    );
    let holes = comp_sum.reconcile();
    assert!(
        holes.is_empty(),
        "{label}: ledger mismatches for {}: {holes:?}",
        id.name()
    );
}

fn assert_lockstep(id: KernelId, mode: ExecMode, profile: &PowerProfile, label: &str) {
    assert_lockstep_scoped(id, mode, profile, BackupScope::default(), label);
}

#[test]
fn compiled_is_lockstep_on_every_watch_profile() {
    // The five synthesized wearable-harvest profiles from the paper's
    // evaluation, precise mode: the common certification path.
    for profile in WatchProfile::ALL {
        let p = profile.synthesize_seconds(2.0);
        assert_lockstep(
            KernelId::Sobel,
            ExecMode::Precise,
            &p,
            &format!("{profile:?}"),
        );
    }
}

#[test]
fn compiled_is_lockstep_under_bursty_power() {
    // 12 ticks on, 138 dead: every charge cycle dies mid-frame, so the
    // compiled segment boundaries (where the engine flushes its batched
    // counters and yields to the power check) are exercised constantly.
    let pattern: Vec<f64> = (0..60_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    let p = PowerProfile::from_uw(pattern);
    assert_lockstep(KernelId::Median, ExecMode::Precise, &p, "bursty");
}

#[test]
fn compiled_is_lockstep_under_adversarial_power() {
    // Income hovers right at the reserve boundary with pseudo-random
    // flutter, maximizing the instructions a brownout lands on.
    let pattern: Vec<f64> = (0..60_000)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let jitter = (x >> 32) % 97;
            if i % 7 < 4 {
                60.0 + jitter as f64
            } else {
                0.0
            }
        })
        .collect();
    let p = PowerProfile::from_uw(pattern);
    assert_lockstep(KernelId::Tiff2Bw, ExecMode::Precise, &p, "adversarial");
}

#[test]
fn compiled_is_lockstep_across_modes() {
    // Fixed-width, dynamic-governed, and incidental (where the engine
    // must bypass itself) all stay lockstep.
    let p = WatchProfile::P3.synthesize_seconds(2.0);
    assert_lockstep(KernelId::Sobel, ExecMode::Fixed(2), &p, "fixed2");
    assert_lockstep(KernelId::Sobel, ExecMode::Dynamic(1, 8), &p, "dynamic");
    assert_lockstep(
        KernelId::Tiff2Bw,
        ExecMode::Incidental(2, 8),
        &p,
        "incidental",
    );
    // Steady 500 µW never browns out once charged, and the 4-bit fixed
    // datapath prices every instruction below full width (off libm's
    // `powf(1.0, _)` fast path): the uninterrupted steady state that no
    // harvested profile reaches.
    assert_lockstep(
        KernelId::Sobel,
        ExecMode::Fixed(4),
        &PowerProfile::constant(Power::from_uw(500.0), Ticks(20_000)),
        "fixed4-constant",
    );
}

#[test]
fn compiled_is_lockstep_across_backup_scopes() {
    // Backup scopes change what a power interrupt persists; the compiled
    // engine changes where interrupts can land relative to the batched
    // segments. Cross them under the bursty pattern that dies mid-frame.
    let pattern: Vec<f64> = (0..60_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    let p = PowerProfile::from_uw(pattern);
    for scope in [
        BackupScope::FullState,
        BackupScope::LiveOnly,
        BackupScope::LiveDirty,
    ] {
        assert_lockstep_scoped(
            KernelId::Sobel,
            ExecMode::Precise,
            &p,
            scope,
            &format!("{scope:?}"),
        );
    }
}

#[test]
fn compiled_actually_runs_and_commits() {
    // Sanity: the lockstep suite would pass vacuously if nothing ran.
    let p = WatchProfile::P1.synthesize_seconds(2.0);
    let (rep, trace, _) = run(
        KernelId::Sobel,
        ExecMode::Precise,
        &p,
        ExecEngine::Compiled,
        BackupScope::default(),
    );
    assert!(rep.instructions_retired > 0);
    assert!(rep.frames_committed > 0);
    assert!(trace.contains("run_end"));
}
