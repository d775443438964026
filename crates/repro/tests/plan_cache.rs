//! The catalog's checkpoint-plan cache must be invisible in results: a
//! `LiveDirty` run through the catalog (shared plan) reports and traces
//! byte-for-byte what a directly built simulator handed a freshly
//! synthesized plan does, and repeating a request synthesizes nothing
//! new.
//!
//! One test in its own binary, so no concurrent test can move the
//! process-wide synthesis counter between the two rounds.

use nvp_analysis::{synthesize, Cfg, CkptOptions};
use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::Energy;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_sim::{BackupScope, CheckpointPlan, ExecEngine, ExecMode, SystemConfig, SystemSim};
use nvp_trace::{CounterSink, JsonlBufSink, TeeSink};
use std::sync::Arc;

fn request(kernel: KernelId, mode: ExecMode) -> RunRequest {
    RunRequest {
        kernel,
        img: 12,
        frames: 2,
        trace_seconds: 0.3,
        scope: BackupScope::LiveDirty,
        mode,
        engine: ExecEngine::Compiled,
        record_outputs: true,
        ..RunRequest::default()
    }
}

/// Runs `req` through the catalog, returning its report, JSONL trace and
/// trace summary.
fn via_catalog(req: &RunRequest) -> (nvp_sim::RunReport, String, nvp_trace::TraceSummary) {
    let (mut jsonl, mut counter) = (JsonlBufSink::new(), CounterSink::new());
    let report = catalog::simulate_traced(
        req,
        &mut TeeSink {
            a: &mut jsonl,
            b: &mut counter,
        },
    );
    (report, jsonl.into_string(), counter.summary)
}

/// The placement `nvp_analysis::synthesize` finds for `spec`, as a plan.
fn synthesized(spec: &KernelSpec) -> CheckpointPlan {
    let opts = CkptOptions::for_kernel(spec);
    let placement = synthesize(&spec.program, &Cfg::build(&spec.program), &opts).synthesized;
    CheckpointPlan {
        checkpoints: placement.checkpoints.iter().map(|&(pc, _)| pc).collect(),
        masks: placement.masks,
    }
}

/// Runs `req` on a directly built simulator handed its own freshly
/// synthesized plan, bypassing every catalog cache but the frames and
/// trace.
fn self_synthesized(req: &RunRequest) -> (nvp_sim::RunReport, String, nvp_trace::TraceSummary) {
    let (w, h) = dims(req.kernel, req.img);
    let spec = req.kernel.spec(w, h);
    let frames = catalog::frames_for(req.kernel, req.img, req.frames);
    let trace = catalog::synth_profile_member(req.profile, req.trace_seconds, req.member);
    let cfg = SystemConfig {
        capacitor_capacity: Energy::from_nj(req.cap_nj as f64),
        backup_scope: req.scope,
        record_outputs: req.record_outputs,
        seed: req.seed,
        exec_engine: req.engine,
        checkpoint_plan: Some(Arc::new(synthesized(&spec))),
        ..Default::default()
    };
    let sim = SystemSim::new(spec, frames, req.mode, cfg);
    let (mut jsonl, mut counter) = (JsonlBufSink::new(), CounterSink::new());
    let report = sim.run_traced(
        &trace,
        &mut TeeSink {
            a: &mut jsonl,
            b: &mut counter,
        },
    );
    (report, jsonl.into_string(), counter.summary)
}

#[test]
fn cached_live_dirty_plans_match_self_synthesized_runs() {
    let cases: Vec<RunRequest> = KernelId::QUALITY_TRIO
        .iter()
        .flat_map(|&k| [ExecMode::Precise, ExecMode::Incidental(2, 8)].map(|m| request(k, m)))
        .collect();
    for req in &cases {
        let (report, jsonl, summary) = via_catalog(req);
        let (want_report, want_jsonl, want_summary) = self_synthesized(req);
        let what = format!("{} {:?}", req.kernel.name(), req.mode);
        assert!(report.backups > 0, "{what}: the trace must force backups");
        assert_eq!(report, want_report, "{what}: report differs");
        assert_eq!(jsonl, want_jsonl, "{what}: trace bytes differ");
        assert_eq!(summary, want_summary, "{what}: trace summary differs");
    }
    // One synthesis per kernel × dimensions; a second round is all hits.
    let synthesized = catalog::plan_count();
    assert_eq!(synthesized, KernelId::QUALITY_TRIO.len() as u64);
    for req in &cases {
        via_catalog(req);
    }
    assert_eq!(
        catalog::plan_count(),
        synthesized,
        "repeats must not synthesize"
    );
    let stats = catalog::plan_cache_stats();
    assert_eq!(stats.entries, KernelId::QUALITY_TRIO.len());
    assert_eq!(stats.hits, 2 * cases.len() as u64 - synthesized);
}
