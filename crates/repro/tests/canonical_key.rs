//! The run memo's canonical key is sound: the two spellings it folds
//! together are the same run. `Fixed` at full precision and `Precise`
//! give equal reports and byte-equal traces for every kernel, profile,
//! engine and backup scope, and so do a `LiveDirty` run without a plan
//! and one that names the cached plan it would take. What the key does
//! not fold stays apart: the incidental data-age deadline is part of it.

use nvp_isa::ApproxConfig;
use nvp_kernels::KernelId;
use nvp_nvm::RetentionPolicy;
use nvp_power::synth::WatchProfile;
use nvp_power::Ticks;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_sim::{BackupScope, ExecEngine, ExecMode, RunReport};
use nvp_trace::JsonlBufSink;

const SCOPES: [BackupScope; 3] = [
    BackupScope::FullState,
    BackupScope::LiveOnly,
    BackupScope::LiveDirty,
];

fn traced(req: &RunRequest) -> (RunReport, String) {
    let mut sink = JsonlBufSink::new();
    let report = catalog::simulate_traced(req, &mut sink);
    (report, sink.into_string())
}

/// Runs both spellings and asserts they are one run.
fn assert_same_run(a: &RunRequest, b: &RunRequest) -> RunReport {
    let (report_a, trace_a) = traced(a);
    let (report_b, trace_b) = traced(b);
    assert_eq!(report_a, report_b, "{a:?}");
    assert!(trace_a == trace_b, "traces differ: {a:?}");
    report_a
}

fn sweep(engine: ExecEngine) {
    let (mut backups, mut frames) = (0, 0);
    for kernel in KernelId::ALL {
        for profile in WatchProfile::ALL {
            for scope in SCOPES {
                let req = RunRequest {
                    kernel,
                    img: 8,
                    frames: 2,
                    trace_seconds: 0.5,
                    profile,
                    scope,
                    engine,
                    record_outputs: true,
                    ..RunRequest::default()
                };
                let precise = RunRequest {
                    mode: ExecMode::Precise,
                    ..req.clone()
                };
                let fixed = RunRequest {
                    mode: ExecMode::Fixed(8),
                    ..req.clone()
                };
                let report = assert_same_run(&fixed, &precise);
                backups += report.backups;
                frames += report.committed.len();
                if scope == BackupScope::LiveDirty {
                    let (w, h) = dims(kernel, req.img);
                    let planned = RunRequest {
                        checkpoint_plan: Some(catalog::plan_for(kernel, w, h)),
                        ..precise.clone()
                    };
                    assert_same_run(&planned, &precise);
                }
            }
        }
    }
    assert!(backups > 0, "no run backed up");
    assert!(frames > 0, "no run committed a frame");
}

#[test]
fn full_precision_fixed_is_precise_on_the_step_engine() {
    assert_eq!(ApproxConfig::fixed(8), ApproxConfig::default());
    sweep(ExecEngine::Step);
}

#[test]
fn full_precision_fixed_is_precise_on_the_compiled_engine() {
    sweep(ExecEngine::Compiled);
}

/// Two requests that differ only in `staleness` are two memo keys and,
/// on `ablate_buffer`'s shape (median on P5 at quick scale, incidental
/// 2–8, linear retention), two different runs: the 30 ms deadline rolls
/// forward where the default 2 s one resumes in place.
#[test]
fn staleness_separates_memo_keys_and_runs() {
    let with_deadline = |staleness| RunRequest {
        kernel: KernelId::Median,
        img: 12,
        frames: 2,
        trace_seconds: 1.5,
        profile: WatchProfile::P5,
        mode: ExecMode::Incidental(2, 8),
        backup_policy: RetentionPolicy::Linear,
        staleness,
        ..RunRequest::default()
    };
    let default = RunRequest::default().staleness;
    assert_eq!(default, Ticks(20_000));
    let (tight, loose) = (with_deadline(Ticks(300)), with_deadline(default));
    assert_ne!(tight, loose, "staleness must be part of the memo key");
    let (tight, loose) = (catalog::simulate(&tight), catalog::simulate(&loose));
    assert!(tight.merges > 0, "the 30 ms deadline must roll forward");
    assert_ne!(tight, loose);
}
