//! End-to-end reproduction smoke tests: the headline claims of the paper
//! must hold (directionally) at quick experiment scale.

use nvp_kernels::KernelId;
use nvp_nvm::{MergeMode, RetentionPolicy};
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::experiments::recompute;
use nvp_sim::{instructions_per_frame, ExecMode, WaitComputeSim};

/// `kernel` at `img` on `frames` inputs seeded from 77 under `profile`
/// for `seconds`, precise, outputs not recorded.
fn request(
    kernel: KernelId,
    img: usize,
    frames: usize,
    profile: WatchProfile,
    seconds: f64,
) -> RunRequest {
    RunRequest {
        kernel,
        img,
        frames,
        input_seed: 77,
        trace_seconds: seconds,
        profile,
        ..RunRequest::default()
    }
}

/// Abstract / Section 8.6: incidental computing delivers a multi-x
/// forward-progress gain over the precise NVP.
#[test]
fn incidental_beats_precise_by_a_wide_margin() {
    let precise = request(KernelId::Median, 12, 3, WatchProfile::P1, 2.5);
    let base = catalog::simulate(&precise);
    let inc = catalog::simulate(&RunRequest {
        mode: ExecMode::Incidental(2, 8),
        backup_policy: RetentionPolicy::Linear,
        ..precise
    });
    let gain = inc.forward_progress as f64 / base.forward_progress.max(1) as f64;
    assert!(gain > 1.5, "incidental gain only {gain:.2}x");
}

/// Section 2.2: the NVP outperforms wait-compute on harvested power.
#[test]
fn nvp_beats_waitcompute() {
    let req = RunRequest {
        input_seed: 1,
        ..request(KernelId::Tiff2Bw, 12, 1, WatchProfile::P1, 4.0)
    };
    let (w, h) = nvp_repro::dims(req.kernel, req.img);
    let spec = catalog::cached_spec(req.kernel, w, h);
    let frame_instr = instructions_per_frame(&spec, &req.inputs()[0]);
    let profile = catalog::synth_profile(req.profile, req.trace_seconds);

    let wc = WaitComputeSim::new(frame_instr).run(&profile);
    let nvp = catalog::simulate(&req);
    assert!(
        nvp.forward_progress > wc.forward_progress,
        "NVP {} vs wait-compute {}",
        nvp.forward_progress,
        wc.forward_progress
    );
}

/// Section 3.2 / Figure 25: shaped retention backup frees energy —
/// forward progress rises vs the 1-day uniform baseline.
#[test]
fn retention_shaping_improves_progress() {
    let fp = |backup_policy: RetentionPolicy| {
        catalog::simulate(&RunRequest {
            backup_policy,
            ..request(KernelId::Median, 10, 2, WatchProfile::P2, 2.5)
        })
        .forward_progress
    };
    let baseline = fp(RetentionPolicy::OneDay);
    for policy in RetentionPolicy::SHAPED {
        let shaped = fp(policy);
        assert!(shaped > baseline, "{policy}: {shaped} vs 1-day {baseline}");
    }
}

/// Figure 15: 1-bit execution makes substantially more forward progress
/// than 8-bit execution.
#[test]
fn narrow_bits_double_progress() {
    let fp = |bits: u8| {
        catalog::simulate(&RunRequest {
            mode: ExecMode::Fixed(bits),
            ..request(KernelId::Median, 10, 2, WatchProfile::P3, 2.5)
        })
        .forward_progress
    };
    let fp8 = fp(8);
    let fp1 = fp(1);
    assert!(fp1 as f64 > 1.5 * fp8 as f64, "1-bit {fp1} vs 8-bit {fp8}");
}

/// Section 8.5 / Figure 27: recompute-and-combine recovers quality within
/// a handful of passes.
#[test]
fn recomputation_recovers_quality() {
    let frame = RunRequest {
        input_seed: 9,
        mode: ExecMode::Dynamic(2, 8),
        ..request(KernelId::Median, 12, 1, WatchProfile::P1, 2.0)
    };
    let out = recompute(&frame, 5, MergeMode::HigherBits);
    let first = out.psnr_after_pass[0];
    let last = out.psnr_after_pass[4];
    assert!(
        last > first || last.is_infinite(),
        "passes must improve PSNR: {first:.1} -> {last:.1}"
    );
}

/// Determinism: identical requests produce identical reports (the whole
/// stack is seeded).
#[test]
fn end_to_end_runs_are_deterministic() {
    let req = RunRequest {
        mode: ExecMode::Incidental(2, 8),
        backup_policy: RetentionPolicy::Log,
        record_outputs: true,
        ..request(KernelId::Sobel, 10, 2, WatchProfile::P4, 1.0)
    };
    let a = catalog::simulate(&req);
    let b = catalog::simulate(&req);
    assert_eq!(a, b);
}
