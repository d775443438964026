//! End-to-end reproduction smoke tests: the headline claims of the paper
//! must hold (directionally) at quick experiment scale.

use incidental::prelude::*;
use nvp_sim::{instructions_per_frame, SystemConfig, SystemSim, WaitComputeSim};

fn frames_for(id: KernelId, w: usize, h: usize, n: usize) -> Vec<Vec<i32>> {
    (0..n).map(|i| id.make_input(w, h, 77 + i as u64)).collect()
}

/// Abstract / Section 8.6: incidental computing delivers a multi-x
/// forward-progress gain over the precise NVP.
#[test]
fn incidental_beats_precise_by_a_wide_margin() {
    let id = KernelId::Median;
    let (w, h) = (12, 12);
    let profile = WatchProfile::P1.synthesize_seconds(2.5);
    let frames = frames_for(id, w, h, 3);

    let mut cfg = SystemConfig {
        record_outputs: false,
        ..Default::default()
    };
    let base = SystemSim::new(
        id.spec(w, h),
        frames.clone(),
        ExecMode::Precise,
        cfg.clone(),
    )
    .run(&profile);

    cfg.backup_policy = RetentionPolicy::Linear;
    let inc = SystemSim::new(id.spec(w, h), frames, ExecMode::Incidental(2, 8), cfg).run(&profile);

    let gain = inc.forward_progress as f64 / base.forward_progress.max(1) as f64;
    assert!(gain > 1.5, "incidental gain only {gain:.2}x");
}

/// Section 2.2: the NVP outperforms wait-compute on harvested power.
#[test]
fn nvp_beats_waitcompute() {
    let id = KernelId::Tiff2Bw;
    let (w, h) = (12, 12);
    let spec = id.spec(w, h);
    let input = id.make_input(w, h, 1);
    let frame_instr = instructions_per_frame(&spec, &input);
    let profile = WatchProfile::P1.synthesize_seconds(4.0);

    let wc = WaitComputeSim::new(frame_instr).run(&profile);
    let cfg = SystemConfig {
        record_outputs: false,
        ..Default::default()
    };
    let nvp = SystemSim::new(spec, vec![input], ExecMode::Precise, cfg).run(&profile);
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
    let id = KernelId::Median;
    let (w, h) = (10, 10);
    let profile = WatchProfile::P2.synthesize_seconds(2.5);
    let frames = frames_for(id, w, h, 2);
    let fp = |policy: RetentionPolicy| {
        let cfg = SystemConfig {
            record_outputs: false,
            backup_policy: policy,
            ..Default::default()
        };
        SystemSim::new(id.spec(w, h), frames.clone(), ExecMode::Precise, cfg)
            .run(&profile)
            .forward_progress
    };
    let baseline = fp(RetentionPolicy::one_day());
    for policy in RetentionPolicy::SHAPED {
        let shaped = fp(policy);
        assert!(shaped > baseline, "{policy}: {shaped} vs 1-day {baseline}");
    }
}

/// Figure 15: 1-bit execution makes substantially more forward progress
/// than 8-bit execution.
#[test]
fn narrow_bits_double_progress() {
    let id = KernelId::Median;
    let (w, h) = (10, 10);
    let profile = WatchProfile::P3.synthesize_seconds(2.5);
    let frames = frames_for(id, w, h, 2);
    let fp = |bits: u8| {
        let cfg = SystemConfig {
            record_outputs: false,
            ..Default::default()
        };
        SystemSim::new(id.spec(w, h), frames.clone(), ExecMode::Fixed(bits), cfg)
            .run(&profile)
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
    use nvp_nvm::MergeMode;
    let id = KernelId::Median;
    let (w, h) = (12, 12);
    let input = id.make_input(w, h, 9);
    let profile = WatchProfile::P1.synthesize_seconds(2.0);
    let out =
        incidental::recompute_and_combine(id, w, h, &input, 2, 5, MergeMode::HigherBits, &profile);
    let first = out.psnr_after_pass[0];
    let last = out.psnr_after_pass[4];
    assert!(
        last > first || last.is_infinite(),
        "passes must improve PSNR: {first:.1} -> {last:.1}"
    );
}

/// Determinism: identical configuration and trace produce identical
/// reports (the whole stack is seeded).
#[test]
fn end_to_end_runs_are_deterministic() {
    let id = KernelId::Sobel;
    let profile = WatchProfile::P4.synthesize_seconds(1.0);
    let run = || {
        let cfg = SystemConfig {
            backup_policy: RetentionPolicy::Log,
            ..Default::default()
        };
        SystemSim::new(
            id.spec(10, 10),
            frames_for(id, 10, 10, 2),
            ExecMode::Incidental(2, 8),
            cfg,
        )
        .run(&profile)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
