//! Cross-crate integration tests: substrates wired together the way the
//! reproduction harness uses them.

use incidental::prelude::*;
use incidental::PragmaSet;
use nvp_isa::ApproxConfig;
use nvp_kernels::quality;
use nvp_power::outage::OutageStats;
use nvp_power::{Power, Ticks};
use nvp_sim::{run_fixed, ExecMode, SystemConfig, SystemSim};

/// Every kernel's ISA program reproduces its golden reference bit-for-bit
/// at full precision — the functional-simulator correctness contract.
#[test]
fn all_kernels_match_golden_at_full_precision() {
    for id in KernelId::ALL {
        let (w, h) = match id {
            KernelId::Fft => (16, 4),
            KernelId::JpegEncode => (16, 16),
            _ => (12, 12),
        };
        let spec = id.spec(w, h);
        let input = id.make_input(w, h, 0xC0FFEE);
        let out = run_fixed(&spec, &input, ApproxConfig::default(), 1);
        assert_eq!(out, id.golden(&input, w, h), "{id} diverged from golden");
    }
}

/// Steady power and roll-back recovery never lose quality, for any kernel.
#[test]
fn steady_power_is_lossless_end_to_end() {
    for id in [KernelId::Sobel, KernelId::Tiff2Rgba, KernelId::Fft] {
        let (w, h) = match id {
            KernelId::Fft => (8, 4),
            _ => (8, 8),
        };
        let exec = IncidentalExecutor::builder(id, w, h).frames(2).build();
        let profile = PowerProfile::constant(Power::from_uw(700.0), Ticks::from_seconds(4.0));
        let rep = exec.run(&profile);
        assert!(rep.progress.frames_committed >= 1, "{id}");
        assert_eq!(rep.quality.mean_mse(), 0.0, "{id} lost quality");
    }
}

/// The pragma pipeline: Figure 8 text → executor mode → simulated run.
#[test]
fn figure8_pragmas_drive_an_incidental_run() {
    let pragmas = PragmaSet::parse([
        "#pragma ac incidental (src, 2, 8, linear);",
        "#pragma ac incidental_recover_from (frame);",
    ])
    .unwrap();
    let exec = IncidentalExecutor::builder(KernelId::Median, 10, 10)
        .pragmas(pragmas)
        .frames(3)
        .build();
    assert!(matches!(exec.mode(), ExecMode::Incidental(..)));
    let profile = WatchProfile::P1.synthesize_seconds(1.5);
    let rep = exec.run(&profile);
    assert!(rep.progress.forward_progress > 0);
    // The watch profile must interrupt execution.
    assert!(rep.run.backups > 0);
}

/// Outage statistics drive retention failures: the LSB (shortest
/// retention) must fail at least as often as the MSB, and full coverage of
/// the MSB's retention means zero MSB failures.
#[test]
fn outage_profile_bounds_msb_failures() {
    let profile = WatchProfile::P2.synthesize_seconds(3.0);
    let stats = OutageStats::extract(&profile, Power::from_uw(33.0));
    let msb_retention = RetentionPolicy::Linear.retention_ticks(8);
    let covered = stats.covered_by(msb_retention);

    let id = KernelId::Median;
    let cfg = SystemConfig {
        backup_policy: RetentionPolicy::Linear,
        record_outputs: false,
        ..Default::default()
    };
    let sim = SystemSim::new(
        id.spec(10, 10),
        vec![id.make_input(10, 10, 1)],
        ExecMode::Precise,
        cfg,
    );
    let rep = sim.run(&profile);
    if covered >= 1.0 {
        assert_eq!(
            rep.retention_failures[7], 0,
            "MSB failed despite full coverage"
        );
    }
    assert!(rep.retention_failures[0] >= rep.retention_failures[7]);
}

/// Dynamic-bitwidth execution under real harvested power produces output
/// whose quality is no worse than the 1-bit fixed floor (its minbits).
#[test]
fn dynamic_quality_not_below_floor() {
    let id = KernelId::Median;
    let (w, h) = (12, 12);
    let input = id.make_input(w, h, 5);
    let golden = id.golden(&input, w, h);
    let spec = id.spec(w, h);

    let mse_1 = quality::mse(
        &golden,
        &run_fixed(&spec, &input, ApproxConfig::fixed(1), 3),
    );
    let profile = WatchProfile::P1.synthesize_seconds(2.0);
    let cfg = SystemConfig {
        frames_limit: Some(1),
        ..Default::default()
    };
    let rep = SystemSim::new(
        spec.clone(),
        vec![input.clone()],
        ExecMode::Dynamic(1, 8),
        cfg,
    )
    .run(&profile);
    let frame = rep.committed.first().expect("one frame commits");
    let mse_dyn = quality::mse(&golden, &frame.output);
    assert!(
        mse_dyn <= mse_1 * 1.5,
        "dynamic MSE {mse_dyn} should not be far above 1-bit fixed {mse_1}"
    );
}

/// The ablation knobs: narrower SIMD can only reduce incidental
/// throughput.
#[test]
fn ablation_knobs_bound_incidental_gain() {
    let id = KernelId::Tiff2Bw;
    let profile = WatchProfile::P1.synthesize_seconds(2.0);
    let frames: Vec<Vec<i32>> = (0..3).map(|i| id.make_input(10, 10, i)).collect();
    let fp = |lanes: u8| {
        let cfg = SystemConfig {
            max_simd_lanes: lanes,
            record_outputs: false,
            ..Default::default()
        };
        SystemSim::new(
            id.spec(10, 10),
            frames.clone(),
            ExecMode::Incidental(2, 8),
            cfg,
        )
        .run(&profile)
        .forward_progress
    };
    let fp1 = fp(1);
    let fp4 = fp(4);
    assert!(fp4 > fp1, "4-lane {fp4} must beat 1-lane {fp1}");
}

/// Wait-compute and NVP agree on the energy model: with strong steady
/// power both complete frames.
#[test]
fn waitcompute_and_nvp_complete_under_strong_power() {
    use nvp_sim::{instructions_per_frame, WaitComputeSim};
    let id = KernelId::Tiff2Bw;
    let spec = id.spec(8, 8);
    let input = id.make_input(8, 8, 1);
    let frame_instr = instructions_per_frame(&spec, &input);
    let profile = PowerProfile::constant(Power::from_uw(1500.0), Ticks::from_seconds(5.0));
    let wc = WaitComputeSim::new(frame_instr).run(&profile);
    assert!(wc.frames_completed > 0);
    let cfg = SystemConfig {
        record_outputs: false,
        ..Default::default()
    };
    let nvp = SystemSim::new(spec, vec![input], ExecMode::Precise, cfg).run(&profile);
    assert!(nvp.frames_committed > 0);
}
