//! Cross-crate integration tests: substrates wired together the way the
//! reproduction harness uses them.

use incidental::{PragmaSet, QualityReport};
use nvp_isa::ApproxConfig;
use nvp_kernels::{quality, KernelId};
use nvp_nvm::RetentionPolicy;
use nvp_power::outage::OutageStats;
use nvp_power::synth::WatchProfile;
use nvp_power::{Power, PowerProfile, Ticks};
use nvp_repro::catalog::{self, RunRequest};
use nvp_sim::{run_fixed, ExecMode, SystemConfig, SystemSim};

/// `kernel` at `img` under `profile` for `seconds`, precise, outputs not
/// recorded, every other field [`RunRequest::default`]'s.
fn request(kernel: KernelId, img: usize, profile: WatchProfile, seconds: f64) -> RunRequest {
    RunRequest {
        kernel,
        img,
        frames: 1,
        trace_seconds: seconds,
        profile,
        ..RunRequest::default()
    }
}

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
/// (A constant supply is not a catalog trace, so the simulator is built
/// here.)
#[test]
fn steady_power_is_lossless_end_to_end() {
    for (id, power_uw) in [
        (KernelId::Sobel, 700.0),
        (KernelId::Tiff2Rgba, 700.0),
        (KernelId::Fft, 700.0),
        (KernelId::Tiff2Bw, 600.0),
    ] {
        let (w, h) = match id {
            KernelId::Fft => (8, 4),
            _ => (8, 8),
        };
        let frames: Vec<Vec<i32>> = (0..2).map(|i| id.make_input(w, h, 0xF00D + i)).collect();
        let profile = PowerProfile::constant(Power::from_uw(power_uw), Ticks::from_seconds(4.0));
        let sim = SystemSim::new(
            id.spec(w, h),
            frames.clone(),
            ExecMode::Precise,
            SystemConfig::default(),
        );
        let rep = sim.run(&profile);
        assert!(rep.frames_committed >= 1, "{id}");
        let quality = QualityReport::score(id, w, h, &frames, &rep);
        assert_eq!(quality.mean_mse(), 0.0, "{id} lost quality");
    }
}

/// The pragma pipeline: Figure 8 text → lowered mode → simulated run.
#[test]
fn figure8_pragmas_drive_an_incidental_run() {
    let pragmas = PragmaSet::parse([
        "#pragma ac incidental (src, 2, 8, linear);",
        "#pragma ac incidental_recover_from (frame);",
    ])
    .unwrap();
    let (mode, backup_policy) = pragmas.lower();
    assert!(matches!(mode, ExecMode::Incidental(..)));
    let rep = catalog::simulate(&RunRequest {
        frames: 3,
        mode,
        backup_policy,
        ..request(KernelId::Median, 10, WatchProfile::P1, 1.5)
    });
    assert!(rep.forward_progress > 0);
    // The watch profile must interrupt execution.
    assert!(rep.backups > 0);
}

/// Outage statistics drive retention failures: the LSB (shortest
/// retention) must fail at least as often as the MSB, and full coverage of
/// the MSB's retention means zero MSB failures.
#[test]
fn outage_profile_bounds_msb_failures() {
    let req = RunRequest {
        input_seed: 1,
        backup_policy: RetentionPolicy::Linear,
        ..request(KernelId::Median, 10, WatchProfile::P2, 3.0)
    };
    let profile = catalog::synth_profile(req.profile, req.trace_seconds);
    let stats = OutageStats::extract(&profile);
    let msb_retention = RetentionPolicy::Linear.retention_ticks(8);
    let covered = stats.covered_by(msb_retention);

    let rep = catalog::simulate(&req);
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
    let req = RunRequest {
        input_seed: 5,
        mode: ExecMode::Dynamic(1, 8),
        frames_limit: Some(1),
        record_outputs: true,
        ..request(KernelId::Median, 12, WatchProfile::P1, 2.0)
    };
    let id = req.kernel;
    let (w, h) = nvp_repro::dims(id, req.img);
    let input = &req.inputs()[0];
    let golden = id.golden(input, w, h);

    let mse_1 = quality::mse(
        &golden,
        &run_fixed(&id.spec(w, h), input, ApproxConfig::fixed(1), 3),
    );
    let rep = catalog::simulate(&req);
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
    let fp = |max_simd_lanes: u8| {
        catalog::simulate(&RunRequest {
            frames: 3,
            input_seed: 0,
            mode: ExecMode::Incidental(2, 8),
            max_simd_lanes,
            ..request(KernelId::Tiff2Bw, 10, WatchProfile::P1, 2.0)
        })
        .forward_progress
    };
    let fp1 = fp(1);
    let fp4 = fp(4);
    assert!(fp4 > fp1, "4-lane {fp4} must beat 1-lane {fp1}");
}

/// Wait-compute and NVP agree on the energy model: with strong steady
/// power both complete frames. (A constant supply is not a catalog
/// trace, so the simulator is built here.)
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
