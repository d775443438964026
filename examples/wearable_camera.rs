//! Wearable battery-free camera: the paper's motivating scenario.
//!
//! A wrist-worn device buffers image frames faster than its harvested
//! energy can process them. This example runs SUSAN edge detection over
//! the buffered stream three ways — wait-compute MCU, precise NVP, and
//! incidental NVP — and reports frame throughput, data abandonment, and
//! the quality of the incidentally-computed frames.
//!
//! ```text
//! cargo run --release -p nvp-repro --example wearable_camera
//! ```

use incidental::{policy_for, QualityReport};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_sim::{instructions_per_frame, WaitComputeSim};

fn main() {
    let id = KernelId::SusanEdges;
    let precise = RunRequest {
        kernel: id,
        img: 16,
        frames: 6,
        trace_seconds: 8.0,
        profile: WatchProfile::P2,
        record_outputs: true,
        ..RunRequest::default()
    };
    let (w, h) = dims(id, precise.img);
    let inputs = precise.inputs();
    let profile = catalog::synth_profile(precise.profile, precise.trace_seconds);
    let frame_instr = instructions_per_frame(&catalog::cached_spec(id, w, h), &inputs[0]);
    println!(
        "susan.edges {w}x{h}: {frame_instr} instructions per frame, trace mean {:.1} µW\n",
        profile.mean().as_uw()
    );

    // Conventional wait-compute: charge a big ESD, then run one frame.
    let wc = WaitComputeSim::new(frame_instr).run(&profile);
    println!(
        "wait-compute MCU : {:>3} frames ({})",
        wc.frames_completed,
        wc.seconds_per_frame
            .map(|s| format!("{s:.2} s/frame"))
            .unwrap_or_else(|| "starved".into()),
    );

    // Precise NVP: compute-through with roll-back recovery.
    let base = catalog::simulate(&precise);
    println!(
        "precise NVP      : {:>3} frames, {} backups",
        base.frames_committed, base.backups
    );

    // Incidental NVP tuned per Table 2 (susan is unlisted: default linear
    // backup, minbits 4).
    let (mode, backup_policy) = policy_for(id).pragmas().lower();
    let inc = catalog::simulate(&RunRequest {
        mode,
        backup_policy,
        ..precise
    });
    let inc_frames = inc.frames_committed + inc.incidental_frames;
    println!(
        "incidental NVP   : {:>3} frames ({} full-quality + {} incidental), {} abandoned",
        inc_frames, inc.frames_committed, inc.incidental_frames, inc.frames_abandoned,
    );

    // Quality split: the live lane is precise; incidental lanes trade
    // fidelity for coverage.
    let quality = QualityReport::score(id, w, h, &inputs, &inc);
    let live: Vec<f64> = quality.lane_frames(false).map(|f| f.psnr).collect();
    let old: Vec<f64> = quality.lane_frames(true).map(|f| f.psnr).collect();
    println!(
        "\nlive-lane PSNR  : {:.1} dB over {} frames",
        mean(&live).min(99.9),
        live.len()
    );
    println!(
        "incidental PSNR : {:.1} dB over {} frames",
        mean(&old).min(99.9),
        old.len()
    );
    println!(
        "\ncamera verdict: incidental computing turned {} would-be-abandoned captures into usable (if noisy) detections",
        old.len()
    );
}

fn mean(v: &[f64]) -> f64 {
    let finite: Vec<f64> = v.iter().copied().filter(|p| p.is_finite()).collect();
    if finite.is_empty() {
        return if v.is_empty() { 0.0 } else { f64::INFINITY };
    }
    finite.iter().sum::<f64>() / finite.len() as f64
}
