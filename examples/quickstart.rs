//! Quickstart: run a median-filter workload on an incidental NVP under a
//! wrist-harvester power trace and compare it with a precise NVP.
//!
//! ```text
//! cargo run --release -p nvp-repro --example quickstart
//! ```

use incidental::{PragmaSet, QualityReport};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_sim::RunReport;

fn main() {
    // 1. A harvested-power trace: profile 1 of the paper's Figure 2
    //    ("watch in daily life"), 5 seconds at 0.1 ms resolution.
    let profile = catalog::synth_profile(WatchProfile::P1, 5.0);
    println!(
        "power trace: {} samples, mean {:.1} µW",
        profile.len(),
        profile.mean().as_uw()
    );

    // 2. A conventional precise NVP baseline: four 16×16 frames.
    let precise = RunRequest {
        kernel: KernelId::Median,
        img: 16,
        frames: 4,
        trace_seconds: 5.0,
        profile: WatchProfile::P1,
        record_outputs: true,
        ..RunRequest::default()
    };
    let (base, base_quality) = run(&precise);

    // 3. The incidental NVP, annotated exactly like the paper's Figure 8:
    //    the frame buffer may run at 2–8 bits under a linear retention
    //    policy, and recovery rolls forward to the newest frame.
    let pragmas = PragmaSet::parse([
        "#pragma ac incidental (src, 2, 8, linear);",
        "#pragma ac incidental_recover_from (frame);",
    ])
    .expect("pragmas parse");
    let (mode, backup_policy) = pragmas.lower();
    let (inc, inc_quality) = run(&RunRequest {
        mode,
        backup_policy,
        ..precise
    });

    println!("\n                      precise      incidental");
    println!(
        "forward progress   {:>10}    {:>10}   ({:.2}x)",
        base.forward_progress,
        inc.forward_progress,
        inc.forward_progress as f64 / base.forward_progress.max(1) as f64
    );
    println!(
        "frames committed   {:>10}    {:>10}",
        base.frames_committed,
        inc.frames_committed + inc.incidental_frames
    );
    println!(
        "backups            {:>10}    {:>10}",
        base.backups, inc.backups
    );
    println!(
        "mean output PSNR   {:>9.1}dB   {:>9.1}dB",
        base_quality.mean_psnr().min(99.9),
        inc_quality.mean_psnr().min(99.9)
    );
    println!(
        "\nincidental lanes committed {} extra (reduced-precision) frames",
        inc.incidental_frames
    );
}

/// Simulates `req` and scores its committed frames against the golden
/// outputs of its inputs.
fn run(req: &RunRequest) -> (RunReport, QualityReport) {
    let report = catalog::simulate(req);
    let (w, h) = dims(req.kernel, req.img);
    let quality = QualityReport::score(req.kernel, w, h, &req.inputs(), &report);
    (report, quality)
}
