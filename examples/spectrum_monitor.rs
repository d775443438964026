//! Water-quality / gas-sensing spectrum monitor.
//!
//! The paper's Section 2.1 names spectrum analysis (FFT) as a dominant
//! post-sensing workload for gas and water-quality sensors. This example
//! runs the fixed-point FFT testbench on an incidental NVP, then uses
//! recompute-and-combine to sharpen an "interesting" spectrum — the
//! workflow the `recompute`/`assemble` pragmas exist for.
//!
//! ```text
//! cargo run --release -p nvp-repro --example spectrum_monitor
//! ```

use incidental::PragmaSet;
use nvp_kernels::quality::psnr_raw;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_repro::experiments::recompute;
use nvp_sim::ExecMode;

fn main() {
    let id = KernelId::Fft;
    let img = 11; // a 128-point FFT: 16 × 8 words

    // Run the sensing pipeline with aggressive incidental settings: the
    // monitor cares about timeliness first, fidelity second.
    let pragmas = PragmaSet::parse([
        "#pragma ac incidental (spectrum, 2, 8, linear);",
        "#pragma ac incidental_recover_from (frame);",
        "#pragma ac recompute (spectrum, 2);",
        "#pragma ac assemble (spectrum, higherbits);",
    ])
    .expect("pragmas parse");
    let (mode, backup_policy) = pragmas.lower();
    let monitor = RunRequest {
        kernel: id,
        img,
        frames: 4,
        trace_seconds: 6.0,
        profile: WatchProfile::P3,
        mode,
        backup_policy,
        ..RunRequest::default()
    };
    let rep = catalog::simulate(&monitor);
    println!(
        "spectra computed: {} full-precision + {} incidental ({} backups, {:.1}% on-time)",
        rep.frames_committed,
        rep.incidental_frames,
        rep.backups,
        rep.system_on_fraction() * 100.0
    );

    // An incidental spectrum flagged a suspicious peak: recompute it at
    // the `recompute` pragma's floor, merged as `assemble` says.
    let minbits = pragmas.recompute_minbits().expect("a recompute pragma");
    let flagged = RunRequest {
        input_seed: 0xF00D,
        mode: ExecMode::Dynamic(minbits, 8),
        ..monitor
    };
    let merge = pragmas.assemble_mode().expect("an assemble mode");
    let outcome = recompute(&flagged, 5, merge);
    println!("\nrecompute-and-combine on the flagged spectrum:");
    for (i, p) in outcome.psnr_after_pass.iter().enumerate() {
        println!("  after pass {}: {:>6.1} dB", i + 1, p.min(99.9));
    }
    let (w, h) = dims(id, img);
    let golden = id.golden(&flagged.inputs()[0], w, h);
    println!(
        "merged spectrum now at {:.1} dB vs the precise FFT",
        psnr_raw(&golden, &outcome.merged).min(99.9)
    );

    // Locate the dominant tone in the merged spectrum (the monitor's
    // actionable output).
    let n = w * h;
    let peak = (1..n / 2)
        .max_by_key(|&k| {
            let re = outcome.merged[k] as i64;
            let im = outcome.merged[n + k] as i64;
            re * re + im * im
        })
        .unwrap_or(0);
    println!("dominant spectral bin: {peak} (expected 3 for the synthetic 3-cycle tone)");
}
