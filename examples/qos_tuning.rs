//! QoS-targeted tuning: the paper's Section 8.6 debug-test-modify loop.
//!
//! Given a quality target (PSNR floor), find the lowest `minbits` whose
//! incidental execution still meets it, beside the paper's published
//! Table 2 operating points.
//!
//! ```text
//! cargo run --release -p nvp-repro --example qos_tuning
//! ```

use incidental::{table2, QosPolicy, QosTarget, QualityReport};
use nvp_kernels::KernelId;
use nvp_nvm::RetentionPolicy;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;

fn main() {
    println!("paper's Table 2 policies:");
    for p in table2() {
        println!("  {p}");
    }

    // "Decide the minbits to make the QoS above the QoS threshold, then
    // reduce the minbits": walk down from full precision while median on
    // profile 1 still meets a 30 dB floor.
    let target = 30.0;
    println!("\nminbits sweep (median, profile 1, {target:.0} dB floor):");
    println!("  minbits   PSNR (dB)   forward progress");
    let mut tuned = None;
    for minbits in (1..=8).rev() {
        let policy = QosPolicy {
            kernel: KernelId::Median,
            target: QosTarget::PsnrDb(target),
            minbits,
            recompute_passes: 0,
            backup: RetentionPolicy::Linear,
        };
        let (mode, backup_policy) = policy.pragmas().lower();
        let req = RunRequest {
            kernel: policy.kernel,
            img: 12,
            frames: 3,
            trace_seconds: 3.0,
            profile: WatchProfile::P1,
            mode,
            backup_policy,
            record_outputs: true,
            ..RunRequest::default()
        };
        let report = catalog::simulate(&req);
        let (w, h) = dims(req.kernel, req.img);
        let quality = QualityReport::score(req.kernel, w, h, &req.inputs(), &report);
        let psnr = quality.mean_psnr();
        println!(
            "  {:>7}   {:>9.1}   {:>16}",
            minbits,
            psnr.min(99.9),
            report.forward_progress
        );
        if quality.frames.is_empty() || psnr < target {
            break;
        }
        tuned = Some(policy);
    }
    match tuned {
        Some(policy) => println!("\ntuned: {policy}"),
        None => println!("\neven full precision misses {target:.0} dB on this trace"),
    }
}
