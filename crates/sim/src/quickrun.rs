//! Power-free fixed-configuration kernel runs.
//!
//! The bitwidth-vs-quality studies (Figures 11–14) evaluate "fixed-known-
//! correct bit approaches" with no power interruptions; this helper runs a
//! kernel once under an [`ApproxConfig`] and returns the output frame.

use nvp_isa::{mem_truncate, ApproxConfig, Vm};
use nvp_kernels::KernelSpec;

/// Instruction budget for one uninterrupted frame; kernel programs finish
/// far below it, so exceeding it means a runaway program.
const HALT_BUDGET: u64 = 200_000_000;

/// Builds a VM for `spec` with its memory image laid out and `input` loaded
/// into lane 0, then runs it to halt and returns `(vm, instructions)`.
fn run_prepared(spec: &KernelSpec, input: &[i32], prepare: impl FnOnce(&mut Vm)) -> (Vm, u64) {
    let mut vm = Vm::new(spec.program.clone(), spec.mem_words);
    *vm.mem_mut() = spec.build_memory();
    spec.load_input(vm.mem_mut(), 0, input);
    prepare(&mut vm);
    let instrs = vm
        .run_to_halt(HALT_BUDGET)
        .expect("kernel program must halt");
    (vm, instrs)
}

/// Runs `spec` on `input` at the given approximation configuration and
/// returns the lane-0 output frame.
///
/// When the configuration reduces memory bits, the input frame is stored
/// truncated (the paper's reduced-quality memory semantics: "non-preserved
/// bits … are truncated").
///
/// # Panics
///
/// Panics if the input length mismatches the spec or the program faults —
/// kernel programs are trusted not to fault on in-range inputs.
pub fn run_fixed(spec: &KernelSpec, input: &[i32], cfg: ApproxConfig, noise_seed: u64) -> Vec<i32> {
    let mem_bits = cfg.effective_mem_bits(0);
    let stored: Vec<i32> = input.iter().map(|&v| mem_truncate(v, mem_bits)).collect();
    let (vm, _) = run_prepared(spec, &stored, |vm| {
        vm.set_approx(cfg);
        vm.seed_noise(noise_seed);
    });
    spec.read_output(vm.mem(), 0)
}

/// Instruction count of one full-precision frame of `spec` — used to size
/// the wait-compute energy-storage device and the frame-time table
/// (Section 7).
pub fn instructions_per_frame(spec: &KernelSpec, input: &[i32]) -> u64 {
    run_prepared(spec, input, |_| {}).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_kernels::quality::{mse, psnr};
    use nvp_kernels::KernelId;

    #[test]
    fn full_precision_matches_golden() {
        for id in [KernelId::Sobel, KernelId::Median, KernelId::SusanEdges] {
            let spec = id.spec(12, 12);
            let input = id.make_input(12, 12, 3);
            let out = run_fixed(&spec, &input, ApproxConfig::default(), 1);
            assert_eq!(out, id.golden(&input, 12, 12), "{id}");
        }
    }

    #[test]
    fn quality_degrades_with_fewer_alu_bits() {
        let id = KernelId::Median;
        let spec = id.spec(16, 16);
        let input = id.make_input(16, 16, 5);
        let golden = id.golden(&input, 16, 16);
        let m7 = mse(
            &golden,
            &run_fixed(&spec, &input, ApproxConfig::alu_only(7), 2),
        );
        let m1 = mse(
            &golden,
            &run_fixed(&spec, &input, ApproxConfig::alu_only(1), 2),
        );
        assert!(m1 > m7, "1-bit MSE {m1} should exceed 7-bit {m7}");
    }

    #[test]
    fn sobel_less_tolerant_than_median() {
        // Section 8.1's key contrast at 4 bits.
        let (w, h) = (24, 24);
        let psnr_of = |id: KernelId| {
            let spec = id.spec(w, h);
            let input = id.make_input(w, h, 9);
            let golden = id.golden(&input, w, h);
            let out = run_fixed(&spec, &input, ApproxConfig::alu_only(4), 3);
            psnr(&golden, &out)
        };
        let ps = psnr_of(KernelId::Sobel);
        let pm = psnr_of(KernelId::Median);
        assert!(pm > ps, "median {pm:.1} dB should beat sobel {ps:.1} dB");
    }

    #[test]
    fn memory_truncation_truncates_input() {
        let id = KernelId::Tiff2Bw;
        let spec = id.spec(8, 8);
        let input = id.make_input(8, 8, 1);
        let out = run_fixed(&spec, &input, ApproxConfig::mem_only(2), 1);
        // Reference computed on truncated inputs, truncated at store.
        let trunc: Vec<i32> = input.iter().map(|&v| mem_truncate(v, 2)).collect();
        let expect: Vec<i32> = id
            .golden(&trunc, 8, 8)
            .iter()
            .map(|&v| mem_truncate(v, 2))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn instruction_count_scales_with_frame_area() {
        let id = KernelId::Sobel;
        let small = instructions_per_frame(&id.spec(8, 8), &id.make_input(8, 8, 1));
        let large = instructions_per_frame(&id.spec(16, 16), &id.make_input(16, 16, 1));
        assert!(large > 3 * small, "large {large} vs small {small}");
    }
}
