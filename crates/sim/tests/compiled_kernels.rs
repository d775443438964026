//! Whole-kernel equivalence gate for the compiled table: every shipped
//! kernel, run to halt one instruction at a time through
//! [`CompiledProgram::step_vm`], must end in exactly the state
//! [`Vm::run_to_halt`] reaches — same output frame, counters, register
//! file, and memory values and precision tags in every version.
//!
//! Tables are compiled as the repro catalog compiles them, with
//! `nvp_analysis::compile_hints`, so the interval analysis' real in-range
//! proofs decide which accesses run with hoisted bounds checks.
//! [`ApproxConfig::default`] exercises the single-lane precise `fast`
//! bodies and [`ApproxConfig::fixed`] the approximate `gen` bodies.

use nvp_isa::{mem_truncate, ApproxConfig, CompiledProgram, Vm};
use nvp_kernels::{KernelId, KernelSpec};
use nvp_nvm::NUM_VERSIONS;

/// Instruction budget for the reference run; kernels halt far below it.
const HALT_BUDGET: u64 = 200_000_000;

/// A VM holding `spec`'s memory image and `input` (stored truncated to
/// the configuration's memory bits, as `nvp_sim::run_fixed` stores it),
/// configured and seeded for one frame.
fn prepared(spec: &KernelSpec, input: &[i32], cfg: ApproxConfig) -> Vm {
    let bits = cfg.effective_mem_bits(0);
    let stored: Vec<i32> = input.iter().map(|&v| mem_truncate(v, bits)).collect();
    let mut vm = Vm::new(spec.program.clone(), spec.mem_words);
    *vm.mem_mut() = spec.build_memory();
    spec.load_input(vm.mem_mut(), 0, &stored);
    vm.set_approx(cfg);
    vm.seed_noise(7);
    vm
}

/// Runs `vm` to halt through `compiled`, one instruction per dispatch.
fn run_compiled(compiled: &CompiledProgram, vm: &mut Vm) {
    while !vm.halted() {
        compiled.step_vm(vm).expect("kernel program must not fault");
    }
}

#[test]
fn every_kernel_runs_to_halt_identically_through_step_vm() {
    for id in KernelId::ALL {
        for (w, h) in [id.min_dims(), (16, 16)] {
            let spec = id.spec(w, h);
            let input = id.make_input(w, h, 4);
            let cfg = nvp_analysis::Cfg::build(&spec.program);
            let hints = nvp_analysis::compile_hints(&spec.program, &cfg, spec.mem_words);
            let compiled = CompiledProgram::compile(&spec.program, spec.mem_words, &hints);
            for cfg in [ApproxConfig::default(), ApproxConfig::fixed(3)] {
                let at = format!("{id} {w}x{h} under {cfg:?}");
                let mut reference = prepared(&spec, &input, cfg);
                reference
                    .run_to_halt(HALT_BUDGET)
                    .expect("kernel program must halt");
                let mut vm = prepared(&spec, &input, cfg);
                run_compiled(&compiled, &mut vm);

                assert_eq!(
                    spec.read_output(vm.mem(), 0),
                    spec.read_output(reference.mem(), 0),
                    "output frame: {at}"
                );
                assert_eq!(vm.pc(), reference.pc(), "pc: {at}");
                assert_eq!(
                    vm.instructions_retired(),
                    reference.instructions_retired(),
                    "instructions_retired: {at}"
                );
                assert_eq!(
                    vm.cycles_elapsed(),
                    reference.cycles_elapsed(),
                    "cycles_elapsed: {at}"
                );
                assert_eq!(vm.regfile(), reference.regfile(), "registers: {at}");
                for addr in 0..spec.mem_words {
                    for v in 0..NUM_VERSIONS {
                        assert_eq!(
                            vm.mem().read(addr, v),
                            reference.mem().read(addr, v),
                            "mem[{addr}] v{v}: {at}"
                        );
                        assert_eq!(
                            vm.mem().precision(addr, v),
                            reference.mem().precision(addr, v),
                            "precision mem[{addr}] v{v}: {at}"
                        );
                    }
                }
            }
        }
    }
}
