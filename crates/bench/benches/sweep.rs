//! Parallel-sweep scaling and VM hot-path microbenchmarks.
//!
//! `sweep_scaling` regenerates two sweep-heavy experiments at 1, 2, and 4
//! workers so `cargo bench` records how the work-stealing pool scales on
//! the host; `pool_overhead` isolates per-job scheduling cost; `vm_step`
//! times the interpreter inner loop that dominates every simulation;
//! `vm_system` and `vm_compiled` compare the two engines at system and
//! frame level.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nvp_bench::bench_scale;
use nvp_exec::Pool;
use nvp_isa::ApproxConfig;
use nvp_kernels::KernelId;
use nvp_power::{Power, PowerProfile, Ticks};
use nvp_repro::dims;
use nvp_repro::experiments as e;
use nvp_sim::{
    instructions_per_frame, run_fixed, run_fixed_compiled, ExecEngine, ExecMode, SystemConfig,
    SystemSim,
};
use std::sync::Arc;
use std::time::Duration;

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_scaling");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));
    for jobs in [1usize, 2, 4] {
        let s = bench_scale().with_jobs(jobs);
        g.bench_function(format!("fig15_fp_vs_bits/jobs{jobs}"), |b| {
            b.iter(|| e::fig15(s))
        });
        g.bench_function(format!("fig9_timing/jobs{jobs}"), |b| b.iter(|| e::fig9(s)));
    }
    g.finish();
}

fn bench_pool_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool_overhead");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    // Trivially small jobs expose the pool's fixed per-job scheduling cost.
    for jobs in [1usize, 2, 4] {
        g.bench_function(format!("map_64_tiny_jobs/jobs{jobs}"), |b| {
            let pool = Pool::new(jobs);
            let items: Vec<u64> = (0..64).collect();
            b.iter(|| pool.map(items.clone(), |x| x.wrapping_mul(0x9E37_79B9)))
        });
    }
    g.finish();
}

fn bench_vm_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_step");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    for id in [KernelId::Median, KernelId::Sobel] {
        let (w, h) = dims(id, 16);
        let spec = id.spec(w, h);
        let input = id.make_input(w, h, 0x51);
        g.throughput(Throughput::Elements(instructions_per_frame(&spec, &input)));
        g.bench_function(format!("{}_frame_precise", id.name()), |b| {
            b.iter(|| run_fixed(&spec, &input, ApproxConfig::default(), 1))
        });
    }
    g.finish();
}

fn bench_vm_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_system");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    // Same full-system run under both engines: `step` pays a reserve
    // comparison and an energy-formula evaluation (one `powf` per lane)
    // per instruction; `compiled` arms whole basic blocks against their
    // static WCEC certificates and dispatches them pre-decoded (results
    // are identical — crates/sim/tests/compiled_lockstep.rs). Wall power
    // keeps every tick in the VM hot loop; harvested profiles spend most
    // ticks charging and would bury the difference.
    let id = KernelId::Sobel;
    let (w, h) = dims(id, 16);
    let spec = id.spec(w, h);
    let compiled = Arc::new(nvp_sim::compile_kernel(&spec.program, spec.mem_words));
    let frames = Arc::new(vec![id.make_input(w, h, 0x51); 2]);
    let profile = PowerProfile::constant(Power::from_uw(500.0), Ticks(20_000));
    // Precise (8b) and fixed 4-bit datapaths: at full width the energy
    // formula's `powf` base is 1.0 (a libm fast path), so the narrow
    // configuration is where the per-instruction evaluation actually costs.
    for (mode_name, mode) in [
        ("precise", ExecMode::Precise),
        ("fixed4", ExecMode::Fixed(ApproxConfig::fixed(4))),
    ] {
        for engine in ExecEngine::ALL {
            g.bench_function(
                format!("{}_{mode_name}_{}", id.name(), engine.name()),
                |b| {
                    b.iter(|| {
                        let cfg = SystemConfig {
                            exec_engine: engine,
                            record_outputs: false,
                            ..Default::default()
                        };
                        let mut sim = SystemSim::new(spec.clone(), frames.clone(), mode, cfg);
                        sim.set_compiled(compiled.clone());
                        sim.run(&profile)
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_vm_compiled(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_compiled");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    // The vm_step workload under both dispatch engines: `step` is the
    // fetch/decode interpreter, `compiled` runs the pre-decoded
    // superinstruction table (fused decode, hoisted bounds checks —
    // outputs are identical, crates/sim/tests/compiled_lockstep.rs).
    // Median's compare-exchange network fuses into 12-wide records and
    // shows the ceiling; Sobel's mixed body is the typical case.
    for id in [KernelId::Median, KernelId::Sobel] {
        let (w, h) = dims(id, 16);
        let spec = id.spec(w, h);
        let input = id.make_input(w, h, 0x51);
        let compiled = nvp_sim::compile_kernel(&spec.program, spec.mem_words);
        g.throughput(Throughput::Elements(instructions_per_frame(&spec, &input)));
        g.bench_function(format!("{}_frame_step", id.name()), |b| {
            b.iter(|| run_fixed(&spec, &input, ApproxConfig::default(), 1))
        });
        g.bench_function(format!("{}_frame_compiled", id.name()), |b| {
            b.iter(|| run_fixed_compiled(&spec, &input, ApproxConfig::default(), 1, &compiled))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_scaling,
    bench_pool_overhead,
    bench_vm_step,
    bench_vm_system,
    bench_vm_compiled
);
criterion_main!(benches);
