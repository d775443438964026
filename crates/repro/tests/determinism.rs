//! Parallel sweeps must be indistinguishable from serial runs: identical
//! rendered tables and byte-identical JSONL traces, regardless of worker
//! count, scheduling, or what other threads are running.

use nvp_nvm::MergeMode;
use nvp_repro::{experiments, Scale, Table};

fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| t.to_string()).collect()
}

type Experiment = fn(Scale) -> Vec<Table>;

#[test]
fn parallel_tables_match_serial() {
    let serial = Scale::quick().with_jobs(1);
    let par = Scale::quick().with_jobs(4);
    let cases: &[(&str, Experiment)] = &[
        ("fig9", experiments::fig9),
        ("fig12", experiments::fig12),
        ("fig15", experiments::fig15),
        ("fig18", experiments::fig18),
        ("fig22", experiments::fig22),
        ("fig25", experiments::fig25),
        ("table2", experiments::table2),
    ];
    for (name, f) in cases {
        // The serial reference runs inside a trace capture, which always
        // simulates: computed untraced, it could be served from the run
        // memo entries of a parallel run and compare that run to itself.
        let a = render(&experiments::traced(|| f(serial)).0);
        let b = render(&f(par));
        assert_eq!(a, b, "{name}: --jobs 4 output differs from serial");
    }
}

/// The trace `repro fig9 fig22 --trace` writes, as captured text.
fn fig9_fig22_trace(scale: Scale) -> String {
    let (_, a) = experiments::traced(|| experiments::fig9(scale));
    let (_, b) = experiments::traced(|| experiments::fig22(scale));
    a + &b
}

#[test]
fn parallel_traces_match_serial_byte_for_byte() {
    let serial = fig9_fig22_trace(Scale::quick().with_jobs(1));
    let par = fig9_fig22_trace(Scale::quick().with_jobs(4));
    assert!(!serial.is_empty(), "serial trace is empty");
    assert!(
        serial == par,
        "--jobs 4 trace differs from serial trace ({} vs {} bytes)",
        serial.len(),
        par.len()
    );
}

#[test]
fn traces_are_unaffected_by_a_concurrent_untraced_sweep() {
    // Tracing is scoped to the capturing thread: an untraced parallel
    // sweep running alongside must add nothing to the capture.
    let solo = experiments::traced(|| experiments::fig9(Scale::quick().with_jobs(1))).1;
    let concurrent = std::thread::scope(|s| {
        let traced = s.spawn(|| experiments::traced(|| experiments::fig9(Scale::quick())).1);
        let untraced = s.spawn(|| experiments::fig9(Scale::quick().with_jobs(4)));
        untraced.join().expect("untraced sweep");
        traced.join().expect("traced run")
    });
    assert!(!solo.is_empty(), "solo trace is empty");
    assert!(
        solo == concurrent,
        "concurrent sweep leaked into the trace ({} vs {} bytes)",
        solo.len(),
        concurrent.len()
    );
}

/// FNV-1a digest of `ablate_buffer`'s quick-scale trace, recorded before
/// the loop-variable rejoin path was deleted. At quick scale this is the
/// only experiment whose trace reaches incidental parking, merging and
/// FIFO abandonment, so it pins those paths' bytes across refactors.
const ABLATE_BUFFER_TRACE_FNV: u64 = 0xa725_606d_0ea6_3c92;

#[test]
fn incidental_parking_trace_bytes_are_pinned() {
    let (_, trace) =
        experiments::traced(|| experiments::ablate_buffer(Scale::quick().with_jobs(1)));
    for needle in [
        "frame_parked",
        "merge",
        "frame_abandoned",
        "\"rolled_forward\":true",
    ] {
        assert!(trace.contains(needle), "trace never reaches {needle}");
    }
    let digest = nvp_exec::fnv1a64(trace.as_bytes());
    assert_eq!(
        digest,
        ABLATE_BUFFER_TRACE_FNV,
        "ablate-buffer trace bytes changed ({} bytes, digest {digest:#018x})",
        trace.len()
    );
}

/// FNV-1a digest of the quick-scale `--jobs 1` traces of `ckpt`, `wcec`,
/// `ablate_simd` and `table2`, concatenated in that order, recorded
/// before the experiments were assembled as `catalog::RunRequest`s.
/// Together they reach every request knob beyond kernel, scale, profile
/// and mode: explicit and cached checkpoint plans, the engine override,
/// the SIMD width cap, retention shaping and recorded outputs.
const REQUEST_KNOB_TRACE_FNV: u64 = 0x53c9_0846_9c84_0064;

#[test]
fn request_knob_trace_bytes_are_pinned() {
    let scale = Scale::quick().with_jobs(1);
    let runs: [Experiment; 4] = [
        experiments::ckpt,
        experiments::wcec,
        experiments::ablate_simd,
        experiments::table2,
    ];
    let trace: String = runs
        .iter()
        .map(|f| experiments::traced(|| f(scale)).1)
        .collect();
    let digest = nvp_exec::fnv1a64(trace.as_bytes());
    assert_eq!(
        digest,
        REQUEST_KNOB_TRACE_FNV,
        "request-knob trace bytes changed ({} bytes, digest {digest:#018x})",
        trace.len()
    );
}

/// FNV-1a digest of the quick-scale `--jobs 1` traces of `fig18` and
/// `fig19`, concatenated in that order, recorded before the static bits
/// floor was deleted. Both sweep Dynamic-mode governors over the power
/// profiles, so this pins the bytes of every `governor_switch` the
/// bitwidth control unit emits.
const DYNAMIC_GOVERNOR_TRACE_FNV: u64 = 0x670a_1d5e_5ef5_4f01;

#[test]
fn dynamic_governor_trace_bytes_are_pinned() {
    let scale = Scale::quick().with_jobs(1);
    let runs: [Experiment; 2] = [experiments::fig18, experiments::fig19];
    let trace: String = runs
        .iter()
        .map(|f| experiments::traced(|| f(scale)).1)
        .collect();
    assert!(
        trace.contains("\"ev\":\"governor_switch\""),
        "trace never reaches a governor switch"
    );
    let digest = nvp_exec::fnv1a64(trace.as_bytes());
    assert_eq!(
        digest,
        DYNAMIC_GOVERNOR_TRACE_FNV,
        "dynamic-governor trace bytes changed ({} bytes, digest {digest:#018x})",
        trace.len()
    );
}

/// FNV-1a digests of recompute-and-combine's merged output and per-pass
/// PSNR bits (median, P1 for 2 s, minbits 2, 5 passes), per image side and
/// `MergeMode`, recorded before the merge table moved into `MergeMode` and
/// kept since the passes became catalog requests. At
/// 8×8 every pass commits precise output, so only `Sum` differs; at 16×16
/// passes are approximate and all four modes give distinct merges.
const RAC_MERGE_FNV: [(usize, MergeMode, u64); 8] = [
    (8, MergeMode::HigherBits, 0xeb4e_8ac3_5b40_9ef3),
    (8, MergeMode::Max, 0xeb4e_8ac3_5b40_9ef3),
    (8, MergeMode::Min, 0xeb4e_8ac3_5b40_9ef3),
    (8, MergeMode::Sum, 0x3499_7800_ac3b_93b2),
    (16, MergeMode::HigherBits, 0x6dca_12e3_5707_359a),
    (16, MergeMode::Max, 0x7808_60d9_f3c8_54a3),
    (16, MergeMode::Min, 0x32ef_e722_ab26_14be),
    (16, MergeMode::Sum, 0xe53a_cc6c_c93d_dcec),
];

/// FNV-1a digest of `fig27(Scale::quick())`'s rendered table.
const FIG27_QUICK_FNV: u64 = 0x7839_400c_3461_853c;

#[test]
fn recompute_and_combine_outputs_are_pinned() {
    use nvp_kernels::KernelId;
    use nvp_power::synth::WatchProfile;
    use nvp_repro::catalog::RunRequest;
    use nvp_sim::ExecMode;
    for (side, mode, want) in RAC_MERGE_FNV {
        let frame = RunRequest {
            kernel: KernelId::Median,
            img: side,
            frames: 1,
            input_seed: 0x27,
            trace_seconds: 2.0,
            profile: WatchProfile::P1,
            mode: ExecMode::Dynamic(2, 8),
            ..RunRequest::default()
        };
        let out = experiments::recompute(&frame, 5, mode);
        let mut bytes: Vec<u8> = out.merged.iter().flat_map(|v| v.to_le_bytes()).collect();
        for p in &out.psnr_after_pass {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        let digest = nvp_exec::fnv1a64(&bytes);
        assert_eq!(
            digest, want,
            "{side}x{side} {mode:?}: rac output changed ({digest:#018x})"
        );
    }
}

/// Every recompute-and-combine pass is a run a trace capture records:
/// fig27's 4 minbits floors × 8 passes, in the same bytes at any worker
/// count.
#[test]
fn fig27_traces_every_recompute_pass() {
    let trace = |jobs| experiments::traced(|| experiments::fig27(Scale::quick().with_jobs(jobs))).1;
    let serial = trace(1);
    assert_eq!(serial.matches("\"ev\":\"run_start\"").count(), 4 * 8);
    assert!(
        serial == trace(2),
        "--jobs 2 fig27 trace differs from serial"
    );
}

#[test]
fn fig27_table_is_pinned() {
    let rendered = render(&experiments::fig27(Scale::quick()));
    let digest = nvp_exec::fnv1a64(rendered.as_bytes());
    assert_eq!(
        digest, FIG27_QUICK_FNV,
        "fig27 table changed ({digest:#018x})"
    );
}
