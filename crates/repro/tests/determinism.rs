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
        let a = render(&f(serial));
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

#[test]
fn engine_choice_changes_neither_tables_nor_traces() {
    use nvp_sim::ExecEngine;
    let run = |engine| {
        let scale = Scale::quick().with_jobs(2).with_engine(engine);
        let (tables, trace) = experiments::traced(|| experiments::fig9(scale));
        (render(&tables), trace)
    };
    let step = run(ExecEngine::Step);
    let compiled = run(ExecEngine::Compiled);
    assert_eq!(step.0, compiled.0, "tables differ across engines");
    assert!(step.1 == compiled.1, "traces differ across engines");
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

/// FNV-1a digests of `recompute_and_combine`'s merged output and per-pass
/// PSNR bits (median, P1 for 2 s, minbits 2, 5 passes), per image side and
/// `MergeMode`, recorded before the merge table moved into `MergeMode`. At
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
    let id = KernelId::Median;
    let profile = WatchProfile::P1.synthesize_seconds(2.0);
    for (side, mode, want) in RAC_MERGE_FNV {
        let input = id.make_input(side, side, 0x27);
        let out = incidental::recompute_and_combine(id, side, side, &input, 2, 5, mode, &profile);
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

#[test]
fn fig27_table_is_pinned() {
    let rendered = render(&experiments::fig27(Scale::quick()));
    let digest = nvp_exec::fnv1a64(rendered.as_bytes());
    assert_eq!(
        digest, FIG27_QUICK_FNV,
        "fig27 table changed ({digest:#018x})"
    );
}
