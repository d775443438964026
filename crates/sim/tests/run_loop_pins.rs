//! Pins of the run loop itself. Both engines share `SystemSim`'s
//! per-tick loop, so the Step-vs-Compiled lockstep suites cannot see a
//! loop change that moves both the same way — for instance a price
//! table, reserve or lane count that is not re-read after the
//! configuration changed. These tests pin an FNV
//! digest of the whole `RunReport` (its `Debug` form, recorded outputs
//! included) and of the run's JSONL event trace for every execution mode
//! under both engines, on a bursty trace whose long gaps force incidental
//! roll-forward, parking and merges. The trace pins see what a report
//! cannot: the tick of every threshold crossing and governor switch,
//! which a loop that batches powered-off ticks could move without
//! changing any total.
//!
//! The 20 µJ capacitor lowers the start threshold below the governor's
//! first width change, so a governed run starts on the width the first
//! tick applied; at the default 3.5 µJ the threshold sits at 95 % fill,
//! where every governed run starts at full width.
//!
//! A digest change means the simulator's results changed; if that is
//! intended, rerun the suite and copy the printed digests.

use nvp_kernels::KernelId;
use nvp_power::{Energy, PowerProfile, Ticks};
use nvp_sim::{ExecEngine, ExecMode, SystemConfig, SystemSim};
use nvp_trace::JsonlBufSink;
use std::iter::repeat_n;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bursts at four income levels (poor to rich), with every third gap
/// longer than the incidental staleness deadline in [`digests`].
fn bursty() -> PowerProfile {
    let mut uw = Vec::new();
    for burst in 0..12 {
        uw.extend(repeat_n([90.0, 160.0, 60.0, 420.0][burst % 4], 700));
        uw.extend(repeat_n(0.0, if burst % 3 == 2 { 4_000 } else { 300 }));
    }
    PowerProfile::from_uw(uw)
}

fn modes() -> [(&'static str, ExecMode); 5] {
    [
        ("precise", ExecMode::Precise),
        ("fixed3", ExecMode::Fixed(3)),
        ("dynamic2-8", ExecMode::Dynamic(2, 8)),
        ("simd4", ExecMode::Simd4),
        ("incidental2-8", ExecMode::Incidental(2, 8)),
    ]
}

/// FNV digests of one run's `RunReport` and of its JSONL trace. The
/// report comes from the untraced run; the traced run must report the
/// same.
fn digests(mode: ExecMode, capacitor_uj: f64, engine: ExecEngine) -> (u64, u64) {
    let id = KernelId::Sobel;
    let (w, h) = id.min_dims();
    let frames: Vec<Vec<i32>> = (0..4).map(|i| id.make_input(w, h, 70 + i)).collect();
    let cfg = SystemConfig {
        capacitor_capacity: Energy::from_uj(capacitor_uj),
        record_outputs: true,
        max_simd_lanes: 4,
        // Only the incidental mode reads the deadline.
        staleness: Ticks(2_000),
        exec_engine: engine,
        ..Default::default()
    };
    let sim = || SystemSim::new(id.spec(w, h), frames.clone(), mode, cfg.clone());
    let report = sim().run(&bursty());
    let mut sink = JsonlBufSink::new();
    let traced = sim().run_traced(&bursty(), &mut sink);
    assert_eq!(traced, report, "tracing changed the run");
    (
        fnv1a64(format!("{report:?}").as_bytes()),
        fnv1a64(sink.as_str().as_bytes()),
    )
}

/// Checks every mode at one capacitor size against the report and trace
/// pins, under both engines, and reports all mismatches at once.
fn check(capacitor_uj: f64, reports: [u64; 5], traces: [u64; 5]) {
    let mut wrong = Vec::new();
    for (((label, mode), report_pin), trace_pin) in modes().into_iter().zip(reports).zip(traces) {
        for engine in [ExecEngine::Step, ExecEngine::Compiled] {
            let (report, trace) = digests(mode, capacitor_uj, engine);
            for (what, got, pin) in [("report", report, report_pin), ("trace", trace, trace_pin)] {
                if got != pin {
                    wrong.push(format!(
                        "{label} {engine:?} {what}: {got:#018x} (pinned {pin:#018x})"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "runs moved:\n{}", wrong.join("\n"));
}

#[test]
fn default_capacitor_reports_are_pinned() {
    check(
        3.5,
        [
            0x3304_23ad_5902_a0be,
            0xb3fd_fd3f_4ec0_37bf,
            0x2889_fd5d_6d8d_a933,
            0x190f_92a8_cf8a_d2c9,
            0x20b1_d111_b8f9_3472,
        ],
        [
            0xf6ca_69a8_2efc_2f16,
            0x5318_3a4c_adf3_f5cd,
            0x72c1_a2a3_fadd_b85e,
            0x63d1_0c58_e8f8_0dd0,
            0xf142_18a8_643c_9228,
        ],
    );
}

#[test]
fn large_capacitor_reports_are_pinned() {
    check(
        20.0,
        [
            0x7188_c7e2_f3a9_34cb,
            0x51a4_2729_e101_7bab,
            0xa3ac_5e38_97e5_4760,
            0x5620_f278_01e5_de1a,
            0x3f22_adc8_6576_4c4d,
        ],
        [
            0x9525_c860_a9e7_c84f,
            0x3669_5718_2bdf_411a,
            0xf605_e7f1_8976_ff9c,
            0xe3f2_7941_55c8_4c8a,
            0x32ff_b205_fea6_52ce,
        ],
    );
}
