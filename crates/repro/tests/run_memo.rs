//! The `repro` run memo must be invisible in results: a figure that
//! repeats another figure's runs is served from the memo without
//! simulating, renders the same tables it renders cold, and a trace
//! capture still records every run it makes. A run that records outputs
//! seeds the memo for its output-free twin, so fig28 reuses table2's
//! runs.
//!
//! One test in its own binary, at scales no other test uses, so no
//! concurrent test can move the process-wide memo counters.

use nvp_repro::{catalog, experiments, Scale, Table};

fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| t.to_string()).collect()
}

#[test]
fn fig16_reuses_fig15_runs_without_dropping_trace_events() {
    let scale = Scale {
        trace_seconds: 0.7,
        ..Scale::quick()
    }
    .with_jobs(2);
    let before = catalog::run_memo_stats();
    assert_eq!((before.hits, before.misses), (0, 0), "memo not cold");

    // Cold: a capture always simulates and leaves the memo untouched.
    let (cold_tables, cold_trace) = experiments::traced(|| experiments::fig16(scale));
    assert_eq!(cold_trace.matches("\"ev\":\"run_start\"").count(), 40);
    let after_cold = catalog::run_memo_stats();
    assert_eq!((after_cold.hits, after_cold.misses), (0, 0));

    // fig15 fills the memo with the 40 runs fig16 repeats.
    experiments::fig15(scale);
    let filled = catalog::run_memo_stats();
    assert_eq!((filled.hits, filled.misses), (0, 40));
    assert_eq!(filled.entries, 40);

    let warm_tables = experiments::fig16(scale);
    let warm = catalog::run_memo_stats();
    assert_eq!(warm.misses, filled.misses, "fig16 must not simulate");
    assert_eq!(warm.hits, filled.hits + 40);
    assert_eq!(render(&warm_tables), render(&cold_tables));

    // A warm memo changes nothing a capture records.
    let (traced_tables, warm_trace) = experiments::traced(|| experiments::fig16(scale));
    assert!(warm_trace == cold_trace, "a memo hit dropped trace events");
    assert_eq!(render(&traced_tables), render(&cold_tables));
    let after = catalog::run_memo_stats();
    assert_eq!((after.hits, after.misses), (warm.hits, warm.misses));

    // table2's four recording runs (P1, tuned policies) seed the memo,
    // at a scale fig15/fig16 did not fill, and fig28 repeats them.
    let scale = Scale {
        trace_seconds: 0.3,
        ..scale
    };
    experiments::table2(scale);
    let seeded = catalog::run_memo_stats();
    assert_eq!((seeded.hits, seeded.misses), (after.hits, after.misses));
    assert_eq!(seeded.entries, after.entries + 4);
    let (cold_fig28, _) = experiments::traced(|| experiments::fig28(scale, false));
    let warm_fig28 = experiments::fig28(scale, false);
    let reused = catalog::run_memo_stats();
    assert_eq!(
        reused.hits,
        seeded.hits + 4,
        "fig28 must reuse table2's runs"
    );
    assert_eq!(render(&warm_fig28), render(&cold_fig28));
}
