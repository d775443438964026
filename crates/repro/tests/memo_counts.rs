//! `repro all` simulates each distinct run once. The run memo is keyed
//! by the canonical request (`Fixed` at full precision is `Precise`, and
//! an implicit `LiveDirty` plan is the cached one it resolves to), and
//! `all` makes the figures that record outputs first, so their runs seed
//! the memo before the figures that only count ask for them. A quick
//! `repro all` then makes 203 simulations: 146 memo misses plus the 57
//! recording runs, which always simulate (25 scoring runs and fig27's 32
//! recompute-and-combine passes). Each recording run leaves an entry.
//!
//! One test in its own binary, so no concurrent test can move the
//! process-wide memo counters.

use nvp_repro::{catalog, experiments, Scale};

/// Memo lookups that simulated on a cold `repro all --quick`.
const MISSES: u64 = 146;

#[test]
fn repro_all_simulates_each_distinct_run_once() {
    let before = catalog::run_memo_stats();
    assert_eq!(before.entries, 0, "memo not cold: {before:?}");

    experiments::all(Scale::quick().with_jobs(1));
    let serial = catalog::run_memo_stats();
    assert_eq!(
        (serial.misses, serial.hits, serial.coalesced, serial.entries),
        (MISSES, 112, 0, 203),
        "{serial:?}"
    );

    // Two workers may join a run another worker is simulating instead of
    // leading it; either way each distinct run simulates once. A trace
    // length no serial run used keeps every key of this pass cold.
    let parallel = Scale {
        trace_seconds: 1.0,
        ..Scale::quick()
    }
    .with_jobs(2);
    experiments::all(parallel);
    let after = catalog::run_memo_stats();
    let led = after.misses - serial.misses;
    let joined = after.coalesced - serial.coalesced;
    assert_eq!(led + joined, MISSES, "{after:?}");
    assert_eq!(after.evictions, 0, "{after:?}");
}
