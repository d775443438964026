//! Structured event tracing for the NVP simulation stack.
//!
//! The simulator's end-of-run aggregates (`RunReport`) tell you *what*
//! happened; this crate records *when*. An instrumented run emits a stream
//! of [`Event`]s — threshold crossings, power emergencies, backups,
//! outages, restores, frame commits/parks/merges, governor switches,
//! retention decay — into any [`Tracer`] sink: an unbounded [`VecSink`],
//! a metrics-only [`CounterSink`], or an in-memory [`JsonlBufSink`] whose
//! text, written to a file, the `nvp-trace` binary can `summarize`,
//! `timeline`, and `diff`.
//!
//! Design constraints, in priority order:
//!
//! 1. **Near-zero cost when off.** [`NoopTracer`] reports itself disabled
//!    and the [`emit`] helper skips event construction entirely; the only
//!    residual cost at a trace point is one virtual `enabled()` call, and
//!    no trace point sits on a per-instruction path.
//! 2. **Dependency-free.** Events carry raw `u64` ticks and `f64`
//!    nanojoules rather than `nvp-power` newtypes so every runtime crate
//!    (including `nvp-power` itself) can depend on this one without a
//!    cycle.
//! 3. **Self-checking.** The `run_end` event carries the simulator's own
//!    totals; [`TraceSummary::reconcile`] cross-checks them against the
//!    energy ledger summed from individual events, so instrumentation
//!    holes are detected mechanically instead of by eyeball.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod event;
mod sink;
mod summary;
mod timeline;

pub use diff::{diff, TraceDiff};
pub use event::{Event, EventKind, ParseError, SwitchReason};
pub use sink::{emit, CounterSink, JsonlBufSink, NoopTracer, TeeSink, Tracer, VecSink};
pub use summary::{
    EnergyLedger, Histogram, LedgerMismatch, MergeError, ReadError, RunEndTotals, RunSummary,
    TraceSummary,
};
pub use timeline::{render as render_timeline, split_runs, TimelineRun};
