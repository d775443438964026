//! Fleet-scale scenario engine: whole populations of intermittent devices.
//!
//! The paper evaluates one NVP against five measured power profiles; the
//! deployment question is what a *fleet* of heterogeneous devices does. A
//! [`ScenarioSpec`] describes a population compactly — weighted
//! distributions over kernel, power-profile family member, capacitor size,
//! backup scope, governor mode and execution engine — and the engine
//! expands it into N deterministic device-instances (N up to 10⁷).
//!
//! The memory story is the whole design: devices are *streamed* in bounded
//! chunks, never materialized. Each device hashes (splitmix64) to one
//! **cell** of the bounded axis cross-product (≤ [`spec::MAX_CELLS`]); a
//! cell is the shared [`nvp_repro::key::RunKey`], re-exported here as
//! [`CellKey`]. A chunk is a multiset of cells, each distinct cell is
//! simulated once and shared with every other fleet via the bounded,
//! content-addressed cell cache, and the outcome is folded into mergeable
//! aggregates with weight = device count: log2 [`nvp_trace::Histogram`]s per cohort, a
//! weighted [`nvp_trace::TraceSummary`] fold, and top-k / weighted
//! reservoir exemplars for per-device outliers. Peak resident aggregation
//! state depends on the number of distinct cells, not on N.
//!
//! Determinism is load-bearing: the aggregate report is byte-identical
//! across `--jobs` settings (chunk sequence and fold order are fixed by
//! the spec, not by scheduling), across `resume` from a mid-run
//! [`snapshot`], and between the CLI and `nvp-serve`'s `POST /v1/fleet`
//! (both run this engine on the same canonical spec). DESIGN.md §14
//! documents the spec grammar, chunking, reservoir math and resume format.

#![warn(missing_docs)]

pub mod agg;
pub mod cell;
pub mod engine;
mod ordinal;
pub mod reservoir;
pub mod sample;
pub mod snapshot;
pub mod spec;

pub use agg::FleetAggregate;
pub use cell::{cell_cache_stats, cells_computed, cells_shared, evaluate_cell, CellOutcome};
pub use engine::{run_chunks, Progress, RunOptions, RunStatus};
pub use nvp_repro::key::{scope_tag, RunKey as CellKey};
pub use nvp_sim::ExecMode as FleetMode;
pub use reservoir::{TopK, WeightedReservoir};
pub use sample::{cell_for_device, cohort, splitmix64};
pub use snapshot::{decode_snapshot, encode_snapshot, SnapshotError};
pub use spec::{ScenarioSpec, SpecError, Weighted, MAX_CELLS};
