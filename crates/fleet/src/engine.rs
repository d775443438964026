//! The chunked streaming run loop.
//!
//! Devices are visited in index order, `spec.chunk` at a time. Each call
//! first enumerates the spec's cells as dense ordinals (`CellTable`);
//! each chunk is then counted into a per-ordinal device tally, the cells
//! this call has not resolved yet are evaluated on the `nvp-exec` batch
//! pool (parallelism affects wall-clock only — the fold order is the
//! ordinal order, which is canonical cell order, fixed by the spec), and
//! the chunk is folded into the aggregate. The loop can pause after any
//! chunk boundary, which is exactly the granularity the snapshot format
//! persists.

use crate::agg::{DenseState, FleetAggregate};
use crate::cell::{evaluate_cell, CellOutcome};
use crate::ordinal::CellTable;
use nvp_exec::Pool;
use std::convert::Infallible;
use std::sync::Arc;

/// Progress of a running fleet, reported after every folded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Chunks folded so far.
    pub chunks_done: u64,
    /// Total chunks in the scenario.
    pub chunks: u64,
    /// Devices folded so far.
    pub devices_done: u64,
    /// Distinct cells discovered so far.
    pub distinct_cells: u64,
}

/// Engine options for one `run_chunks` call.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads for cell evaluation (1 = serial reference path;
    /// results are identical for any value).
    pub jobs: usize,
    /// Pause after folding this many chunks in *this call* (None = run to
    /// completion). The pause lands on a chunk boundary, the snapshot
    /// granularity.
    pub stop_after_chunks: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            stop_after_chunks: None,
        }
    }
}

/// How a `run_chunks` call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every chunk is folded; the report is final.
    Complete,
    /// Paused at a chunk boundary (resume from a snapshot to continue).
    Paused,
}

/// Runs (or resumes) the scenario in `agg` until completion or the
/// configured pause point, invoking `progress` after every folded chunk.
///
/// The fold cannot fail. The `Result` only keeps the benchmark harness
/// (`perfbench`, its own workspace), which calls `.expect` on it,
/// compiling; callers here write `let Ok(status) = run_chunks(..);`.
pub fn run_chunks(
    agg: &mut FleetAggregate,
    opts: RunOptions,
    progress: impl FnMut(Progress),
) -> Result<RunStatus, Infallible> {
    let table = CellTable::new(&agg.spec);
    let mut dense = agg.unpack(&table);
    let status = fold_chunks(agg, &mut dense, &table, opts, progress);
    agg.repack(&table, dense);
    Ok(status)
}

fn fold_chunks(
    agg: &mut FleetAggregate,
    dense: &mut DenseState,
    table: &CellTable,
    opts: RunOptions,
    mut progress: impl FnMut(Progress),
) -> RunStatus {
    let pool = Pool::new(opts.jobs);
    let chunks = agg.spec.chunks();
    // Each cell's outcome, looked up once per call: the process-wide cell
    // cache shares it across calls, fleets and service jobs.
    let mut outcomes: Vec<Option<Arc<CellOutcome>>> = vec![None; table.len()];
    let mut counts = vec![0u64; table.len()];
    let mut folded_this_call = 0u64;
    while agg.next_chunk < chunks {
        if let Some(limit) = opts.stop_after_chunks {
            if folded_this_call >= limit {
                return RunStatus::Paused;
            }
        }
        let lo = agg.next_chunk * agg.spec.chunk;
        let hi = (lo + agg.spec.chunk).min(agg.spec.devices);
        counts.fill(0);
        for d in lo..hi {
            counts[table.ordinal_for_device(d)] += 1;
        }
        let fresh: Vec<usize> = (0..table.len())
            .filter(|&o| counts[o] > 0 && outcomes[o].is_none())
            .collect();
        for (o, outcome) in pool.map(fresh, |o| (o, evaluate_cell(table.key(o)))) {
            outcomes[o] = Some(outcome);
        }
        agg.fold_chunk(dense, table, &counts, &outcomes);
        folded_this_call += 1;
        progress(Progress {
            chunks_done: agg.next_chunk,
            chunks,
            devices_done: agg.devices_done(),
            distinct_cells: agg.distinct_cells(dense),
        });
    }
    RunStatus::Complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 500\n\
             chunk = 128\n\
             ms = 150\n\
             img = 8\n\
             frames = 1\n\
             kernels = sobel, median\n\
             modes = precise, fixed:4\n",
        )
        .unwrap()
    }

    #[test]
    fn runs_to_completion_and_reports_progress() {
        let mut agg = FleetAggregate::new(spec());
        let mut seen = Vec::new();
        let Ok(status) = run_chunks(&mut agg, RunOptions::default(), |p| seen.push(p));
        assert_eq!(status, RunStatus::Complete);
        assert!(agg.is_complete());
        assert_eq!(seen.len(), 4, "500 devices / 128 per chunk = 4 chunks");
        assert_eq!(seen.last().unwrap().devices_done, 500);
        assert!(seen.windows(2).all(|w| w[0].chunks_done < w[1].chunks_done));
    }

    #[test]
    fn pause_lands_on_a_chunk_boundary() {
        let mut agg = FleetAggregate::new(spec());
        let Ok(status) = run_chunks(
            &mut agg,
            RunOptions {
                jobs: 1,
                stop_after_chunks: Some(2),
            },
            |_| {},
        );
        assert_eq!(status, RunStatus::Paused);
        assert_eq!(agg.next_chunk, 2);
        assert!(!agg.is_complete());
        // Resuming the same aggregate finishes the remaining chunks.
        let Ok(status) = run_chunks(&mut agg, RunOptions::default(), |_| {});
        assert_eq!(status, RunStatus::Complete);
    }

    #[test]
    fn worker_count_cannot_change_the_state() {
        let mut serial = FleetAggregate::new(spec());
        let Ok(_) = run_chunks(&mut serial, RunOptions::default(), |_| {});
        let mut parallel = FleetAggregate::new(spec());
        let Ok(_) = run_chunks(
            &mut parallel,
            RunOptions {
                jobs: 4,
                stop_after_chunks: None,
            },
            |_| {},
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial.render_report(), parallel.render_report());
    }
}
