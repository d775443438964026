//! The chunked streaming run loop.
//!
//! Devices are visited in index order, `spec.chunk` at a time. Each chunk
//! is reduced to its distinct-cell multiset, the uncached cells are
//! evaluated on the `nvp-exec` work-stealing pool (parallelism affects
//! wall-clock only — the fold order is the canonical cell order, fixed by
//! the spec), and the chunk is folded into the aggregate. The loop can
//! pause after any chunk boundary, which is exactly the granularity the
//! snapshot format persists.

use crate::agg::FleetAggregate;
use crate::cell::evaluate_cell;
use crate::sample::cell_for_device;
use crate::CellKey;
use nvp_exec::Pool;
use nvp_trace::MergeError;
use std::collections::{BTreeMap, HashMap};

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
pub fn run_chunks(
    agg: &mut FleetAggregate,
    opts: RunOptions,
    mut progress: impl FnMut(Progress),
) -> Result<RunStatus, MergeError> {
    let pool = Pool::new(opts.jobs);
    let chunks = agg.spec.chunks();
    let mut folded_this_call = 0u64;
    while agg.next_chunk < chunks {
        if let Some(limit) = opts.stop_after_chunks {
            if folded_this_call >= limit {
                return Ok(RunStatus::Paused);
            }
        }
        let ci = agg.next_chunk;
        let lo = ci * agg.spec.chunk;
        let hi = (lo + agg.spec.chunk).min(agg.spec.devices);
        // The chunk as a multiset of cells, in canonical order (counted by
        // key first, so each distinct cell is spelled once per chunk).
        let mut counts: HashMap<CellKey, u64> = HashMap::new();
        for d in lo..hi {
            *counts.entry(cell_for_device(&agg.spec, d)).or_default() += 1;
        }
        let chunk_cells: BTreeMap<String, (CellKey, u64)> = counts
            .into_iter()
            .map(|(key, n)| (key.canonical(), (key, n)))
            .collect();
        // Evaluate distinct cells on the pool; the process-wide cache
        // makes repeats (across chunks and across fleets) nearly free.
        let keys: Vec<(String, CellKey)> = chunk_cells
            .iter()
            .map(|(c, (k, _))| (c.clone(), *k))
            .collect();
        let outcomes = pool
            .map(keys, |(canon, key)| (canon, evaluate_cell(&key)))
            .into_iter()
            .collect::<BTreeMap<_, _>>();
        agg.fold_chunk(&chunk_cells, &outcomes)?;
        folded_this_call += 1;
        progress(Progress {
            chunks_done: agg.next_chunk,
            chunks,
            devices_done: agg.devices_done(),
            distinct_cells: agg.cells.len() as u64,
        });
    }
    Ok(RunStatus::Complete)
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
        let status = run_chunks(&mut agg, RunOptions::default(), |p| seen.push(p)).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert!(agg.is_complete());
        assert_eq!(seen.len(), 4, "500 devices / 128 per chunk = 4 chunks");
        assert_eq!(seen.last().unwrap().devices_done, 500);
        assert!(seen.windows(2).all(|w| w[0].chunks_done < w[1].chunks_done));
    }

    #[test]
    fn pause_lands_on_a_chunk_boundary() {
        let mut agg = FleetAggregate::new(spec());
        let status = run_chunks(
            &mut agg,
            RunOptions {
                jobs: 1,
                stop_after_chunks: Some(2),
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(status, RunStatus::Paused);
        assert_eq!(agg.next_chunk, 2);
        assert!(!agg.is_complete());
        // Resuming the same aggregate finishes the remaining chunks.
        let status = run_chunks(&mut agg, RunOptions::default(), |_| {}).unwrap();
        assert_eq!(status, RunStatus::Complete);
    }

    #[test]
    fn worker_count_cannot_change_the_state() {
        let mut serial = FleetAggregate::new(spec());
        run_chunks(&mut serial, RunOptions::default(), |_| {}).unwrap();
        let mut parallel = FleetAggregate::new(spec());
        run_chunks(
            &mut parallel,
            RunOptions {
                jobs: 4,
                stop_after_chunks: None,
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.render_report(), parallel.render_report());
    }
}
