//! Cell evaluation: one simulation per distinct device configuration,
//! cached process-wide.
//!
//! Devices sharing a cell are *identical* (the simulator is a pure
//! function of the cell key), so a fleet is a multinomial over cells and
//! overlapping fleets, resumed fleets and concurrent service jobs share
//! outcomes through one bounded single-flight [`Cache`]. A cell evicted
//! by other fleets is recomputed deterministically, to the same outcome.

use crate::spec::MAX_CELLS;
use crate::CellKey;
use incidental::QualityReport;
use nvp_exec::{Cache, CacheStats};
use nvp_repro::catalog::{self, RunRequest};
use nvp_repro::dims;
use nvp_trace::{CounterSink, TraceSummary};
use std::sync::{Arc, LazyLock};

/// Everything the aggregator needs from one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Lane-weighted instructions persistently committed (the paper's
    /// forward-progress metric).
    pub forward_progress: u64,
    /// Backups taken (power emergencies survived).
    pub backups: u64,
    /// Frames committed (live + incidental lanes).
    pub frames_committed: u64,
    /// Energy spent on backups, nanojoules.
    pub backup_nj: f64,
    /// Mean MSE of committed frames against golden outputs.
    pub mse: f64,
    /// Quality binned for log2 histograms: `round(mse × 1000)`. MSE is
    /// log2-natural across its whole range where PSNR's dB scale is not —
    /// a 2×-resolution PSNR bucket would be useless.
    pub mse_milli: u64,
    /// Full event-stream aggregate, for weighted population folds.
    pub summary: TraceSummary,
}

/// Cells the process-wide cache holds: twice [`MAX_CELLS`], so two
/// maximal fleet jobs, which `nvp-serve` runs side by side, keep their
/// cells without evicting each other.
const CELL_CACHE_CAPACITY: usize = 2 * MAX_CELLS as usize;

static CELLS: LazyLock<Arc<Cache<CellKey, Arc<CellOutcome>>>> =
    LazyLock::new(|| Cache::new(CELL_CACHE_CAPACITY));

/// How many cells this process has simulated (cache misses).
pub fn cells_computed() -> u64 {
    CELLS.stats().misses
}

/// How many cell evaluations were answered without simulating: cache
/// hits plus joins onto another worker's in-flight simulation (work
/// shared between fleets, chunks and service jobs).
pub fn cells_shared() -> u64 {
    let stats = CELLS.stats();
    stats.hits + stats.coalesced
}

/// Counters and occupancy of the cell cache.
pub fn cell_cache_stats() -> CacheStats {
    CELLS.stats()
}

/// Evaluates one cell, sharing any previously-computed outcome.
pub fn evaluate_cell(key: &CellKey) -> Arc<CellOutcome> {
    CELLS.get_or_insert_with(key, || Arc::new(simulate(key)))
}

/// Runs the cell's simulation through the catalog (outputs recorded for
/// quality scoring) and scores its committed frames.
fn simulate(key: &CellKey) -> CellOutcome {
    let request = RunRequest {
        record_outputs: true,
        ..key.run_request()
    };
    let mut sink = CounterSink::new();
    let report = catalog::simulate_traced(&request, &mut sink);
    let (w, h) = dims(key.kernel, key.img);
    let frames = catalog::frames_for(key.kernel, key.img, key.frames);
    let quality = QualityReport::score(key.kernel, w, h, &frames, &report);
    let mse = quality.mean_mse();
    CellOutcome {
        forward_progress: report.forward_progress,
        backups: report.backups,
        frames_committed: report.frames_committed + report.incidental_frames,
        backup_nj: report.energy_backup.as_nj(),
        mse,
        mse_milli: (mse * 1000.0).round() as u64,
        summary: sink.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::cell_for_device;
    use crate::spec::ScenarioSpec;

    fn key() -> CellKey {
        let spec =
            ScenarioSpec::parse("fleet-spec-v1\ndevices = 10\nms = 150\nimg = 8\nframes = 1\n")
                .unwrap();
        cell_for_device(&spec, 0)
    }

    #[test]
    fn evaluation_is_cached_and_shared() {
        let a = evaluate_cell(&key());
        let shared_before = cells_shared();
        let b = evaluate_cell(&key());
        assert!(Arc::ptr_eq(&a, &b), "second evaluation must share the Arc");
        assert!(cells_shared() > shared_before);
        assert!(cells_computed() >= 1);
    }

    #[test]
    fn outcome_is_deterministic_and_self_consistent() {
        let out = evaluate_cell(&key());
        assert!(out.summary.total() > 0, "trace must carry events");
        assert_eq!(out.mse_milli, (out.mse * 1000.0).round() as u64);
        assert!(out.backup_nj >= 0.0);
        // A precise-mode cell commits exact frames.
        assert_eq!(out.mse, 0.0, "precise mode must be exact");
    }
}
