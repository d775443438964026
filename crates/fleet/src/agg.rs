//! The streaming population aggregate and its canonical report.
//!
//! State is bounded by the spec's axis cross-product, never by the device
//! count: per-cohort log2 histograms + a weighted [`TraceSummary`] fold,
//! and one small stat record per distinct cell (≤ [`MAX_CELLS`]) from
//! which outliers and reservoir exemplars are drawn at render time.
//!
//! Determinism contract: folds happen in canonical-cell order (the cell
//! ordinal order of `CellTable`) within each chunk and chunks are
//! folded in sequence, so the accumulated state —
//! including every f64 — is a pure function of (spec, chunks folded).
//! The rendered report contains only deterministic quantities; anything
//! racy (cache hit/miss luck, wall-clock, worker count) is deliberately
//! excluded and surfaced via progress callbacks and `/metrics` instead.

use crate::cell::CellOutcome;
use crate::ordinal::CellTable;
use crate::reservoir::{TopK, WeightedReservoir};
use crate::spec::{ScenarioSpec, MAX_CELLS};
use nvp_trace::{Histogram, MergeError, TraceSummary};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exemplars kept per outlier dimension.
const OUTLIER_K: usize = 5;
/// Exemplars kept in the population reservoir.
const RESERVOIR_K: usize = 8;

/// Deterministic per-cell statistics, kept for outlier selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStat {
    /// Devices that hashed to this cell so far.
    pub devices: u64,
    /// Forward progress of one such device.
    pub forward_progress: u64,
    /// Backup energy of one such device, nanojoules.
    pub backup_nj: f64,
    /// Quality of one such device, milli-MSE.
    pub mse_milli: u64,
    /// Frames committed by one such device.
    pub frames_committed: u64,
}

/// Per-cohort population aggregates (cohort = kernel × mode).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortAgg {
    /// Devices in the cohort so far.
    pub devices: u64,
    /// Per-device forward progress distribution.
    pub forward_progress: Histogram,
    /// Per-device backup energy distribution, nanojoules.
    pub backup_nj: Histogram,
    /// Per-device quality distribution, milli-MSE.
    pub mse_milli: Histogram,
    /// Weighted fold of every member device's event-stream summary.
    pub summary: TraceSummary,
}

impl CohortAgg {
    fn new() -> Self {
        CohortAgg {
            devices: 0,
            forward_progress: Histogram::new(),
            backup_nj: Histogram::new(),
            mse_milli: Histogram::new(),
            summary: TraceSummary::new(),
        }
    }
}

/// A [`FleetAggregate`]'s per-cell and per-cohort entries during one
/// `run_chunks` call, held in vectors indexed by cell ordinal and cohort
/// index so a fold touches no string.
pub(crate) struct DenseState {
    cells: Vec<Option<CellStat>>,
    cohorts: Vec<Option<CohortAgg>>,
    /// Occupied `cells` slots.
    occupied: usize,
}

/// The complete resumable aggregation state of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    /// The scenario being aggregated.
    pub spec: ScenarioSpec,
    /// Next chunk index to fold (== `spec.chunks()` when complete).
    pub next_chunk: u64,
    /// Deterministic count of (chunk × distinct-cell) evaluations folded.
    pub cell_evaluations: u64,
    /// Cohort aggregates in canonical cohort order.
    pub cohorts: BTreeMap<String, CohortAgg>,
    /// Per-cell stats in canonical cell order (bounded by [`MAX_CELLS`]).
    pub cells: BTreeMap<String, CellStat>,
}

impl FleetAggregate {
    /// An empty aggregate for `spec`.
    pub fn new(spec: ScenarioSpec) -> Self {
        FleetAggregate {
            spec,
            next_chunk: 0,
            cell_evaluations: 0,
            cohorts: BTreeMap::new(),
            cells: BTreeMap::new(),
        }
    }

    /// Whether every chunk has been folded.
    pub fn is_complete(&self) -> bool {
        self.next_chunk >= self.spec.chunks()
    }

    /// Devices folded so far.
    pub fn devices_done(&self) -> u64 {
        (self.next_chunk * self.spec.chunk).min(self.spec.devices)
    }

    /// Moves the entries of `table`'s cells and cohorts out of the maps
    /// into a [`DenseState`] for the duration of one run; [`repack`]
    /// returns them. Entries the table does not name stay in the maps.
    ///
    /// [`repack`]: Self::repack
    pub(crate) fn unpack(&mut self, table: &CellTable) -> DenseState {
        let cells: Vec<Option<CellStat>> = (0..table.len())
            .map(|o| self.cells.remove(table.canonical(o)))
            .collect();
        let cohorts = table
            .cohorts()
            .iter()
            .map(|name| self.cohorts.remove(name))
            .collect();
        DenseState {
            occupied: cells.iter().flatten().count(),
            cells,
            cohorts,
        }
    }

    /// Returns the entries [`unpack`](Self::unpack) moved out, under their
    /// canonical names.
    pub(crate) fn repack(&mut self, table: &CellTable, dense: DenseState) {
        for (o, stat) in dense.cells.into_iter().enumerate() {
            if let Some(stat) = stat {
                self.cells.insert(table.canonical(o).to_string(), stat);
            }
        }
        for (name, agg) in table.cohorts().iter().zip(dense.cohorts) {
            if let Some(agg) = agg {
                self.cohorts.insert(name.clone(), agg);
            }
        }
    }

    /// Distinct cells folded so far, while `dense` holds `unpack`ed
    /// entries.
    pub(crate) fn distinct_cells(&self, dense: &DenseState) -> u64 {
        (self.cells.len() + dense.occupied) as u64
    }

    /// Folds one chunk — `counts[o]` devices of the cell with ordinal `o`,
    /// whose outcome is `outcomes[o]` — in ordinal (= canonical) order.
    /// Advances `next_chunk`.
    pub(crate) fn fold_chunk(
        &mut self,
        dense: &mut DenseState,
        table: &CellTable,
        counts: &[u64],
        outcomes: &[Option<Arc<CellOutcome>>],
    ) -> Result<(), MergeError> {
        for (o, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let out = outcomes[o].as_deref().expect("counted cells are resolved");
            let cohort = dense.cohorts[table.cohort_of(o)].get_or_insert_with(CohortAgg::new);
            cohort.devices += n;
            cohort.forward_progress.record_n(out.forward_progress, n);
            cohort
                .backup_nj
                .record_n(out.backup_nj.max(0.0).round() as u64, n);
            cohort.mse_milli.record_n(out.mse_milli, n);
            cohort.summary.merge_weighted(&out.summary, n)?;
            let stat = dense.cells[o].get_or_insert_with(|| {
                dense.occupied += 1;
                CellStat {
                    devices: 0,
                    forward_progress: out.forward_progress,
                    backup_nj: out.backup_nj,
                    mse_milli: out.mse_milli,
                    frames_committed: out.frames_committed,
                }
            });
            stat.devices += n;
            self.cell_evaluations += 1;
        }
        debug_assert!(self.distinct_cells(dense) <= MAX_CELLS);
        self.next_chunk += 1;
        Ok(())
    }

    /// Renders the canonical aggregate report: deterministic JSON, sorted
    /// keys, byte-identical for equal (spec, folded-state) regardless of
    /// worker count, resume history or which process renders it.
    pub fn render_report(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"fleet\": \"v1\",\n");
        out.push_str(&format!("  \"job\": \"{}\",\n", self.spec.job_id()));
        out.push_str(&format!("  \"devices\": {},\n", self.spec.devices));
        out.push_str(&format!("  \"chunk\": {},\n", self.spec.chunk));
        out.push_str(&format!("  \"chunks\": {},\n", self.spec.chunks()));
        out.push_str(&format!("  \"chunks_folded\": {},\n", self.next_chunk));
        out.push_str(&format!("  \"complete\": {},\n", self.is_complete()));
        out.push_str(&format!("  \"distinct_cells\": {},\n", self.cells.len()));
        out.push_str(&format!(
            "  \"cell_evaluations\": {},\n",
            self.cell_evaluations
        ));

        out.push_str("  \"cohorts\": {\n");
        let mut first = true;
        for (name, c) in &self.cohorts {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    \"{name}\": {{\n"));
            out.push_str(&format!("      \"devices\": {},\n", c.devices));
            out.push_str(&format!(
                "      \"forward_progress\": {},\n",
                render_curve(&c.forward_progress)
            ));
            out.push_str(&format!(
                "      \"mse_milli\": {},\n",
                render_curve(&c.mse_milli)
            ));
            out.push_str(&format!(
                "      \"backup_nj\": {},\n",
                render_curve(&c.backup_nj)
            ));
            let d = c.devices.max(1) as f64;
            out.push_str(&format!(
                "      \"backups_per_device\": {},\n",
                fmt_f64(c.summary.count(nvp_trace::EventKind::Backup) as f64 / d)
            ));
            out.push_str(&format!(
                "      \"income_nj_per_device\": {},\n",
                fmt_f64(c.summary.ledger.income_nj / d)
            ));
            out.push_str(&format!(
                "      \"backup_nj_per_device\": {}\n",
                fmt_f64(c.summary.ledger.backup_nj / d)
            ));
            out.push_str("    }");
        }
        out.push_str("\n  },\n");

        // Outliers: drawn from the bounded cell table in canonical order,
        // so selection is independent of chunking and resume history.
        let mut worst_fp = TopK::new(OUTLIER_K);
        let mut worst_quality = TopK::new(OUTLIER_K);
        let mut highest_backup = TopK::new(OUTLIER_K);
        let mut reservoir = WeightedReservoir::new(self.spec.seed, RESERVOIR_K);
        for (canon, stat) in &self.cells {
            worst_fp.offer(stat.forward_progress as f64, canon.clone(), stat.clone());
            worst_quality.offer(-(stat.mse_milli as f64), canon.clone(), stat.clone());
            highest_backup.offer(-stat.backup_nj, canon.clone(), stat.clone());
            reservoir.offer(canon.clone(), stat.devices, stat.clone());
        }
        out.push_str("  \"outliers\": {\n");
        out.push_str(&format!(
            "    \"worst_forward_progress\": [{}],\n",
            worst_fp
                .into_sorted()
                .into_iter()
                .map(|(_, canon, s)| format!(
                    "{{\"cell\": \"{canon}\", \"devices\": {}, \"forward_progress\": {}}}",
                    s.devices, s.forward_progress
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "    \"worst_quality\": [{}],\n",
            worst_quality
                .into_sorted()
                .into_iter()
                .map(|(_, canon, s)| format!(
                    "{{\"cell\": \"{canon}\", \"devices\": {}, \"mse_milli\": {}}}",
                    s.devices, s.mse_milli
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "    \"highest_backup_energy\": [{}]\n",
            highest_backup
                .into_sorted()
                .into_iter()
                .map(|(_, canon, s)| format!(
                    "{{\"cell\": \"{canon}\", \"devices\": {}, \"backup_nj\": {}}}",
                    s.devices,
                    fmt_f64(s.backup_nj)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"exemplars\": [{}]\n",
            reservoir
                .into_sorted()
                .into_iter()
                .map(|(canon, s)| format!(
                    "{{\"cell\": \"{canon}\", \"devices\": {}, \"frames_committed\": {}}}",
                    s.devices, s.frames_committed
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("}\n");
        out
    }
}

/// One population percentile curve: count, mean and log2-bucket quantiles
/// (quantile = inclusive upper bound of the covering bucket — honest about
/// the 2× bucket resolution).
fn render_curve(h: &Histogram) -> String {
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        h.count(),
        fmt_f64(h.mean()),
        q(0.10),
        q(0.50),
        q(0.90),
        q(0.99)
    )
}

/// Deterministic JSON-safe float rendering (shortest round-trip form; the
/// folds feeding it are themselves deterministic).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    // `{}` prints integral floats without a dot; keep them JSON numbers
    // that round-trip as floats.
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_chunks, RunOptions};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 300\n\
             chunk = 100\n\
             ms = 150\n\
             img = 8\n\
             frames = 1\n\
             kernels = sobel, median\n\
             modes = precise, fixed:4\n",
        )
        .unwrap()
    }

    /// Folds every chunk of `spec` serially.
    fn folded(spec: &ScenarioSpec) -> FleetAggregate {
        let mut agg = FleetAggregate::new(spec.clone());
        run_chunks(&mut agg, RunOptions::default(), |_| {}).unwrap();
        agg
    }

    #[test]
    fn fold_accounts_every_device_once() {
        let spec = tiny_spec();
        let agg = folded(&spec);
        assert!(agg.is_complete());
        assert_eq!(agg.devices_done(), spec.devices);
        assert_eq!(
            agg.cohorts.values().map(|c| c.devices).sum::<u64>(),
            spec.devices
        );
        assert_eq!(
            agg.cells.values().map(|s| s.devices).sum::<u64>(),
            spec.devices
        );
        assert!(agg.cells.len() as u64 <= spec.distinct_cells());
    }

    #[test]
    fn report_is_deterministic_json() {
        let spec = tiny_spec();
        let (a, b) = (folded(&spec), folded(&spec));
        let (ra, rb) = (a.render_report(), b.render_report());
        assert_eq!(ra, rb);
        assert!(ra.contains("\"complete\": true"));
        assert!(ra.contains("\"worst_forward_progress\""));
        assert!(ra.contains("kernel=sobel&mode=precise"), "{ra}");
    }

    #[test]
    fn fmt_f64_is_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1e-9).parse::<f64>().unwrap(), 1e-9);
    }
}
