//! Aggregation: per-kind counts, interval histograms and the energy ledger.
//!
//! A [`TraceSummary`] folds a stream of events into constant-size metrics:
//! how many of each kind, power-of-two histograms of inter-backup intervals
//! and outage durations, and an [`EnergyLedger`] summing the per-event
//! energy deltas. The ledger is the trace's self-check: summed deltas must
//! reconcile with the simulator's own `RunReport` totals (carried in the
//! `run_end` event), or the instrumentation has a hole in it.

use crate::event::{Event, EventKind, ParseError};
use std::fmt;
use std::io::BufRead;

/// Summed per-event energy deltas, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Harvested income (from `energy_flush` events).
    pub income_nj: f64,
    /// Compute spend (from `energy_flush` events).
    pub compute_nj: f64,
    /// Backup spend (from `backup` events).
    pub backup_nj: f64,
    /// Restore spend (from `restore` events).
    pub restore_nj: f64,
    /// Backup energy avoided by live-only scoping (from `backup` events).
    pub saved_nj: f64,
}

impl EnergyLedger {
    /// Folds one event's energy contribution into the ledger.
    pub fn observe(&mut self, ev: &Event) {
        match ev {
            Event::EnergyFlush {
                income_nj,
                compute_nj,
                ..
            } => {
                self.income_nj += income_nj;
                self.compute_nj += compute_nj;
            }
            Event::Backup {
                cost_nj, saved_nj, ..
            } => {
                self.backup_nj += cost_nj;
                self.saved_nj += saved_nj;
            }
            Event::Restore { cost_nj, .. } => self.restore_nj += cost_nj,
            _ => {}
        }
    }

    /// Checks this ledger against reference totals within a relative
    /// tolerance, returning the per-field mismatches (empty = reconciled).
    ///
    /// Backup/restore sums are bit-exact (same addition order as the
    /// simulator); income/compute are telescoping flush deltas, so they can
    /// differ from the reference by a few ulps of subtraction rounding —
    /// the default tolerance in [`TraceSummary::reconcile`] allows for
    /// that and nothing more.
    pub fn mismatches(&self, reference: &EnergyLedger, rel_tol: f64) -> Vec<LedgerMismatch> {
        let fields = [
            ("income_nj", self.income_nj, reference.income_nj),
            ("compute_nj", self.compute_nj, reference.compute_nj),
            ("backup_nj", self.backup_nj, reference.backup_nj),
            ("restore_nj", self.restore_nj, reference.restore_nj),
            ("saved_nj", self.saved_nj, reference.saved_nj),
        ];
        fields
            .into_iter()
            .filter(|&(_, got, want)| {
                let scale = want.abs().max(got.abs()).max(1.0);
                (got - want).abs() > rel_tol * scale
            })
            .map(|(field, got, want)| LedgerMismatch {
                field,
                ledger_nj: got,
                reference_nj: want,
            })
            .collect()
    }
}

/// One field where the ledger and the reference totals disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerMismatch {
    /// Ledger field name.
    pub field: &'static str,
    /// Value summed from events, nJ.
    pub ledger_nj: f64,
    /// Value the `run_end` event reported, nJ.
    pub reference_nj: f64,
}

impl fmt::Display for LedgerMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ledger {:.6} nJ vs run_end {:.6} nJ (delta {:+.6})",
            self.field,
            self.ledger_nj,
            self.reference_nj,
            self.ledger_nj - self.reference_nj
        )
    }
}

/// Power-of-two-binned histogram of unsigned samples.
///
/// Bin `i` holds samples whose value lies in `[2^(i-1), 2^i)`, with bin 0
/// holding `0`. Good enough resolution for quantities spanning many orders
/// of magnitude (ticks, nanojoules, milli-MSE), in 32 fixed bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: [u64; Self::BINS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Number of fixed bins.
    pub const BINS: usize = 32;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            bins: [0; Self::BINS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in one fold (used by population
    /// aggregation, where a whole cohort of devices shares one outcome).
    /// `n == 0` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bin = if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(Self::BINS - 1)
        };
        self.bins[bin] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (None if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (None if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds `other` in `n` times over — as if every one of its samples
    /// had been recorded here `n` times (bin-wise sum; min/max/mean
    /// combine accordingly). `n == 1` is a plain merge; population
    /// aggregation uses larger `n` where one simulated outcome stands for
    /// `n` devices. `n == 0` folds nothing.
    pub fn merge_weighted(&mut self, other: &Histogram, n: u64) {
        if n == 0 {
            return;
        }
        for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
            *mine += theirs.saturating_mul(n);
        }
        self.count += other.count.saturating_mul(n);
        self.sum = self.sum.saturating_add(other.sum.saturating_mul(n));
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Inclusive upper bound of the bucket containing quantile `q`
    /// (0..=1), in value units. `None` when empty. The bound overestimates
    /// the true quantile by at most 2× — the honest resolution of a log2
    /// histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        Some(self.max)
    }

    /// Raw bin counts, for aggregation-state persistence.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Raw sample sum, for aggregation-state persistence.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Raw `(min, max)` fields exactly as stored (`min == u64::MAX` when
    /// empty), for aggregation-state persistence.
    pub fn extremes_raw(&self) -> (u64, u64) {
        (self.min, self.max)
    }

    /// Reassembles a histogram from persisted parts (the exact values the
    /// raw accessors returned — no validation). This is the decode half of
    /// snapshot/resume support; a round trip through the raw accessors is
    /// identity.
    pub fn from_parts(
        bins: [u64; Self::BINS],
        count: u64,
        sum: u64,
        (min, max): (u64, u64),
    ) -> Self {
        Histogram {
            bins,
            count,
            sum,
            min,
            max,
        }
    }

    /// Renders non-empty bins as `[lo,hi): count` lines with a bar chart.
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        if self.count == 0 {
            out.push_str(indent);
            out.push_str("(no samples)\n");
            return out;
        }
        let peak = self.bins.iter().copied().max().unwrap_or(1).max(1);
        for (i, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0u64, 1u64)
            } else {
                (1u64 << (i - 1), 1u64 << i)
            };
            let bar_len = ((n as f64 / peak as f64) * 40.0).ceil() as usize;
            let bar: String = "█".repeat(bar_len);
            out.push_str(&format!("{indent}[{lo:>8}, {hi:>8}) {n:>8}  {bar}\n"));
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Totals carried by a `run_end` event, used to cross-check the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEndTotals {
    /// Final tick.
    pub tick: u64,
    /// Reference ledger from the simulator's own accounting.
    pub ledger: EnergyLedger,
    /// Backups performed.
    pub backups: u64,
    /// Restores performed.
    pub restores: u64,
    /// Frames committed.
    pub frames: u64,
    /// Lane-weighted forward progress.
    pub forward_progress: u64,
}

/// Per-run slice of a trace (a trace file may hold several runs, each
/// opened by a `run_start` event).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Label from the run's `run_start` event (empty for an implicit run).
    pub label: String,
    /// Events in this run (including its `run_start`/`run_end`).
    pub events: u64,
    /// Energy ledger summed from this run's events.
    pub ledger: EnergyLedger,
    /// Totals from this run's `run_end` event, if present.
    pub end: Option<RunEndTotals>,
}

impl RunSummary {
    fn new(label: String) -> Self {
        RunSummary {
            label,
            events: 0,
            ledger: EnergyLedger::default(),
            end: None,
        }
    }
}

/// Streaming aggregation of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    counts: [u64; EventKind::COUNT],
    /// Ledger over the whole trace (all runs).
    pub ledger: EnergyLedger,
    /// Histogram of intervals between consecutive backups, in ticks.
    pub inter_backup: Histogram,
    /// Histogram of outage durations, in ticks.
    pub outage_duration: Histogram,
    /// Per-run breakdown, in file order.
    pub runs: Vec<RunSummary>,
    /// Total retention-bit failures across all `retention_decay` events.
    pub retention_failures: u64,
    last_backup_tick: Option<u64>,
}

impl TraceSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        TraceSummary {
            counts: [0; EventKind::COUNT],
            ledger: EnergyLedger::default(),
            inter_backup: Histogram::new(),
            outage_duration: Histogram::new(),
            runs: Vec::new(),
            retention_failures: 0,
            last_backup_tick: None,
        }
    }

    /// Folds one event into the summary.
    pub fn observe(&mut self, ev: &Event) {
        self.counts[ev.kind().index()] += 1;
        self.ledger.observe(ev);
        match ev {
            Event::RunStart { label, .. } => {
                self.runs.push(RunSummary::new(label.clone()));
                self.last_backup_tick = None;
            }
            Event::Backup { tick, .. } => {
                if let Some(prev) = self.last_backup_tick {
                    self.inter_backup.record(tick.saturating_sub(prev));
                }
                self.last_backup_tick = Some(*tick);
            }
            Event::OutageEnd { duration, .. } => {
                self.outage_duration.record(*duration);
            }
            Event::RetentionDecay { failures, .. } => {
                self.retention_failures += failures;
            }
            _ => {}
        }
        // Runs are implicit when the file starts without a run_start.
        if self.runs.is_empty() {
            self.runs.push(RunSummary::new(String::new()));
        }
        let run = self.runs.last_mut().expect("pushed above");
        run.events += 1;
        run.ledger.observe(ev);
        if let Event::RunEnd {
            tick,
            income_nj,
            compute_nj,
            backup_nj,
            restore_nj,
            saved_nj,
            backups,
            restores,
            frames,
            forward_progress,
        } = ev
        {
            run.end = Some(RunEndTotals {
                tick: *tick,
                ledger: EnergyLedger {
                    income_nj: *income_nj,
                    compute_nj: *compute_nj,
                    backup_nj: *backup_nj,
                    restore_nj: *restore_nj,
                    saved_nj: *saved_nj,
                },
                backups: *backups,
                restores: *restores,
                frames: *frames,
                forward_progress: *forward_progress,
            });
        }
    }

    /// Folds `other` in `n` times over, as if its event stream had been
    /// observed here `n` times: counts, ledger, histograms and retention
    /// failures all scale by `n`. The per-run breakdown is **not**
    /// carried, so a long-lived fold target stays constant-size, and the
    /// inter-backup seam never bridges the two summaries (the interval
    /// from our last backup to the other's first belongs to neither).
    ///
    /// `n == 1` is the service fold: each `nvp-serve` run records into its
    /// own `CounterSink` and is absorbed into the process-wide `/metrics`
    /// view. Larger `n` is population aggregation, where one simulated
    /// device outcome stands for `n` identical devices. `n == 0` folds
    /// nothing.
    pub fn merge_weighted(&mut self, other: &TraceSummary, n: u64) {
        if n == 0 {
            return;
        }
        let w = n as f64;
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs.saturating_mul(n);
        }
        let o = &other.ledger;
        self.ledger.income_nj += o.income_nj * w;
        self.ledger.compute_nj += o.compute_nj * w;
        self.ledger.backup_nj += o.backup_nj * w;
        self.ledger.restore_nj += o.restore_nj * w;
        self.ledger.saved_nj += o.saved_nj * w;
        self.inter_backup.merge_weighted(&other.inter_backup, n);
        self.outage_duration
            .merge_weighted(&other.outage_duration, n);
        self.retention_failures += other.retention_failures.saturating_mul(n);
    }

    /// Per-kind event counts indexed by [`EventKind::index`], for
    /// aggregation-state persistence.
    pub fn kind_counts(&self) -> &[u64; EventKind::COUNT] {
        &self.counts
    }

    /// Reassembles a summary from persisted aggregate parts. The per-run
    /// breakdown and the inter-backup seam state are not persisted — a
    /// restored summary is an *aggregate* (fold target), not a replayable
    /// event stream.
    pub fn from_parts(
        counts: [u64; EventKind::COUNT],
        ledger: EnergyLedger,
        inter_backup: Histogram,
        outage_duration: Histogram,
        retention_failures: u64,
    ) -> Self {
        TraceSummary {
            counts,
            ledger,
            inter_backup,
            outage_duration,
            runs: Vec::new(),
            retention_failures,
            last_backup_tick: None,
        }
    }

    /// Count of one event kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Relative tolerance used by [`reconcile`](Self::reconcile): covers
    /// the subtraction rounding in telescoping income/compute flushes.
    pub const RECONCILE_REL_TOL: f64 = 1e-9;

    /// Cross-checks every run's summed ledger against its `run_end`
    /// totals. Returns the mismatching runs (empty = all reconciled).
    /// Runs without a `run_end` event (truncated traces) are skipped.
    pub fn reconcile(&self) -> Vec<(usize, Vec<LedgerMismatch>)> {
        self.runs
            .iter()
            .enumerate()
            .filter_map(|(i, run)| {
                let end = run.end.as_ref()?;
                let bad = run.ledger.mismatches(&end.ledger, Self::RECONCILE_REL_TOL);
                (!bad.is_empty()).then_some((i, bad))
            })
            .collect()
    }

    /// Reads and folds a whole JSONL stream; returns the events too.
    pub fn from_reader(reader: impl BufRead) -> Result<(Self, Vec<Event>), ReadError> {
        let mut summary = TraceSummary::new();
        let mut events = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| ReadError::Io(lineno + 1, e))?;
            if line.trim().is_empty() {
                continue;
            }
            let ev = Event::from_json(&line).map_err(|e| ReadError::Parse(lineno + 1, e))?;
            summary.observe(&ev);
            events.push(ev);
        }
        Ok((summary, events))
    }
}

impl Default for TraceSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Error reading a JSONL trace file.
#[derive(Debug)]
pub enum ReadError {
    /// I/O failure at the given 1-based line number.
    Io(usize, std::io::Error),
    /// Malformed event at the given 1-based line number.
    Parse(usize, ParseError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(line, e) => write!(f, "line {line}: {e}"),
            ReadError::Parse(line, e) => write!(f, "line {line}: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let rendered = h.render("  ");
        assert!(rendered.contains('█'), "{rendered}");
        // 1 lands in [1,2), 2..3 in [2,4), 4..7 in [4,8), 8 in [8,16).
        assert!(rendered.contains("[       1,        2)        2"));
        assert!(rendered.contains("[       2,        4)        2"));
    }

    #[test]
    fn empty_histogram_renders_placeholder() {
        assert!(Histogram::new().render("").contains("no samples"));
        assert_eq!(Histogram::new().min(), None);
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    fn backup(tick: u64, cost: f64) -> Event {
        Event::Backup {
            tick,
            cost_nj: cost,
            saved_nj: 1.0,
            live_fraction: 1.0,
            bits: 8,
        }
    }

    #[test]
    fn ledger_sums_and_reconciles() {
        let mut s = TraceSummary::new();
        s.observe(&Event::RunStart {
            tick: 0,
            label: "x".into(),
        });
        s.observe(&backup(100, 10.0));
        s.observe(&backup(150, 12.0));
        s.observe(&Event::Restore {
            tick: 200,
            cost_nj: 3.0,
            outage_ticks: 50,
            rolled_forward: false,
            cold: false,
        });
        s.observe(&Event::EnergyFlush {
            tick: 200,
            income_nj: 40.0,
            compute_nj: 25.0,
        });
        s.observe(&Event::RunEnd {
            tick: 300,
            income_nj: 40.0,
            compute_nj: 25.0,
            backup_nj: 22.0,
            restore_nj: 3.0,
            saved_nj: 2.0,
            backups: 2,
            restores: 1,
            frames: 0,
            forward_progress: 0,
        });
        assert_eq!(s.count(EventKind::Backup), 2);
        assert_eq!(s.inter_backup.count(), 1); // one 50-tick gap
        assert_eq!(s.ledger.backup_nj, 22.0);
        assert!(s.reconcile().is_empty(), "{:?}", s.reconcile());
    }

    #[test]
    fn reconcile_flags_a_hole() {
        let mut s = TraceSummary::new();
        s.observe(&backup(10, 5.0));
        // run_end claims 9 nJ of backups, but events only account for 5.
        s.observe(&Event::RunEnd {
            tick: 20,
            income_nj: 0.0,
            compute_nj: 0.0,
            backup_nj: 9.0,
            restore_nj: 0.0,
            saved_nj: 1.0,
            backups: 2,
            restores: 0,
            frames: 0,
            forward_progress: 0,
        });
        let bad = s.reconcile();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].1[0].field, "backup_nj");
    }

    #[test]
    fn multiple_runs_split_on_run_start() {
        let mut s = TraceSummary::new();
        for run in 0..3 {
            s.observe(&Event::RunStart {
                tick: 0,
                label: format!("run{run}"),
            });
            s.observe(&backup(5, 1.0));
        }
        assert_eq!(s.runs.len(), 3);
        assert_eq!(s.runs[2].label, "run2");
        for run in &s.runs {
            assert_eq!(run.events, 2);
            assert_eq!(run.ledger.backup_nj, 1.0);
        }
        // Inter-backup gaps never span a run boundary.
        assert_eq!(s.inter_backup.count(), 0);
    }

    #[test]
    fn merge_equals_sequential_observation() {
        // Observing one run per summary and merging must agree with
        // observing both runs into a single summary.
        let run = |label: &str, t0: u64| {
            vec![
                Event::RunStart {
                    tick: t0,
                    label: label.into(),
                },
                backup(t0 + 100, 10.0),
                backup(t0 + 160, 12.0),
                Event::OutageEnd {
                    tick: t0 + 200,
                    duration: 40,
                },
                Event::RetentionDecay {
                    tick: t0 + 200,
                    bit: 0,
                    failures: 3,
                },
            ]
        };
        let (ra, rb) = (run("a", 0), run("b", 1000));
        let mut merged = TraceSummary::new();
        let mut part_b = TraceSummary::new();
        let mut whole = TraceSummary::new();
        for ev in &ra {
            merged.observe(ev);
            whole.observe(ev);
        }
        for ev in &rb {
            part_b.observe(ev);
            whole.observe(ev);
        }
        merged.merge_weighted(&part_b, 1);
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.ledger, whole.ledger);
        assert_eq!(merged.outage_duration, whole.outage_duration);
        assert_eq!(merged.retention_failures, whole.retention_failures);
        // The donor's per-run rows are not carried over.
        assert_eq!(merged.runs, whole.runs[..1]);
        assert_eq!(merged.count(EventKind::Backup), 4);
        // One intra-run interval per run; neither path counts a cross-run
        // seam (RunStart resets the interval clock).
        assert_eq!(merged.inter_backup, whole.inter_backup);
        assert_eq!(merged.inter_backup.count(), 2);
    }

    #[test]
    fn histogram_merge_combines_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        b.record(1);
        b.record(1000);
        a.merge_weighted(&b, 1);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
        assert!((a.mean() - 335.0).abs() < 1e-9);
        let empty = Histogram::new();
        let before = a.clone();
        a.merge_weighted(&empty, 1);
        assert_eq!(a, before, "merging an empty histogram is a no-op");
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut weighted = Histogram::new();
        let mut repeated = Histogram::new();
        for v in [0, 9, 10, 25, 4000] {
            weighted.record_n(v, 3);
            for _ in 0..3 {
                repeated.record(v);
            }
        }
        assert_eq!(weighted, repeated);
        let before = weighted.clone();
        weighted.record_n(77, 0);
        assert_eq!(weighted, before, "zero-weight record is a no-op");
    }

    #[test]
    fn histogram_merge_weighted_scales_counts() {
        let mut base = Histogram::new();
        base.record(6);
        let mut other = Histogram::new();
        other.record(1);
        other.record(40);
        base.merge_weighted(&other, 5);
        assert_eq!(base.count(), 11);
        assert_eq!(base.min(), Some(1));
        assert_eq!(base.max(), Some(40));
        assert_eq!(base.sum(), 6 + 5 * 41);
        // n = 1 is exactly recording the donor's samples here.
        let mut a = Histogram::new();
        a.record(9);
        let mut b = a.clone();
        let mut add = Histogram::new();
        add.record(17);
        a.record(17);
        b.merge_weighted(&add, 1);
        assert_eq!(a, b);
        // n = 0 folds nothing.
        let before = a.clone();
        a.merge_weighted(&add, 0);
        assert_eq!(a, before);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        let mut h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        // Ranks 1..=4 land in bins [1,2), [2,4), [2,4), [64,128): the
        // quantile is the inclusive upper bound of the covering bucket.
        assert_eq!(h.quantile(0.25), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.75), Some(3));
        assert_eq!(h.quantile(1.0), Some(127));
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(1.0), Some(0));
    }

    #[test]
    fn histogram_from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 3, 9, 250, 7777] {
            h.record_n(v, v + 1);
        }
        let mut bins = [0u64; Histogram::BINS];
        bins.copy_from_slice(h.bins());
        let rebuilt = Histogram::from_parts(bins, h.count(), h.sum(), h.extremes_raw());
        assert_eq!(rebuilt, h);
        assert_eq!(
            Histogram::from_parts([0; Histogram::BINS], 0, 0, (u64::MAX, 0)).min(),
            None
        );
    }

    #[test]
    fn summary_merge_weighted_matches_n_plain_merges() {
        let mut src = TraceSummary::new();
        src.observe(&Event::RunStart {
            tick: 0,
            label: "w".into(),
        });
        src.observe(&backup(100, 10.0));
        src.observe(&backup(160, 12.0));
        src.observe(&Event::OutageEnd {
            tick: 200,
            duration: 40,
        });
        src.observe(&Event::RetentionDecay {
            tick: 200,
            bit: 1,
            failures: 2,
        });
        let mut plain = TraceSummary::new();
        for _ in 0..3 {
            plain.merge_weighted(&src, 1);
        }
        let mut weighted = TraceSummary::new();
        weighted.merge_weighted(&src, 3);
        assert_eq!(weighted.kind_counts(), plain.kind_counts());
        assert_eq!(weighted.ledger, plain.ledger);
        assert_eq!(weighted.inter_backup, plain.inter_backup);
        assert_eq!(weighted.outage_duration, plain.outage_duration);
        assert_eq!(weighted.retention_failures, plain.retention_failures);
        assert!(weighted.runs.is_empty(), "weighted folds carry no runs");
        // Zero weight folds nothing.
        let before = weighted.clone();
        weighted.merge_weighted(&src, 0);
        assert_eq!(weighted, before);
    }

    #[test]
    fn summary_from_parts_rebuilds_aggregate() {
        let mut src = TraceSummary::new();
        src.observe(&backup(10, 4.0));
        src.observe(&Event::OutageEnd {
            tick: 50,
            duration: 9,
        });
        let rebuilt = TraceSummary::from_parts(
            *src.kind_counts(),
            src.ledger,
            src.inter_backup.clone(),
            src.outage_duration.clone(),
            src.retention_failures,
        );
        assert_eq!(rebuilt.kind_counts(), src.kind_counts());
        assert_eq!(rebuilt.ledger, src.ledger);
        assert_eq!(rebuilt.outage_duration, src.outage_duration);
        assert_eq!(rebuilt.total(), src.total());
    }

    #[test]
    fn from_reader_parses_jsonl() {
        let text = format!(
            "{}\n\n{}\n",
            Event::RunStart {
                tick: 0,
                label: "r".into()
            }
            .to_json(),
            backup(9, 2.5).to_json()
        );
        let (summary, events) = TraceSummary::from_reader(std::io::Cursor::new(text)).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(summary.total(), 2);
        let err = TraceSummary::from_reader(std::io::Cursor::new("{bad")).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
