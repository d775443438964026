//! Resumable snapshots: the full aggregation state as a text document.
//!
//! Format (`nvp-fleet-snap-v1`): a header with the fold cursor, the
//! embedded canonical spec (so a snapshot is self-describing and its job
//! id can be re-derived and verified), one block per cohort and one per
//! cell. Every f64 is serialized as the hex of its IEEE-754 bit pattern —
//! resume must restore *bit-identical* state or the byte-identity of the
//! final report across `resume` would be a lie.

use crate::agg::{CellStat, CohortAgg, FleetAggregate};
use crate::ordinal::CellTable;
use crate::spec::{ScenarioSpec, MAX_CELLS};
use nvp_trace::{EnergyLedger, EventKind, Histogram, TraceSummary};
use std::collections::BTreeMap;
use std::fmt;

/// A snapshot that cannot be decoded, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line number (0 for whole-document errors).
    pub line: usize,
    /// Human-readable reason.
    pub detail: String,
}

impl SnapshotError {
    fn new(line: usize, detail: impl Into<String>) -> Self {
        SnapshotError {
            line,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "bad fleet snapshot: {}", self.detail)
        } else {
            write!(f, "bad fleet snapshot line {}: {}", self.line, self.detail)
        }
    }
}

impl std::error::Error for SnapshotError {}

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Encodes a histogram. `unit=1` is a fixed field of the
/// `nvp-fleet-snap-v1` format; [`decode_hist`] refuses any other unit.
fn encode_hist(h: &Histogram) -> String {
    let (min, max) = h.extremes_raw();
    format!(
        "unit=1;count={};sum={};min={};max={};bins={}",
        h.count(),
        h.sum(),
        min,
        max,
        h.bins()
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Serializes the complete aggregation state.
pub fn encode_snapshot(agg: &FleetAggregate) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("nvp-fleet-snap-v1\n");
    out.push_str(&format!("next_chunk = {}\n", agg.next_chunk));
    out.push_str(&format!("cell_evaluations = {}\n", agg.cell_evaluations));
    out.push_str("spec {\n");
    out.push_str(&agg.spec.canonical());
    out.push_str("}\n");
    for (name, c) in &agg.cohorts {
        out.push_str(&format!("cohort {name} {{\n"));
        out.push_str(&format!("devices = {}\n", c.devices));
        out.push_str(&format!("hist_fp = {}\n", encode_hist(&c.forward_progress)));
        out.push_str(&format!("hist_backup = {}\n", encode_hist(&c.backup_nj)));
        out.push_str(&format!("hist_mse = {}\n", encode_hist(&c.mse_milli)));
        out.push_str(&format!(
            "counts = {}\n",
            c.summary
                .kind_counts()
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        let l = &c.summary.ledger;
        out.push_str(&format!(
            "ledger = {},{},{},{},{}\n",
            hex_f64(l.income_nj),
            hex_f64(l.compute_nj),
            hex_f64(l.backup_nj),
            hex_f64(l.restore_nj),
            hex_f64(l.saved_nj)
        ));
        out.push_str(&format!(
            "hist_inter = {}\n",
            encode_hist(&c.summary.inter_backup)
        ));
        out.push_str(&format!(
            "hist_outage = {}\n",
            encode_hist(&c.summary.outage_duration)
        ));
        out.push_str(&format!("retention = {}\n", c.summary.retention_failures));
        out.push_str("}\n");
    }
    for (canon, s) in &agg.cells {
        out.push_str(&format!("cell {canon} {{\n"));
        out.push_str(&format!("devices = {}\n", s.devices));
        out.push_str(&format!("fp = {}\n", s.forward_progress));
        out.push_str(&format!("backup_nj = {}\n", hex_f64(s.backup_nj)));
        out.push_str(&format!("mse_milli = {}\n", s.mse_milli));
        out.push_str(&format!("frames = {}\n", s.frames_committed));
        out.push_str("}\n");
    }
    out
}

/// Line cursor over the snapshot document.
struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Option<(usize, &'a str)> {
        self.iter.next().map(|(i, l)| (i + 1, l))
    }
}

fn parse_u64(value: &str, line: usize, what: &str) -> Result<u64, SnapshotError> {
    value
        .parse::<u64>()
        .map_err(|_| SnapshotError::new(line, format!("{what} '{value}' is not an integer")))
}

fn parse_hex_f64(value: &str, line: usize, what: &str) -> Result<f64, SnapshotError> {
    u64::from_str_radix(value, 16)
        .map(f64::from_bits)
        .map_err(|_| SnapshotError::new(line, format!("{what} '{value}' is not a hex bit pattern")))
}

fn parse_kv(raw: &str, line: usize) -> Result<(&str, &str), SnapshotError> {
    raw.split_once('=')
        .map(|(k, v)| (k.trim(), v.trim()))
        .ok_or_else(|| SnapshotError::new(line, format!("expected 'key = value', got '{raw}'")))
}

fn decode_hist(value: &str, line: usize) -> Result<Histogram, SnapshotError> {
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut bins = [0u64; Histogram::BINS];
    let mut saw_bins = false;
    for field in value.split(';') {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| SnapshotError::new(line, format!("bad histogram field '{field}'")))?;
        match k {
            "unit" if v != "1" => {
                return Err(SnapshotError::new(
                    line,
                    format!("histogram unit '{v}' is not 1"),
                ))
            }
            "unit" => {}
            "count" => count = parse_u64(v, line, "count")?,
            "sum" => sum = parse_u64(v, line, "sum")?,
            "min" => min = parse_u64(v, line, "min")?,
            "max" => max = parse_u64(v, line, "max")?,
            "bins" => {
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != Histogram::BINS {
                    return Err(SnapshotError::new(
                        line,
                        format!("want {} bins, got {}", Histogram::BINS, parts.len()),
                    ));
                }
                for (slot, p) in bins.iter_mut().zip(parts) {
                    *slot = parse_u64(p, line, "bin")?;
                }
                saw_bins = true;
            }
            other => {
                return Err(SnapshotError::new(
                    line,
                    format!("unknown histogram field '{other}'"),
                ))
            }
        }
    }
    if !saw_bins {
        return Err(SnapshotError::new(line, "histogram missing bins"));
    }
    // Every fold adds to a bin and to the count together; a histogram
    // that breaks this would overflow `quantile` when the report renders.
    if bins.iter().try_fold(0u64, |s, &b| s.checked_add(b)) != Some(count) {
        return Err(SnapshotError::new(
            line,
            format!("histogram bins do not sum to count {count}"),
        ));
    }
    Ok(Histogram::from_parts(bins, count, sum, (min, max)))
}

/// Largest restored value of a counter that is not device-weighted:
/// trace event counts, the inter-backup and outage histogram counts,
/// retention failures and `cell_evaluations`.
///
/// Resuming folds the rest of the fleet on top of the restored state, so
/// every restored counter needs room for a full fleet's folds:
/// - A device-weighted count (cohort and cell devices, and the count of
///   each per-device histogram, which bounds its bins) grows by one per
///   folded device. Capped at `spec.devices` ≤ `MAX_DEVICES` = 10^7, it
///   ends below 2 × 10^7.
/// - A trace counter grows per folded device by one simulated run's
///   count. A run lasts at most 30 s = 3 × 10^5 ticks (< 2^19) of 100
///   cycles and emits a few events per cycle at most (< 2^28 per kind).
///   Each outage, at most one per tick, fails at most 8 bits × 8 memory
///   versions × 16,128 words (< 2^20). So one run adds less than 2^39,
///   and at most `MAX_DEVICES` < 2^24 devices add less than 2^63: a
///   counter restored at ≤ 2^63 ends below 2^64.
/// - `cell_evaluations` grows by at most `MAX_CELLS` = 2^12 per chunk,
///   over at most `MAX_DEVICES` chunks: less than 2^36 in all.
const COUNTER_CEILING: u64 = 1 << 63;

/// Refuses a decoded aggregate whose counters a resume could overflow
/// (see [`COUNTER_CEILING`]).
fn check_headroom(agg: &FleetAggregate) -> Result<(), SnapshotError> {
    let refuse = |detail: String| Err(SnapshotError::new(0, detail));
    let devices = agg.spec.devices;
    if agg.next_chunk > agg.spec.chunks() {
        return refuse(format!(
            "next_chunk {} is past the spec's {} chunks",
            agg.next_chunk,
            agg.spec.chunks()
        ));
    }
    if agg.cell_evaluations > COUNTER_CEILING || agg.cells.len() as u64 > MAX_CELLS {
        return refuse("cell counters exceed their bounds".into());
    }
    for (name, c) in &agg.cohorts {
        let weighted = [
            ("devices", c.devices),
            ("hist_fp", c.forward_progress.count()),
            ("hist_backup", c.backup_nj.count()),
            ("hist_mse", c.mse_milli.count()),
        ];
        if let Some((what, n)) = weighted.into_iter().find(|&(_, n)| n > devices) {
            return refuse(format!(
                "cohort {name}: {what} counts {n}, over the spec's {devices} devices"
            ));
        }
        let s = &c.summary;
        let mut counters = s.kind_counts().iter().copied().chain([
            s.inter_backup.count(),
            s.outage_duration.count(),
            s.retention_failures,
        ]);
        if counters.any(|n| n > COUNTER_CEILING) {
            return refuse(format!("cohort {name}: a trace counter exceeds 2^63"));
        }
    }
    for (canon, s) in &agg.cells {
        if s.devices > devices {
            return refuse(format!(
                "cell {canon}: {} devices, over the spec's {devices}",
                s.devices
            ));
        }
    }
    Ok(())
}

/// Restores an aggregate from its snapshot document, refusing one whose
/// counters a resume could overflow.
pub fn decode_snapshot(text: &str) -> Result<FleetAggregate, SnapshotError> {
    let mut lines = Lines {
        iter: text.lines().enumerate(),
    };
    match lines.next() {
        Some((_, "nvp-fleet-snap-v1")) => {}
        other => {
            return Err(SnapshotError::new(
                other.map(|(l, _)| l).unwrap_or(0),
                "expected 'nvp-fleet-snap-v1' header",
            ))
        }
    }
    let mut next_chunk = None;
    let mut cell_evaluations = None;
    let mut spec: Option<ScenarioSpec> = None;
    let mut cohorts: BTreeMap<String, CohortAgg> = BTreeMap::new();
    let mut cells: BTreeMap<String, CellStat> = BTreeMap::new();
    // Each cohort and cell block's header line, checked against the spec
    // once it is known.
    let mut names: Vec<(usize, &str, &str)> = Vec::new();

    while let Some((ln, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "spec {" {
            let mut body = String::new();
            loop {
                match lines.next() {
                    Some((_, "}")) => break,
                    Some((_, l)) => {
                        body.push_str(l);
                        body.push('\n');
                    }
                    None => return Err(SnapshotError::new(ln, "unterminated spec block")),
                }
            }
            spec = Some(
                ScenarioSpec::parse(&body)
                    .map_err(|e| SnapshotError::new(ln, format!("embedded spec: {e}")))?,
            );
        } else if let Some(name) = line
            .strip_prefix("cohort ")
            .and_then(|r| r.strip_suffix(" {"))
        {
            let mut c = CohortAgg {
                devices: 0,
                forward_progress: Histogram::new(),
                backup_nj: Histogram::new(),
                mse_milli: Histogram::new(),
                summary: TraceSummary::new(),
            };
            let mut counts = [0u64; EventKind::COUNT];
            let mut ledger = EnergyLedger::default();
            let mut inter = Histogram::new();
            let mut outage = Histogram::new();
            let mut retention = 0u64;
            loop {
                match lines.next() {
                    Some((_, "}")) => break,
                    Some((bln, body)) => {
                        let (k, v) = parse_kv(body, bln)?;
                        match k {
                            "devices" => c.devices = parse_u64(v, bln, "devices")?,
                            "hist_fp" => c.forward_progress = decode_hist(v, bln)?,
                            "hist_backup" => c.backup_nj = decode_hist(v, bln)?,
                            "hist_mse" => c.mse_milli = decode_hist(v, bln)?,
                            "counts" => {
                                let parts: Vec<&str> = v.split(',').collect();
                                if parts.len() != EventKind::COUNT {
                                    return Err(SnapshotError::new(
                                        bln,
                                        format!(
                                            "want {} event counts, got {}",
                                            EventKind::COUNT,
                                            parts.len()
                                        ),
                                    ));
                                }
                                for (slot, p) in counts.iter_mut().zip(parts) {
                                    *slot = parse_u64(p, bln, "count")?;
                                }
                            }
                            "ledger" => {
                                let parts: Vec<&str> = v.split(',').collect();
                                if parts.len() != 5 {
                                    return Err(SnapshotError::new(bln, "want 5 ledger fields"));
                                }
                                ledger.income_nj = parse_hex_f64(parts[0], bln, "income")?;
                                ledger.compute_nj = parse_hex_f64(parts[1], bln, "compute")?;
                                ledger.backup_nj = parse_hex_f64(parts[2], bln, "backup")?;
                                ledger.restore_nj = parse_hex_f64(parts[3], bln, "restore")?;
                                ledger.saved_nj = parse_hex_f64(parts[4], bln, "saved")?;
                            }
                            "hist_inter" => inter = decode_hist(v, bln)?,
                            "hist_outage" => outage = decode_hist(v, bln)?,
                            "retention" => retention = parse_u64(v, bln, "retention")?,
                            other => {
                                return Err(SnapshotError::new(
                                    bln,
                                    format!("unknown cohort field '{other}'"),
                                ))
                            }
                        }
                    }
                    None => return Err(SnapshotError::new(ln, "unterminated cohort block")),
                }
            }
            c.summary = TraceSummary::from_parts(counts, ledger, inter, outage, retention);
            cohorts.insert(name.to_string(), c);
            names.push((ln, "cohort", name));
        } else if let Some(canon) = line
            .strip_prefix("cell ")
            .and_then(|r| r.strip_suffix(" {"))
        {
            let mut s = CellStat {
                devices: 0,
                forward_progress: 0,
                backup_nj: 0.0,
                mse_milli: 0,
                frames_committed: 0,
            };
            loop {
                match lines.next() {
                    Some((_, "}")) => break,
                    Some((bln, body)) => {
                        let (k, v) = parse_kv(body, bln)?;
                        match k {
                            "devices" => s.devices = parse_u64(v, bln, "devices")?,
                            "fp" => s.forward_progress = parse_u64(v, bln, "fp")?,
                            "backup_nj" => s.backup_nj = parse_hex_f64(v, bln, "backup_nj")?,
                            "mse_milli" => s.mse_milli = parse_u64(v, bln, "mse_milli")?,
                            "frames" => s.frames_committed = parse_u64(v, bln, "frames")?,
                            other => {
                                return Err(SnapshotError::new(
                                    bln,
                                    format!("unknown cell field '{other}'"),
                                ))
                            }
                        }
                    }
                    None => return Err(SnapshotError::new(ln, "unterminated cell block")),
                }
            }
            cells.insert(canon.to_string(), s);
            names.push((ln, "cell", canon));
        } else {
            let (k, v) = parse_kv(line, ln)?;
            match k {
                "next_chunk" => next_chunk = Some(parse_u64(v, ln, "next_chunk")?),
                "cell_evaluations" => {
                    cell_evaluations = Some(parse_u64(v, ln, "cell_evaluations")?)
                }
                other => return Err(SnapshotError::new(ln, format!("unknown key '{other}'"))),
            }
        }
    }

    let spec = spec.ok_or_else(|| SnapshotError::new(0, "missing spec block"))?;
    // A block the spec does not name would count toward the cell bound
    // and render in the report although no device maps to it.
    let table = CellTable::new(&spec);
    for (ln, kind, name) in names {
        let known = match kind {
            "cell" => table.ordinal_of(name).is_some(),
            _ => table
                .cohorts()
                .binary_search_by(|c| c.as_str().cmp(name))
                .is_ok(),
        };
        if !known {
            return Err(SnapshotError::new(
                ln,
                format!("{kind} '{name}' is not in the spec"),
            ));
        }
    }
    let agg = FleetAggregate {
        spec,
        next_chunk: next_chunk.ok_or_else(|| SnapshotError::new(0, "missing next_chunk"))?,
        cell_evaluations: cell_evaluations
            .ok_or_else(|| SnapshotError::new(0, "missing cell_evaluations"))?,
        cohorts,
        cells,
    };
    check_headroom(&agg)?;
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_chunks, RunOptions};

    fn folded_aggregate() -> FleetAggregate {
        let spec = ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 200\n\
             chunk = 100\n\
             ms = 150\n\
             img = 8\n\
             frames = 1\n\
             kernels = sobel, median\n",
        )
        .unwrap();
        let mut agg = FleetAggregate::new(spec);
        let stop = RunOptions {
            jobs: 1,
            stop_after_chunks: Some(1),
        };
        let Ok(_) = run_chunks(&mut agg, stop, |_| {});
        agg
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let agg = folded_aggregate();
        let text = encode_snapshot(&agg);
        let restored = decode_snapshot(&text).unwrap();
        assert_eq!(restored, agg);
        // Including the report derived from it, byte for byte.
        assert_eq!(restored.render_report(), agg.render_report());
        // And the re-encoded snapshot itself.
        assert_eq!(encode_snapshot(&restored), text);
    }

    #[test]
    fn snapshot_embeds_a_verifiable_spec() {
        let agg = folded_aggregate();
        let text = encode_snapshot(&agg);
        assert!(text.contains("fleet-spec-v1"));
        let restored = decode_snapshot(&text).unwrap();
        assert_eq!(restored.spec.job_id(), agg.spec.job_id());
        assert_eq!(restored.next_chunk, 1);
        assert!(!restored.is_complete());
    }

    #[test]
    fn corrupt_snapshots_name_the_line() {
        for (mangle, needle) in [
            ("nvp-fleet-snap-v0", "header"),
            ("next_chunk = x", "not an integer"),
            ("hist_fp = unit=1", "missing bins"),
        ] {
            let good = encode_snapshot(&folded_aggregate());
            let bad = match mangle {
                "nvp-fleet-snap-v0" => good.replace("nvp-fleet-snap-v1", mangle),
                "next_chunk = x" => good.replace("next_chunk = 1", mangle),
                _ => {
                    let line_start = good.find("hist_fp = ").unwrap();
                    let line_end = line_start + good[line_start..].find('\n').unwrap();
                    format!("{}{}{}", &good[..line_start], mangle, &good[line_end..])
                }
            };
            let err = decode_snapshot(&bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{mangle}: {err}");
        }
    }

    #[test]
    fn cells_outside_the_spec_are_refused() {
        let good = encode_snapshot(&folded_aggregate());
        for kind in ["cell ", "cohort "] {
            let (index, header) = good
                .lines()
                .enumerate()
                .find(|(_, l)| l.starts_with(kind) && l.contains("sobel"))
                .unwrap();
            // fft is not among the spec's kernels.
            let renamed = header.replacen("sobel", "fft", 1);
            let bad = good.replacen(header, &renamed, 1);
            let err = decode_snapshot(&bad).unwrap_err();
            assert_eq!(err.line, index + 1, "{kind}: {err}");
            assert!(err.to_string().contains("not in the spec"), "{kind}: {err}");
        }
    }

    #[test]
    fn truncated_snapshot_is_refused() {
        let good = encode_snapshot(&folded_aggregate());
        // Cut inside the spec block: the block is left unterminated.
        let cut = &good[..good.find("spec {").unwrap() + "spec {\n".len()];
        let err = decode_snapshot(cut).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        assert!(decode_snapshot("nvp-fleet-snap-v1\n").is_err());
    }
}
