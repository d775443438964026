//! Trace diffing: localize where two configurations diverge.
//!
//! Two runs of the simulator with slightly different configs produce
//! traces that agree for a prefix and then fork. [`diff`] reports three
//! levels of comparison, cheapest first: per-kind count deltas, energy
//! ledger deltas, and the first index where the event streams differ —
//! both as kind sequences (robust to float jitter) and as full events.

use crate::event::{Event, EventKind};
use crate::summary::TraceSummary;
use std::fmt;

/// The result of comparing two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Kinds whose counts differ: (kind, count in A, count in B).
    pub count_deltas: Vec<(EventKind, u64, u64)>,
    /// Ledger fields that differ: (field, A nJ, B nJ).
    pub ledger_deltas: Vec<(&'static str, f64, f64)>,
    /// First index where the *kind sequences* differ, with the kinds seen
    /// (`None` = past the end of that trace).
    pub first_kind_divergence: Option<(usize, Option<EventKind>, Option<EventKind>)>,
    /// First index where the full events differ (field-level comparison),
    /// with both events rendered as JSON.
    pub first_event_divergence: Option<(usize, Option<String>, Option<String>)>,
    /// Lengths of the two traces.
    pub lens: (usize, usize),
}

impl TraceDiff {
    /// True when the traces are event-for-event identical.
    pub fn identical(&self) -> bool {
        self.first_event_divergence.is_none() && self.lens.0 == self.lens.1
    }
}

/// Compares two event streams.
pub fn diff(a: &[Event], b: &[Event]) -> TraceDiff {
    let mut sa = TraceSummary::new();
    let mut sb = TraceSummary::new();
    for ev in a {
        sa.observe(ev);
    }
    for ev in b {
        sb.observe(ev);
    }

    let count_deltas = EventKind::ALL
        .iter()
        .copied()
        .filter(|&k| sa.count(k) != sb.count(k))
        .map(|k| (k, sa.count(k), sb.count(k)))
        .collect();

    let ledger_deltas = sa
        .ledger
        .fields()
        .into_iter()
        .zip(sb.ledger.fields())
        .map(|((field, x), (_, y))| (field, x, y))
        .filter(|&(_, x, y)| x != y)
        .collect();

    let mut first_kind_divergence = None;
    let mut first_event_divergence = None;
    let n = a.len().max(b.len());
    for i in 0..n {
        let (ea, eb) = (a.get(i), b.get(i));
        if first_kind_divergence.is_none() && ea.map(Event::kind) != eb.map(Event::kind) {
            first_kind_divergence = Some((i, ea.map(Event::kind), eb.map(Event::kind)));
        }
        if ea != eb {
            first_event_divergence = Some((i, ea.map(Event::to_json), eb.map(Event::to_json)));
            break;
        }
    }

    TraceDiff {
        count_deltas,
        ledger_deltas,
        first_kind_divergence,
        first_event_divergence,
        lens: (a.len(), b.len()),
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identical() {
            return writeln!(f, "traces identical ({} events)", self.lens.0);
        }
        writeln!(
            f,
            "traces differ: A has {} events, B has {}",
            self.lens.0, self.lens.1
        )?;
        if !self.count_deltas.is_empty() {
            writeln!(f, "event-count deltas:")?;
            for (kind, ca, cb) in &self.count_deltas {
                writeln!(
                    f,
                    "  {:<18} A {:>8}  B {:>8}  ({:+})",
                    kind.name(),
                    ca,
                    cb,
                    *cb as i64 - *ca as i64
                )?;
            }
        }
        if !self.ledger_deltas.is_empty() {
            writeln!(f, "energy-ledger deltas:")?;
            for (field, x, y) in &self.ledger_deltas {
                writeln!(
                    f,
                    "  {:<12} A {:>16.4} nJ  B {:>16.4} nJ  ({:+.4})",
                    field,
                    x,
                    y,
                    y - x
                )?;
            }
        }
        if let Some((i, ka, kb)) = &self.first_kind_divergence {
            let name = |k: &Option<EventKind>| k.map(|k| k.name()).unwrap_or("<end of trace>");
            writeln!(
                f,
                "first kind divergence at event {i}: A={} B={}",
                name(ka),
                name(kb)
            )?;
        }
        if let Some((i, ea, eb)) = &self.first_event_divergence {
            writeln!(f, "first event divergence at event {i}:")?;
            writeln!(f, "  A: {}", ea.as_deref().unwrap_or("<end of trace>"))?;
            writeln!(f, "  B: {}", eb.as_deref().unwrap_or("<end of trace>"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backup(tick: u64, cost: f64) -> Event {
        Event::Backup {
            tick,
            cost_nj: cost,
            saved_nj: 0.0,
            live_fraction: 1.0,
            bits: 8,
        }
    }

    #[test]
    fn identical_traces() {
        let evs = vec![backup(1, 2.0), Event::OutageStart { tick: 2 }];
        let d = diff(&evs, &evs.clone());
        assert!(d.identical());
        assert!(d.count_deltas.is_empty());
        assert!(d.to_string().contains("identical"));
    }

    #[test]
    fn field_jitter_is_event_divergence_but_not_kind_divergence() {
        let a = vec![backup(1, 2.0), backup(5, 2.0)];
        let b = vec![backup(1, 2.0), backup(5, 2.5)];
        let d = diff(&a, &b);
        assert!(!d.identical());
        // Same kinds throughout.
        assert_eq!(d.first_kind_divergence, None);
        // But event 1 differs in cost.
        assert_eq!(d.first_event_divergence.as_ref().unwrap().0, 1);
        assert_eq!(d.ledger_deltas.len(), 1);
        assert_eq!(d.ledger_deltas[0].0, "backup_nj");
    }

    #[test]
    fn structural_divergence_reports_kinds_and_counts() {
        let a = vec![backup(1, 2.0), Event::OutageStart { tick: 2 }];
        let b = vec![backup(1, 2.0)];
        let d = diff(&a, &b);
        let (i, ka, kb) = d.first_kind_divergence.unwrap();
        assert_eq!(i, 1);
        assert_eq!(ka, Some(EventKind::OutageStart));
        assert_eq!(kb, None);
        assert_eq!(d.count_deltas, vec![(EventKind::OutageStart, 1, 0)]);
        assert!(d.to_string().contains("end of trace"));
    }
}
