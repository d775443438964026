//! Text timeline rendering: on/off phases with backup/restore/commit marks.
//!
//! The timeline compresses a run's tick range into a fixed-width row of
//! cells. Each cell is `#` when the system was powered and executing for
//! most of that slice, `.` when dark, and is overstruck by a marker when a
//! discrete event landed there: `B` backup, `R` restore, `C` commit,
//! `M` merge, `!` retention decay. Markers win over phase shading, and the
//! "most severe" marker wins within a cell (decay > backup > restore >
//! merge > commit).

use crate::event::Event;

/// One run's rendering input: the events between a `run_start` (inclusive)
/// and the next one (exclusive).
#[derive(Debug, Clone)]
pub struct TimelineRun<'a> {
    /// Run label ("" for implicit runs).
    pub label: &'a str,
    /// Events of this run, in trace order.
    pub events: &'a [Event],
}

/// Splits a flat event list into per-run slices on `run_start` boundaries.
pub fn split_runs(events: &[Event]) -> Vec<TimelineRun<'_>> {
    let mut runs: Vec<TimelineRun<'_>> = Vec::new();
    let mut start = 0usize;
    let mut label: &str = "";
    let mut seen_any = false;
    for (i, ev) in events.iter().enumerate() {
        if let Event::RunStart { label: l, .. } = ev {
            if seen_any {
                runs.push(TimelineRun {
                    label,
                    events: &events[start..i],
                });
            }
            start = i;
            label = l;
            seen_any = true;
        } else {
            seen_any = true;
        }
    }
    if seen_any {
        runs.push(TimelineRun {
            label,
            events: &events[start..],
        });
    }
    runs
}

/// Marker severity: higher overrides lower within one cell.
fn marker(ev: &Event) -> Option<(u8, char)> {
    match ev {
        Event::RetentionDecay { .. } => Some((5, '!')),
        Event::Backup { .. } => Some((4, 'B')),
        Event::Restore { .. } => Some((3, 'R')),
        Event::Merge { .. } => Some((2, 'M')),
        Event::FrameCommitted { .. } => Some((1, 'C')),
        _ => None,
    }
}

/// Renders one run as a multi-line string: a header, the phase row and a
/// tick ruler.
pub fn render_run(run: &TimelineRun<'_>, width: usize) -> String {
    let width = width.clamp(10, 400);
    let mut out = String::new();
    let label = if run.label.is_empty() {
        "(unlabeled run)"
    } else {
        run.label
    };
    // The tick range spans the run's extremes, not its first and last
    // events: traces are untrusted and their ticks need not be monotone.
    let first = run.events.iter().map(Event::tick).min().unwrap_or(0);
    let last = run.events.iter().map(Event::tick).max().unwrap_or(first);
    let span = (last - first).max(1);
    out.push_str(&format!(
        "{label}  ticks {first}..{last}  ({} events)\n",
        run.events.len()
    ));
    if run.events.is_empty() {
        out.push_str("  (empty)\n");
        return out;
    }

    // Phase reconstruction: walk backup (power down) / restore & run_start
    // (power up) transitions and shade each cell by the dominant phase.
    // on_time[i] accumulates powered ticks inside cell i.
    let cell_ticks = span as f64 / width as f64;
    let cell_of = |tick: u64| -> usize {
        ((tick.saturating_sub(first) as f64 / cell_ticks) as usize).min(width - 1)
    };
    let mut on_time = vec![0.0f64; width];
    let mut marks: Vec<Option<(u8, char)>> = vec![None; width];
    let mut powered = true; // runs begin powered (cold start happens at tick 0)
    let mut cursor = first;
    let credit = |from: u64, to: u64, powered: bool, on_time: &mut Vec<f64>| {
        if !powered || to <= from {
            return;
        }
        // Spread the powered interval across the cells it covers.
        let (a, b) = (cell_of(from), cell_of(to));
        if a == b {
            on_time[a] += (to - from) as f64;
        } else {
            for (i, slot) in on_time.iter_mut().enumerate().take(b + 1).skip(a) {
                let cell_start = first as f64 + i as f64 * cell_ticks;
                let cell_end = cell_start + cell_ticks;
                let lo = (from as f64).max(cell_start);
                let hi = (to as f64).min(cell_end);
                if hi > lo {
                    *slot += hi - lo;
                }
            }
        }
    };
    for ev in run.events {
        let t = ev.tick();
        match ev {
            Event::Backup { .. } => {
                credit(cursor, t, powered, &mut on_time);
                powered = false;
                cursor = t;
            }
            Event::Restore { .. } | Event::RunStart { .. } => {
                credit(cursor, t, powered, &mut on_time);
                powered = true;
                cursor = t;
            }
            _ => {}
        }
        if let Some((sev, ch)) = marker(ev) {
            let cell = cell_of(t);
            if marks[cell].map(|(s, _)| s < sev).unwrap_or(true) {
                marks[cell] = Some((sev, ch));
            }
        }
    }
    credit(cursor, last, powered, &mut on_time);

    let mut row = String::with_capacity(width + 4);
    row.push_str("  |");
    for i in 0..width {
        if let Some((_, ch)) = marks[i] {
            row.push(ch);
        } else if on_time[i] >= cell_ticks * 0.5 {
            row.push('#');
        } else {
            row.push('.');
        }
    }
    row.push('|');
    out.push_str(&row);
    out.push('\n');
    out.push_str(&format!("  |{:<w$}|\n", format!("^t={first}"), w = width));
    out.push_str("  legend: # on  . off  B backup  R restore  C commit  M merge  ! decay\n");
    out
}

/// Renders every run in an event list.
pub fn render(events: &[Event], width: usize) -> String {
    let runs = split_runs(events);
    if runs.is_empty() {
        return "(empty trace)\n".to_string();
    }
    let mut out = String::new();
    for run in &runs {
        out.push_str(&render_run(run, width));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backup(tick: u64) -> Event {
        Event::Backup {
            tick,
            cost_nj: 1.0,
            saved_nj: 0.0,
            live_fraction: 1.0,
            bits: 8,
        }
    }

    fn restore(tick: u64) -> Event {
        Event::Restore {
            tick,
            cost_nj: 1.0,
            outage_ticks: 10,
            rolled_forward: false,
            cold: false,
        }
    }

    #[test]
    fn split_runs_handles_implicit_and_explicit() {
        assert!(split_runs(&[]).is_empty());
        // Implicit: no run_start at all.
        let evs = [backup(5), restore(9)];
        let runs = split_runs(&evs);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "");
        assert_eq!(runs[0].events.len(), 2);
        // Two explicit runs.
        let evs = [
            Event::RunStart {
                tick: 0,
                label: "a".into(),
            },
            backup(5),
            Event::RunStart {
                tick: 0,
                label: "b".into(),
            },
            restore(3),
            restore(7),
        ];
        let runs = split_runs(&evs);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].label, runs[0].events.len()), ("a", 2));
        assert_eq!((runs[1].label, runs[1].events.len()), ("b", 3));
    }

    #[test]
    fn timeline_shades_on_off_and_marks() {
        // On for 0..50 (backup at 50), dark 50..90, on 90..100.
        let evs = [
            Event::RunStart {
                tick: 0,
                label: "r".into(),
            },
            backup(50),
            restore(90),
            Event::FrameCommitted {
                tick: 99,
                lane: 0,
                input_index: 0,
                incidental: false,
            },
        ];
        let text = render(&evs, 20);
        assert!(text.contains('B'), "{text}");
        assert!(text.contains('R'), "{text}");
        assert!(text.contains('C'), "{text}");
        assert!(text.contains('#'), "{text}");
        assert!(text.contains('.'), "{text}");
        // The dark span 50..90 occupies cells ~10..18: expect a run of dots
        // between B and R.
        let row = text.lines().nth(1).unwrap();
        let b = row.find('B').unwrap();
        let r = row.find('R').unwrap();
        assert!(r > b);
        assert!(row[b + 1..r].chars().all(|c| c == '.'), "{row}");
    }

    #[test]
    fn backwards_ticks_render_without_panicking() {
        // Traces are untrusted input: a run whose ticks go backwards must
        // render over its true tick range, not underflow.
        let evs = [
            Event::RunStart {
                tick: 100,
                label: "r".into(),
            },
            backup(5),
        ];
        let text = render(&evs, 20);
        assert!(text.contains("ticks 5..100"), "{text}");
        let row = text.lines().nth(1).unwrap();
        assert_eq!(row.len(), "  |".len() + 20 + 1, "{row}");
        assert!(row.contains('B'), "{row}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(render(&[], 40), "(empty trace)\n");
    }

    #[test]
    fn marker_severity_prefers_decay() {
        // Decay and commit land in the same cell: decay wins.
        let evs = [
            Event::FrameCommitted {
                tick: 10,
                lane: 0,
                input_index: 0,
                incidental: false,
            },
            Event::RetentionDecay {
                tick: 11,
                bit: 0,
                failures: 3,
            },
        ];
        let text = render(&evs, 10);
        assert!(text.contains('!'), "{text}");
    }
}
