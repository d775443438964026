//! Integration tests for the `nvp-trace` instrumentation of the system
//! simulator: the event stream must reconcile bit-for-bit (within floating
//! tolerance) with the `RunReport`, obey the documented emission ordering,
//! survive a JSONL round trip, and leave the simulation itself untouched.

use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_power::{PowerProfile, Ticks};
use nvp_sim::{ExecMode, RunReport, SystemConfig, SystemSim};
use nvp_trace::{Event, EventKind, NoopTracer, TraceSummary, VecSink};

fn frames(id: KernelId, n: usize) -> Vec<Vec<i32>> {
    (0..n).map(|i| id.make_input(8, 8, 7 + i as u64)).collect()
}

/// Runs a kernel in `mode` over `profile`, returning both the report and
/// the captured event stream. An incidental run rolls forward once its
/// live frame is 20 ticks old.
fn run_traced(mode: ExecMode, profile: &PowerProfile, n: usize) -> (RunReport, Vec<Event>) {
    let id = KernelId::Tiff2Bw;
    let cfg = SystemConfig {
        record_outputs: false,
        staleness: Ticks(20),
        ..Default::default()
    };
    let mut sink = VecSink::new();
    let rep =
        SystemSim::new(id.spec(8, 8), frames(id, n), mode, cfg).run_traced(profile, &mut sink);
    (rep, sink.events)
}

/// 12 ticks at 800 µW then 138 dead: forces repeated backup/restore cycles.
fn bursty() -> PowerProfile {
    let pattern: Vec<f64> = (0..60_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    PowerProfile::from_uw(pattern)
}

fn summarize(events: &[Event]) -> TraceSummary {
    let mut s = TraceSummary::new();
    for ev in events {
        s.observe(ev);
    }
    s
}

/// The ledger summed from events must match the report's energy totals and
/// the `run_end` record, on a bursty synthetic profile (Precise mode).
#[test]
fn ledger_reconciles_on_bursty_profile() {
    let (rep, events) = run_traced(ExecMode::Precise, &bursty(), 2);
    assert!(rep.backups > 0, "bursty profile must force backups");
    let s = summarize(&events);
    assert_eq!(s.reconcile(), vec![], "ledger must reconcile");
    let end = s.runs[0].end.expect("trace must carry run_end");
    assert_eq!(end.backups, rep.backups);
    assert_eq!(end.restores, rep.restores);
    assert_eq!(end.frames, rep.frames_committed + rep.incidental_frames);
    assert_eq!(end.forward_progress, rep.forward_progress);
    assert_eq!(end.ledger.income_nj, rep.energy_income.as_nj());
    assert_eq!(end.ledger.backup_nj, rep.energy_backup.as_nj());
    // Flushed income/compute deltas telescope to the report totals.
    assert!((s.runs[0].ledger.income_nj - rep.energy_income.as_nj()).abs() < 1e-6);
    assert!((s.runs[0].ledger.compute_nj - rep.energy_compute.as_nj()).abs() < 1e-6);
    // Backup/restore costs are summed in report order: bit-exact.
    assert_eq!(s.runs[0].ledger.backup_nj, rep.energy_backup.as_nj());
    assert_eq!(s.runs[0].ledger.restore_nj, rep.energy_restore.as_nj());
}

/// Same reconciliation on a recorded-shape watch profile under incidental
/// execution (roll-forward, merges, live-only scope effects included).
#[test]
fn ledger_reconciles_on_watch_profile_incidental() {
    let profile = WatchProfile::P1.synthesize_seconds(4.0);
    let mode = ExecMode::Incidental(2, 8);
    let (rep, events) = run_traced(mode, &profile, 6);
    let s = summarize(&events);
    assert_eq!(s.reconcile(), vec![], "ledger must reconcile");
    let end = s.runs[0].end.expect("trace must carry run_end");
    assert_eq!(end.frames, rep.frames_committed + rep.incidental_frames);
    assert_eq!(end.ledger.saved_nj, rep.energy_backup_saved.as_nj());
}

/// A power emergency emits `power_emergency`, `energy_flush`, `backup`,
/// `outage_start` back to back at one tick; recovery emits `energy_flush`
/// then `outage_end` before its `restore`, at the restore tick.
#[test]
fn emergency_and_recovery_event_ordering() {
    let (rep, events) = run_traced(ExecMode::Precise, &bursty(), 2);
    assert!(rep.backups > 0);
    for (i, ev) in events.iter().enumerate() {
        if let Event::PowerEmergency { tick, .. } = ev {
            assert!(
                matches!(events[i + 1], Event::EnergyFlush { tick: t, .. } if t == *tick),
                "emergency at {tick} not followed by flush: {:?}",
                events[i + 1]
            );
            assert!(
                matches!(events[i + 2], Event::Backup { tick: t, .. } if t == *tick),
                "emergency at {tick} not followed by backup"
            );
            assert!(
                matches!(events[i + 3], Event::OutageStart { tick: t } if t == *tick),
                "backup at {tick} not followed by outage_start"
            );
        }
        if let Event::OutageEnd { tick, duration } = ev {
            // outage_end precedes its restore; both carry the restore tick.
            let restore = events[i..]
                .iter()
                .find_map(|e| match e {
                    Event::Restore {
                        tick: t,
                        outage_ticks,
                        ..
                    } => Some((*t, *outage_ticks)),
                    _ => None,
                })
                .expect("every outage_end is followed by a restore");
            assert_eq!(restore.0, *tick);
            assert_eq!(restore.1, *duration);
        }
    }
    // Every non-cold restore is preceded by a matching outage_end.
    let ends = events
        .iter()
        .filter(|e| matches!(e, Event::OutageEnd { .. }))
        .count();
    let warm = events
        .iter()
        .filter(|e| matches!(e, Event::Restore { cold: false, .. }))
        .count();
    assert_eq!(ends, warm);
}

/// Commit ticks are monotone non-decreasing per lane, and monotone overall
/// in emission order.
#[test]
fn commit_ticks_monotone_per_lane() {
    let profile = WatchProfile::P1.synthesize_seconds(4.0);
    let mode = ExecMode::Incidental(2, 8);
    let (rep, events) = run_traced(mode, &profile, 6);
    assert!(rep.frames_committed > 0);
    let mut last_per_lane = [0u64; 8];
    let mut last = 0u64;
    for ev in &events {
        if let Event::FrameCommitted { tick, lane, .. } = ev {
            assert!(*tick >= last_per_lane[*lane as usize], "lane regressed");
            assert!(*tick >= last, "emission order regressed");
            last_per_lane[*lane as usize] = *tick;
            last = *tick;
        }
    }
}

/// The JSONL wire format round-trips the full event stream losslessly, and
/// `from_reader` reproduces the same reconciling summary.
#[test]
fn event_stream_round_trips_through_jsonl() {
    let (_, events) = run_traced(ExecMode::Precise, &bursty(), 2);
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let (s, parsed) = TraceSummary::from_reader(jsonl.as_bytes()).expect("parse");
    assert_eq!(parsed, events);
    assert_eq!(s.reconcile(), vec![]);
    assert_eq!(s.total(), events.len() as u64);
}

/// Tracing must not perturb the simulation: a traced run and a no-op run
/// produce identical reports (same RNG consumption, same scheduling).
#[test]
fn tracing_does_not_perturb_results() {
    let id = KernelId::Tiff2Bw;
    let profile = bursty();
    let cfg = SystemConfig {
        record_outputs: true,
        ..Default::default()
    };
    let run = |tracer: &mut dyn nvp_trace::Tracer| {
        SystemSim::new(id.spec(8, 8), frames(id, 2), ExecMode::Precise, cfg.clone())
            .run_traced(&profile, tracer)
    };
    let mut sink = VecSink::new();
    let traced = run(&mut sink);
    let untraced = run(&mut NoopTracer);
    assert_eq!(traced, untraced);
    assert!(sink
        .events
        .iter()
        .any(|e| matches!(e.kind(), EventKind::Backup)));
}
