//! The trace event schema.
//!
//! One [`Event`] is one timestamped occurrence in the NVP lifecycle. The
//! schema is deliberately flat — every variant carries its tick plus a
//! handful of scalar fields — so events serialize, through the shared
//! [`crate::json`] codec, to single-line JSON objects and a trace file is
//! plain JSONL. Energies are raw nanojoules and
//! times raw ticks (no `nvp-power` newtypes) to keep this crate
//! dependency-free: every runtime crate, including `nvp-power` itself, can
//! depend on it without a cycle.

use crate::json::Json;
use std::fmt;

/// A structured trace event.
///
/// All energy fields are in nanojoules; all time fields in 0.1 ms
/// simulation ticks. Floating-point fields must be finite — the JSON
/// encoding has no representation for NaN or infinity.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new simulator run begins (separates runs in a shared trace file).
    RunStart {
        /// Tick of the run's first sample (0 for a fresh simulator).
        tick: u64,
        /// Human-readable run label (kernel/profile/mode).
        label: String,
    },
    /// The capacitor crossed the restart threshold (the voltage monitor's
    /// comparator edge).
    ThresholdCross {
        /// Tick of the crossing.
        tick: u64,
        /// Capacitor level at the crossing, nJ.
        level_nj: f64,
        /// Threshold being compared against, nJ.
        threshold_nj: f64,
        /// `true` for a rising edge (charged past the threshold), `false`
        /// for a falling edge.
        up: bool,
    },
    /// The energy reserve was hit: a power emergency is declared and a
    /// backup is about to happen.
    PowerEmergency {
        /// Tick of the emergency.
        tick: u64,
        /// Capacitor level when the emergency was declared, nJ.
        level_nj: f64,
        /// The backup reserve that was violated, nJ.
        reserve_nj: f64,
    },
    /// A scoped backup (`LiveOnly`/`LiveDirty`) found no mask for the
    /// interruption pc and degraded to a full-state backup.
    BackupScopeFallback {
        /// Tick of the backup that degraded.
        tick: u64,
        /// Interruption pc the mask table had no entry for.
        pc: u64,
    },
    /// A backup was performed.
    Backup {
        /// Tick of the backup.
        tick: u64,
        /// Energy spent on this backup, nJ.
        cost_nj: f64,
        /// Energy avoided relative to a full-scope backup, nJ (0 under
        /// `BackupScope::FullState`).
        saved_nj: f64,
        /// Fraction of data state that was live at the interruption point
        /// (1.0 under full-scope backups).
        live_fraction: f64,
        /// Live-lane data bitwidth at backup time.
        bits: u8,
    },
    /// Power is out: the span between a backup and the next restore begins.
    OutageStart {
        /// First dark tick.
        tick: u64,
    },
    /// Power returned; the outage is over.
    OutageEnd {
        /// Tick at which power returned.
        tick: u64,
        /// Outage length in ticks.
        duration: u64,
    },
    /// A restore was performed.
    Restore {
        /// Tick of the restore.
        tick: u64,
        /// Energy spent on this restore, nJ.
        cost_nj: f64,
        /// Length of the outage this restore recovers from (0 for a cold
        /// start).
        outage_ticks: u64,
        /// `true` if recovery rolled forward to the newest buffered frame
        /// (incidental NVP) instead of resuming in place.
        rolled_forward: bool,
        /// `true` for the initial cold start (no preceding backup).
        cold: bool,
    },
    /// A frame committed on some SIMD lane.
    FrameCommitted {
        /// Commit tick.
        tick: u64,
        /// Lane the frame was computed on (0 = live lane).
        lane: u8,
        /// Input frame index.
        input_index: u64,
        /// `true` when committed by an incidental (non-live) lane.
        incidental: bool,
    },
    /// A partially-computed frame was parked in the resume buffer.
    FrameParked {
        /// Tick of the roll-forward that parked it.
        tick: u64,
        /// Input frame index.
        input_index: u64,
        /// Memory version plane holding the frame's data.
        version: u8,
        /// `true` if parked for recomputation from the resume marker.
        recompute: bool,
    },
    /// A parked frame was abandoned by FIFO eviction.
    FrameAbandoned {
        /// Tick of the eviction.
        tick: u64,
        /// Input frame index of the abandoned work.
        input_index: u64,
    },
    /// A parked frame merged into a free SIMD lane.
    Merge {
        /// Tick of the merge.
        tick: u64,
        /// Lane the frame rejoined on.
        lane: u8,
        /// Input frame index.
        input_index: u64,
        /// PC at which the merge matched.
        pc: u64,
    },
    /// The dynamic-bitwidth governor switched the datapath width.
    GovernorSwitch {
        /// Tick of the switch.
        tick: u64,
        /// Previous bitwidth.
        from_bits: u8,
        /// New bitwidth. The governor picks widths from power alone, so
        /// the rendered line always carries `"reason":"power"`.
        to_bits: u8,
    },
    /// Retention failures observed while restoring after an outage.
    RetentionDecay {
        /// Tick of the restore that observed the decay.
        tick: u64,
        /// Bit position (0 = LSB).
        bit: u8,
        /// Number of expired cells at that position.
        failures: u64,
    },
    /// The wait-compute baseline's ESD ran dry mid-frame (the whole frame
    /// is lost — volatile MCU).
    WaitStall {
        /// Tick of the stall.
        tick: u64,
        /// ESD level at the stall, nJ.
        level_nj: f64,
        /// Energy the next burst needed, nJ.
        needed_nj: f64,
    },
    /// Aggregated income/compute energy since the previous flush.
    ///
    /// Income and compute accrue every tick and every instruction; emitting
    /// them per occurrence would dwarf the rest of the trace, so the
    /// simulator flushes deltas at phase boundaries (backup, restore, run
    /// end). Summing the deltas reproduces the run totals.
    EnergyFlush {
        /// Tick of the flush.
        tick: u64,
        /// Income banked since the last flush, nJ.
        income_nj: f64,
        /// Compute energy spent since the last flush, nJ.
        compute_nj: f64,
    },
    /// The run finished; carries the run's aggregate totals so a trace is
    /// self-checking (the summed per-event ledger must reconcile).
    RunEnd {
        /// Final tick (total ticks simulated).
        tick: u64,
        /// Total energy banked, nJ.
        income_nj: f64,
        /// Total compute energy, nJ.
        compute_nj: f64,
        /// Total backup energy, nJ.
        backup_nj: f64,
        /// Total restore energy, nJ.
        restore_nj: f64,
        /// Total backup energy avoided by live-only scoping, nJ.
        saved_nj: f64,
        /// Number of backups.
        backups: u64,
        /// Number of restores.
        restores: u64,
        /// Frames committed (live + incidental).
        frames: u64,
        /// Lane-weighted forward progress.
        forward_progress: u64,
    },
}

/// Fieldless mirror of [`Event`] for counting and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// [`Event::RunStart`].
    RunStart,
    /// [`Event::ThresholdCross`].
    ThresholdCross,
    /// [`Event::PowerEmergency`].
    PowerEmergency,
    /// [`Event::BackupScopeFallback`].
    BackupScopeFallback,
    /// [`Event::Backup`].
    Backup,
    /// [`Event::OutageStart`].
    OutageStart,
    /// [`Event::OutageEnd`].
    OutageEnd,
    /// [`Event::Restore`].
    Restore,
    /// [`Event::FrameCommitted`].
    FrameCommitted,
    /// [`Event::FrameParked`].
    FrameParked,
    /// [`Event::FrameAbandoned`].
    FrameAbandoned,
    /// [`Event::Merge`].
    Merge,
    /// [`Event::GovernorSwitch`].
    GovernorSwitch,
    /// [`Event::RetentionDecay`].
    RetentionDecay,
    /// [`Event::WaitStall`].
    WaitStall,
    /// [`Event::EnergyFlush`].
    EnergyFlush,
    /// [`Event::RunEnd`].
    RunEnd,
}

impl EventKind {
    /// Every kind, in schema order.
    pub const ALL: [EventKind; 17] = [
        EventKind::RunStart,
        EventKind::ThresholdCross,
        EventKind::PowerEmergency,
        EventKind::BackupScopeFallback,
        EventKind::Backup,
        EventKind::OutageStart,
        EventKind::OutageEnd,
        EventKind::Restore,
        EventKind::FrameCommitted,
        EventKind::FrameParked,
        EventKind::FrameAbandoned,
        EventKind::Merge,
        EventKind::GovernorSwitch,
        EventKind::RetentionDecay,
        EventKind::WaitStall,
        EventKind::EnergyFlush,
        EventKind::RunEnd,
    ];

    /// Number of kinds (array-index domain).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable wire name (the JSON `"ev"` discriminant).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunStart => "run_start",
            EventKind::ThresholdCross => "threshold_cross",
            EventKind::PowerEmergency => "power_emergency",
            EventKind::BackupScopeFallback => "backup_scope_fallback",
            EventKind::Backup => "backup",
            EventKind::OutageStart => "outage_start",
            EventKind::OutageEnd => "outage_end",
            EventKind::Restore => "restore",
            EventKind::FrameCommitted => "frame_committed",
            EventKind::FrameParked => "frame_parked",
            EventKind::FrameAbandoned => "frame_abandoned",
            EventKind::Merge => "merge",
            EventKind::GovernorSwitch => "governor_switch",
            EventKind::RetentionDecay => "retention_decay",
            EventKind::WaitStall => "wait_stall",
            EventKind::EnergyFlush => "energy_flush",
            EventKind::RunEnd => "run_end",
        }
    }

    /// Dense array index (inverse of `ALL[i]`).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RunStart { .. } => EventKind::RunStart,
            Event::ThresholdCross { .. } => EventKind::ThresholdCross,
            Event::PowerEmergency { .. } => EventKind::PowerEmergency,
            Event::BackupScopeFallback { .. } => EventKind::BackupScopeFallback,
            Event::Backup { .. } => EventKind::Backup,
            Event::OutageStart { .. } => EventKind::OutageStart,
            Event::OutageEnd { .. } => EventKind::OutageEnd,
            Event::Restore { .. } => EventKind::Restore,
            Event::FrameCommitted { .. } => EventKind::FrameCommitted,
            Event::FrameParked { .. } => EventKind::FrameParked,
            Event::FrameAbandoned { .. } => EventKind::FrameAbandoned,
            Event::Merge { .. } => EventKind::Merge,
            Event::GovernorSwitch { .. } => EventKind::GovernorSwitch,
            Event::RetentionDecay { .. } => EventKind::RetentionDecay,
            Event::WaitStall { .. } => EventKind::WaitStall,
            Event::EnergyFlush { .. } => EventKind::EnergyFlush,
            Event::RunEnd { .. } => EventKind::RunEnd,
        }
    }

    /// The event's tick.
    pub fn tick(&self) -> u64 {
        match self {
            Event::RunStart { tick, .. }
            | Event::ThresholdCross { tick, .. }
            | Event::PowerEmergency { tick, .. }
            | Event::BackupScopeFallback { tick, .. }
            | Event::Backup { tick, .. }
            | Event::OutageStart { tick }
            | Event::OutageEnd { tick, .. }
            | Event::Restore { tick, .. }
            | Event::FrameCommitted { tick, .. }
            | Event::FrameParked { tick, .. }
            | Event::FrameAbandoned { tick, .. }
            | Event::Merge { tick, .. }
            | Event::GovernorSwitch { tick, .. }
            | Event::RetentionDecay { tick, .. }
            | Event::WaitStall { tick, .. }
            | Event::EnergyFlush { tick, .. }
            | Event::RunEnd { tick, .. } => *tick,
        }
    }

    /// The event as a JSON object: `"ev"` (the kind's wire name), `"t"`
    /// (the tick), then the variant's fields in declaration order.
    pub fn json(&self) -> Json {
        let int = |v: u64| Json::Num(v as f64);
        let small = |v: u8| Json::Num(f64::from(v));
        let mut fields = vec![
            ("ev", Json::str(self.kind().name())),
            ("t", int(self.tick())),
        ];
        match self {
            Event::RunStart { label, .. } => fields.push(("label", Json::str(label.as_str()))),
            Event::ThresholdCross {
                level_nj,
                threshold_nj,
                up,
                ..
            } => fields.extend([
                ("level_nj", Json::Num(*level_nj)),
                ("threshold_nj", Json::Num(*threshold_nj)),
                ("up", Json::Bool(*up)),
            ]),
            Event::PowerEmergency {
                level_nj,
                reserve_nj,
                ..
            } => fields.extend([
                ("level_nj", Json::Num(*level_nj)),
                ("reserve_nj", Json::Num(*reserve_nj)),
            ]),
            Event::BackupScopeFallback { pc, .. } => fields.push(("pc", int(*pc))),
            Event::Backup {
                cost_nj,
                saved_nj,
                live_fraction,
                bits,
                ..
            } => fields.extend([
                ("cost_nj", Json::Num(*cost_nj)),
                ("saved_nj", Json::Num(*saved_nj)),
                ("live_fraction", Json::Num(*live_fraction)),
                ("bits", small(*bits)),
            ]),
            Event::OutageStart { .. } => {}
            Event::OutageEnd { duration, .. } => fields.push(("duration", int(*duration))),
            Event::Restore {
                cost_nj,
                outage_ticks,
                rolled_forward,
                cold,
                ..
            } => fields.extend([
                ("cost_nj", Json::Num(*cost_nj)),
                ("outage_ticks", int(*outage_ticks)),
                ("rolled_forward", Json::Bool(*rolled_forward)),
                ("cold", Json::Bool(*cold)),
            ]),
            Event::FrameCommitted {
                lane,
                input_index,
                incidental,
                ..
            } => fields.extend([
                ("lane", small(*lane)),
                ("input_index", int(*input_index)),
                ("incidental", Json::Bool(*incidental)),
            ]),
            Event::FrameParked {
                input_index,
                version,
                recompute,
                ..
            } => fields.extend([
                ("input_index", int(*input_index)),
                ("version", small(*version)),
                ("recompute", Json::Bool(*recompute)),
            ]),
            Event::FrameAbandoned { input_index, .. } => {
                fields.push(("input_index", int(*input_index)))
            }
            Event::Merge {
                lane,
                input_index,
                pc,
                ..
            } => fields.extend([
                ("lane", small(*lane)),
                ("input_index", int(*input_index)),
                ("pc", int(*pc)),
            ]),
            Event::GovernorSwitch {
                from_bits, to_bits, ..
            } => fields.extend([
                ("from_bits", small(*from_bits)),
                ("to_bits", small(*to_bits)),
                ("reason", Json::str("power")),
            ]),
            Event::RetentionDecay { bit, failures, .. } => {
                fields.extend([("bit", small(*bit)), ("failures", int(*failures))])
            }
            Event::WaitStall {
                level_nj,
                needed_nj,
                ..
            } => fields.extend([
                ("level_nj", Json::Num(*level_nj)),
                ("needed_nj", Json::Num(*needed_nj)),
            ]),
            Event::EnergyFlush {
                income_nj,
                compute_nj,
                ..
            } => fields.extend([
                ("income_nj", Json::Num(*income_nj)),
                ("compute_nj", Json::Num(*compute_nj)),
            ]),
            Event::RunEnd {
                income_nj,
                compute_nj,
                backup_nj,
                restore_nj,
                saved_nj,
                backups,
                restores,
                frames,
                forward_progress,
                ..
            } => fields.extend([
                ("income_nj", Json::Num(*income_nj)),
                ("compute_nj", Json::Num(*compute_nj)),
                ("backup_nj", Json::Num(*backup_nj)),
                ("restore_nj", Json::Num(*restore_nj)),
                ("saved_nj", Json::Num(*saved_nj)),
                ("backups", int(*backups)),
                ("restores", int(*restores)),
                ("frames", int(*frames)),
                ("forward_progress", int(*forward_progress)),
            ]),
        }
        Json::obj(fields)
    }

    /// Serializes the event to one line of JSON (no trailing newline).
    ///
    /// Numbers use Rust's shortest round-trip float formatting, so a
    /// parse/serialize cycle is lossless.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// Parses one JSONL line back into an event.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let obj = Json::parse(line).map_err(|e| ParseError::new(e.to_string()))?;
        let num = |key: &str| num_field(&obj, key);
        let uint = |key: &str| u64_field(&obj, key);
        let small = |key: &str| u8_field(&obj, key);
        let flag = |key: &str| bool_field(&obj, key);
        let ev = str_field(&obj, "ev")?;
        let t = uint("t")?;
        let kind = EventKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == ev)
            .ok_or_else(|| ParseError::new(format!("unknown event kind '{ev}'")))?;
        Ok(match kind {
            EventKind::RunStart => Event::RunStart {
                tick: t,
                label: str_field(&obj, "label")?.to_string(),
            },
            EventKind::ThresholdCross => Event::ThresholdCross {
                tick: t,
                level_nj: num("level_nj")?,
                threshold_nj: num("threshold_nj")?,
                up: flag("up")?,
            },
            EventKind::PowerEmergency => Event::PowerEmergency {
                tick: t,
                level_nj: num("level_nj")?,
                reserve_nj: num("reserve_nj")?,
            },
            EventKind::BackupScopeFallback => Event::BackupScopeFallback {
                tick: t,
                pc: uint("pc")?,
            },
            EventKind::Backup => Event::Backup {
                tick: t,
                cost_nj: num("cost_nj")?,
                saved_nj: num("saved_nj")?,
                live_fraction: num("live_fraction")?,
                bits: small("bits")?,
            },
            EventKind::OutageStart => Event::OutageStart { tick: t },
            EventKind::OutageEnd => Event::OutageEnd {
                tick: t,
                duration: uint("duration")?,
            },
            EventKind::Restore => Event::Restore {
                tick: t,
                cost_nj: num("cost_nj")?,
                outage_ticks: uint("outage_ticks")?,
                rolled_forward: flag("rolled_forward")?,
                cold: flag("cold")?,
            },
            EventKind::FrameCommitted => Event::FrameCommitted {
                tick: t,
                lane: small("lane")?,
                input_index: uint("input_index")?,
                incidental: flag("incidental")?,
            },
            EventKind::FrameParked => Event::FrameParked {
                tick: t,
                input_index: uint("input_index")?,
                version: small("version")?,
                recompute: flag("recompute")?,
            },
            EventKind::FrameAbandoned => Event::FrameAbandoned {
                tick: t,
                input_index: uint("input_index")?,
            },
            EventKind::Merge => Event::Merge {
                tick: t,
                lane: small("lane")?,
                input_index: uint("input_index")?,
                pc: uint("pc")?,
            },
            EventKind::GovernorSwitch => {
                // Older traces have no reason field; every switch is
                // power-driven, so any other reason is refused.
                if let Some(reason) = obj.get("reason") {
                    if reason.as_str() != Some("power") {
                        return Err(ParseError::new(format!(
                            "unknown switch reason {}",
                            reason.render()
                        )));
                    }
                }
                Event::GovernorSwitch {
                    tick: t,
                    from_bits: small("from_bits")?,
                    to_bits: small("to_bits")?,
                }
            }
            EventKind::RetentionDecay => Event::RetentionDecay {
                tick: t,
                bit: small("bit")?,
                failures: uint("failures")?,
            },
            EventKind::WaitStall => Event::WaitStall {
                tick: t,
                level_nj: num("level_nj")?,
                needed_nj: num("needed_nj")?,
            },
            EventKind::EnergyFlush => Event::EnergyFlush {
                tick: t,
                income_nj: num("income_nj")?,
                compute_nj: num("compute_nj")?,
            },
            EventKind::RunEnd => Event::RunEnd {
                tick: t,
                income_nj: num("income_nj")?,
                compute_nj: num("compute_nj")?,
                backup_nj: num("backup_nj")?,
                restore_nj: num("restore_nj")?,
                saved_nj: num("saved_nj")?,
                backups: uint("backups")?,
                restores: uint("restores")?,
                frames: uint("frames")?,
                forward_progress: uint("forward_progress")?,
            },
        })
    }
}

/// Error parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError { msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

// Typed field getters over a parsed trace line.

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ParseError> {
    obj.get(key)
        .ok_or_else(|| ParseError::new(format!("missing field '{key}'")))
}

fn typed<'a, T>(
    obj: &'a Json,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ParseError> {
    let value = field(obj, key)?;
    read(value).ok_or_else(|| ParseError::new(format!("field '{key}' is not {what}: {value:?}")))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ParseError> {
    typed(obj, key, "a string", Json::as_str)
}

fn num_field(obj: &Json, key: &str) -> Result<f64, ParseError> {
    typed(obj, key, "a number", Json::as_f64)
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, ParseError> {
    typed(obj, key, "an unsigned integer", Json::as_u64)
}

fn u8_field(obj: &Json, key: &str) -> Result<u8, ParseError> {
    let n = u64_field(obj, key)?;
    u8::try_from(n)
        .map_err(|_| ParseError::new(format!("field '{key}' is out of range for u8: {n}")))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ParseError> {
    typed(obj, key, "a boolean", Json::as_bool)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart {
                tick: 0,
                label: "sobel/p1/\"quoted\"\\mode".to_string(),
            },
            Event::ThresholdCross {
                tick: 17,
                level_nj: 812.5,
                threshold_nj: 811.999999999,
                up: true,
            },
            Event::PowerEmergency {
                tick: 40,
                level_nj: 410.25,
                reserve_nj: 409.0,
            },
            Event::BackupScopeFallback { tick: 40, pc: 23 },
            Event::Backup {
                tick: 40,
                cost_nj: 372.1234567890123,
                saved_nj: 12.5,
                live_fraction: 0.625,
                bits: 8,
            },
            Event::OutageStart { tick: 41 },
            Event::OutageEnd {
                tick: 90,
                duration: 49,
            },
            Event::Restore {
                tick: 90,
                cost_nj: 55.0,
                outage_ticks: 49,
                rolled_forward: true,
                cold: false,
            },
            Event::FrameCommitted {
                tick: 120,
                lane: 2,
                input_index: 7,
                incidental: true,
            },
            Event::FrameParked {
                tick: 90,
                input_index: 3,
                version: 1,
                recompute: true,
            },
            Event::FrameAbandoned {
                tick: 90,
                input_index: 1,
            },
            Event::Merge {
                tick: 100,
                lane: 1,
                input_index: 3,
                pc: 12,
            },
            Event::GovernorSwitch {
                tick: 55,
                from_bits: 8,
                to_bits: 2,
            },
            Event::RetentionDecay {
                tick: 90,
                bit: 0,
                failures: 144,
            },
            Event::WaitStall {
                tick: 300,
                level_nj: 4.5,
                needed_nj: 20.9,
            },
            Event::EnergyFlush {
                tick: 40,
                income_nj: 1234.0000000001,
                compute_nj: 900.125,
            },
            Event::RunEnd {
                tick: 15000,
                income_nj: 99000.5,
                compute_nj: 60000.25,
                backup_nj: 20000.0,
                restore_nj: 5000.0,
                saved_nj: 0.0,
                backups: 42,
                restores: 43,
                frames: 9,
                forward_progress: 123456789,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = Event::from_json(&line).expect(&line);
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn kind_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn kind_and_tick_accessors() {
        for ev in sample_events() {
            let line = ev.to_json();
            assert!(line.contains(&format!("\"ev\":\"{}\"", ev.kind().name())));
            assert!(line.contains(&format!("\"t\":{}", ev.tick())));
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        let x = 0.1 + 0.2; // classic non-representable sum
        let ev = Event::EnergyFlush {
            tick: 1,
            income_nj: x,
            compute_nj: f64::MIN_POSITIVE,
        };
        match Event::from_json(&ev.to_json()).unwrap() {
            Event::EnergyFlush {
                income_nj,
                compute_nj,
                ..
            } => {
                assert_eq!(income_nj.to_bits(), x.to_bits());
                assert_eq!(compute_nj.to_bits(), f64::MIN_POSITIVE.to_bits());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json("").is_err());
        assert!(Event::from_json("{}").is_err());
        assert!(Event::from_json("{\"ev\":\"nope\",\"t\":0}").is_err());
        assert!(Event::from_json("{\"ev\":\"backup\",\"t\":0}").is_err()); // missing fields
        assert!(Event::from_json("not json at all").is_err());
        // Trailing bytes after the object.
        assert!(Event::from_json("{\"ev\":\"outage_start\",\"t\":5}garbage").is_err());
        // An energy that overflows f64 is not a finite number.
        let huge = "{\"ev\":\"wait_stall\",\"t\":1,\"level_nj\":1e999,\"needed_nj\":2}";
        assert!(Event::from_json(huge).is_err());
    }

    #[test]
    fn whitespace_separated_line_parses() {
        assert_eq!(
            Event::from_json(" { \"ev\": \"outage_start\", \"t\": 5 } "),
            Ok(Event::OutageStart { tick: 5 })
        );
    }

    #[test]
    fn governor_switch_without_reason_defaults_to_power() {
        let switch = Event::GovernorSwitch {
            tick: 55,
            from_bits: 8,
            to_bits: 2,
        };
        let line = "{\"ev\":\"governor_switch\",\"t\":55,\"from_bits\":8,\"to_bits\":2,\"reason\":\"power\"}";
        assert_eq!(switch.to_json(), line);
        assert_eq!(Event::from_json(line).unwrap(), switch);
        // Older traces lack the field.
        let old = "{\"ev\":\"governor_switch\",\"t\":55,\"from_bits\":8,\"to_bits\":2}";
        assert_eq!(Event::from_json(old).unwrap(), switch);
        for reason in ["\"static_floor\"", "\"vibes\"", "1", "null"] {
            let bad = line.replace("\"power\"", reason);
            assert!(Event::from_json(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unicode_label_roundtrips() {
        let ev = Event::RunStart {
            tick: 0,
            label: "médiane/π≈3.14\t–\n“quotes”".to_string(),
        };
        assert_eq!(Event::from_json(&ev.to_json()).unwrap(), ev);
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        // Untrusted traces must not wrap a u8 field modulo 256.
        let decay = "{\"ev\":\"retention_decay\",\"t\":1,\"bit\":264,\"failures\":1}";
        assert!(Event::from_json(decay).is_err(), "bit 264 must not parse");
        let backup = Event::Backup {
            tick: 3,
            cost_nj: 1.5,
            saved_nj: 0.0,
            live_fraction: 1.0,
            bits: 4,
        }
        .to_json();
        assert!(Event::from_json(&backup).is_ok());
        let wide = backup.replace("\"bits\":4", "\"bits\":260");
        assert_ne!(wide, backup);
        assert!(Event::from_json(&wide).is_err(), "bits 260 must not parse");
        let edge = "{\"ev\":\"retention_decay\",\"t\":1,\"bit\":255,\"failures\":1}";
        assert!(matches!(
            Event::from_json(edge),
            Ok(Event::RetentionDecay { bit: 255, .. })
        ));
    }
}
