//! The trace event schema.
//!
//! One [`Event`] is one timestamped occurrence in the NVP lifecycle. The
//! schema is deliberately flat — every variant carries its tick plus a
//! handful of scalar fields — so events serialize to single-line JSON
//! objects and a trace file is plain JSONL. Energies are raw nanojoules and
//! times raw ticks (no `nvp-power` newtypes) to keep this crate
//! dependency-free: every runtime crate, including `nvp-power` itself, can
//! depend on it without a cycle.

use std::fmt;

/// Why the bitwidth governor switched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchReason {
    /// The power/quality policy picked a new width.
    #[default]
    Power,
    /// The statically-proven safe-bits floor clamped the policy's choice
    /// (`nvp-lint --bitwidth` / `StaticBitsFloor`).
    StaticFloor,
}

impl SwitchReason {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchReason::Power => "power",
            SwitchReason::StaticFloor => "static_floor",
        }
    }

    fn parse(s: &str) -> Result<SwitchReason, ParseError> {
        match s {
            "power" => Ok(SwitchReason::Power),
            "static_floor" => Ok(SwitchReason::StaticFloor),
            other => Err(ParseError::new(format!("unknown switch reason '{other}'"))),
        }
    }
}

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
        /// New bitwidth.
        to_bits: u8,
        /// What drove the switch (absent in pre-floor traces → `Power`).
        reason: SwitchReason,
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

    /// Serializes the event to one line of JSON (no trailing newline).
    ///
    /// Numbers use Rust's shortest round-trip float formatting, so a
    /// parse/serialize cycle is lossless.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(self.kind());
        match self {
            Event::RunStart { tick, label } => {
                w.num("t", *tick as f64);
                w.str("label", label);
            }
            Event::ThresholdCross {
                tick,
                level_nj,
                threshold_nj,
                up,
            } => {
                w.num("t", *tick as f64);
                w.num("level_nj", *level_nj);
                w.num("threshold_nj", *threshold_nj);
                w.bool("up", *up);
            }
            Event::PowerEmergency {
                tick,
                level_nj,
                reserve_nj,
            } => {
                w.num("t", *tick as f64);
                w.num("level_nj", *level_nj);
                w.num("reserve_nj", *reserve_nj);
            }
            Event::BackupScopeFallback { tick, pc } => {
                w.num("t", *tick as f64);
                w.num("pc", *pc as f64);
            }
            Event::Backup {
                tick,
                cost_nj,
                saved_nj,
                live_fraction,
                bits,
            } => {
                w.num("t", *tick as f64);
                w.num("cost_nj", *cost_nj);
                w.num("saved_nj", *saved_nj);
                w.num("live_fraction", *live_fraction);
                w.num("bits", f64::from(*bits));
            }
            Event::OutageStart { tick } => w.num("t", *tick as f64),
            Event::OutageEnd { tick, duration } => {
                w.num("t", *tick as f64);
                w.num("duration", *duration as f64);
            }
            Event::Restore {
                tick,
                cost_nj,
                outage_ticks,
                rolled_forward,
                cold,
            } => {
                w.num("t", *tick as f64);
                w.num("cost_nj", *cost_nj);
                w.num("outage_ticks", *outage_ticks as f64);
                w.bool("rolled_forward", *rolled_forward);
                w.bool("cold", *cold);
            }
            Event::FrameCommitted {
                tick,
                lane,
                input_index,
                incidental,
            } => {
                w.num("t", *tick as f64);
                w.num("lane", f64::from(*lane));
                w.num("input_index", *input_index as f64);
                w.bool("incidental", *incidental);
            }
            Event::FrameParked {
                tick,
                input_index,
                version,
                recompute,
            } => {
                w.num("t", *tick as f64);
                w.num("input_index", *input_index as f64);
                w.num("version", f64::from(*version));
                w.bool("recompute", *recompute);
            }
            Event::FrameAbandoned { tick, input_index } => {
                w.num("t", *tick as f64);
                w.num("input_index", *input_index as f64);
            }
            Event::Merge {
                tick,
                lane,
                input_index,
                pc,
            } => {
                w.num("t", *tick as f64);
                w.num("lane", f64::from(*lane));
                w.num("input_index", *input_index as f64);
                w.num("pc", *pc as f64);
            }
            Event::GovernorSwitch {
                tick,
                from_bits,
                to_bits,
                reason,
            } => {
                w.num("t", *tick as f64);
                w.num("from_bits", f64::from(*from_bits));
                w.num("to_bits", f64::from(*to_bits));
                w.str("reason", reason.as_str());
            }
            Event::RetentionDecay {
                tick,
                bit,
                failures,
            } => {
                w.num("t", *tick as f64);
                w.num("bit", f64::from(*bit));
                w.num("failures", *failures as f64);
            }
            Event::WaitStall {
                tick,
                level_nj,
                needed_nj,
            } => {
                w.num("t", *tick as f64);
                w.num("level_nj", *level_nj);
                w.num("needed_nj", *needed_nj);
            }
            Event::EnergyFlush {
                tick,
                income_nj,
                compute_nj,
            } => {
                w.num("t", *tick as f64);
                w.num("income_nj", *income_nj);
                w.num("compute_nj", *compute_nj);
            }
            Event::RunEnd {
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
            } => {
                w.num("t", *tick as f64);
                w.num("income_nj", *income_nj);
                w.num("compute_nj", *compute_nj);
                w.num("backup_nj", *backup_nj);
                w.num("restore_nj", *restore_nj);
                w.num("saved_nj", *saved_nj);
                w.num("backups", *backups as f64);
                w.num("restores", *restores as f64);
                w.num("frames", *frames as f64);
                w.num("forward_progress", *forward_progress as f64);
            }
        }
        w.finish()
    }

    /// Parses one JSONL line back into an event.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = parse_object(line)?;
        let ev = fields.str_field("ev")?;
        let t = fields.u64_field("t")?;
        let kind = EventKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == ev)
            .ok_or_else(|| ParseError::new(format!("unknown event kind '{ev}'")))?;
        Ok(match kind {
            EventKind::RunStart => Event::RunStart {
                tick: t,
                label: fields.str_field("label")?.to_string(),
            },
            EventKind::ThresholdCross => Event::ThresholdCross {
                tick: t,
                level_nj: fields.num_field("level_nj")?,
                threshold_nj: fields.num_field("threshold_nj")?,
                up: fields.bool_field("up")?,
            },
            EventKind::PowerEmergency => Event::PowerEmergency {
                tick: t,
                level_nj: fields.num_field("level_nj")?,
                reserve_nj: fields.num_field("reserve_nj")?,
            },
            EventKind::BackupScopeFallback => Event::BackupScopeFallback {
                tick: t,
                pc: fields.u64_field("pc")?,
            },
            EventKind::Backup => Event::Backup {
                tick: t,
                cost_nj: fields.num_field("cost_nj")?,
                saved_nj: fields.num_field("saved_nj")?,
                live_fraction: fields.num_field("live_fraction")?,
                bits: fields.u8_field("bits")?,
            },
            EventKind::OutageStart => Event::OutageStart { tick: t },
            EventKind::OutageEnd => Event::OutageEnd {
                tick: t,
                duration: fields.u64_field("duration")?,
            },
            EventKind::Restore => Event::Restore {
                tick: t,
                cost_nj: fields.num_field("cost_nj")?,
                outage_ticks: fields.u64_field("outage_ticks")?,
                rolled_forward: fields.bool_field("rolled_forward")?,
                cold: fields.bool_field("cold")?,
            },
            EventKind::FrameCommitted => Event::FrameCommitted {
                tick: t,
                lane: fields.u8_field("lane")?,
                input_index: fields.u64_field("input_index")?,
                incidental: fields.bool_field("incidental")?,
            },
            EventKind::FrameParked => Event::FrameParked {
                tick: t,
                input_index: fields.u64_field("input_index")?,
                version: fields.u8_field("version")?,
                recompute: fields.bool_field("recompute")?,
            },
            EventKind::FrameAbandoned => Event::FrameAbandoned {
                tick: t,
                input_index: fields.u64_field("input_index")?,
            },
            EventKind::Merge => Event::Merge {
                tick: t,
                lane: fields.u8_field("lane")?,
                input_index: fields.u64_field("input_index")?,
                pc: fields.u64_field("pc")?,
            },
            EventKind::GovernorSwitch => Event::GovernorSwitch {
                tick: t,
                from_bits: fields.u8_field("from_bits")?,
                to_bits: fields.u8_field("to_bits")?,
                // Traces written before the static-floor work have no
                // reason field; those switches were all policy-driven.
                reason: match fields.str_field("reason") {
                    Ok(s) => SwitchReason::parse(s)?,
                    Err(_) => SwitchReason::Power,
                },
            },
            EventKind::RetentionDecay => Event::RetentionDecay {
                tick: t,
                bit: fields.u8_field("bit")?,
                failures: fields.u64_field("failures")?,
            },
            EventKind::WaitStall => Event::WaitStall {
                tick: t,
                level_nj: fields.num_field("level_nj")?,
                needed_nj: fields.num_field("needed_nj")?,
            },
            EventKind::EnergyFlush => Event::EnergyFlush {
                tick: t,
                income_nj: fields.num_field("income_nj")?,
                compute_nj: fields.num_field("compute_nj")?,
            },
            EventKind::RunEnd => Event::RunEnd {
                tick: t,
                income_nj: fields.num_field("income_nj")?,
                compute_nj: fields.num_field("compute_nj")?,
                backup_nj: fields.num_field("backup_nj")?,
                restore_nj: fields.num_field("restore_nj")?,
                saved_nj: fields.num_field("saved_nj")?,
                backups: fields.u64_field("backups")?,
                restores: fields.u64_field("restores")?,
                frames: fields.u64_field("frames")?,
                forward_progress: fields.u64_field("forward_progress")?,
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

// ---------------------------------------------------------------------------
// Minimal flat-JSON writer/reader. Trace lines are single-level objects with
// string, finite-number and boolean values only; this is not a general JSON
// implementation.

struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    fn new(kind: EventKind) -> Self {
        let mut w = JsonWriter { buf: String::new() };
        w.buf.push('{');
        w.str("ev", kind.name());
        w
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    fn key(&mut self, k: &str) {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn num(&mut self, k: &str, v: f64) {
        debug_assert!(v.is_finite(), "trace numbers must be finite");
        self.key(k);
        // Integral values print without a fractional part; everything else
        // uses shortest-round-trip formatting.
        if v.fract() == 0.0 && v.abs() < 9.0e15 {
            self.buf.push_str(&format!("{}", v as i64));
        } else {
            self.buf.push_str(&format!("{v}"));
        }
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(f64),
    Str(String),
    Bool(bool),
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&Val, ParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError::new(format!("missing field '{key}'")))
    }

    fn str_field(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            other => Err(ParseError::new(format!(
                "field '{key}' is not a string: {other:?}"
            ))),
        }
    }

    fn num_field(&self, key: &str) -> Result<f64, ParseError> {
        match self.get(key)? {
            Val::Num(n) => Ok(*n),
            other => Err(ParseError::new(format!(
                "field '{key}' is not a number: {other:?}"
            ))),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, ParseError> {
        let n = self.num_field(key)?;
        if n < 0.0 || n.fract() != 0.0 || n > 9.0e15 {
            return Err(ParseError::new(format!(
                "field '{key}' is not an unsigned integer: {n}"
            )));
        }
        Ok(n as u64)
    }

    fn u8_field(&self, key: &str) -> Result<u8, ParseError> {
        let n = self.u64_field(key)?;
        u8::try_from(n)
            .map_err(|_| ParseError::new(format!("field '{key}' is out of range for u8: {n}")))
    }

    fn bool_field(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            other => Err(ParseError::new(format!(
                "field '{key}' is not a boolean: {other:?}"
            ))),
        }
    }
}

fn parse_object(line: &str) -> Result<Fields, ParseError> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut fields = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(ParseError::new("expected '{'")),
    }
    loop {
        match chars.peek() {
            Some((_, '}')) => {
                chars.next();
                break;
            }
            Some((_, ',')) if !fields.is_empty() => {
                chars.next();
            }
            Some(_) if fields.is_empty() => {}
            _ => return Err(ParseError::new("expected ',' or '}'")),
        }
        let key = parse_string(s, &mut chars)?;
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(ParseError::new("expected ':'")),
        }
        let val = match chars.peek() {
            Some((_, '"')) => Val::Str(parse_string(s, &mut chars)?),
            Some((_, 't' | 'f')) => {
                let word: String = std::iter::from_fn(|| {
                    chars
                        .next_if(|(_, c)| c.is_ascii_alphabetic())
                        .map(|(_, c)| c)
                })
                .collect();
                match word.as_str() {
                    "true" => Val::Bool(true),
                    "false" => Val::Bool(false),
                    other => return Err(ParseError::new(format!("bad literal '{other}'"))),
                }
            }
            Some(_) => {
                let tok: String = std::iter::from_fn(|| {
                    chars
                        .next_if(|(_, c)| matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                        .map(|(_, c)| c)
                })
                .collect();
                let n: f64 = tok
                    .parse()
                    .map_err(|_| ParseError::new(format!("bad number '{tok}'")))?;
                Val::Num(n)
            }
            None => return Err(ParseError::new("unexpected end of line")),
        };
        fields.push((key, val));
    }
    Ok(Fields(fields))
}

fn parse_string(
    s: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, ParseError> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err(ParseError::new("expected '\"'")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((i, 'u')) => {
                    let hex = s
                        .get(i + 1..i + 5)
                        .ok_or_else(|| ParseError::new("truncated \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| ParseError::new(format!("bad \\u escape '{hex}'")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| ParseError::new("invalid \\u code point"))?,
                    );
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(ParseError::new(format!("bad escape {other:?}"))),
            },
            Some((_, c)) => out.push(c),
            None => return Err(ParseError::new("unterminated string")),
        }
    }
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
                reason: SwitchReason::StaticFloor,
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
    }

    #[test]
    fn governor_switch_without_reason_defaults_to_power() {
        // Traces written before the static-floor work lack the field.
        let old = "{\"ev\":\"governor_switch\",\"t\":55,\"from_bits\":8,\"to_bits\":2}";
        assert_eq!(
            Event::from_json(old).unwrap(),
            Event::GovernorSwitch {
                tick: 55,
                from_bits: 8,
                to_bits: 2,
                reason: SwitchReason::Power,
            }
        );
        let bad = "{\"ev\":\"governor_switch\",\"t\":55,\"from_bits\":8,\"to_bits\":2,\"reason\":\"vibes\"}";
        assert!(Event::from_json(bad).is_err());
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
