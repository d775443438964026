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
//!
//! The schema is declared once, in the `events!` table below: each entry
//! gives a variant's name, its wire name (the `"ev"` discriminant), its
//! tick and its other fields in wire order, and the table generates
//! [`Event`], [`EventKind`] and the JSONL codec from it. A new event is
//! appended at the end: fleet snapshots persist per-kind counts in
//! declaration order.

use crate::json::Json;
use std::fmt;

/// Generates [`Event`], [`EventKind`] and the per-variant halves of
/// [`Event::json`] / [`Event::from_json`] from one table. A field's wire
/// key is its name (the tick's is `"t"`), and its JSON form is its type's
/// [`Wire`] impl.
macro_rules! events {
    ($(
        $(#[$attr:meta])*
        $name:ident = $wire:literal {
            $(#[$tick_attr:meta])*
            tick: u64
            $(, $(#[$field_attr:meta])* $field:ident: $ty:ty)* $(,)?
        }
    ),* $(,)?) => {
        /// A structured trace event.
        ///
        /// All energy fields are in nanojoules; all time fields in 0.1 ms
        /// simulation ticks. Floating-point fields must be finite — the JSON
        /// encoding has no representation for NaN or infinity.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $(
                $(#[$attr])*
                $name {
                    $(#[$tick_attr])*
                    tick: u64,
                    $($(#[$field_attr])* $field: $ty,)*
                },
            )*
        }

        /// Fieldless mirror of [`Event`] for counting and dispatch.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum EventKind {
            $(
                #[doc = concat!("[`Event::", stringify!($name), "`].")]
                $name,
            )*
        }

        impl EventKind {
            /// Every kind, in schema order.
            pub const ALL: [EventKind; Self::COUNT] = [$(EventKind::$name),*];

            /// Number of kinds (array-index domain).
            pub const COUNT: usize = [$($wire),*].len();

            /// Stable wire name (the JSON `"ev"` discriminant).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$name => $wire,)*
                }
            }
        }

        impl Event {
            /// The event's kind.
            pub fn kind(&self) -> EventKind {
                match self {
                    $(Event::$name { .. } => EventKind::$name,)*
                }
            }

            /// The event's tick.
            pub fn tick(&self) -> u64 {
                match self {
                    $(Event::$name { tick, .. })|* => *tick,
                }
            }

            /// The variant's `"ev"`, `"t"` and fields, in wire order.
            fn wire_fields(&self) -> Vec<(&'static str, Json)> {
                match self {
                    $(Event::$name { tick, $($field),* } => vec![
                        ("ev", Json::str($wire)),
                        ("t", tick.json()),
                        $((stringify!($field), $field.json()),)*
                    ],)*
                }
            }

            /// Reads the variant named `ev` from a parsed line.
            fn read_variant(obj: &Json, ev: &str, tick: u64) -> Result<Event, ParseError> {
                Ok(match ev {
                    $($wire => Event::$name {
                        tick,
                        $($field: Wire::read(obj, stringify!($field))?,)*
                    },)*
                    _ => return Err(ParseError::new(format!("unknown event kind '{ev}'"))),
                })
            }
        }
    };
}

events! {
    /// A new simulator run begins (separates runs in a shared trace file).
    RunStart = "run_start" {
        /// Tick of the run's first sample (0 for a fresh simulator).
        tick: u64,
        /// Human-readable run label (kernel/profile/mode).
        label: String,
    },
    /// The capacitor crossed the restart threshold (the voltage monitor's
    /// comparator edge).
    ThresholdCross = "threshold_cross" {
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
    PowerEmergency = "power_emergency" {
        /// Tick of the emergency.
        tick: u64,
        /// Capacitor level when the emergency was declared, nJ.
        level_nj: f64,
        /// The backup reserve that was violated, nJ.
        reserve_nj: f64,
    },
    /// A scoped backup (`LiveOnly`/`LiveDirty`) found no mask for the
    /// interruption pc and degraded to a full-state backup.
    BackupScopeFallback = "backup_scope_fallback" {
        /// Tick of the backup that degraded.
        tick: u64,
        /// Interruption pc the mask table had no entry for.
        pc: u64,
    },
    /// A backup was performed.
    Backup = "backup" {
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
    OutageStart = "outage_start" {
        /// First dark tick.
        tick: u64,
    },
    /// Power returned; the outage is over.
    OutageEnd = "outage_end" {
        /// Tick at which power returned.
        tick: u64,
        /// Outage length in ticks.
        duration: u64,
    },
    /// A restore was performed.
    Restore = "restore" {
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
    FrameCommitted = "frame_committed" {
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
    FrameParked = "frame_parked" {
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
    FrameAbandoned = "frame_abandoned" {
        /// Tick of the eviction.
        tick: u64,
        /// Input frame index of the abandoned work.
        input_index: u64,
    },
    /// A parked frame merged into a free SIMD lane.
    Merge = "merge" {
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
    GovernorSwitch = "governor_switch" {
        /// Tick of the switch.
        tick: u64,
        /// Previous bitwidth.
        from_bits: u8,
        /// New bitwidth. The governor picks widths from power alone, so
        /// the rendered line always carries `"reason":"power"`.
        to_bits: u8,
    },
    /// Retention failures observed while restoring after an outage.
    RetentionDecay = "retention_decay" {
        /// Tick of the restore that observed the decay.
        tick: u64,
        /// Bit position (0 = LSB).
        bit: u8,
        /// Number of expired cells at that position.
        failures: u64,
    },
    /// The wait-compute baseline's ESD ran dry mid-frame (the whole frame
    /// is lost — volatile MCU).
    WaitStall = "wait_stall" {
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
    EnergyFlush = "energy_flush" {
        /// Tick of the flush.
        tick: u64,
        /// Income banked since the last flush, nJ.
        income_nj: f64,
        /// Compute energy spent since the last flush, nJ.
        compute_nj: f64,
    },
    /// The run finished; carries the run's aggregate totals so a trace is
    /// self-checking (the summed per-event ledger must reconcile).
    RunEnd = "run_end" {
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

impl EventKind {
    /// Dense array index (inverse of `ALL[i]`).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Event {
    /// The event as a JSON object: `"ev"` (the kind's wire name), `"t"`
    /// (the tick), then the variant's fields in declaration order.
    pub fn json(&self) -> Json {
        let mut fields = self.wire_fields();
        if let Event::GovernorSwitch { .. } = self {
            fields.push(("reason", Json::str("power")));
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
        let ev = typed(&obj, "ev", "a string", Json::as_str)?;
        let tick = u64::read(&obj, "t")?;
        // Older traces have no switch reason; every switch is power-driven,
        // so any other reason is refused.
        if let Some(reason) = obj
            .get("reason")
            .filter(|r| ev == EventKind::GovernorSwitch.name() && r.as_str() != Some("power"))
        {
            return Err(ParseError::new(format!(
                "unknown switch reason {}",
                reason.render()
            )));
        }
        Event::read_variant(&obj, ev, tick)
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

/// A field type's JSON form: how [`Event::json`] writes it and
/// [`Event::from_json`] reads it back.
trait Wire: Sized {
    fn json(&self) -> Json;
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError>;
}

impl Wire for u64 {
    fn json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError> {
        typed(obj, key, "an unsigned integer", Json::as_u64)
    }
}

impl Wire for u8 {
    fn json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError> {
        let n = u64::read(obj, key)?;
        u8::try_from(n)
            .map_err(|_| ParseError::new(format!("field '{key}' is out of range for u8: {n}")))
    }
}

impl Wire for f64 {
    fn json(&self) -> Json {
        Json::Num(*self)
    }
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError> {
        typed(obj, key, "a number", Json::as_f64)
    }
}

impl Wire for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError> {
        typed(obj, key, "a boolean", Json::as_bool)
    }
}

impl Wire for String {
    fn json(&self) -> Json {
        Json::str(self.as_str())
    }
    fn read(obj: &Json, key: &str) -> Result<Self, ParseError> {
        typed(obj, key, "a string", |v| v.as_str().map(str::to_string))
    }
}

/// Reads field `key` of a parsed trace line through `read`, naming the
/// field and the expected type (`what`) when it is missing or mistyped.
fn typed<'a, T>(
    obj: &'a Json,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ParseError> {
    let value = obj
        .get(key)
        .ok_or_else(|| ParseError::new(format!("missing field '{key}'")))?;
    read(value).ok_or_else(|| ParseError::new(format!("field '{key}' is not {what}: {value:?}")))
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

    /// The wire line of each sample, byte for byte as existing traces carry
    /// it. Old traces must still parse and fleet snapshots' per-kind counts
    /// must keep their order, so neither a wire name nor a kind's position
    /// may change.
    const SAMPLE_LINES: [&str; EventKind::COUNT] = [
        r#"{"ev":"run_start","t":0,"label":"sobel/p1/\"quoted\"\\mode"}"#,
        r#"{"ev":"threshold_cross","t":17,"level_nj":812.5,"threshold_nj":811.999999999,"up":true}"#,
        r#"{"ev":"power_emergency","t":40,"level_nj":410.25,"reserve_nj":409}"#,
        r#"{"ev":"backup_scope_fallback","t":40,"pc":23}"#,
        r#"{"ev":"backup","t":40,"cost_nj":372.1234567890123,"saved_nj":12.5,"live_fraction":0.625,"bits":8}"#,
        r#"{"ev":"outage_start","t":41}"#,
        r#"{"ev":"outage_end","t":90,"duration":49}"#,
        r#"{"ev":"restore","t":90,"cost_nj":55,"outage_ticks":49,"rolled_forward":true,"cold":false}"#,
        r#"{"ev":"frame_committed","t":120,"lane":2,"input_index":7,"incidental":true}"#,
        r#"{"ev":"frame_parked","t":90,"input_index":3,"version":1,"recompute":true}"#,
        r#"{"ev":"frame_abandoned","t":90,"input_index":1}"#,
        r#"{"ev":"merge","t":100,"lane":1,"input_index":3,"pc":12}"#,
        r#"{"ev":"governor_switch","t":55,"from_bits":8,"to_bits":2,"reason":"power"}"#,
        r#"{"ev":"retention_decay","t":90,"bit":0,"failures":144}"#,
        r#"{"ev":"wait_stall","t":300,"level_nj":4.5,"needed_nj":20.9}"#,
        r#"{"ev":"energy_flush","t":40,"income_nj":1234.0000000001,"compute_nj":900.125}"#,
        r#"{"ev":"run_end","t":15000,"income_nj":99000.5,"compute_nj":60000.25,"backup_nj":20000,"restore_nj":5000,"saved_nj":0,"backups":42,"restores":43,"frames":9,"forward_progress":123456789}"#,
    ];

    #[test]
    fn every_variant_roundtrips() {
        let samples = sample_events();
        assert_eq!(samples.len(), EventKind::COUNT);
        for ((ev, kind), want) in samples.into_iter().zip(EventKind::ALL).zip(SAMPLE_LINES) {
            assert_eq!(ev.kind(), kind, "sample order is schema order");
            let line = ev.to_json();
            assert_eq!(line, want, "wire bytes of {kind}");
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
