//! Fuzzes the workspace's one JSON decoder, `nvp_trace::json`, and the
//! trace-line reader built on it.
//!
//! Seed documents — one rendered trace line per event kind plus typical
//! `nvp-serve` request bodies — are corrupted by random bit flips, byte
//! insertions and truncations. Whatever comes out, `Json::parse` and
//! `Event::from_json` must return `Ok` or `Err`, never panic, and what
//! they accept must render to text that reads back unchanged.
//! Separately, randomly generated trees must satisfy
//! `parse(render(v)) == v` with every number compared bit for bit.

use nvp_trace::json::Json;
use nvp_trace::{Event, EventKind};
use proptest::prelude::*;
use proptest::{Rng, SeedableRng, TestRng};

/// One event of every kind, with escapes, fractions and extreme values.
fn sample_events() -> Vec<Event> {
    let events = vec![
        Event::RunStart {
            tick: 0,
            label: "sobel/p1 \"q\" \\ π\t\u{1}".to_string(),
        },
        Event::ThresholdCross {
            tick: 17,
            level_nj: 812.5,
            threshold_nj: 0.1 + 0.2,
            up: true,
        },
        Event::PowerEmergency {
            tick: 40,
            level_nj: 1e-300,
            reserve_nj: 409.0,
        },
        Event::BackupScopeFallback { tick: 40, pc: 23 },
        Event::Backup {
            tick: 40,
            cost_nj: 372.123_456_789_012_3,
            saved_nj: 1e300,
            live_fraction: 0.625,
            bits: 255,
        },
        Event::OutageStart { tick: 41 },
        Event::OutageEnd {
            tick: 90,
            duration: 9_000_000_000_000_000,
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
            recompute: false,
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
            level_nj: -4.5,
            needed_nj: 20.9,
        },
        Event::EnergyFlush {
            tick: 40,
            income_nj: f64::MIN_POSITIVE,
            compute_nj: 900.125,
        },
        Event::RunEnd {
            tick: 15_000,
            income_nj: 99_000.5,
            compute_nj: 60_000.25,
            backup_nj: 20_000.0,
            restore_nj: 5_000.0,
            saved_nj: 0.0,
            backups: 42,
            restores: 43,
            frames: 9,
            forward_progress: 123_456_789,
        },
    ];
    assert_eq!(events.len(), EventKind::COUNT, "one seed per kind");
    events
}

/// Rendered trace lines and `/v1/run`, `/v1/sweep` and `/v1/fleet` bodies.
fn seeds() -> Vec<String> {
    let mut docs: Vec<String> = sample_events().iter().map(Event::to_json).collect();
    docs.extend(
        [
            r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2}"#,
            r#"{"mode":{"fixed":4},"seconds":1.50,"kernel":"Sobel","img":12,"frames":2,"profile":"P1","seed":24301,"trace":false}"#,
            r#"{"kernel":"fft","engine":"step","mode":{"dynamic":{"lo":2,"hi":8}},"trace":true}"#,
            r#"{"kernels":["sobel","median"],"profiles":["p1","p3"],"modes":["precise",{"fixed":4}]}"#,
            r#" { "devices" : 1e3 , "kernels" : [ "sobel" ] , "note" : "é\n\"x\"" } "#,
        ]
        .map(String::from),
    );
    docs
}

/// Applies one to three random flips, insertions or truncations.
fn mutate(seed: &str, rng: &mut TestRng) -> String {
    // Bytes worth inserting: structure, escapes, number parts and the
    // first byte of a multi-byte UTF-8 sequence.
    const INTERESTING: &[u8] = b"{}[]\":,\\u0e-+.9 tfn\xcf";
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4u32) {
        match rng.gen_range(0..3u8) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                let b = if rng.gen_bool(0.5) {
                    INTERESTING[rng.gen_range(0..INTERESTING.len())]
                } else {
                    rng.gen::<u8>()
                };
                bytes.insert(at, b);
            }
            _ => bytes.truncate(rng.gen_range(0..=bytes.len())),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Structural equality with numbers compared by their bits.
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

fn any_string(rng: &mut TestRng) -> String {
    const PALETTE: &[char] = &['a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', 'π', '😀'];
    (0..rng.gen_range(0..8usize))
        .map(|_| {
            if rng.gen_bool(0.5) {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('?')
            }
        })
        .collect()
}

/// Any finite number except `-0.0`, which the integer fast path renders
/// as `0` by design.
fn any_number(rng: &mut TestRng) -> f64 {
    let n = match rng.gen_range(0..3u8) {
        0 => f64::from_bits(rng.gen::<u64>()),
        1 => rng.gen_range(-(1i64 << 53)..1i64 << 53) as f64,
        _ => rng.gen::<f64>(),
    };
    if n.is_finite() && n != 0.0 {
        n
    } else {
        0.0
    }
}

/// Random trees up to `depth` levels of nesting.
struct AnyJson {
    depth: usize,
}

impl Strategy for AnyJson {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        let leaf_only = self.depth == 0;
        match rng.gen_range(0..if leaf_only { 4u8 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Num(any_number(rng)),
            3 => Json::Str(any_string(rng)),
            4 => {
                let inner = AnyJson {
                    depth: self.depth - 1,
                };
                Json::Arr(
                    (0..rng.gen_range(0..4usize))
                        .map(|_| inner.sample(rng))
                        .collect(),
                )
            }
            _ => {
                let inner = AnyJson {
                    depth: self.depth - 1,
                };
                Json::Obj(
                    (0..rng.gen_range(0..4usize))
                        .map(|_| (any_string(rng), inner.sample(rng)))
                        .collect(),
                )
            }
        }
    }
}

#[test]
fn seeds_decode_cleanly() {
    for doc in seeds() {
        assert!(Json::parse(&doc).is_ok(), "seed rejected: {doc}");
    }
    for ev in sample_events() {
        assert_eq!(Event::from_json(&ev.to_json()), Ok(ev));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_documents_never_panic(pick in 0usize..1 << 16, salt: u64) {
        let docs = seeds();
        let mut rng = TestRng::seed_from_u64(salt);
        let doc = mutate(&docs[pick % docs.len()], &mut rng);
        if let Ok(v) = Json::parse(&doc) {
            // One render makes the text canonical; a second cycle is a
            // fixed point.
            let text = v.render();
            prop_assert_eq!(Json::parse(&text).map(|w| w.render()), Ok(text.clone()), "{}", doc);
        }
        if let Ok(ev) = Event::from_json(&doc) {
            prop_assert_eq!(Event::from_json(&ev.to_json()), Ok(ev), "{}", doc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn generated_trees_round_trip_bit_for_bit(v in AnyJson { depth: 4 }) {
        let text = v.render();
        let back = Json::parse(&text);
        prop_assert!(back.as_ref().is_ok_and(|w| same_bits(w, &v)), "{text}");
    }
}
