//! Fuzzes the fleet engine's two decoders of untrusted text:
//! `ScenarioSpec::parse` (`fleet-spec-v1`, reachable from `POST
//! /v1/fleet`) and `decode_snapshot` (`nvp-fleet-snap-v1`, what
//! `nvp-fleet resume` and `report` read).
//!
//! Seed documents — specs in several spellings and a snapshot of a real
//! folded chunk — are corrupted by random bit flips, byte insertions and
//! truncations. Whatever comes out, both decoders must return `Ok` or
//! `Err`, never panic. What they accept must re-encode to a fixed point:
//! a spec's canonical form parses back to an equal spec, an accepted
//! snapshot re-encodes to text that decodes and re-encodes unchanged,
//! and its report renders.

use nvp_fleet::{
    decode_snapshot, encode_snapshot, run_chunks, FleetAggregate, RunOptions, ScenarioSpec,
};
use proptest::prelude::*;
use proptest::{Rng, SeedableRng, TestRng};
use std::sync::OnceLock;

/// Specs in the spellings the grammar allows: every key, weights,
/// comments, `seconds` and `caps_uj`, odd spacing and case.
const SPECS: [&str; 4] = [
    "fleet-spec-v1\n\
     devices = 100000\n\
     chunk = 4096\n\
     seed = 24301\n\
     img = 12\n\
     frames = 2\n\
     ms = 1500\n\
     members = 4\n\
     kernels = sobel*3, median\n\
     profiles = p1*2, p3\n\
     caps_nj = 2500, 3500*2\n\
     scopes = full, live-dirty\n\
     modes = precise, fixed:4*2\n\
     engines = compiled\n",
    "# a fleet\n\
     fleet-spec-v1\n\
     modes = precise, simd4, fixed:4*2, dynamic:2-8, incidental:1-8*3 # tail\n\
     scopes = FULL , live , live-dirty\n\
     caps_uj = 2.5, 3.5*7\n\
     seconds = 0.25\n\
     profiles = P1, p2, p3, p4, p5\n\
     engines = step*2, compiled\n\
     devices = 1000\n",
    "fleet-spec-v1\ndevices = 1\n",
    "  fleet-spec-v1  \n\n  devices=10000000\n  chunk=1000000\n  members=4096\n",
];

/// A snapshot of one real folded chunk, so the cohort and cell blocks
/// carry the histograms, counts and hex ledgers a resume reads.
fn snapshot_seed() -> &'static str {
    static SNAP: OnceLock<String> = OnceLock::new();
    SNAP.get_or_init(|| {
        let spec = ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 128\n\
             chunk = 64\n\
             ms = 100\n\
             img = 8\n\
             frames = 1\n\
             kernels = sobel\n",
        )
        .unwrap();
        let mut agg = FleetAggregate::new(spec);
        let once = RunOptions {
            jobs: 1,
            stop_after_chunks: Some(1),
        };
        let Ok(_) = run_chunks(&mut agg, once, |_| {});
        encode_snapshot(&agg)
    })
}

/// Applies one to three random flips, insertions or truncations.
fn mutate(seed: &str, rng: &mut TestRng) -> String {
    // Bytes worth inserting: the grammars' separators, digits, signs,
    // hex digits and the first byte of a multi-byte UTF-8 sequence.
    const INTERESTING: &[u8] = b"=*,:-.#{}\n 09ef;\xcf";
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

/// An accepted spec's canonical form is a fixed point of `parse`.
fn check_spec(doc: &str) {
    if let Ok(spec) = ScenarioSpec::parse(doc) {
        let canon = spec.canonical();
        let back = ScenarioSpec::parse(&canon);
        assert_eq!(back.as_ref(), Ok(&spec), "{doc}");
        assert_eq!(back.map(|s| s.canonical()), Ok(canon), "{doc}");
    }
}

/// An accepted snapshot re-encodes to a fixed point and renders.
fn check_snapshot(doc: &str) {
    if let Ok(agg) = decode_snapshot(doc) {
        let text = encode_snapshot(&agg);
        let back = decode_snapshot(&text).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_eq!(encode_snapshot(&back), text, "{doc}");
        agg.render_report();
    }
}

#[test]
fn fleet_seeds_decode_cleanly() {
    for doc in SPECS {
        let spec = ScenarioSpec::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_eq!(ScenarioSpec::parse(&spec.canonical()), Ok(spec));
    }
    let snap = snapshot_seed();
    assert!(
        snap.contains("\ncohort ") && snap.contains("\ncell "),
        "{snap}"
    );
    let agg = decode_snapshot(snap).unwrap();
    assert_eq!(encode_snapshot(&agg), snap);
}

/// Regression: a spec whose axis lists are long enough that their
/// cross-product overflows `u64` must be refused with an error. The
/// product used to overflow, which panics in debug builds and can wrap
/// under the cell limit in release builds.
#[test]
fn axis_product_overflow_is_refused() {
    let axis = |token: &str, n: usize| vec![token; n].join(", ");
    let doc = format!(
        "fleet-spec-v1\ndevices = 1\nmembers = 4096\nkernels = {}\nprofiles = {}\n\
         caps_nj = {}\nscopes = {}\nmodes = {}\nengines = {}\n",
        axis("sobel", 2048),
        axis("p1", 2048),
        axis("2500", 2048),
        axis("full", 2048),
        axis("precise", 2048),
        axis("step", 2048),
    );
    let err = ScenarioSpec::parse(&doc).unwrap_err();
    assert!(err.to_string().contains("distinct cells"), "{err}");
}

/// Regression: `members` above `u32::MAX` must be refused, not truncated
/// to a value inside its bound.
#[test]
fn oversized_members_is_refused_not_truncated() {
    let doc = "fleet-spec-v1\ndevices = 1\nmembers = 4294967297\n";
    let err = ScenarioSpec::parse(doc).unwrap_err();
    assert!(err.to_string().contains("members"), "{err}");
}

/// Regression: a snapshot histogram whose bins do not sum to its count
/// must be refused. One whose bins overflow `u64` before reaching the
/// count used to decode, then panic in `Histogram::quantile` when
/// `nvp-fleet report` rendered it.
#[test]
fn histogram_bins_must_sum_to_count() {
    let seed = snapshot_seed();
    let start = seed.find("hist_fp = ").unwrap();
    let end = start + seed[start..].find('\n').unwrap();
    let half = 1u64 << 63;
    let bins = format!("{half},{half}{}", ",0".repeat(30));
    let doc = format!(
        "{}hist_fp = unit=1;count={};sum=0;min=0;max=0;bins={bins}{}",
        &seed[..start],
        u64::MAX,
        &seed[end..]
    );
    let err = decode_snapshot(&doc).unwrap_err();
    assert!(err.to_string().contains("sum to count"), "{err}");
    check_snapshot(&doc);
}

/// Replaces `seed`'s first line starting with `key` by `key` + `value`.
fn with_line(seed: &str, key: &str, value: &str) -> String {
    let start = seed.find(key).unwrap();
    let end = start + seed[start..].find('\n').unwrap();
    format!("{}{key}{value}{}", &seed[..start], &seed[end..])
}

/// Regression: restored counters must leave room for the folds a resume
/// still makes. A cohort's `hist_fp` count and one bin raised to
/// `u64::MAX - 10`, still summing to the count, used to decode; the
/// next fold's `bins[bin] += n` then overflowed (a panic in debug
/// builds, a silent wrap in release builds). Device-weighted counts are
/// now capped at the spec's device count, and every other counter below
/// 2^63.
#[test]
fn resumed_snapshot_cannot_overflow_the_next_fold() {
    let seed = snapshot_seed();
    let start = seed.find("hist_fp = ").unwrap();
    let line = &seed[start..start + seed[start..].find('\n').unwrap()];
    let (head, bins) = line["hist_fp = ".len()..].split_once(";bins=").unwrap();
    let mut bins: Vec<u64> = bins.split(',').map(|b| b.parse().unwrap()).collect();
    let count: u64 = bins.iter().sum();
    let huge = u64::MAX - 10;
    let occupied = bins.iter().position(|&b| b > 0).unwrap();
    bins[occupied] += huge - count;
    let head = head.replace(&format!(";count={count};"), &format!(";count={huge};"));
    let bins: Vec<String> = bins.iter().map(u64::to_string).collect();
    let doc = with_line(
        seed,
        "hist_fp = ",
        &format!("{head};bins={}", bins.join(",")),
    );
    let err = decode_snapshot(&doc).unwrap_err();
    assert!(err.to_string().contains("devices"), "{err}");

    // A trace counter that is not device-weighted gets the 2^63 ceiling.
    let counts = seed[seed.find("counts = ").unwrap()..]
        .lines()
        .next()
        .unwrap();
    let rest = counts["counts = ".len()..].split_once(',').unwrap().1;
    for (first, ok) in [(1u64 << 63, true), ((1 << 63) + 1, false)] {
        let doc = with_line(seed, "counts = ", &format!("{first},{rest}"));
        assert_eq!(decode_snapshot(&doc).is_ok(), ok, "first count {first}");
    }
}

/// Regression: histograms have one bucket unit, 1, and a snapshot that
/// claims another is refused with the line it is on. A `hist_inter` at
/// `unit=2` used to decode and then fail mid-resume; a `hist_fp` at
/// `unit=2` resumed to completion with rescaled quantiles.
#[test]
fn snapshot_histogram_units_other_than_one_are_refused() {
    let seed = snapshot_seed();
    for key in ["hist_fp = ", "hist_inter = "] {
        let start = seed.find(key).unwrap();
        let line = seed[..start].lines().count() + 1;
        let value = &seed[start + key.len()..start + seed[start..].find('\n').unwrap()];
        assert!(value.starts_with("unit=1;"), "{value}");
        let doc = with_line(seed, key, &value.replacen("unit=1;", "unit=2;", 1));
        let err = decode_snapshot(&doc).unwrap_err().to_string();
        assert!(err.contains(&format!("line {line}: ")), "{key}{err}");
        assert!(err.contains("histogram unit '2' is not 1"), "{key}{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_specs_never_panic(pick in 0usize..1 << 16, salt: u64) {
        let mut rng = TestRng::seed_from_u64(salt);
        let doc = mutate(SPECS[pick % SPECS.len()], &mut rng);
        check_spec(&doc);
    }

    #[test]
    fn mutated_snapshots_never_panic(salt: u64) {
        let mut rng = TestRng::seed_from_u64(salt);
        let doc = mutate(snapshot_seed(), &mut rng);
        check_snapshot(&doc);
    }
}
