//! `fleet`: `run_chunks` + `render_report` on two workers over the seeded
//! 10⁶-device spec of [`crate::inputs::fleet_spec`].

use super::{secs, Iteration};
use crate::golden::{fnv1a64, golden, hex};
use crate::inputs::{fleet_spec, fleet_universe};
use crate::stats::median;
use nvp_fleet::agg::CellStat;
use nvp_fleet::{
    cell_for_device, cells_computed, cells_shared, decode_snapshot, encode_snapshot, evaluate_cell,
    run_chunks, CellKey, FleetAggregate, Progress, RunOptions, ScenarioSpec,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const OPTIONS: RunOptions = RunOptions {
    jobs: 2,
    stop_after_chunks: None,
};

/// Digest of what the report shows about one cell.
fn cell_digest(forward_progress: u64, backup_nj: f64, mse_milli: u64, frames: u64) -> u64 {
    let text = format!(
        "{forward_progress} {:016x} {mse_milli} {frames}",
        backup_nj.to_bits()
    );
    fnv1a64(text.as_bytes())
}

fn stat_digest(s: &CellStat) -> u64 {
    cell_digest(
        s.forward_progress,
        s.backup_nj,
        s.mse_milli,
        s.frames_committed,
    )
}

/// Checks every visited cell against its pinned digest, and the whole
/// report against the pinned report of this seed when one was recorded.
/// The run is one operation: any mismatch fails it once.
fn gate(it: &mut Iteration, seed: u64, agg: &FleetAggregate, report: &str) {
    let slots: HashMap<String, usize> = fleet_universe()
        .iter()
        .enumerate()
        .map(|(i, k)| (k.canonical(), i))
        .collect();
    let mut problems: Vec<String> = agg
        .cells
        .iter()
        .filter(|(canon, stat)| {
            let pinned = slots.get(*canon).and_then(|s| golden().cells.get(s));
            pinned != Some(&stat_digest(stat))
        })
        .map(|(canon, _)| format!("cell {canon} differs from golden"))
        .collect();
    let digest = fnv1a64(report.as_bytes());
    it.digest = hex(digest);
    if let Some(&pinned) = golden().fleet.get(&seed) {
        if pinned != digest {
            problems.push(format!(
                "report digest {} differs from golden {}",
                hex(digest),
                hex(pinned)
            ));
        }
    }
    if let Some(first) = problems.first() {
        it.fail(format!(
            "fleet: {} mismatches, first: {first}",
            problems.len()
        ));
    }
}

/// Per-chunk times from the progress callback, split by whether the
/// chunk simulated new cells.
#[derive(Default)]
struct ChunkClock {
    sim_s: f64,
    fold_s: f64,
    fold_devices: u64,
    devices: u64,
    computed: u64,
}

/// One fleet run: set-up is spec parse plus `FleetAggregate::new`.
pub fn iteration(seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let text = fleet_spec(seed);
    let t = Instant::now();
    let spec = ScenarioSpec::parse(&text).expect("generated specs are valid");
    let mut agg = FleetAggregate::new(spec.clone());
    it.setup_s = secs(t);

    let computed0 = cells_computed();
    let shared0 = cells_shared();
    let t0 = Instant::now();
    let mut clock = ChunkClock {
        computed: computed0,
        ..ChunkClock::default()
    };
    if traced {
        let mut last = Instant::now();
        run_chunks(&mut agg, OPTIONS, |p: Progress| {
            let now = Instant::now();
            let dt = (now - last).as_secs_f64();
            last = now;
            let devices = p.devices_done - clock.devices;
            clock.devices = p.devices_done;
            let computed = cells_computed();
            if computed > clock.computed {
                clock.sim_s += dt;
            } else {
                clock.fold_s += dt;
                clock.fold_devices += devices;
            }
            clock.computed = computed;
        })
    } else {
        run_chunks(&mut agg, OPTIONS, |_| {})
    }
    .expect("fleet folds never mix histogram units");
    let t = Instant::now();
    let report = agg.render_report();
    let render_s = secs(t);
    it.wall_s = secs(t0);
    it.attempted = 1;
    gate(&mut it, seed, &agg, &report);

    if traced {
        let computed = cells_computed() - computed0;
        it.layer("fleet.sim_chunks_s", clock.sim_s);
        it.layer("fleet.fold_chunks_s", clock.fold_s);
        it.layer(
            "fleet.fold_ns_per_device",
            clock.fold_s * 1e9 / clock.fold_devices.max(1) as f64,
        );
        it.layer("fleet.cells_computed", computed as f64);
        it.layer("fleet.cells_shared", (cells_shared() - shared0) as f64);
        it.layer("fleet.cells_per_s", computed as f64 / clock.sim_s);
        it.layer("fleet.render_ms", render_s * 1e3);
        probes(&mut it, &spec, &agg);
    }
    it
}

/// Layer probes run after the measured fleet, on its warm state.
fn probes(it: &mut Iteration, spec: &ScenarioSpec, agg: &FleetAggregate) {
    let t = Instant::now();
    let snapshot = encode_snapshot(agg);
    it.layer("fleet.snapshot_encode_ms", secs(t) * 1e3);
    it.layer("fleet.snapshot_bytes", snapshot.len() as f64);
    let t = Instant::now();
    let decoded = decode_snapshot(&snapshot).expect("own snapshots decode");
    it.layer("fleet.snapshot_decode_ms", secs(t) * 1e3);
    assert!(&decoded == agg, "fleet snapshots must round-trip");

    // The per-device path the engine runs for every device: draw the
    // cell, then render its canonical key.
    let t = Instant::now();
    for d in 0..spec.devices {
        black_box(cell_for_device(spec, black_box(d)).canonical());
    }
    it.layer(
        "fleet.sample_ns_per_device",
        secs(t) * 1e9 / spec.devices as f64,
    );

    // Warm cell-cache lookups over the first chunk's devices.
    let keys: Vec<CellKey> = (0..spec.chunk).map(|d| cell_for_device(spec, d)).collect();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for key in &keys {
                black_box(evaluate_cell(black_box(key)));
            }
            secs(t) * 1e9 / keys.len() as f64
        })
        .collect();
    it.layer("fleet.cell_hit_ns", median(&rounds));
}

/// The golden `cell` lines (every universe cell) and `fleet` lines (the
/// report of each seed in `seeds`).
pub fn record(seeds: std::ops::Range<u64>) -> String {
    let digests = nvp_exec::Pool::new(2).map(fleet_universe(), |key| {
        let out = evaluate_cell(&key);
        cell_digest(
            out.forward_progress,
            out.backup_nj,
            out.mse_milli,
            out.frames_committed,
        )
    });
    let mut out = String::new();
    for (slot, d) in digests.iter().enumerate() {
        out.push_str(&format!("cell {slot} {}\n", hex(*d)));
    }
    for seed in seeds {
        let spec = ScenarioSpec::parse(&fleet_spec(seed)).expect("generated specs are valid");
        let mut agg = FleetAggregate::new(spec);
        run_chunks(&mut agg, OPTIONS, |_| {}).expect("fleet folds never mix histogram units");
        let report = agg.render_report();
        out.push_str(&format!(
            "fleet {seed} {}\n",
            hex(fnv1a64(report.as_bytes()))
        ));
    }
    out
}
