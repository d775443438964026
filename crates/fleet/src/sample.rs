//! Deterministic device-instance expansion: population index → cell.
//!
//! A device-instance is never materialized; its entire identity is the
//! cell it hashes to. Each axis draw is an independent splitmix64 stream
//! keyed by `(spec seed, device index, axis)`, so device `i`'s
//! configuration is a pure function of the spec — independent of chunking,
//! job count and visit order. Weighted choice is draw-mod-total-weight
//! (the tiny modulo bias is irrelevant for population simulation and
//! buys exact cross-platform determinism).

use crate::spec::{ScenarioSpec, Weighted};
use crate::CellKey;

/// The splitmix64 finalizer: a single pass of the mix function, used both
/// to expand devices into axis draws and to derive reservoir priorities.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cohort a cell aggregates under (the percentile curves are reported per
/// kernel × mode).
pub fn cohort(key: &CellKey) -> String {
    format!("kernel={}&mode={}", key.kernel.name(), key.mode)
}

/// Axis indices salt the per-device draw streams.
#[derive(Clone, Copy)]
enum Axis {
    Kernel,
    Profile,
    Member,
    Cap,
    Scope,
    Mode,
    Engine,
}

/// One axis draw for one device: an independent 64-bit stream value.
fn draw(spec_seed: u64, device: u64, axis: Axis) -> u64 {
    splitmix64(
        spec_seed
            ^ splitmix64(device.wrapping_add(0x5851_F42D_4C95_7F2D))
            ^ (axis as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Weighted choice over an axis distribution.
fn pick<T: Copy>(entries: &[Weighted<T>], r: u64) -> T {
    let total: u64 = entries.iter().map(|w| w.weight).sum();
    let mut rem = r % total;
    for w in entries {
        if rem < w.weight {
            return w.item;
        }
        rem -= w.weight;
    }
    entries.last().expect("axes are validated non-empty").item
}

/// Expands population member `device` (0-based) of `spec` into its cell.
pub fn cell_for_device(spec: &ScenarioSpec, device: u64) -> CellKey {
    let s = spec.seed;
    CellKey {
        kernel: pick(&spec.kernels, draw(s, device, Axis::Kernel)),
        img: spec.img,
        frames: spec.frames,
        trace_ms: spec.trace_ms,
        profile: pick(&spec.profiles, draw(s, device, Axis::Profile)),
        member: (draw(s, device, Axis::Member) % spec.members as u64) as u32,
        cap_nj: pick(&spec.caps_nj, draw(s, device, Axis::Cap)),
        scope: pick(&spec.scopes, draw(s, device, Axis::Scope)),
        mode: pick(&spec.modes, draw(s, device, Axis::Mode)),
        engine: pick(&spec.engines, draw(s, device, Axis::Engine)),
        seed: spec.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use std::collections::BTreeMap;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 4000\n\
             seed = 7\n\
             kernels = sobel*3, median\n\
             profiles = p1, p3\n\
             members = 3\n\
             caps_nj = 2500, 3500\n\
             modes = precise, fixed:4\n",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_deterministic_and_order_free() {
        let s = spec();
        let forward: Vec<CellKey> = (0..100).map(|d| cell_for_device(&s, d)).collect();
        let backward: Vec<CellKey> = (0..100).rev().map(|d| cell_for_device(&s, d)).collect();
        for (i, cell) in forward.iter().enumerate() {
            assert_eq!(*cell, backward[99 - i]);
        }
    }

    #[test]
    fn weights_steer_the_population() {
        let s = spec();
        let mut kernels: BTreeMap<&str, u64> = BTreeMap::new();
        for d in 0..s.devices {
            *kernels
                .entry(cell_for_device(&s, d).kernel.name())
                .or_default() += 1;
        }
        let sobel = kernels["sobel"] as f64 / s.devices as f64;
        assert!(
            (0.70..0.80).contains(&sobel),
            "sobel weighted 3:1 should draw ~75%, got {sobel:.3}"
        );
        // Every member of the small cross-product is reachable.
        let mut cells: BTreeMap<String, u64> = BTreeMap::new();
        for d in 0..s.devices {
            *cells.entry(cell_for_device(&s, d).canonical()).or_default() += 1;
        }
        assert_eq!(cells.len() as u64, s.distinct_cells());
        assert_eq!(cells.values().sum::<u64>(), s.devices);
    }

    #[test]
    fn seed_changes_move_the_population() {
        let a = spec();
        let mut b = spec();
        b.seed = 8;
        let moved = (0..1000)
            .filter(|&d| cell_for_device(&a, d) != cell_for_device(&b, d))
            .count();
        assert!(moved > 500, "only {moved}/1000 devices moved on reseed");
    }

    #[test]
    fn canonical_cell_spelling_is_stable() {
        let cell = cell_for_device(&spec(), 0);
        let canon = cell.canonical();
        assert!(canon.starts_with("cell/kernel="), "{canon}");
        assert!(canon.contains("&cap_nj="), "{canon}");
        assert_eq!(canon, cell_for_device(&spec(), 0).canonical());
        assert!(cohort(&cell).starts_with("kernel="));
    }
}
