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

/// Axis indices salt the per-device draw streams. Declaration order is
/// also the digit order of a cell's mixed-radix entry index (kernel most
/// significant).
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

/// Number of sampled axes.
const AXES: usize = 7;

/// Every axis, in digit order.
const ALL_AXES: [Axis; AXES] = [
    Axis::Kernel,
    Axis::Profile,
    Axis::Member,
    Axis::Cap,
    Axis::Scope,
    Axis::Mode,
    Axis::Engine,
];

/// The device-dependent half of every axis draw.
fn device_stream(device: u64) -> u64 {
    splitmix64(device.wrapping_add(0x5851_F42D_4C95_7F2D))
}

/// One axis draw for one device: an independent 64-bit stream value.
fn draw(spec_seed: u64, stream: u64, axis: Axis) -> u64 {
    splitmix64(spec_seed ^ stream ^ (axis as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Weighted choice over an axis distribution: the chosen entry's index.
fn pick<T>(entries: &[Weighted<T>], r: u64) -> usize {
    let total: u64 = entries.iter().map(|w| w.weight).sum();
    let mut rem = r % total;
    for (i, w) in entries.iter().enumerate() {
        if rem < w.weight {
            return i;
        }
        rem -= w.weight;
    }
    unreachable!("r % total lands inside the weights")
}

/// The cell whose axis entries are `entries` (indices in [`Axis`] order).
pub(crate) fn cell_at(spec: &ScenarioSpec, entries: [usize; AXES]) -> CellKey {
    let [kernel, profile, member, cap, scope, mode, engine] = entries;
    CellKey {
        kernel: spec.kernels[kernel].item,
        img: spec.img,
        frames: spec.frames,
        trace_ms: spec.trace_ms,
        profile: spec.profiles[profile].item,
        member: member as u32,
        cap_nj: spec.caps_nj[cap].item,
        scope: spec.scopes[scope].item,
        mode: spec.modes[mode].item,
        engine: spec.engines[engine].item,
        seed: spec.seed,
    }
}

/// Expands population member `device` (0-based) of `spec` into its cell.
pub fn cell_for_device(spec: &ScenarioSpec, device: u64) -> CellKey {
    let stream = device_stream(device);
    let r = |axis| draw(spec.seed, stream, axis);
    cell_at(
        spec,
        [
            pick(&spec.kernels, r(Axis::Kernel)),
            pick(&spec.profiles, r(Axis::Profile)),
            (r(Axis::Member) % spec.members as u64) as usize,
            pick(&spec.caps_nj, r(Axis::Cap)),
            pick(&spec.scopes, r(Axis::Scope)),
            pick(&spec.modes, r(Axis::Mode)),
            pick(&spec.engines, r(Axis::Engine)),
        ],
    )
}

/// The draws of [`cell_for_device`] with every axis's weights summed
/// once: samples a device straight to its cell's mixed-radix entry index
/// (digits in [`Axis`] order, kernel most significant).
pub(crate) struct EntrySampler {
    seed: u64,
    /// Per-axis running weight sums (`bounds[a][i]` = weights `0..=i`),
    /// in [`Axis`] order. Members weigh 1 each, which makes `pick` over
    /// them `r % members`.
    bounds: [Vec<u64>; AXES],
}

impl EntrySampler {
    pub(crate) fn new(spec: &ScenarioSpec) -> Self {
        fn running(weights: impl Iterator<Item = u64>) -> Vec<u64> {
            weights
                .scan(0u64, |sum, w| {
                    *sum += w;
                    Some(*sum)
                })
                .collect()
        }
        fn weights<T>(entries: &[Weighted<T>]) -> impl Iterator<Item = u64> + '_ {
            entries.iter().map(|w| w.weight)
        }
        EntrySampler {
            seed: spec.seed,
            bounds: [
                running(weights(&spec.kernels)),
                running(weights(&spec.profiles)),
                running((0..spec.members).map(|_| 1)),
                running(weights(&spec.caps_nj)),
                running(weights(&spec.scopes)),
                running(weights(&spec.modes)),
                running(weights(&spec.engines)),
            ],
        }
    }

    /// Entry count of every axis, in [`Axis`] order. Their product is
    /// [`ScenarioSpec::distinct_cells`].
    pub(crate) fn radices(&self) -> [usize; AXES] {
        self.bounds.each_ref().map(Vec::len)
    }

    /// Splits a mixed-radix entry index back into its per-axis entries.
    pub(crate) fn entries_of(&self, mut index: usize) -> [usize; AXES] {
        let mut entries = [0; AXES];
        for (entry, radix) in entries.iter_mut().zip(self.radices()).rev() {
            *entry = index % radix;
            index /= radix;
        }
        entries
    }

    /// Mixed-radix entry index of `device`'s cell.
    pub(crate) fn entry_index(&self, device: u64) -> usize {
        let stream = device_stream(device);
        ALL_AXES
            .iter()
            .zip(&self.bounds)
            .fold(0, |index, (&axis, bounds)| {
                let total = bounds[bounds.len() - 1];
                let rem = draw(self.seed, stream, axis) % total;
                // `pick`'s choice: the first entry whose running sum
                // exceeds the remainder.
                index * bounds.len() + bounds.partition_point(|&b| b <= rem)
            })
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
