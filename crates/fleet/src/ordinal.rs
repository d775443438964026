//! Dense cell ordinals: a spec's cell cross-product, enumerated once.
//!
//! Every distinct cell of the spec gets a `u16` ordinal in canonical-
//! spelling order (the cross-product is validated at ≤ [`MAX_CELLS`]), so
//! counting a chunk is an array increment and folding in ordinal order is
//! folding in canonical order — the order the report bytes and every
//! accumulated f64 depend on. Devices are sampled straight to an ordinal:
//! the per-axis draws of [`cell_for_device`](crate::cell_for_device) pick
//! axis *entry* indices, their mixed-radix combination indexes the
//! cross-product, and a lookup table maps it to the ordinal — so
//! duplicate axis entries (`sobel, sobel*3`) share one ordinal. Strings
//! are spelled once per cell here and never on the per-device path.

use crate::sample::{cell_at, cohort, EntrySampler};
use crate::spec::{ScenarioSpec, MAX_CELLS};
use crate::CellKey;
use std::collections::{BTreeMap, BTreeSet};

/// The distinct cells of one spec, indexed by ordinal.
pub(crate) struct CellTable {
    /// Distinct cells, in canonical order (index = ordinal).
    keys: Vec<CellKey>,
    /// Canonical spelling of each cell (index = ordinal).
    canon: Vec<String>,
    /// Cohort index of each cell (index = ordinal).
    cohort_of: Vec<u16>,
    /// Cohort names, in canonical order (index = cohort index).
    cohorts: Vec<String>,
    /// Mixed-radix axis-entry index → ordinal.
    by_entries: Vec<u16>,
    sampler: EntrySampler,
}

impl CellTable {
    /// Enumerates `spec`'s cross-product and orders its distinct cells.
    pub(crate) fn new(spec: &ScenarioSpec) -> CellTable {
        let sampler = EntrySampler::new(spec);
        let slots = spec.distinct_cells() as usize;
        // Ordinals are `u16`; `ScenarioSpec::parse` enforces the bound.
        assert!(slots as u64 <= MAX_CELLS, "{slots} cells exceed MAX_CELLS");
        // Canonical spelling → (cell, the entry indices that reach it).
        let mut spelled: BTreeMap<String, (CellKey, Vec<usize>)> = BTreeMap::new();
        for index in 0..slots {
            let key = cell_at(spec, sampler.entries_of(index));
            spelled
                .entry(key.canonical())
                .or_insert_with(|| (key, Vec::new()))
                .1
                .push(index);
        }
        let cohort_index: BTreeMap<String, u16> = spelled
            .values()
            .map(|(key, _)| cohort(key))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, i as u16))
            .collect();
        let mut table = CellTable {
            keys: Vec::with_capacity(spelled.len()),
            canon: Vec::with_capacity(spelled.len()),
            cohort_of: Vec::with_capacity(spelled.len()),
            cohorts: cohort_index.keys().cloned().collect(),
            by_entries: vec![0; slots],
            sampler,
        };
        for (ordinal, (canon, (key, indices))) in spelled.into_iter().enumerate() {
            for index in indices {
                table.by_entries[index] = ordinal as u16;
            }
            table.cohort_of.push(cohort_index[&cohort(&key)]);
            table.keys.push(key);
            table.canon.push(canon);
        }
        table
    }

    /// Number of distinct cells.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The ordinal of `device`'s cell: the cell
    /// [`cell_for_device`](crate::cell_for_device) expands it to, without
    /// building the key.
    pub(crate) fn ordinal_for_device(&self, device: u64) -> usize {
        self.by_entries[self.sampler.entry_index(device)] as usize
    }

    /// The cell with ordinal `ordinal`.
    pub(crate) fn key(&self, ordinal: usize) -> &CellKey {
        &self.keys[ordinal]
    }

    /// Canonical spelling of the cell with ordinal `ordinal`.
    pub(crate) fn canonical(&self, ordinal: usize) -> &str {
        &self.canon[ordinal]
    }

    /// The ordinal of the cell spelled `canonical`, if the spec has one.
    pub(crate) fn ordinal_of(&self, canonical: &str) -> Option<usize> {
        self.canon
            .binary_search_by(|c| c.as_str().cmp(canonical))
            .ok()
    }

    /// Cohort index of the cell with ordinal `ordinal`.
    pub(crate) fn cohort_of(&self, ordinal: usize) -> usize {
        self.cohort_of[ordinal] as usize
    }

    /// Cohort names in canonical order (index = cohort index).
    pub(crate) fn cohorts(&self) -> &[String] {
        &self.cohorts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_for_device;

    fn spec(axes: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!("fleet-spec-v1\ndevices = 3000\nseed = 5\n{axes}")).unwrap()
    }

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            // Duplicated kernel entries must share ordinals.
            spec("kernels = sobel, sobel*3\nmodes = precise, fixed:4\n"),
            // Twelve members: `member=10` spells before `member=2`.
            spec("members = 12\nprofiles = p1, p3\n"),
            // Uneven weights on every axis, two engines, duplicates.
            spec(
                "kernels = median*5, sobel, median*2\n\
                 profiles = p2*7, p4\n\
                 members = 3\n\
                 caps_nj = 2500*2, 3500*9\n\
                 scopes = full, live-dirty*4\n\
                 modes = precise*3, fixed:4, dynamic:2-8*2\n\
                 engines = step*5, compiled\n",
            ),
        ]
    }

    #[test]
    fn ordinals_decode_to_the_sampled_cell() {
        for s in specs() {
            let table = CellTable::new(&s);
            for d in 0..s.devices {
                let want = cell_for_device(&s, d);
                let ordinal = table.ordinal_for_device(d);
                assert_eq!(*table.key(ordinal), want, "device {d}");
                assert_eq!(table.canonical(ordinal), want.canonical());
                assert_eq!(table.cohorts()[table.cohort_of(ordinal)], cohort(&want));
            }
        }
    }

    #[test]
    fn ordinal_order_is_canonical_order() {
        for s in specs() {
            let table = CellTable::new(&s);
            let mut seen: BTreeMap<String, CellKey> = BTreeMap::new();
            for d in 0..s.devices {
                let key = cell_for_device(&s, d);
                seen.insert(key.canonical(), key);
            }
            let spelled: Vec<&str> = (0..table.len()).map(|o| table.canonical(o)).collect();
            assert!(spelled.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
            // Every visited cell is in the table, in the same order.
            let visited: Vec<&str> = spelled
                .iter()
                .copied()
                .filter(|c| seen.contains_key(*c))
                .collect();
            assert_eq!(visited, seen.keys().map(String::as_str).collect::<Vec<_>>());
            let cohorts = table.cohorts();
            assert!(cohorts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn duplicate_entries_collapse_and_members_sort_as_strings() {
        let dup = CellTable::new(&specs()[0]);
        assert_eq!(dup.len(), 2, "sobel twice is one kernel, times two modes");
        let members = CellTable::new(&specs()[1]);
        assert_eq!(members.len(), 24);
        let order: Vec<u32> = (0..12).map(|o| members.key(o).member).collect();
        assert_eq!(order, [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]);
    }
}
