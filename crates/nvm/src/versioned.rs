//! Multi-version non-volatile data memory with precision metadata
//! (Section 4, "Data memory").
//!
//! To support 4-way incidental SIMD, every data word is extended to four
//! versions (one per SIMD lane / frame generation), and each version carries
//! a 3-bit *precision* tag recording how many significant bits it was
//! computed with. [`MergeMode`] defines the merge operations used by
//! recompute-and-combine: `sum`, `max`, `min` and `higherbits` (take the
//! version computed at higher precision).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of word versions (the paper's 4-way SIMD limit).
pub const NUM_VERSIONS: usize = 4;

/// Maximum representable precision in bits (8-bit significant data domain).
pub const MAX_PRECISION: u8 = 8;

/// One multi-version memory word: four values plus per-version precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VersionedWord {
    values: [i32; NUM_VERSIONS],
    precision: [u8; NUM_VERSIONS],
}

impl VersionedWord {
    /// Value stored in `version`.
    ///
    /// # Panics
    ///
    /// Panics if `version >= 4`.
    #[inline]
    pub fn value(&self, version: usize) -> i32 {
        self.values[version]
    }

    /// Precision tag (bits of significance, 0–8) of `version`.
    #[inline]
    pub fn precision(&self, version: usize) -> u8 {
        self.precision[version]
    }

    /// Writes a value with its precision tag.
    ///
    /// # Panics
    ///
    /// Panics if `version >= 4` or `precision > 8`.
    #[inline]
    pub fn set(&mut self, version: usize, value: i32, precision: u8) {
        assert!(
            precision <= MAX_PRECISION,
            "precision {precision} exceeds {MAX_PRECISION} bits"
        );
        self.values[version] = value;
        self.precision[version] = precision;
    }
}

/// How two result versions are combined (Table 1's `assemble` modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MergeMode {
    /// Element-wise sum (also updates precision to the max of the two).
    Sum,
    /// Element-wise maximum value.
    Max,
    /// Element-wise minimum value.
    Min,
    /// "Results computed with higher bits cover the results of the lower
    /// bits": per element, keep whichever version has the higher precision
    /// tag (ties keep the destination).
    HigherBits,
}

impl MergeMode {
    /// All merge modes.
    pub const ALL: [MergeMode; 4] = [
        MergeMode::Sum,
        MergeMode::Max,
        MergeMode::Min,
        MergeMode::HigherBits,
    ];

    /// Merges a source `(value, precision)` pair into a destination pair
    /// and returns the merged pair: the one definition of Table 1's
    /// `assemble` modes.
    pub fn merge(self, dst: (i32, u8), src: (i32, u8)) -> (i32, u8) {
        let ((dv, dp), (sv, sp)) = (dst, src);
        match self {
            MergeMode::Sum => (dv.saturating_add(sv), dp.max(sp)),
            MergeMode::Max => (dv.max(sv), dp.max(sp)),
            MergeMode::Min => (dv.min(sv), dp.max(sp)),
            MergeMode::HigherBits => {
                if sp > dp {
                    src
                } else {
                    dst
                }
            }
        }
    }
}

impl fmt::Display for MergeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MergeMode::Sum => "sum",
            MergeMode::Max => "max",
            MergeMode::Min => "min",
            MergeMode::HigherBits => "higherbits",
        };
        f.write_str(s)
    }
}

/// The versioned NVM data memory.
///
/// ```
/// use nvp_nvm::versioned::VersionedMemory;
///
/// let mut mem = VersionedMemory::new(16);
/// mem.write(0, 3, 100, 8); // version 3, full precision
/// mem.write(0, 0, 90, 2);  // version 0, 2-bit approximate
/// mem.swap_region_versions(0, 1, 0, 3);
/// assert_eq!((mem.read(0, 0), mem.precision(0, 0)), (100, 8));
/// assert_eq!((mem.read(0, 3), mem.precision(0, 3)), (90, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionedMemory {
    words: Vec<VersionedWord>,
}

impl VersionedMemory {
    /// Creates a zeroed memory of `len` words.
    pub fn new(len: usize) -> Self {
        VersionedMemory {
            words: vec![VersionedWord::default(); len],
        }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads `addr` from `version`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `version` is out of range.
    #[inline]
    pub fn read(&self, addr: usize, version: usize) -> i32 {
        self.words[addr].value(version)
    }

    /// Precision tag of `addr` in `version`.
    #[inline]
    pub fn precision(&self, addr: usize, version: usize) -> u8 {
        self.words[addr].precision(version)
    }

    /// Writes `value` with `precision` into `addr` of `version`.
    #[inline]
    pub fn write(&mut self, addr: usize, version: usize, value: i32, precision: u8) {
        self.words[addr].set(version, value, precision);
    }

    /// Direct access to a word (for bulk operations).
    pub fn word(&self, addr: usize) -> &VersionedWord {
        &self.words[addr]
    }

    /// Copies `[start, end)` from version `src` to version `dst` (values
    /// and precision tags). Used when the incidental controller parks or
    /// activates a frame's data plane.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of range.
    pub fn copy_region_version(&mut self, start: usize, end: usize, src: usize, dst: usize) {
        assert!(start <= end && end <= self.words.len(), "bad copy region");
        for addr in start..end {
            let w = &mut self.words[addr];
            w.values[dst] = w.values[src];
            w.precision[dst] = w.precision[src];
        }
    }

    /// Swaps `[start, end)` between versions `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the region is out of range.
    pub fn swap_region_versions(&mut self, start: usize, end: usize, a: usize, b: usize) {
        assert!(start <= end && end <= self.words.len(), "bad swap region");
        for addr in start..end {
            let w = &mut self.words[addr];
            w.values.swap(a, b);
            w.precision.swap(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_per_version() {
        let mut m = VersionedMemory::new(4);
        for v in 0..NUM_VERSIONS {
            m.write(2, v, (v as i32 + 1) * 10, v as u8 + 1);
        }
        for v in 0..NUM_VERSIONS {
            assert_eq!(m.read(2, v), (v as i32 + 1) * 10);
            assert_eq!(m.precision(2, v), v as u8 + 1);
        }
    }

    #[test]
    fn merge_higherbits_prefers_precision() {
        assert_eq!(MergeMode::HigherBits.merge((11, 3), (99, 7)), (99, 7));
        // Ties keep the destination.
        assert_eq!(MergeMode::HigherBits.merge((11, 5), (99, 5)), (11, 5));
    }

    #[test]
    fn merge_value_modes() {
        let (dst, src) = ((10, 2), (-3, 8));
        assert_eq!(MergeMode::Max.merge(dst, src), (10, 8));
        assert_eq!(MergeMode::Min.merge(dst, src), (-3, 8));
        assert_eq!(MergeMode::Sum.merge(dst, src), (7, 8));
    }

    #[test]
    fn merge_sum_saturates() {
        assert_eq!(MergeMode::Sum.merge((i32::MAX, 8), (1, 8)), (i32::MAX, 8));
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_over_8_panics() {
        let mut m = VersionedMemory::new(1);
        m.write(0, 0, 1, 9);
    }

    #[test]
    #[should_panic(expected = "bad copy region")]
    fn bad_region_panics() {
        let mut m = VersionedMemory::new(2);
        m.copy_region_version(0, 5, 0, 1);
    }
}
