//! The power-gated multi-version register file (Section 4).
//!
//! Each of the 16 registers is "extended from 8 bits to 32 bits (4
//! versions)": version 0 is the live lane, versions 1–3 hold the register
//! values of older, incidentally-computed frames.

use crate::instr::{Reg, NUM_REGS};
use nvp_nvm::NUM_VERSIONS;
use serde::{Deserialize, Serialize};

/// The architectural register file: 16 registers × 4 versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegFile {
    regs: [[i32; NUM_VERSIONS]; NUM_REGS],
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile {
            regs: [[0; NUM_VERSIONS]; NUM_REGS],
        }
    }
}

impl RegFile {
    /// A zeroed register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads register `r`, version `v`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `v` is out of range.
    #[inline]
    pub fn read(&self, r: Reg, v: usize) -> i32 {
        self.regs[r.index()][v]
    }

    /// Writes register `r`, version `v`.
    #[inline]
    pub fn write(&mut self, r: Reg, v: usize, value: i32) {
        self.regs[r.index()][v] = value;
    }

    /// Lane-0 read with the register index masked to the file size. Used
    /// by the compiled engine's hot loop, whose operands were validated
    /// `< NUM_REGS` once at decode time — the mask lets the optimiser
    /// drop the per-access bounds check without changing behaviour.
    #[inline]
    pub(crate) fn read0(&self, r: Reg) -> i32 {
        self.regs[(r.0 as usize) % NUM_REGS][0]
    }

    /// Lane-0 write counterpart of [`RegFile::read0`].
    #[inline]
    pub(crate) fn write0(&mut self, r: Reg, value: i32) {
        self.regs[(r.0 as usize) % NUM_REGS][0] = value;
    }

    /// Writes the same value to versions `0..lanes`.
    #[inline]
    pub fn write_broadcast(&mut self, r: Reg, lanes: usize, value: i32) {
        for v in 0..lanes {
            self.regs[r.index()][v] = value;
        }
    }

    /// Swaps two version planes across all registers.
    pub fn swap_versions(&mut self, a: usize, b: usize) {
        for r in 0..NUM_REGS {
            self.regs[r].swap(a, b);
        }
    }

    /// Reads one version plane as a plain array.
    pub fn version_values(&self, v: usize) -> [i32; NUM_REGS] {
        let mut out = [0; NUM_REGS];
        for (i, r) in self.regs.iter().enumerate() {
            out[i] = r[v];
        }
        out
    }

    /// Writes one version plane from a plain array.
    pub fn set_version_values(&mut self, v: usize, values: [i32; NUM_REGS]) {
        for (i, r) in self.regs.iter_mut().enumerate() {
            r[v] = values[i];
        }
    }

    /// Raw snapshot of all registers and versions.
    pub fn snapshot(&self) -> [[i32; NUM_VERSIONS]; NUM_REGS] {
        self.regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_versions_independent() {
        let mut rf = RegFile::new();
        rf.write(Reg(3), 0, 10);
        rf.write(Reg(3), 2, 77);
        assert_eq!(rf.read(Reg(3), 0), 10);
        assert_eq!(rf.read(Reg(3), 1), 0);
        assert_eq!(rf.read(Reg(3), 2), 77);
    }

    #[test]
    fn broadcast_fills_active_lanes_only() {
        let mut rf = RegFile::new();
        rf.write(Reg(0), 3, -1);
        rf.write_broadcast(Reg(0), 2, 9);
        assert_eq!(rf.read(Reg(0), 0), 9);
        assert_eq!(rf.read(Reg(0), 1), 9);
        assert_eq!(rf.read(Reg(0), 2), 0);
        assert_eq!(rf.read(Reg(0), 3), -1);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rf = RegFile::new();
        rf.write(Reg(7), 1, 1234);
        let snap = rf.snapshot();
        assert_eq!(snap[7][1], 1234);
        let mut back = RegFile::new();
        for (r, versions) in snap.iter().enumerate() {
            for (v, &value) in versions.iter().enumerate() {
                back.write(Reg(r as u8), v, value);
            }
        }
        assert_eq!(back, rf);
    }
}
