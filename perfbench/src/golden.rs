//! Output digests pinned at the seed commit, and the gate that checks them.
//!
//! `golden.txt` holds FNV-1a 64 digests of simulated outputs, recorded by
//! `perfbench --record-golden` before any optimization:
//!
//! * `repro <hex>` — the rendered tables of `repro all`;
//! * `serve <slot> <hex>` — the `/v1/run` body of each serve universe key;
//! * `cell <slot> <hex>` — the per-cell statistics of each fleet universe
//!   cell (what the fleet report aggregates);
//! * `fleet <seed> <hex>` — the whole fleet report for recorded seeds.
//!
//! A run whose output digest differs from its pinned one counts as failed.

use std::collections::HashMap;
use std::sync::OnceLock;

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// A digest as 16 hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The parsed golden file.
#[derive(Debug, Default)]
pub struct Golden {
    /// Digest of `repro all`'s rendered tables.
    pub repro: Option<u64>,
    /// Body digest per serve universe slot.
    pub serve: HashMap<usize, u64>,
    /// Cell-statistics digest per fleet universe slot.
    pub cells: HashMap<usize, u64>,
    /// Report digest per recorded fleet workload seed.
    pub fleet: HashMap<u64, u64>,
}

impl Golden {
    /// Parses golden text; `#` lines are comments.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden.txt line {}: '{line}'", i + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let digest = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            let index = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match fields.as_slice() {
                ["repro", d] => g.repro = Some(digest(d)?),
                ["serve", slot, d] => {
                    g.serve.insert(index(slot)? as usize, digest(d)?);
                }
                ["cell", slot, d] => {
                    g.cells.insert(index(slot)? as usize, digest(d)?);
                }
                ["fleet", seed, d] => {
                    g.fleet.insert(index(seed)?, digest(d)?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(g)
    }
}

/// The golden digests compiled into this binary.
pub fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        Golden::parse(include_str!("../golden.txt")).expect("golden.txt is well-formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex(0xab), "00000000000000ab");
    }

    #[test]
    fn parses_every_record_kind() {
        let g = Golden::parse("# c\nrepro 00ff\nserve 3 0a\ncell 9 0b\nfleet 42 0c\n").unwrap();
        assert_eq!(g.repro, Some(0xff));
        assert_eq!(g.serve[&3], 0x0a);
        assert_eq!(g.cells[&9], 0x0b);
        assert_eq!(g.fleet[&42], 0x0c);
        assert!(Golden::parse("serve x 0a").is_err());
        assert!(Golden::parse("bogus 1").is_err());
    }

    #[test]
    fn the_compiled_in_golden_file_is_complete() {
        let g = golden();
        assert!(g.repro.is_some());
        assert_eq!(g.serve.len(), crate::inputs::SERVE_UNIVERSE);
        assert_eq!(g.cells.len(), crate::inputs::fleet_universe().len());
    }
}
