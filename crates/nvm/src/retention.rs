//! Retention-time shaping policies (paper Figure 5, Equations (1)–(3)).
//!
//! A backed-up 8-bit word does not need uniform retention: higher-order bits
//! matter more to output quality, so they get longer retention (and costlier
//! writes) while low-order bits are persisted cheaply and unreliably.
//!
//! Bit indices follow the paper's convention: `B ∈ 1..=8`, with `B = 8` the
//! most significant bit. Retention times are in 0.1 ms ticks.
//!
//! The three shaping functions (reconstructed from Equations (1)–(3); the
//! log form is partially garbled in the published text and is reconstructed
//! to match Figure 22(b)'s shape and the Section 8.4 energy ordering
//! log < linear < parabola):
//!
//! * **linear**   `T(B) = 427·B − 426`              (1 … 2990 ticks)
//! * **log**      `T(B) = 426·log₂(B) + 9`          (9 … 1287 ticks)
//! * **parabola** `T(B) = −61·B² + 976·B − 905`     (10 … 2999 ticks)
//!
//! All three give the MSB roughly 0.3 s of retention — enough for the vast
//! majority of the outages in Figure 3 — while the parabola keeps mid-order
//! bits near MSB-grade retention (most conservative) and the log collapses
//! them aggressively (cheapest writes, most forward progress in Figure 25).

use crate::sttram::{self, anchors};
use nvp_power::{Energy, Ticks};
use std::fmt;

/// Number of bits in a backed-up word.
pub const WORD_BITS: u8 = 8;

/// A per-bit retention-time policy for approximate backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetentionPolicy {
    /// Conventional NVP baseline: every bit retained for ≥ a decade.
    FullRetention,
    /// One day of retention for every bit: Figure 25's "8Bit 1 Day
    /// Baseline".
    OneDay,
    /// Equation (1): `T = 427·B − 426`.
    Linear,
    /// Equation (2), reconstructed: `T = 426·log₂(B) + 9`.
    Log,
    /// Equation (3): `T = −61·B² + 976·B − 905`.
    Parabola,
}

impl RetentionPolicy {
    /// The three shaped policies evaluated in Figures 22–25.
    pub const SHAPED: [RetentionPolicy; 3] = [
        RetentionPolicy::Linear,
        RetentionPolicy::Log,
        RetentionPolicy::Parabola,
    ];

    /// Retention time for bit `b` (1 = LSB … 8 = MSB).
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside `1..=8`.
    pub fn retention_ticks(self, b: u8) -> Ticks {
        assert!(
            (1..=WORD_BITS).contains(&b),
            "bit index {b} outside 1..=8 (8 = MSB)"
        );
        let bf = b as f64;
        match self {
            RetentionPolicy::FullRetention => anchors::ten_years(),
            RetentionPolicy::OneDay => anchors::one_day(),
            RetentionPolicy::Linear => Ticks((427.0 * bf - 426.0) as u64),
            RetentionPolicy::Log => Ticks((426.0 * bf.log2() + 9.0).round() as u64),
            RetentionPolicy::Parabola => Ticks((-61.0 * bf * bf + 976.0 * bf - 905.0) as u64),
        }
    }

    /// Per-bit retention array ordered LSB-first (`[T(1) … T(8)]`).
    pub fn retention_profile(self) -> [Ticks; 8] {
        let mut out = [Ticks::ZERO; 8];
        for b in 1..=WORD_BITS {
            out[(b - 1) as usize] = self.retention_ticks(b);
        }
        out
    }

    /// Energy to back up one 8-bit word under this policy (the paper's
    /// incidental-backup energy saving).
    pub fn word_write_energy(self) -> Energy {
        sttram::word_write_energy(&self.retention_profile())
    }

    /// Energy saving of this policy relative to the full-retention baseline
    /// (0 = no saving).
    pub fn saving_vs_full(self) -> f64 {
        let full = RetentionPolicy::FullRetention.word_write_energy();
        1.0 - self.word_write_energy() / full
    }
}

impl fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetentionPolicy::FullRetention => f.write_str("full-retention"),
            RetentionPolicy::OneDay => {
                write!(f, "uniform({:.0} ms)", anchors::one_day().as_ms())
            }
            RetentionPolicy::Linear => f.write_str("linear"),
            RetentionPolicy::Log => f.write_str("log"),
            RetentionPolicy::Parabola => f.write_str("parabola"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_endpoints_match_equation_1() {
        assert_eq!(RetentionPolicy::Linear.retention_ticks(1), Ticks(1));
        assert_eq!(RetentionPolicy::Linear.retention_ticks(8), Ticks(2990));
    }

    #[test]
    fn parabola_endpoints_match_equation_3() {
        assert_eq!(RetentionPolicy::Parabola.retention_ticks(1), Ticks(10));
        assert_eq!(RetentionPolicy::Parabola.retention_ticks(8), Ticks(2999));
    }

    #[test]
    fn log_endpoints() {
        assert_eq!(RetentionPolicy::Log.retention_ticks(1), Ticks(9));
        assert_eq!(RetentionPolicy::Log.retention_ticks(8), Ticks(1287));
    }

    #[test]
    fn all_policies_monotonic_in_bit_significance() {
        for p in RetentionPolicy::SHAPED {
            let prof = p.retention_profile();
            for w in prof.windows(2) {
                assert!(w[0] <= w[1], "{p}: retention not monotone: {prof:?}");
            }
        }
    }

    #[test]
    fn parabola_most_conservative_mid_bits() {
        // Section 3.2: parabola "is the most conservative in maintaining
        // upper bit fidelity"; log is the most aggressive.
        for b in 3..=7 {
            let lin = RetentionPolicy::Linear.retention_ticks(b);
            let log = RetentionPolicy::Log.retention_ticks(b);
            let par = RetentionPolicy::Parabola.retention_ticks(b);
            assert!(log < lin, "bit {b}: log {log:?} !< linear {lin:?}");
            assert!(lin < par, "bit {b}: linear {lin:?} !< parabola {par:?}");
        }
    }

    #[test]
    fn energy_ordering_log_cheapest() {
        // Section 8.4: "The log policy frees the greatest amount of energy
        // and the parabola policy the least."
        let lin = RetentionPolicy::Linear.word_write_energy();
        let log = RetentionPolicy::Log.word_write_energy();
        let par = RetentionPolicy::Parabola.word_write_energy();
        let full = RetentionPolicy::FullRetention.word_write_energy();
        assert!(log < lin && lin < par && par < full);
    }

    #[test]
    fn shaped_policies_save_substantial_energy() {
        // Figure 25's ~1.4–1.6× FP gains come from ~30–60% backup savings.
        for p in RetentionPolicy::SHAPED {
            let s = p.saving_vs_full();
            assert!((0.25..0.95).contains(&s), "{p}: saving {s:.2}");
        }
    }

    #[test]
    fn uniform_policy_applies_same_retention() {
        let p = RetentionPolicy::OneDay;
        assert_eq!(p.retention_profile(), [anchors::one_day(); 8]);
        assert_eq!(p.to_string(), "uniform(86400000 ms)");
    }

    #[test]
    fn display_nonempty() {
        for p in [
            RetentionPolicy::FullRetention,
            RetentionPolicy::OneDay,
            RetentionPolicy::Linear,
            RetentionPolicy::Log,
            RetentionPolicy::Parabola,
        ] {
            assert!(!p.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_zero_panics() {
        RetentionPolicy::Linear.retention_ticks(0);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_nine_panics() {
        RetentionPolicy::Linear.retention_ticks(9);
    }
}
