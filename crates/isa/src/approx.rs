//! Bit-level approximation semantics (Section 8.1).
//!
//! Two distinct mechanisms, matching the paper's quality study:
//!
//! * **Approximate ALU** — "preserves the upper N bits and produces random
//!   outputs for the lower 8−N bits". This models the gradient-VDD
//!   approximate adders of Gupta et al. / Ye et al.: low-order result bits
//!   are computed at reduced voltage and may settle anywhere, so we
//!   *randomize* them ([`alu_approximate`]).
//! * **Approximate memory** — "non-preserved bits … are truncated, and the
//!   operations using their values are treated as shifted N-bit operations":
//!   low-order bits are *zeroed* on store ([`mem_truncate`]).
//!
//! Both operate on the 8-bit significant data domain of the 8051-class
//! datapath: for wider intermediate values (sums, products) only the low
//! eight bits are eligible for degradation, which matches hardware where the
//! approximate byte-lane is the one at reduced voltage.

/// Maximum data-domain bitwidth.
pub const FULL_BITS: u8 = 8;

/// Per-lane approximation configuration, set each control epoch by the
/// approximation control unit (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Global AC enable (the `AC_EN` register; a running program can unset
    /// it to force full-precision execution).
    pub ac_en: bool,
    /// Per-lane ALU bitwidth (1..=8). Lane 0 is the live computation.
    pub alu_bits: [u8; 4],
    /// Per-lane memory bitwidth (1..=8).
    pub mem_bits: [u8; 4],
    /// Number of active SIMD lanes (1..=4).
    pub lanes: u8,
}

impl Default for ApproxConfig {
    /// Full-precision single-lane execution (the precise 8-bit baseline).
    fn default() -> Self {
        ApproxConfig {
            ac_en: false,
            alu_bits: [FULL_BITS; 4],
            mem_bits: [FULL_BITS; 4],
            lanes: 1,
        }
    }
}

impl ApproxConfig {
    /// Fixed-bitwidth configuration for the Section 8.1 quality study:
    /// one lane, both ALU and memory at `bits`.
    pub fn fixed(bits: u8) -> Self {
        assert!((1..=FULL_BITS).contains(&bits), "bits must be 1..=8");
        ApproxConfig {
            ac_en: bits < FULL_BITS,
            alu_bits: [bits; 4],
            mem_bits: [bits; 4],
            lanes: 1,
        }
    }

    /// Fixed ALU bitwidth with precise memory (Figures 11–12).
    pub fn alu_only(bits: u8) -> Self {
        assert!((1..=FULL_BITS).contains(&bits), "bits must be 1..=8");
        ApproxConfig {
            ac_en: bits < FULL_BITS,
            alu_bits: [bits; 4],
            mem_bits: [FULL_BITS; 4],
            lanes: 1,
        }
    }

    /// Fixed memory bitwidth with precise ALU (Figures 13–14).
    pub fn mem_only(bits: u8) -> Self {
        assert!((1..=FULL_BITS).contains(&bits), "bits must be 1..=8");
        ApproxConfig {
            ac_en: bits < FULL_BITS,
            alu_bits: [FULL_BITS; 4],
            mem_bits: [bits; 4],
            lanes: 1,
        }
    }

    /// Validates lane count and bit ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=4).contains(&self.lanes) {
            return Err(format!("lanes {} outside 1..=4", self.lanes));
        }
        for (i, &b) in self.alu_bits.iter().chain(self.mem_bits.iter()).enumerate() {
            if !(1..=FULL_BITS).contains(&b) {
                return Err(format!("bitwidth entry {i} = {b} outside 1..=8"));
            }
        }
        Ok(())
    }

    /// Effective ALU bits for lane `l` (8 when approximation is disabled).
    pub fn effective_alu_bits(&self, l: usize) -> u8 {
        if self.ac_en {
            self.alu_bits[l]
        } else {
            FULL_BITS
        }
    }

    /// Effective memory bits for lane `l` (8 when approximation is disabled).
    pub fn effective_mem_bits(&self, l: usize) -> u8 {
        if self.ac_en {
            self.mem_bits[l]
        } else {
            FULL_BITS
        }
    }
}

/// Mask covering the *non-preserved* low-order bits for an N-bit datapath.
#[inline]
fn junk_mask(bits: u8) -> i32 {
    debug_assert!((1..=FULL_BITS).contains(&bits));
    ((1u32 << (FULL_BITS - bits)) - 1) as i32
}

/// Tight worst-case magnitude of the centered error [`alu_approximate`] can
/// add at `bits` reliable bits: `2^(8-bits) / 4` (0 at 7 or more bits).
///
/// The static value-range and error-bound analyses in `nvp-analysis` build
/// their abstract transfer functions on this bound, so it is load-bearing:
/// `|alu_approximate(v, bits, n) - v| <= alu_error_bound(bits)` must hold
/// for every `v` and every `n` (checked exhaustively in the tests below).
#[inline]
pub fn alu_error_bound(bits: u8) -> i32 {
    if bits >= FULL_BITS {
        0
    } else {
        (1i32 << (FULL_BITS - bits)) / 4
    }
}

/// Tight worst-case value lost by [`mem_truncate`] at `bits` reliable bits:
/// the junk mask `2^(8-bits) - 1` (0 at 8 bits).
///
/// Truncation rounds toward negative infinity for every sign
/// (`v & !mask == floor(v / 2^k) * 2^k` in two's complement), so
/// `0 <= v - mem_truncate(v, bits) <= mem_error_bound(bits)` for all `v` —
/// the error is one-sided. This also makes `mem_truncate` monotone in `v`,
/// which the interval domain relies on to map range endpoints.
#[inline]
pub fn mem_error_bound(bits: u8) -> i32 {
    if bits >= FULL_BITS {
        0
    } else {
        junk_mask(bits)
    }
}

/// Approximate-ALU result transformation: a gradient-VDD error model.
///
/// The low `8 − bits` result bits are computed at reduced voltage; the
/// paper's sources (Gupta et al., Ye et al.) show this yields a bounded,
/// roughly symmetric arithmetic error rather than full re-randomization.
/// We add a centered error of magnitude up to ±`mask/4`, which calibrates
/// the fixed-bitwidth quality study to the published Figure 12 levels
/// (median stays above 20 dB even at 1 bit).
///
/// `bits = 8` is the identity.
#[inline]
pub fn alu_approximate(value: i32, bits: u8, noise: u32) -> i32 {
    if bits >= FULL_BITS {
        return value;
    }
    let m = junk_mask(bits);
    let delta = ((noise as i32 & m) - m / 2) / 2;
    value.wrapping_add(delta)
}

/// Approximate-memory store transformation: truncate (zero) the low-order
/// bits of the 8-bit domain.
///
/// `bits = 8` is the identity.
#[inline]
pub fn mem_truncate(value: i32, bits: u8) -> i32 {
    if bits >= FULL_BITS {
        return value;
    }
    value & !junk_mask(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bits_is_identity() {
        assert_eq!(alu_approximate(0x12345, 8, 0xFFFF_FFFF), 0x12345);
        assert_eq!(mem_truncate(-777, 8), -777);
    }

    #[test]
    fn truncation_zeros_low_bits() {
        assert_eq!(mem_truncate(0xFF, 4), 0xF0);
        assert_eq!(mem_truncate(0xFF, 1), 0x80);
        assert_eq!(mem_truncate(0b1010_1010, 6), 0b1010_1000);
    }

    #[test]
    fn truncation_preserves_high_bits_of_wide_values() {
        // Only the 8-bit domain degrades; bits above stay intact.
        assert_eq!(mem_truncate(0x1234, 4), 0x1230);
    }

    #[test]
    fn alu_noise_bounded_and_centered() {
        let v = 0b1100_0000;
        for bits in 1..8u8 {
            let m = ((1i32 << (8 - bits)) - 1).max(1);
            for noise in [0u32, 7, 0xFF, 0xDEAD_BEEF] {
                let out = alu_approximate(v, bits, noise);
                assert!(
                    (out - v).abs() <= m / 2 + 1,
                    "bits {bits}: error {} exceeds ±mask/2",
                    out - v
                );
            }
        }
        // Wider junk masks admit larger errors.
        let worst1 = (0..256u32)
            .map(|n| (alu_approximate(0, 1, n)).abs())
            .max()
            .unwrap();
        let worst6 = (0..256u32)
            .map(|n| (alu_approximate(0, 6, n)).abs())
            .max()
            .unwrap();
        assert!(worst1 > worst6);
    }

    #[test]
    fn config_constructors() {
        let f = ApproxConfig::fixed(3);
        assert!(f.ac_en);
        assert_eq!(f.effective_alu_bits(0), 3);
        assert_eq!(f.effective_mem_bits(0), 3);

        let a = ApproxConfig::alu_only(2);
        assert_eq!(a.effective_alu_bits(0), 2);
        assert_eq!(a.effective_mem_bits(0), 8);

        let m = ApproxConfig::mem_only(2);
        assert_eq!(m.effective_alu_bits(0), 8);
        assert_eq!(m.effective_mem_bits(0), 2);

        // bits=8 constructors leave approximation off.
        assert!(!ApproxConfig::fixed(8).ac_en);
    }

    #[test]
    fn ac_en_overrides_bits() {
        let mut c = ApproxConfig::fixed(2);
        c.ac_en = false;
        assert_eq!(c.effective_alu_bits(0), 8);
        assert_eq!(c.effective_mem_bits(0), 8);
    }

    #[test]
    fn validate_catches_bad_lanes_and_bits() {
        let c = ApproxConfig {
            lanes: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let mut c = ApproxConfig::default();
        c.alu_bits[2] = 0;
        assert!(c.validate().is_err());
        let mut c = ApproxConfig::default();
        c.mem_bits[1] = 9;
        assert!(c.validate().is_err());
        assert!(ApproxConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "bits must be 1..=8")]
    fn fixed_zero_bits_panics() {
        let _ = ApproxConfig::fixed(0);
    }

    // --- boundary semantics, load-bearing for the abstract domains -------

    #[test]
    fn bits_at_or_above_domain_are_identity() {
        // The 8-bit data domain saturates: 8, 31 and 32 "bits" all behave
        // as full precision for both mechanisms.
        for bits in [8u8, 31, 32, 255] {
            for v in [0i32, 1, -1, 0x7F, -0x80, i32::MAX, i32::MIN] {
                assert_eq!(
                    alu_approximate(v, bits, 0xDEAD_BEEF),
                    v,
                    "alu bits={bits} v={v}"
                );
                assert_eq!(mem_truncate(v, bits), v, "mem bits={bits} v={v}");
            }
            assert_eq!(alu_error_bound(bits), 0);
            assert_eq!(mem_error_bound(bits), 0);
        }
    }

    #[test]
    fn one_bit_truncation_keeps_only_the_top_domain_bit() {
        assert_eq!(mem_truncate(0xFF, 1), 0x80);
        assert_eq!(mem_truncate(0x7F, 1), 0x00);
        // Bits above the 8-bit domain survive untouched.
        assert_eq!(mem_truncate(0x1FF, 1), 0x180);
    }

    #[test]
    fn truncation_of_negative_values_rounds_toward_negative_infinity() {
        // v & !mask == floor(v / 2^k) * 2^k in two's complement.
        assert_eq!(mem_truncate(-1, 4), -16);
        assert_eq!(mem_truncate(-16, 4), -16);
        assert_eq!(mem_truncate(-17, 4), -32);
        assert_eq!(mem_truncate(-1, 1), -128);
        assert_eq!(mem_truncate(-200, 1), -256);
        for bits in 1..=8u8 {
            let m = mem_error_bound(bits);
            for v in [-1i32, -7, -128, -255, -256, -1000, i32::MIN + 256] {
                let t = mem_truncate(v, bits);
                assert!(t <= v, "bits={bits} v={v} t={t}");
                assert!(v - t <= m, "bits={bits} v={v} lost {}", v - t);
            }
        }
    }

    #[test]
    fn truncation_is_monotone_over_the_domain() {
        for bits in 1..=8u8 {
            let mut prev = mem_truncate(-300, bits);
            for v in -299..=300 {
                let t = mem_truncate(v, bits);
                assert!(t >= prev, "bits={bits}: trunc({v})={t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn alu_error_bound_is_tight_and_sound() {
        // Exhaustive over every noise residue (the delta only depends on
        // `noise & mask`, and mask <= 127): the bound is never exceeded and
        // is achieved for bits <= 6.
        for bits in 1..=8u8 {
            let bound = alu_error_bound(bits);
            let mut worst = 0i32;
            for noise in 0..=255u32 {
                for v in [0i32, 57, -1000] {
                    let err = alu_approximate(v, bits, noise) - v;
                    assert!(err.abs() <= bound, "bits={bits} noise={noise} err={err}");
                    worst = worst.max(err.abs());
                }
            }
            if bits <= 6 {
                assert_eq!(worst, bound, "bound should be tight at bits={bits}");
            } else {
                assert_eq!(worst, 0, "bits={bits} must be error-free");
            }
        }
    }

    #[test]
    fn alu_noise_sign_is_centered_not_biased() {
        // bits=1: delta spans [-31, 32] — both signs reachable.
        let deltas: Vec<i32> = (0..256u32).map(|n| alu_approximate(0, 1, n)).collect();
        assert_eq!(*deltas.iter().min().unwrap(), -31);
        assert_eq!(*deltas.iter().max().unwrap(), 32);
        // Negative operands perturb identically (the delta is value-independent).
        for n in 0..64u32 {
            assert_eq!(
                alu_approximate(-500, 3, n) + 500,
                alu_approximate(500, 3, n) - 500
            );
        }
    }
}
