//! The dynamic-bitwidth approximation control unit (Figure 6).
//!
//! "The main task of this unit is to set the number of precise and
//! approximate bits for SIMD for different hardware components based on the
//! available power level." The governor samples stored energy and income
//! power each tick and picks a bitwidth in `[minbits, maxbits]` — more
//! energy, more bits (Section 8.3's dynamic bitwidth approximation).

/// Capacitor fill level considered "rich" (maps to `maxbits`).
const RICH_FILL: f64 = 0.8;
/// Income power in µW considered "rich" on its own.
const RICH_INCOME_UW: f64 = 400.0;

/// Dynamic bitwidth governor.
#[derive(Debug, Clone, Copy)]
pub struct Governor {
    /// Minimum bitwidth (the pragma's `minbits` quality floor).
    minbits: u8,
    /// Maximum bitwidth (the pragma's `maxbits`).
    maxbits: u8,
}

impl Governor {
    /// Creates a governor for a `[minbits, maxbits]` range.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= minbits <= maxbits <= 8`.
    pub fn new(minbits: u8, maxbits: u8) -> Self {
        assert!(
            (1..=8).contains(&minbits) && minbits <= maxbits && maxbits <= 8,
            "need 1 <= minbits <= maxbits <= 8"
        );
        Governor { minbits, maxbits }
    }

    /// Picks the bitwidth for the current conditions.
    ///
    /// `fill` is the capacitor level as a fraction of capacity; `income_uw`
    /// the current income power. The richer of the two signals wins: a
    /// strong power spike allows wide execution even before the capacitor
    /// catches up (the paper's per-element width variation within a frame,
    /// Figure 9 bottom-right).
    pub fn bits_for(&self, fill: f64, income_uw: f64) -> u8 {
        let fill_score = (fill / RICH_FILL).clamp(0.0, 1.0);
        let income_score = (income_uw / RICH_INCOME_UW).clamp(0.0, 1.0);
        // Convex mapping: widths above the floor are a luxury reserved for
        // genuinely rich conditions (Figure 18's bimodal utilization —
        // most on-time sits at the floor or at full precision).
        let score = fill_score.max(income_score).powi(2);
        let span = (self.maxbits - self.minbits) as f64;
        let bits = self.minbits as f64 + (span * score).round();
        (bits as u8).clamp(self.minbits, self.maxbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_conditions_give_minbits() {
        let g = Governor::new(2, 8);
        assert_eq!(g.bits_for(0.0, 0.0), 2);
    }

    #[test]
    fn rich_conditions_give_maxbits() {
        let g = Governor::new(2, 8);
        assert_eq!(g.bits_for(1.0, 0.0), 8);
        assert_eq!(g.bits_for(0.0, 1000.0), 8);
    }

    #[test]
    fn monotone_in_fill() {
        let g = Governor::new(1, 8);
        let mut last = 0;
        for f in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let b = g.bits_for(f, 0.0);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn degenerate_range_is_constant() {
        let g = Governor::new(4, 4);
        assert_eq!(g.bits_for(0.0, 0.0), 4);
        assert_eq!(g.bits_for(1.0, 999.0), 4);
    }

    #[test]
    fn income_spike_overrides_poor_fill() {
        let g = Governor::new(2, 8);
        assert!(g.bits_for(0.05, 500.0) > g.bits_for(0.05, 5.0));
    }

    #[test]
    #[should_panic(expected = "minbits")]
    fn inverted_range_panics() {
        Governor::new(6, 3);
    }
}
