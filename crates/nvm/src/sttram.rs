//! STT-RAM write-energy / retention model (paper Figure 4) and the
//! dynamic-retention write circuit (Figure 7).
//!
//! # Physics
//!
//! An STT-RAM cell's retention time follows the thermal-stability relation
//! `t_ret = τ₀ · exp(Δ)` with attempt period `τ₀ ≈ 1 ns`, so the stability
//! factor required for a target retention is `Δ = ln(t_ret / τ₀)`.
//! The critical write current scales with Δ, and in the thermally-activated
//! regime the current required for a given pulse width `t_p` follows
//! `I(t_p) = I_c(Δ) · (1 + k / t_p)` (after Smullen et al., HPCA'11 and
//! Swaminathan et al., ASP-DAC'12, the sources cited by Figure 4).
//!
//! Write energy is `E = I² · R · t_p`, which is minimized at `t_p = k`
//! (the paper's "best write energy box"). Because the optimal energy is
//! proportional to `I_c²  ∝ Δ²`, reducing retention from 1 day (Δ ≈ 32.1)
//! to 10 ms (Δ ≈ 16.1) saves `1 − (16.1/32.1)² ≈ 75 %` of write energy,
//! reproducing the paper's "77 % of write energy can be saved" observation.
//!
//! The write-circuit overheads of Figure 7 (current-mirror MUX array, 4-bit
//! counter, comparators — "less than 200 transistors per sub-array") appear
//! as a fixed per-write controller overhead energy.

use nvp_power::{Energy, Ticks};

/// Attempt period τ₀ in seconds.
const TAU0_SECONDS: f64 = 1e-9;

/// Critical current per unit of thermal stability, in µA per Δ
/// (calibrated to Figure 4).
const CURRENT_PER_DELTA_UA: f64 = 2.35;

/// Pulse-width constant `k` in ns: the knee of the I–t_p tradeoff and the
/// energy-optimal pulse width (the "best write energy box").
pub const PULSE_KNEE_NS: f64 = 2.0;

/// Effective cell resistance in kΩ.
const CELL_RESISTANCE_KOHM: f64 = 3.0;

/// Fixed controller overhead per word write, in pJ (MUX array, counter,
/// comparators of Figure 7).
const CONTROLLER_OVERHEAD_PJ: f64 = 0.05;

/// Read (restore) energy per bit in pJ; reads do not disturb retention.
const READ_ENERGY_PER_BIT_PJ: f64 = 0.005;

/// Thermal-stability factor Δ required for a retention target.
///
/// Retention shorter than one tick is clamped to one tick (0.1 ms): the
/// write circuit of Figure 7 cannot usefully target shorter windows
/// because that is the system's power-sampling granularity.
pub fn delta_for_retention(retention: Ticks) -> f64 {
    let t = retention.max(Ticks(1)).as_seconds();
    (t / TAU0_SECONDS).ln()
}

/// Critical (asymptotic, wide-pulse) write current in µA for a retention
/// target.
pub fn critical_current_ua(retention: Ticks) -> f64 {
    CURRENT_PER_DELTA_UA * delta_for_retention(retention)
}

/// Write current in µA required at pulse width `pulse_ns` (Figure 4's
/// y-axis).
pub fn write_current_ua(retention: Ticks, pulse_ns: f64) -> f64 {
    assert!(pulse_ns > 0.0, "pulse width must be positive");
    critical_current_ua(retention) * (1.0 + PULSE_KNEE_NS / pulse_ns)
}

/// Energy of one bit write at an arbitrary pulse width, in nJ.
pub fn bit_write_energy_at(retention: Ticks, pulse_ns: f64) -> Energy {
    let i_amp = write_current_ua(retention, pulse_ns) * 1e-6;
    let r_ohm = CELL_RESISTANCE_KOHM * 1e3;
    let joules = i_amp * i_amp * r_ohm * (pulse_ns * 1e-9);
    Energy::from_nj(joules * 1e9)
}

/// Energy of one bit write at the energy-optimal pulse width
/// ([`PULSE_KNEE_NS`]).
///
/// This is what the dynamic-retention write circuit of Figure 7 achieves
/// by configuring both write current and write time per retention class.
pub fn bit_write_energy(retention: Ticks) -> Energy {
    bit_write_energy_at(retention, PULSE_KNEE_NS)
}

/// Energy to write one 8-bit word whose bits carry the given per-bit
/// retention targets, including the controller overhead.
pub fn word_write_energy(retentions: &[Ticks; 8]) -> Energy {
    let bits: Energy = retentions.iter().map(|&r| bit_write_energy(r)).sum();
    bits + Energy::from_pj(CONTROLLER_OVERHEAD_PJ)
}

/// Energy to read (restore) one 8-bit word.
pub fn word_read_energy() -> Energy {
    Energy::from_pj(READ_ENERGY_PER_BIT_PJ * 8.0)
}

/// Named retention anchors used by Figure 4.
pub mod anchors {
    use nvp_power::Ticks;

    /// 10 ms retention (100 ticks).
    pub fn ten_ms() -> Ticks {
        Ticks::from_ms(10.0)
    }

    /// 1 s retention.
    pub fn one_second() -> Ticks {
        Ticks::from_seconds(1.0)
    }

    /// 1 minute retention.
    pub fn one_minute() -> Ticks {
        Ticks::from_seconds(60.0)
    }

    /// 1 day retention.
    pub fn one_day() -> Ticks {
        Ticks::from_seconds(86_400.0)
    }

    /// A decade — the "conventional NVM" maximum-retention baseline the
    /// paper says current NVPs are tuned for.
    pub fn ten_years() -> Ticks {
        Ticks::from_seconds(10.0 * 365.25 * 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_ordering() {
        let d10ms = delta_for_retention(anchors::ten_ms());
        let d1day = delta_for_retention(anchors::one_day());
        assert!(d10ms < d1day);
        // ln(10ms / 1ns) = ln(1e7) ≈ 16.1
        assert!((d10ms - 16.1).abs() < 0.1);
        // ln(86400s / 1ns) ≈ 32.1
        assert!((d1day - 32.1).abs() < 0.1);
    }

    #[test]
    fn retention_clamped_to_one_tick() {
        assert_eq!(
            delta_for_retention(Ticks::ZERO),
            delta_for_retention(Ticks(1))
        );
    }

    #[test]
    fn current_decreases_with_pulse_width() {
        let r = anchors::one_day();
        let i1 = write_current_ua(r, 1.0);
        let i5 = write_current_ua(r, 5.0);
        let i10 = write_current_ua(r, 10.0);
        assert!(i1 > i5 && i5 > i10);
    }

    #[test]
    fn figure4_current_magnitudes() {
        // Figure 4 plots currents in the tens-to-hundreds of µA range for
        // pulse widths up to 10 ns.
        let day = write_current_ua(anchors::one_day(), PULSE_KNEE_NS);
        let ms = write_current_ua(anchors::ten_ms(), PULSE_KNEE_NS);
        assert!((50.0..=300.0).contains(&day), "day current {day:.0} µA");
        assert!((25.0..=150.0).contains(&ms), "10ms current {ms:.0} µA");
        assert!(day / ms < 3.0, "paper: max current variation ratio < 3X");
    }

    #[test]
    fn seventy_seven_percent_saving() {
        // The headline claim of Section 3.2.
        let e_day = bit_write_energy(anchors::one_day());
        let e_ms = bit_write_energy(anchors::ten_ms());
        let saving = 1.0 - e_ms / e_day;
        assert!(
            (0.65..=0.85).contains(&saving),
            "saving {saving:.2} not near 0.77"
        );
    }

    #[test]
    fn optimal_pulse_is_energy_minimum() {
        let r = anchors::one_minute();
        let opt = bit_write_energy_at(r, PULSE_KNEE_NS);
        for p in [0.5, 1.0, 4.0, 8.0] {
            assert!(opt <= bit_write_energy_at(r, p));
        }
    }

    #[test]
    fn word_energy_includes_overhead() {
        let rets = [anchors::ten_ms(); 8];
        let word = word_write_energy(&rets);
        let bits = bit_write_energy(anchors::ten_ms()) * 8.0;
        assert!((word - bits).as_pj() - CONTROLLER_OVERHEAD_PJ < 1e-9);
        assert!(word > bits);
    }

    #[test]
    fn read_much_cheaper_than_write() {
        let rets = [anchors::ten_ms(); 8];
        assert!(word_read_energy() < word_write_energy(&rets) * 0.25);
    }

    #[test]
    fn current_curve_shape() {
        // Figure 4: at fixed retention, longer pulses need less current.
        let c = |pulse_ns| write_current_ua(anchors::one_second(), pulse_ns);
        assert!(c(1.0) > c(2.0) && c(2.0) > c(4.0));
    }

    #[test]
    #[should_panic(expected = "pulse width")]
    fn zero_pulse_panics() {
        write_current_ua(Ticks(1), 0.0);
    }
}
