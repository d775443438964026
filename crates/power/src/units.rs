//! Strongly-typed physical units used throughout the NVP simulation stack.
//!
//! The paper samples power every 0.1 ms; that sample period is the
//! fundamental simulation tick ([`TICK_SECONDS`]). Keeping power, energy and
//! time in distinct newtypes rules out the classic µW-vs-nJ confusion at
//! compile time (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Duration of one simulation tick in seconds (0.1 ms, the paper's power
/// sampling period).
pub const TICK_SECONDS: f64 = 1.0e-4;

/// Instantaneous power, stored in microwatts (µW).
///
/// ```
/// use nvp_power::units::Power;
/// let p = Power::from_uw(33.0);
/// assert_eq!(p.as_uw(), 33.0);
/// assert_eq!((p + p).as_uw(), 66.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

/// An amount of energy, stored in nanojoules (nJ).
///
/// ```
/// use nvp_power::units::{Energy, Power, Ticks};
/// // 1 µW sustained for one 0.1 ms tick is exactly 0.1 nJ.
/// let e = Power::from_uw(1.0) * Ticks(1);
/// assert!((e.as_nj() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

/// A duration measured in 0.1 ms simulation ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(pub u64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power value from microwatts.
    pub const fn from_uw(uw: f64) -> Self {
        Power(uw)
    }

    /// Creates a power value from milliwatts.
    pub fn from_mw(mw: f64) -> Self {
        Power(mw * 1e3)
    }

    /// Returns the value in microwatts.
    pub fn as_uw(self) -> f64 {
        self.0
    }

    /// Clamps to the `[lo, hi]` range.
    pub fn clamp(self, lo: Power, hi: Power) -> Power {
        Power(self.0.clamp(lo.0, hi.0))
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// Returns the smaller of two powers.
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }

    /// True if the value is a finite, non-negative number.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy value from nanojoules.
    pub const fn from_nj(nj: f64) -> Self {
        Energy(nj)
    }

    /// Creates an energy value from microjoules.
    pub fn from_uj(uj: f64) -> Self {
        Energy(uj * 1e3)
    }

    /// Creates an energy value from picojoules.
    pub const fn from_pj(pj: f64) -> Self {
        Energy(pj * 1e-3)
    }

    /// Returns the value in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0
    }

    /// Returns the value in picojoules.
    pub fn as_pj(self) -> f64 {
        self.0 * 1e3
    }

    /// Saturating subtraction: never goes below zero.
    ///
    /// Physical reservoirs (capacitors) cannot hold negative charge, so the
    /// simulator uses this when draining.
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy((self.0 - other.0).max(0.0))
    }

    /// Clamps to the `[lo, hi]` range.
    pub fn clamp(self, lo: Energy, hi: Energy) -> Energy {
        Energy(self.0.clamp(lo.0, hi.0))
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// True if the value is a finite, non-negative number.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Average power if this energy were spread over `t` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero ticks.
    pub fn over(self, t: Ticks) -> Power {
        assert!(t.0 > 0, "cannot average energy over zero ticks");
        // nJ / (ticks * 1e-4 s) = 1e-9 J / (1e-4 s) * x = µW * 10 / ticks
        Power(self.0 / (t.0 as f64 * TICK_SECONDS * 1e3))
    }
}

impl Ticks {
    /// Zero duration.
    pub const ZERO: Ticks = Ticks(0);

    /// Converts a duration in seconds to whole ticks (rounding down).
    pub fn from_seconds(s: f64) -> Self {
        Ticks((s / TICK_SECONDS).floor() as u64)
    }

    /// Converts a duration in milliseconds to whole ticks (rounding down).
    pub fn from_ms(ms: f64) -> Self {
        Self::from_seconds(ms * 1e-3)
    }

    /// Duration in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 * TICK_SECONDS
    }

    /// Duration in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.as_seconds() * 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(other.0))
    }
}

// --- arithmetic -----------------------------------------------------------

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Neg for Power {
    type Output = Power;
    fn neg(self) -> Power {
        Power(-self.0)
    }
}

/// Power sustained for a duration yields energy: `µW × ticks × 0.1 ms`.
impl Mul<Ticks> for Power {
    type Output = Energy;
    fn mul(self, rhs: Ticks) -> Energy {
        // µW * s = µJ; convert to nJ (×1e3).
        Energy(self.0 * rhs.0 as f64 * TICK_SECONDS * 1e3)
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

/// Ratio of two energies (dimensionless).
impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} µW", self.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nj = self.0;
        if nj == 0.0 {
            write!(f, "0 nJ")
        } else if nj.abs() < 1.0e-1 {
            write!(f, "{:.3} pJ", nj * 1e3)
        } else if nj.abs() < 1.0e3 {
            write!(f, "{:.3} nJ", nj)
        } else {
            write!(f, "{:.3} µJ", nj * 1e-3)
        }
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks ({:.1} ms)", self.0, self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_ticks_is_energy() {
        // 100 µW for 10 ticks (1 ms) = 100e-6 W * 1e-3 s = 1e-7 J = 100 nJ.
        let e = Power::from_uw(100.0) * Ticks(10);
        assert!((e.as_nj() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_ticks_roundtrips_power() {
        let p = Power::from_uw(250.0);
        let e = p * Ticks(40);
        let back = e.over(Ticks(40));
        assert!((back.as_uw() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn energy_saturating_sub_never_negative() {
        let a = Energy::from_nj(1.0);
        let b = Energy::from_nj(5.0);
        assert_eq!(a.saturating_sub(b), Energy::ZERO);
        assert_eq!(b.saturating_sub(a), Energy::from_nj(4.0));
    }

    #[test]
    fn tick_conversions() {
        assert_eq!(Ticks::from_ms(1.0), Ticks(10));
        assert_eq!(Ticks::from_seconds(10.0), Ticks(100_000));
        assert!((Ticks(10).as_ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn milliwatt_constructor() {
        assert_eq!(Power::from_mw(0.209).as_uw(), 209.0);
    }

    #[test]
    fn energy_unit_conversions() {
        let e = Energy::from_uj(1.0);
        assert_eq!(e.as_nj(), 1000.0);
        assert_eq!(Energy::from_pj(500.0).as_nj(), 0.5);
        assert_eq!(e.as_pj(), 1_000_000.0);
    }

    #[test]
    fn energy_ratio_is_dimensionless() {
        assert_eq!(Energy::from_nj(10.0) / Energy::from_nj(4.0), 2.5);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Power::ZERO).is_empty());
        assert!(!format!("{}", Energy::ZERO).is_empty());
        assert!(!format!("{}", Ticks::ZERO).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero ticks")]
    fn energy_over_zero_ticks_panics() {
        let _ = Energy::from_nj(1.0).over(Ticks::ZERO);
    }
}
