//! Income-power time series ([`PowerProfile`]), the simulator's primary
//! input (paper Figure 2).

use crate::units::{Power, Ticks};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A power-income trace sampled once per 0.1 ms tick.
///
/// This corresponds to the measured "watch" traces of Figure 2: instantaneous
/// harvested power, already referred to the rectifier input.
///
/// ```
/// use nvp_power::profile::PowerProfile;
/// use nvp_power::units::Power;
///
/// let p = PowerProfile::from_uw([0.0, 100.0, 50.0]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.peak(), Power::from_uw(100.0));
/// assert!((p.mean().as_uw() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerProfile {
    samples_uw: Vec<f64>,
}

impl PowerProfile {
    /// Creates a profile from per-tick samples in microwatts.
    ///
    /// Negative or non-finite samples are clamped to zero: a harvester never
    /// sinks power, and NaNs would silently poison every downstream energy
    /// sum.
    pub fn from_uw<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        PowerProfile {
            samples_uw: samples
                .into_iter()
                .map(|s| if s.is_finite() && s > 0.0 { s } else { 0.0 })
                .collect(),
        }
    }

    /// Creates a profile from typed power samples.
    pub fn from_samples<I: IntoIterator<Item = Power>>(samples: I) -> Self {
        Self::from_uw(samples.into_iter().map(Power::as_uw))
    }

    /// A profile holding `n` ticks of constant power — useful for tests and
    /// for the ideal "wall-powered" baseline.
    pub fn constant(power: Power, n: Ticks) -> Self {
        Self::from_uw(std::iter::repeat_n(power.as_uw(), n.0 as usize))
    }

    /// Number of samples (ticks).
    pub fn len(&self) -> usize {
        self.samples_uw.len()
    }

    /// True if the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples_uw.is_empty()
    }

    /// Total duration covered by the trace.
    pub fn duration(&self) -> Ticks {
        Ticks(self.samples_uw.len() as u64)
    }

    /// Power at tick `t`, or zero beyond the end of the trace.
    ///
    /// Out-of-range reads return [`Power::ZERO`] rather than panicking so the
    /// system simulator can run past the trace end (the harvester has simply
    /// stopped producing).
    pub fn at(&self, t: Ticks) -> Power {
        self.samples_uw
            .get(t.0 as usize)
            .copied()
            .map(Power::from_uw)
            .unwrap_or(Power::ZERO)
    }

    /// Iterator over `(tick, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Ticks, Power)> + '_ {
        self.samples_uw
            .iter()
            .enumerate()
            .map(|(i, &p)| (Ticks(i as u64), Power::from_uw(p)))
    }

    /// Raw samples in microwatts.
    pub fn as_uw_slice(&self) -> &[f64] {
        &self.samples_uw
    }

    /// Arithmetic-mean power over the whole trace (zero for an empty trace).
    pub fn mean(&self) -> Power {
        if self.samples_uw.is_empty() {
            return Power::ZERO;
        }
        Power::from_uw(self.samples_uw.iter().sum::<f64>() / self.samples_uw.len() as f64)
    }

    /// Peak power over the whole trace.
    pub fn peak(&self) -> Power {
        Power::from_uw(self.samples_uw.iter().fold(0.0, |a: f64, &b| a.max(b)))
    }

    /// Returns a sub-profile covering the half-open tick range `[start, end)`
    /// (clamped to the trace).
    pub fn segment(&self, start: Ticks, end: Ticks) -> PowerProfile {
        let s = (start.0 as usize).min(self.samples_uw.len());
        let e = (end.0 as usize).min(self.samples_uw.len()).max(s);
        PowerProfile {
            samples_uw: self.samples_uw[s..e].to_vec(),
        }
    }

    /// Concatenates another profile after this one.
    pub fn extend(&mut self, other: &PowerProfile) {
        self.samples_uw.extend_from_slice(&other.samples_uw);
    }

    /// Repeats the trace until it covers at least `n` ticks.
    ///
    /// Long experiments (e.g. Fig 28's multi-frame runs) reuse the 10 s
    /// measured window the way the paper loops its traces.
    pub fn tiled(&self, n: Ticks) -> PowerProfile {
        assert!(!self.is_empty(), "cannot tile an empty profile");
        let mut out = Vec::with_capacity(n.0 as usize);
        while out.len() < n.0 as usize {
            let take = (n.0 as usize - out.len()).min(self.samples_uw.len());
            out.extend_from_slice(&self.samples_uw[..take]);
        }
        PowerProfile { samples_uw: out }
    }

    /// Fraction of ticks with power at or above `threshold`.
    pub fn duty_cycle(&self, threshold: Power) -> f64 {
        if self.samples_uw.is_empty() {
            return 0.0;
        }
        let above = self
            .samples_uw
            .iter()
            .filter(|&&p| p >= threshold.as_uw())
            .count();
        above as f64 / self.samples_uw.len() as f64
    }
}

impl fmt::Display for PowerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PowerProfile[{} ticks, mean {}, peak {}]",
            self.len(),
            self.mean(),
            self.peak()
        )
    }
}

impl FromIterator<Power> for PowerProfile {
    fn from_iter<I: IntoIterator<Item = Power>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_bad_samples() {
        let p = PowerProfile::from_uw([-5.0, f64::NAN, f64::INFINITY, 10.0]);
        assert_eq!(p.as_uw_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn at_beyond_end_is_zero() {
        let p = PowerProfile::from_uw([7.0]);
        assert_eq!(p.at(Ticks(0)), Power::from_uw(7.0));
        assert_eq!(p.at(Ticks(100)), Power::ZERO);
    }

    #[test]
    fn segment_and_tile() {
        let p = PowerProfile::from_uw([1.0, 2.0, 3.0]);
        assert_eq!(p.segment(Ticks(1), Ticks(3)).as_uw_slice(), &[2.0, 3.0]);
        assert_eq!(p.segment(Ticks(2), Ticks(1)).len(), 0);
        let t = p.tiled(Ticks(7));
        assert_eq!(t.as_uw_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn duty_cycle_counts_threshold_inclusive() {
        let p = PowerProfile::from_uw([10.0, 33.0, 50.0, 0.0]);
        assert!((p.duty_cycle(Power::from_uw(33.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collect_from_powers() {
        let p: PowerProfile = [Power::from_uw(1.0), Power::from_uw(2.0)]
            .into_iter()
            .collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty profile")]
    fn tiling_empty_panics() {
        let _ = PowerProfile::default().tiled(Ticks(10));
    }
}
