//! Synthetic harvested-power trace generation.
//!
//! The paper evaluates against five power traces measured from a wrist-worn
//! rotational harvester ("watch" profiles, Figure 2). The measurements are
//! not public, so this module provides a seeded generator calibrated to the
//! published statistics:
//!
//! * average income 10–40 µW (Section 2.2),
//! * instantaneous spikes up to 2000 µW at 0.1 ms granularity (Figure 2),
//! * 1000–2000 power emergencies per 10 s window at a 33 µW operating
//!   threshold (Section 2.2),
//! * outage durations mostly a few ms, with a heavy tail out to ~0.3 s
//!   (Figure 3, Section 3.2).
//!
//! The generator is a two-state (burst/idle) Markov process. Burst
//! amplitudes are log-normal-ish (clamped), idle power is low-level noise,
//! and idle durations are a mixture of a short geometric mode (ordinary
//! inter-burst gaps) and a rare long mode (the deep outages in Figure 3's
//! tail). Every trace is a pure function of `(params, seed)`.

use crate::profile::PowerProfile;
use crate::units::Ticks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of the two-state burst/idle trace synthesizer.
///
/// All durations are in 0.1 ms ticks, all powers in µW.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthParams {
    /// Mean burst (power-on) duration in ticks.
    pub mean_burst_ticks: f64,
    /// Mean short idle-gap duration in ticks.
    pub mean_idle_ticks: f64,
    /// Probability that an idle period is drawn from the long (deep outage)
    /// mode instead of the short mode.
    pub long_idle_prob: f64,
    /// Mean long-idle duration in ticks.
    pub mean_long_idle_ticks: f64,
    /// Median burst amplitude in µW.
    pub burst_amplitude_uw: f64,
    /// Log-scale spread of the burst amplitude (σ of ln-amplitude).
    pub burst_amplitude_sigma: f64,
    /// Maximum instantaneous power in µW (harvester/rectifier ceiling).
    pub peak_clamp_uw: f64,
    /// Mean idle (baseline) power in µW.
    pub idle_power_uw: f64,
    /// Per-tick multiplicative jitter applied inside a burst (0..1).
    pub intra_burst_jitter: f64,
}

impl SynthParams {
    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_burst_ticks < 1.0 {
            return Err("mean_burst_ticks must be >= 1".into());
        }
        if self.mean_idle_ticks < 1.0 {
            return Err("mean_idle_ticks must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.long_idle_prob) {
            return Err("long_idle_prob must be in [0,1]".into());
        }
        if self.burst_amplitude_uw <= 0.0 {
            return Err("burst_amplitude_uw must be positive".into());
        }
        if self.peak_clamp_uw < self.burst_amplitude_uw {
            return Err("peak_clamp_uw must be >= burst_amplitude_uw".into());
        }
        if !(0.0..=1.0).contains(&self.intra_burst_jitter) {
            return Err("intra_burst_jitter must be in [0,1]".into());
        }
        Ok(())
    }
}

impl Default for SynthParams {
    /// Defaults match [`WatchProfile::P1`].
    fn default() -> Self {
        WatchProfile::P1.params()
    }
}

/// The five named "watch in daily life use" profiles of Figure 2.
///
/// Profiles 1 and 4 are the higher-income traces (brisk motion), profiles
/// 2, 3 and 5 are progressively weaker — matching the paper's guidance that
/// linear backup shaping suits profiles 1/4 and parabola suits 2/3/5
/// (Section 8.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WatchProfile {
    /// Profile 1: active wearer, frequent strong bursts.
    P1,
    /// Profile 2: moderate activity, longer gaps.
    P2,
    /// Profile 3: light activity, weak bursts.
    P3,
    /// Profile 4: active wearer, slightly burstier than P1.
    P4,
    /// Profile 5: mostly sedentary; rare bursts, deep outages.
    P5,
}

impl WatchProfile {
    /// All five profiles, in paper order.
    pub const ALL: [WatchProfile; 5] = [
        WatchProfile::P1,
        WatchProfile::P2,
        WatchProfile::P3,
        WatchProfile::P4,
        WatchProfile::P5,
    ];

    /// Index (1-based) used in the paper's figures.
    pub fn index(self) -> usize {
        match self {
            WatchProfile::P1 => 1,
            WatchProfile::P2 => 2,
            WatchProfile::P3 => 3,
            WatchProfile::P4 => 4,
            WatchProfile::P5 => 5,
        }
    }

    /// Synthesizer calibration for this profile.
    pub fn params(self) -> SynthParams {
        match self {
            WatchProfile::P1 => SynthParams {
                mean_burst_ticks: 18.0,
                mean_idle_ticks: 40.0,
                long_idle_prob: 0.010,
                mean_long_idle_ticks: 900.0,
                burst_amplitude_uw: 100.0,
                burst_amplitude_sigma: 0.8,
                peak_clamp_uw: 2000.0,
                idle_power_uw: 6.0,
                intra_burst_jitter: 0.45,
            },
            WatchProfile::P2 => SynthParams {
                mean_burst_ticks: 14.0,
                mean_idle_ticks: 60.0,
                long_idle_prob: 0.018,
                mean_long_idle_ticks: 1100.0,
                burst_amplitude_uw: 110.0,
                burst_amplitude_sigma: 0.9,
                peak_clamp_uw: 2000.0,
                idle_power_uw: 4.0,
                intra_burst_jitter: 0.5,
            },
            WatchProfile::P3 => SynthParams {
                mean_burst_ticks: 12.0,
                mean_idle_ticks: 80.0,
                long_idle_prob: 0.025,
                mean_long_idle_ticks: 1300.0,
                burst_amplitude_uw: 120.0,
                burst_amplitude_sigma: 0.9,
                peak_clamp_uw: 2000.0,
                idle_power_uw: 3.0,
                intra_burst_jitter: 0.5,
            },
            WatchProfile::P4 => SynthParams {
                mean_burst_ticks: 22.0,
                mean_idle_ticks: 38.0,
                long_idle_prob: 0.008,
                mean_long_idle_ticks: 800.0,
                burst_amplitude_uw: 90.0,
                burst_amplitude_sigma: 0.75,
                peak_clamp_uw: 2000.0,
                idle_power_uw: 7.0,
                intra_burst_jitter: 0.4,
            },
            WatchProfile::P5 => SynthParams {
                mean_burst_ticks: 10.0,
                mean_idle_ticks: 100.0,
                long_idle_prob: 0.032,
                mean_long_idle_ticks: 1500.0,
                burst_amplitude_uw: 115.0,
                burst_amplitude_sigma: 1.0,
                peak_clamp_uw: 2000.0,
                idle_power_uw: 2.5,
                intra_burst_jitter: 0.55,
            },
        }
    }

    /// Deterministic per-profile seed, so `WatchProfile::P1.synthesize(..)`
    /// always yields the same trace.
    pub fn seed(self) -> u64 {
        0x1C1D_E17A_1000 + self.index() as u64
    }

    /// Deterministic seed for family member `member` of this profile.
    ///
    /// A *family* is the population of traces sharing one profile's
    /// calibration (same harvester statistics, different wearers): member
    /// `m` reuses the profile's [`SynthParams`] with an independent RNG
    /// stream. Member 0 is exactly [`seed`](Self::seed), so the canonical
    /// paper trace is member 0 of its own family. Members are decorrelated
    /// with a splitmix64-style finalizer rather than a plain offset, so
    /// neighbouring members share no low-bit structure.
    pub fn family_seed(self, member: u32) -> u64 {
        if member == 0 {
            return self.seed();
        }
        let mut z = self
            .seed()
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(member as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Synthesizes this profile for `n` ticks.
    pub fn synthesize(self, n: Ticks) -> PowerProfile {
        TraceSynthesizer::new(self.params(), self.seed()).synthesize(n)
    }

    /// Synthesizes this profile for a duration in seconds.
    pub fn synthesize_seconds(self, seconds: f64) -> PowerProfile {
        self.synthesize(Ticks::from_seconds(seconds))
    }

    /// Synthesizes family member `member` of this profile for a duration in
    /// seconds. Member 0 is byte-identical to
    /// [`synthesize_seconds`](Self::synthesize_seconds).
    pub fn synthesize_seconds_member(self, seconds: f64, member: u32) -> PowerProfile {
        TraceSynthesizer::new(self.params(), self.family_seed(member))
            .synthesize(Ticks::from_seconds(seconds))
    }
}

impl fmt::Display for WatchProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Power Profile {}", self.index())
    }
}

/// Seeded burst/idle Markov trace generator.
///
/// ```
/// use nvp_power::synth::{TraceSynthesizer, SynthParams};
/// use nvp_power::units::Ticks;
///
/// let synth = TraceSynthesizer::new(SynthParams::default(), 42);
/// let a = synth.synthesize(Ticks(1000));
/// let b = synth.synthesize(Ticks(1000));
/// assert_eq!(a, b); // pure function of (params, seed)
/// ```
#[derive(Debug, Clone)]
pub struct TraceSynthesizer {
    params: SynthParams,
    seed: u64,
}

impl TraceSynthesizer {
    /// Creates a synthesizer.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`SynthParams::validate`].
    pub fn new(params: SynthParams, seed: u64) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid synthesizer parameters: {e}");
        }
        TraceSynthesizer { params, seed }
    }

    /// The parameters this synthesizer was built with.
    pub fn params(&self) -> &SynthParams {
        &self.params
    }

    /// Generates a trace of `n` ticks.
    pub fn synthesize(&self, n: Ticks) -> PowerProfile {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let p = &self.params;
        let mut out = Vec::with_capacity(n.0 as usize);

        // Start idle: a device is typically picked up from rest.
        let mut in_burst = false;
        let mut remaining = Self::geometric(&mut rng, p.mean_idle_ticks);
        let mut amplitude = 0.0f64;

        while out.len() < n.0 as usize {
            if remaining == 0 {
                in_burst = !in_burst;
                if in_burst {
                    remaining = Self::geometric(&mut rng, p.mean_burst_ticks);
                    amplitude = self.draw_amplitude(&mut rng);
                } else {
                    let long = rng.gen::<f64>() < p.long_idle_prob;
                    let mean = if long {
                        p.mean_long_idle_ticks
                    } else {
                        p.mean_idle_ticks
                    };
                    remaining = Self::geometric(&mut rng, mean);
                }
                continue;
            }
            let sample = if in_burst {
                let jitter = 1.0 + p.intra_burst_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                (amplitude * jitter).clamp(0.0, p.peak_clamp_uw)
            } else {
                // Idle floor: exponential-ish low-level noise.
                -p.idle_power_uw * (1.0 - rng.gen::<f64>()).ln().max(-20.0) * 0.5
            };
            out.push(sample);
            remaining -= 1;
        }
        PowerProfile::from_uw(out)
    }

    /// Geometric duration with the given mean, at least 1 tick.
    fn geometric(rng: &mut SmallRng, mean: f64) -> u64 {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let d = (-u.ln() * mean).round() as u64;
        d.max(1)
    }

    /// Log-normal burst amplitude around the configured median, clamped.
    fn draw_amplitude(&self, rng: &mut SmallRng) -> f64 {
        let p = &self.params;
        // Box-Muller normal.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (p.burst_amplitude_uw * (p.burst_amplitude_sigma * z).exp()).clamp(1.0, p.peak_clamp_uw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outage::OutageStats;
    use crate::units::Power;

    const OPERATING_THRESHOLD_UW: f64 = 33.0;

    #[test]
    fn deterministic_per_seed() {
        let a = TraceSynthesizer::new(SynthParams::default(), 7).synthesize(Ticks(5_000));
        let b = TraceSynthesizer::new(SynthParams::default(), 7).synthesize(Ticks(5_000));
        let c = TraceSynthesizer::new(SynthParams::default(), 8).synthesize(Ticks(5_000));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_power_within_published_band() {
        // Section 2.2: 10–40 µW average in daily activities.
        for w in WatchProfile::ALL {
            let p = w.synthesize_seconds(10.0);
            let mean = p.mean().as_uw();
            assert!(
                (8.0..=55.0).contains(&mean),
                "{w}: mean {mean:.1} µW outside plausible band"
            );
        }
    }

    #[test]
    fn peaks_reach_hundreds_of_uw_but_clamp_at_2000() {
        for w in WatchProfile::ALL {
            let p = w.synthesize_seconds(10.0);
            let peak = p.peak().as_uw();
            assert!(peak > 300.0, "{w}: peak {peak:.0} too small");
            assert!(peak <= 2000.0, "{w}: peak {peak:.0} exceeds clamp");
        }
    }

    #[test]
    fn emergencies_per_10s_in_published_range() {
        // Section 2.2: 1000 to 2000 power emergencies in a 10 s window.
        for w in WatchProfile::ALL {
            let p = w.synthesize_seconds(10.0);
            let stats = OutageStats::extract(&p, Power::from_uw(OPERATING_THRESHOLD_UW));
            assert!(
                (500..=2500).contains(&stats.count()),
                "{w}: {} emergencies per 10s",
                stats.count()
            );
        }
    }

    #[test]
    fn outage_durations_heavy_tailed() {
        let p = WatchProfile::P1.synthesize_seconds(10.0);
        let stats = OutageStats::extract(&p, Power::from_uw(OPERATING_THRESHOLD_UW));
        let max = stats.max_duration().0;
        let median = stats.median_duration().0;
        // Figure 3: most outages are a few ms, tail reaches hundreds of ms.
        assert!(median < 200, "median outage {median} ticks too long");
        assert!(max > 300, "max outage {max} ticks lacks a tail");
    }

    #[test]
    fn weaker_profiles_have_lower_income() {
        let p1 = WatchProfile::P1.synthesize_seconds(10.0).mean().as_uw();
        let p5 = WatchProfile::P5.synthesize_seconds(10.0).mean().as_uw();
        assert!(
            p5 < p1,
            "profile 5 ({p5:.1}) should be weaker than 1 ({p1:.1})"
        );
    }

    #[test]
    fn validation_rejects_bad_params() {
        let p = SynthParams {
            long_idle_prob: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = SynthParams {
            burst_amplitude_uw: -1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = SynthParams {
            peak_clamp_uw: 1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid synthesizer parameters")]
    fn constructor_panics_on_invalid() {
        let p = SynthParams {
            mean_burst_ticks: 0.0,
            ..Default::default()
        };
        let _ = TraceSynthesizer::new(p, 0);
    }

    #[test]
    fn family_member_zero_is_the_canonical_trace() {
        for w in WatchProfile::ALL {
            assert_eq!(w.family_seed(0), w.seed());
            assert_eq!(
                w.synthesize_seconds_member(0.2, 0),
                w.synthesize_seconds(0.2)
            );
        }
    }

    #[test]
    fn family_members_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..64).map(|m| WatchProfile::P3.family_seed(m)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "family seeds must not collide");
        // Families of different profiles never share a member seed either.
        assert_ne!(
            WatchProfile::P1.family_seed(5),
            WatchProfile::P2.family_seed(5)
        );
        let a = WatchProfile::P2.synthesize_seconds_member(0.2, 3);
        let b = WatchProfile::P2.synthesize_seconds_member(0.2, 3);
        let c = WatchProfile::P2.synthesize_seconds_member(0.2, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn family_members_keep_profile_statistics() {
        // Different wearer, same harvester physics: members stay in the
        // published income band of their profile.
        for m in [1, 9] {
            let mean = WatchProfile::P1
                .synthesize_seconds_member(10.0, m)
                .mean()
                .as_uw();
            assert!(
                (8.0..=55.0).contains(&mean),
                "member {m}: mean {mean:.1} µW outside plausible band"
            );
        }
    }

    #[test]
    fn standard_profiles_cover_all_five() {
        // Most figures run every watch profile for 10 s.
        assert_eq!(WatchProfile::ALL.len(), 5);
        assert!(WatchProfile::ALL
            .iter()
            .all(|w| w.synthesize_seconds(10.0).len() == 100_000));
    }
}
