//! Power-emergency ("outage") extraction and statistics (paper Figure 3).
//!
//! An *outage* is a maximal run of ticks during which income power stays
//! below the processor's operating threshold (33 µW for the paper's 1 MHz
//! NVP). Outage durations drive the retention-time-shaping analysis: a
//! backup only has to survive until power returns.

use crate::profile::PowerProfile;
use crate::units::{Power, Ticks};
use nvp_trace::{emit, Event, NoopTracer, Tracer};

/// Income power below which the paper's 1 MHz NVP cannot operate: the
/// threshold every outage is measured against.
pub const OPERATING_THRESHOLD: Power = Power::from_uw(33.0);

/// A single power emergency: a contiguous below-threshold interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Outage {
    /// Tick at which power first dropped below the threshold.
    pub start: Ticks,
    /// Number of consecutive below-threshold ticks.
    pub duration: Ticks,
}

impl Outage {
    /// First tick after the outage (power restored).
    pub fn end(&self) -> Ticks {
        self.start + self.duration
    }
}

/// Outage statistics over a power profile (Figure 3 left: durations over
/// time; right: duration histogram).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutageStats {
    outages: Vec<Outage>,
    trace_len: Ticks,
}

impl OutageStats {
    /// Extracts all outages from `profile` at the
    /// [`OPERATING_THRESHOLD`].
    ///
    /// A trailing below-threshold run that extends to the end of the trace
    /// counts as an outage (the device is still dark when the trace ends).
    pub fn extract(profile: &PowerProfile) -> Self {
        Self::extract_traced(profile, &mut NoopTracer)
    }

    /// [`extract`](Self::extract), additionally emitting an
    /// `outage_start`/`outage_end` event pair per outage so a profile's
    /// dark structure can be inspected with the same tooling as a
    /// simulator trace.
    pub fn extract_traced(profile: &PowerProfile, tracer: &mut dyn Tracer) -> Self {
        let mut outages = Vec::new();
        let mut run_start: Option<u64> = None;
        for (t, p) in profile.iter() {
            if p < OPERATING_THRESHOLD {
                if run_start.is_none() {
                    run_start = Some(t.0);
                    emit(tracer, || Event::OutageStart { tick: t.0 });
                }
            } else if let Some(s) = run_start.take() {
                outages.push(Outage {
                    start: Ticks(s),
                    duration: Ticks(t.0 - s),
                });
                emit(tracer, || Event::OutageEnd {
                    tick: t.0,
                    duration: t.0 - s,
                });
            }
        }
        if let Some(s) = run_start {
            outages.push(Outage {
                start: Ticks(s),
                duration: Ticks(profile.len() as u64 - s),
            });
            emit(tracer, || Event::OutageEnd {
                tick: profile.len() as u64,
                duration: profile.len() as u64 - s,
            });
        }
        OutageStats {
            outages,
            trace_len: profile.duration(),
        }
    }

    /// The extracted outages, in time order.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Number of outages (power emergencies).
    pub fn count(&self) -> usize {
        self.outages.len()
    }

    /// Longest outage, or zero if there are none.
    pub fn max_duration(&self) -> Ticks {
        self.outages
            .iter()
            .map(|o| o.duration)
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Median outage duration, or zero if there are none.
    pub fn median_duration(&self) -> Ticks {
        if self.outages.is_empty() {
            return Ticks::ZERO;
        }
        let mut d: Vec<u64> = self.outages.iter().map(|o| o.duration.0).collect();
        d.sort_unstable();
        Ticks(d[d.len() / 2])
    }

    /// Mean outage duration in ticks (0 if none).
    pub fn mean_duration(&self) -> f64 {
        if self.outages.is_empty() {
            return 0.0;
        }
        self.outages
            .iter()
            .map(|o| o.duration.0 as f64)
            .sum::<f64>()
            / self.outages.len() as f64
    }

    /// Fraction of trace time spent in outage.
    pub fn dark_fraction(&self) -> f64 {
        if self.trace_len.0 == 0 {
            return 0.0;
        }
        self.outages.iter().map(|o| o.duration.0).sum::<u64>() as f64 / self.trace_len.0 as f64
    }

    /// Histogram of outage durations with the given bin width in ticks
    /// (Figure 3 right). Returns `(bin_upper_edge, count)` pairs covering
    /// every non-empty bin up to the maximum duration.
    pub fn duration_histogram(&self, bin_ticks: u64) -> Vec<(Ticks, usize)> {
        assert!(bin_ticks > 0, "bin width must be positive");
        if self.outages.is_empty() {
            return Vec::new();
        }
        let max = self.max_duration().0;
        let nbins = (max / bin_ticks + 1) as usize;
        let mut bins = vec![0usize; nbins];
        for o in &self.outages {
            bins[(o.duration.0 / bin_ticks) as usize] += 1;
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, c)| (Ticks((i as u64 + 1) * bin_ticks), c))
            .collect()
    }

    /// Fraction of outages that a retention time of `retention` ticks fully
    /// covers (backups written with that retention survive these outages).
    pub fn covered_by(&self, retention: Ticks) -> f64 {
        if self.outages.is_empty() {
            return 1.0;
        }
        let ok = self
            .outages
            .iter()
            .filter(|o| o.duration <= retention)
            .count();
        ok as f64 / self.outages.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(samples: &[f64]) -> PowerProfile {
        PowerProfile::from_uw(samples.iter().copied())
    }

    #[test]
    fn extracts_interior_outage() {
        let p = profile(&[50.0, 10.0, 10.0, 50.0, 50.0]);
        let s = OutageStats::extract(&p);
        assert_eq!(s.count(), 1);
        assert_eq!(s.outages()[0].start, Ticks(1));
        assert_eq!(s.outages()[0].duration, Ticks(2));
        assert_eq!(s.outages()[0].end(), Ticks(3));
    }

    #[test]
    fn trailing_outage_counted() {
        let p = profile(&[50.0, 1.0, 1.0]);
        let s = OutageStats::extract(&p);
        assert_eq!(s.count(), 1);
        assert_eq!(s.outages()[0].duration, Ticks(2));
    }

    #[test]
    fn leading_outage_counted() {
        let p = profile(&[0.0, 0.0, 99.0]);
        let s = OutageStats::extract(&p);
        assert_eq!(s.count(), 1);
        assert_eq!(s.outages()[0].start, Ticks(0));
    }

    #[test]
    fn no_outage_when_always_above() {
        let p = profile(&[40.0, 50.0]);
        let s = OutageStats::extract(&p);
        assert_eq!(s.count(), 0);
        assert_eq!(s.max_duration(), Ticks::ZERO);
        assert_eq!(s.median_duration(), Ticks::ZERO);
        assert_eq!(s.dark_fraction(), 0.0);
        assert_eq!(s.covered_by(Ticks(1)), 1.0);
    }

    #[test]
    fn threshold_is_inclusive_above() {
        // Power exactly at the threshold keeps the processor on.
        let p = profile(&[33.0, 32.9, 33.0]);
        let s = OutageStats::extract(&p);
        assert_eq!(s.count(), 1);
        assert_eq!(s.outages()[0].duration, Ticks(1));
    }

    #[test]
    fn histogram_bins_durations() {
        let p = profile(&[99.0, 0.0, 99.0, 0.0, 0.0, 0.0, 99.0]);
        let s = OutageStats::extract(&p);
        // durations: 1 and 3
        let h = s.duration_histogram(2);
        // bins: (0..2] -> 1 outage (duration 1), (2..4] -> 1 outage (duration 3)
        assert_eq!(h, vec![(Ticks(2), 1), (Ticks(4), 1)]);
    }

    #[test]
    fn covered_by_fraction() {
        let p = profile(&[99.0, 0.0, 99.0, 0.0, 0.0, 0.0, 99.0]);
        let s = OutageStats::extract(&p);
        assert!((s.covered_by(Ticks(1)) - 0.5).abs() < 1e-12);
        assert!((s.covered_by(Ticks(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dark_fraction_sums_outages() {
        let p = profile(&[99.0, 0.0, 0.0, 99.0]);
        let s = OutageStats::extract(&p);
        assert!((s.dark_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_duration_matches() {
        let p = profile(&[99.0, 0.0, 99.0, 0.0, 0.0, 0.0, 99.0]);
        let s = OutageStats::extract(&p);
        assert!((s.mean_duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        let p = profile(&[0.0]);
        OutageStats::extract(&p).duration_histogram(0);
    }

    #[test]
    fn extract_traced_emits_matched_outage_events() {
        use nvp_trace::{Event, VecSink};
        // Interior outage (ticks 1..3) plus trailing outage (ticks 5..7).
        let p = profile(&[99.0, 0.0, 0.0, 99.0, 99.0, 0.0, 0.0]);
        let mut sink = VecSink::new();
        let s = OutageStats::extract_traced(&p, &mut sink);
        assert_eq!(s.count(), 2);
        let evs = &sink.events;
        assert_eq!(evs.len(), 4);
        assert!(matches!(evs[0], Event::OutageStart { tick: 1 }));
        assert!(matches!(
            evs[1],
            Event::OutageEnd {
                tick: 3,
                duration: 2
            }
        ));
        assert!(matches!(evs[2], Event::OutageStart { tick: 5 }));
        assert!(matches!(
            evs[3],
            Event::OutageEnd {
                tick: 7,
                duration: 2
            }
        ));
        // Untraced extraction is unchanged.
        assert_eq!(s, OutageStats::extract(&p));
    }
}
