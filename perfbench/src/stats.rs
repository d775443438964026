//! Order statistics and metric-name rules shared by every workload.

/// Percentiles tried for a timing's tail, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.75];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples beyond it, or `None` when `n` is too small for any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= TAIL_BEYOND)
}

/// `p99`, `p99.9`, … for a quantile.
pub fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if pct.fract() == 0.0 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct:.1}")
    }
}

/// A timing distribution reduced to what the benchmark reports: median,
/// the tail rule's percentile, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_quantile`] and its value
    /// (`None` under 11 samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: median_sorted(&sorted),
            tail: tail_quantile(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        })
    }

    /// `p50=… p99=… (n=…)` in the given unit, for the report lines.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(" {}={v:.4}{unit}", percentile_label(q)),
            None => " (too few samples for a tail)".to_string(),
        };
        format!("p50={:.4}{unit}{tail} n={}", self.p50, self.n)
    }
}

/// Median of an ascending slice (mean of the middle pair when even).
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(10), None, "nothing can have 10 beyond it");
        // 11 samples: p75 sits at rank 9, leaving 2 beyond — still too few.
        assert_eq!(tail_quantile(11), None);
        assert_eq!(tail_quantile(40), Some(0.75), "rank 30 leaves exactly 10");
        assert_eq!(tail_quantile(99), Some(0.75), "p90 leaves only 9 of 99");
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9), "p99 leaves only 9 of 999");
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn every_reported_tail_really_has_ten_beyond() {
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                let sorted = ramp(n);
                let cut = percentile(&sorted, q);
                let above = sorted.iter().filter(|&&v| v > cut).count();
                assert!(above >= TAIL_BEYOND, "n={n} q={q}: {above} beyond");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s = Summary::of(&ramp(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(s.describe("ms").contains("p99=990.0000ms n=1000"));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().tail, None);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(percentile_label(0.75), "p75");
    }

    #[test]
    fn metric_name_rules() {
        for good in [
            "wall_s",
            "repro.fig15_s",
            "http.hit_ttfb_us",
            "0x",
            "a-b.c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/y",
            "colon:y",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
