//! Figures 2 and 3: power profiles and outage statistics.

use crate::sweep::sweep;
use crate::table::fnum;
use crate::{Scale, Table};
use nvp_power::outage::OutageStats;
use nvp_power::synth::WatchProfile;
use nvp_power::Ticks;

/// Figure 2: the five "watch in daily life" power profiles.
pub fn fig2(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig2_power_profiles",
        "Figure 2 — watch power profiles (synthetic, calibrated to published statistics)",
        &[
            "profile",
            "mean (µW)",
            "peak (µW)",
            "duty @33µW",
            "emergencies / 10 s",
            "dark fraction",
        ],
    );
    for row in sweep(scale, WatchProfile::ALL.to_vec(), |w| {
        let p = w.synthesize_seconds(scale.trace_seconds.max(10.0));
        let window = p.segment(Ticks(0), Ticks::from_seconds(10.0));
        let stats = OutageStats::extract(&window);
        [
            w.to_string(),
            fnum(p.mean().as_uw()),
            fnum(p.peak().as_uw()),
            fnum(p.duty_cycle()),
            stats.count().to_string(),
            fnum(stats.dark_fraction()),
        ]
    }) {
        t.row(row);
    }
    t.note("paper: 10–40 µW average, spikes to 2000 µW, 1000–2000 emergencies per 10 s");
    vec![t]
}

/// Figure 3: outage durations and the duration histogram for profile 1.
pub fn fig3(scale: Scale) -> Vec<Table> {
    let p = WatchProfile::P1.synthesize_seconds(scale.trace_seconds.max(10.0));
    let stats = OutageStats::extract(&p);

    let mut summary = Table::new(
        "fig3_outage_summary",
        "Figure 3 — power-outage statistics (profile 1)",
        &["metric", "value"],
    );
    summary.row(["outage count".into(), stats.count().to_string()]);
    summary.row([
        "median duration (ticks)".into(),
        stats.median_duration().0.to_string(),
    ]);
    summary.row(["mean duration (ticks)".into(), fnum(stats.mean_duration())]);
    summary.row([
        "max duration (ticks)".into(),
        stats.max_duration().0.to_string(),
    ]);
    summary.note("paper: most outages last a few ms; tail reaches ~3000 ticks (0.3 s)");

    let mut hist = Table::new(
        "fig3_outage_histogram",
        "Figure 3 (right) — outage-duration histogram (profile 1, 100-tick bins)",
        &["duration ≤ (ticks)", "count"],
    );
    for (edge, count) in stats.duration_histogram(100) {
        if count > 0 {
            hist.row([edge.0.to_string(), count.to_string()]);
        }
    }
    vec![summary, hist]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_covers_all_profiles() {
        let t = &fig2(Scale::quick())[0];
        assert_eq!(t.rows.len(), 5);
        // Emergencies column in the published range.
        for r in &t.rows {
            let e: u64 = r[4].parse().unwrap();
            assert!((500..=2500).contains(&e), "{e}");
        }
    }

    #[test]
    fn fig3_histogram_nonempty_and_decaying_tail() {
        let tables = fig3(Scale::quick());
        let hist = &tables[1];
        assert!(hist.rows.len() > 3);
        let first: u64 = hist.rows[0][1].parse().unwrap();
        let last: u64 = hist.rows.last().unwrap()[1].parse().unwrap();
        assert!(first > last, "histogram should decay: {first} vs {last}");
    }
}
