//! Figures 4 and 5: STT-RAM write model and retention shaping.

use crate::table::fnum;
use crate::Table;
use nvp_nvm::sttram::{anchors, bit_write_energy, write_current_ua, PULSE_KNEE_NS};
use nvp_nvm::RetentionPolicy;

/// Figure 4: write current vs pulse width for the four retention anchors,
/// plus the headline 1-day → 10-ms energy saving.
pub fn fig4() -> Vec<Table> {
    let pulses = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0];
    let mut t = Table::new(
        "fig4_sttram_write",
        "Figure 4 — STT-RAM write current (µA) vs pulse width",
        &["pulse (ns)", "10 ms", "1 s", "1 min", "1 day"],
    );
    for p in pulses {
        t.row([
            fnum(p),
            fnum(write_current_ua(anchors::ten_ms(), p)),
            fnum(write_current_ua(anchors::one_second(), p)),
            fnum(write_current_ua(anchors::one_minute(), p)),
            fnum(write_current_ua(anchors::one_day(), p)),
        ]);
    }
    let saving = 1.0 - bit_write_energy(anchors::ten_ms()) / bit_write_energy(anchors::one_day());
    t.note(format!(
        "write-energy saving 1 day → 10 ms at optimal pulse: {:.0}% (paper: 77%)",
        saving * 100.0
    ));
    t.note(format!(
        "optimal pulse width (best write energy box): {} ns",
        fnum(PULSE_KNEE_NS)
    ));
    vec![t]
}

/// Figure 5 / Equations (1)–(3): per-bit retention times of the three
/// shaping policies.
pub fn fig5() -> Vec<Table> {
    let mut t = Table::new(
        "fig5_retention_shaping",
        "Figure 5 — per-bit retention time (0.1 ms ticks), bit 8 = MSB",
        &["bit", "linear", "log", "parabola"],
    );
    for b in (1..=8u8).rev() {
        t.row([
            b.to_string(),
            RetentionPolicy::Linear.retention_ticks(b).0.to_string(),
            RetentionPolicy::Log.retention_ticks(b).0.to_string(),
            RetentionPolicy::Parabola.retention_ticks(b).0.to_string(),
        ]);
    }
    for p in RetentionPolicy::SHAPED {
        t.note(format!(
            "{p}: word backup energy {} (saving vs full retention {:.0}%)",
            p.word_write_energy(),
            p.saving_vs_full() * 100.0
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_saving_near_published() {
        let t = &fig4()[0];
        assert_eq!(t.rows.len(), 8);
        let note = &t.notes[0];
        // Extract the first "<pct>%" figure from the note.
        let pct: f64 = note
            .split_whitespace()
            .find_map(|w| w.strip_suffix('%').and_then(|n| n.parse().ok()))
            .expect("note contains a percentage");
        assert!((60.0..=90.0).contains(&pct), "{pct}");
    }

    #[test]
    fn fig5_msb_first_rows() {
        let t = &fig5()[0];
        assert_eq!(t.rows[0][0], "8");
        assert_eq!(t.rows[0][1], "2990"); // linear MSB
        assert_eq!(t.rows[7][1], "1"); // linear LSB
    }
}
