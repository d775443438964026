//! Energy model: instructions, backups, restores.
//!
//! Calibrated to the paper's measured operating point: the NVP runs at
//! 1 MHz and consumes 0.209 mW (Section 2.1), i.e. ≈0.209 nJ per
//! single-cycle instruction at full precision. Per-class costs split into a
//! *fixed* portion (fetch, decode, clocking — shared by all SIMD lanes) and
//! a *datapath* portion that scales with the active bitwidth of each lane.
//! This reproduces the paper's three gain mechanisms: narrower datapaths
//! cost less, SIMD lanes amortize fetch energy, and smaller backups free
//! income energy for computation.
//!
//! Backup/restore costs come from the STT-RAM model scaled by a periphery
//! multiplier (write drivers, parallel distributed-FF fan-out), calibrated
//! so a full-retention backup costs a few hundred nJ — which at the
//! measured income levels makes backups consume the paper's observed
//! 20–33 % of income energy (Section 3.2).
//!
//! The model is one calibrated platform, so it is a set of constants and
//! the functions that price with them; nothing is configurable. The
//! platform's capacitor, backup policy and reserve factor
//! ([`CAPACITOR_NJ`], [`BACKUP_POLICY`], [`RESERVE_SAFETY`]) sit here
//! too, next to the prices they parameterize. It lives
//! in `nvp-isa` (rather than the simulator) so that static analyses —
//! notably the WCEC certifier in `nvp-analysis` — price instructions with
//! *exactly* the same arithmetic the simulator charges at runtime.

use crate::{ApproxConfig, InstrClass};
use nvp_nvm::retention::WORD_BITS;
use nvp_nvm::{sttram, RetentionPolicy};
use nvp_power::{Energy, Ticks};

/// Multiplier from raw cell write energy to system-level backup energy
/// per bit (drivers, distributed parallel writes).
const PERIPHERY_MULTIPLIER: f64 = 700.0;

/// Words of architectural + marked state persisted per backup.
const STATE_WORDS: usize = 1024;

/// Fraction of [`STATE_WORDS`] that is control state (always written at
/// full retention).
const CONTROL_FRACTION: f64 = 0.2;

/// Fraction of per-instruction energy that is bitwidth-independent
/// (fetch/decode/clock).
const FIXED_FRACTION: f64 = 0.4;

/// Exponent of the datapath-energy vs bitwidth curve. The gradient-VDD
/// approximate datapath (Gupta/Ye, Section 8.1) powers low-order bit
/// slices at reduced voltage, so slice energy falls like C·V² — the
/// aggregate is superlinear in active width (1.5 calibrated to the
/// paper's Figure 15 / Figure 28 gains).
const DATAPATH_EXPONENT: f64 = 1.5;

/// Fixed wake-up energy added to every restore, in nJ.
const WAKEUP_OVERHEAD_NJ: f64 = 5.0;

/// Storage capacitor capacity of the platform, in nJ (3.5 µJ): the
/// simulator's default capacitor and the static WCEC budget.
pub const CAPACITOR_NJ: f64 = 3_500.0;

/// Retention policy the platform writes backups under.
pub const BACKUP_POLICY: RetentionPolicy = RetentionPolicy::FullRetention;

/// Safety multiplier on the reserved backup energy.
pub const RESERVE_SAFETY: f64 = 1.1;

/// Full-precision single-lane energy of one instruction of `class`, in
/// nJ, chosen so a typical kernel mix averages ≈0.209 nJ/instruction.
fn class_base_nj(class: InstrClass) -> f64 {
    match class {
        InstrClass::Move => 0.16,
        InstrClass::Alu => 0.20,
        InstrClass::Mul => 0.42,
        InstrClass::Mem => 0.28,
        InstrClass::Branch => 0.18,
        InstrClass::Control => 0.08,
    }
}

/// Energy of one instruction of `class` under the given approximation
/// configuration (all active lanes).
pub fn instr_energy(class: InstrClass, cfg: &ApproxConfig) -> Energy {
    let base = class_base_nj(class);
    let fixed = base * FIXED_FRACTION;
    let datapath_full = base * (1.0 - FIXED_FRACTION);
    let mut e = fixed;
    for l in 0..cfg.lanes as usize {
        let width = cfg.effective_alu_bits(l) as f64 / 8.0;
        e += datapath_full * width.powf(DATAPATH_EXPONENT);
    }
    Energy::from_nj(e)
}

/// [`instr_energy`] of every class under `cfg`, indexed by
/// [`InstrClass::index`]: the price table the simulator meters with and
/// the static cost model tabulates.
pub fn class_prices(cfg: &ApproxConfig) -> [Energy; 6] {
    InstrClass::ALL.map(|class| instr_energy(class, cfg))
}

/// A representative instruction energy (ALU class) used for threshold
/// sizing.
pub fn representative_instr(cfg: &ApproxConfig) -> Energy {
    instr_energy(InstrClass::Alu, cfg)
}

/// Per-bit backup write energy at a retention target, including
/// periphery.
fn bit_energy(retention: Ticks) -> Energy {
    sttram::bit_write_energy(retention) * PERIPHERY_MULTIPLIER
}

/// Energy of one backup: control state at full retention plus data state
/// writing its top `data_bits` bits under `policy`.
///
/// # Panics
///
/// Panics if `data_bits` is outside `1..=8`.
pub fn backup_energy(policy: RetentionPolicy, data_bits: u8) -> Energy {
    backup_energy_scoped(policy, data_bits, 1.0)
}

/// [`backup_energy`] with only a `data_fraction` of the data words
/// written (live-only backup scope: dead state need not be persisted).
/// Control state is always written in full.
///
/// # Panics
///
/// Panics if `data_bits` is outside `1..=8` or `data_fraction` outside
/// `0.0..=1.0`.
pub fn backup_energy_scoped(policy: RetentionPolicy, data_bits: u8, data_fraction: f64) -> Energy {
    assert!(
        (1..=WORD_BITS).contains(&data_bits),
        "data_bits must be 1..=8"
    );
    assert!(
        (0.0..=1.0).contains(&data_fraction),
        "data_fraction must be 0..=1"
    );
    let ctrl_words = STATE_WORDS as f64 * CONTROL_FRACTION;
    let data_words = (STATE_WORDS as f64 - ctrl_words) * data_fraction;
    let full_bit = bit_energy(RetentionPolicy::FullRetention.retention_ticks(8));
    let ctrl = full_bit * (8.0 * ctrl_words);
    // Data words persist their top `data_bits` bits: bit index b runs from
    // MSB (8) down.
    let mut per_word = Energy::ZERO;
    for b in (8 - data_bits + 1)..=8 {
        per_word += bit_energy(policy.retention_ticks(b));
    }
    ctrl + per_word * data_words
}

/// Energy of one restore (reads plus wake-up overhead).
pub fn restore_energy() -> Energy {
    sttram::word_read_energy() * (STATE_WORDS as f64 * PERIPHERY_MULTIPLIER)
        + Energy::from_nj(WAKEUP_OVERHEAD_NJ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::FULL_BITS;

    #[test]
    fn full_precision_instr_near_calibration() {
        let cfg = ApproxConfig::default();
        let e = instr_energy(InstrClass::Alu, &cfg);
        assert!((0.1..0.3).contains(&e.as_nj()), "{e}");
    }

    #[test]
    fn narrow_bits_cut_instruction_energy_roughly_in_half() {
        // Figure 15: 1-bit execution roughly doubles forward progress.
        let full = instr_energy(InstrClass::Alu, &ApproxConfig::default());
        let one = instr_energy(InstrClass::Alu, &ApproxConfig::fixed(1));
        let ratio = full / one;
        assert!((1.7..2.6).contains(&ratio), "ratio {ratio:.2}");
        // Gradient-VDD: low-width datapaths are disproportionately cheap.
        let two = instr_energy(InstrClass::Alu, &ApproxConfig::fixed(2));
        assert!(two < full * 0.55);
    }

    #[test]
    fn simd_lanes_amortize_fetch() {
        let four = ApproxConfig {
            lanes: 4,
            ..Default::default()
        };
        let e1 = instr_energy(InstrClass::Alu, &ApproxConfig::default());
        let e4 = instr_energy(InstrClass::Alu, &four);
        // 4 lanes cost far less than 4 independent instructions.
        assert!(e4 < e1 * 4.0 * 0.9);
        assert!(e4 > e1 * 2.0);
    }

    #[test]
    fn backup_energy_magnitude() {
        // Section 3.2 calibration: a few hundred nJ at full retention.
        let full = backup_energy(RetentionPolicy::FullRetention, FULL_BITS);
        assert!(
            (300.0..1600.0).contains(&full.as_nj()),
            "full backup {full}"
        );
    }

    #[test]
    fn shaped_policies_cheaper_ordering() {
        let full = backup_energy(RetentionPolicy::FullRetention, 8);
        let lin = backup_energy(RetentionPolicy::Linear, 8);
        let log = backup_energy(RetentionPolicy::Log, 8);
        let par = backup_energy(RetentionPolicy::Parabola, 8);
        assert!(log < lin && lin < par && par < full);
    }

    #[test]
    fn fewer_data_bits_cheaper_backup() {
        let b8 = backup_energy(RetentionPolicy::FullRetention, 8);
        let b1 = backup_energy(RetentionPolicy::FullRetention, 1);
        assert!(b1 < b8 * 0.5, "b1 {b1} vs b8 {b8}");
    }

    #[test]
    fn restore_cheaper_than_backup() {
        assert!(restore_energy() < backup_energy(RetentionPolicy::Log, 1));
    }

    #[test]
    #[should_panic(expected = "data_bits")]
    fn zero_bits_backup_panics() {
        backup_energy(RetentionPolicy::Linear, 0);
    }
}
