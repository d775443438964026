//! Static instruction pricing and platform energy budget for WCEC.
//!
//! The WCEC certifier ([`crate::wcec`]) needs two ingredients the dynamic
//! simulator already owns:
//!
//! * **per-instruction energy** — [`CostModel`] tabulates
//!   [`nvp_isa::energy::instr_energy`] per [`InstrClass`] at a fixed
//!   governor bitwidth, so the static bound prices every instruction with
//!   *exactly* the arithmetic `nvp-sim` charges at runtime (the model lives
//!   in `nvp-isa` for precisely this reason);
//! * **how much of the capacitor a region may spend** — [`usable_nj`]
//!   derives the *usable* energy per charge cycle of the platform
//!   ([`CAPACITOR_NJ`], [`BACKUP_POLICY`], [`RESERVE_SAFETY`]): what is left
//!   for compute after the reserved backup and the restore that bracket
//!   it. The constants are `nvp_isa::energy`'s, which the simulator's
//!   defaults read too, so the static budget and the simulated platform
//!   cannot drift apart.
//!
//! The usable figure is deliberately the **supremum** over reachable
//! capacitor states: it assumes the capacitor recharges to *full* capacity
//! (not merely the start threshold) before the region runs, because ambient
//! income can top the capacitor up mid-region. A region whose WCEC exceeds
//! even this most generous budget at every governor setting can never
//! complete — that is the provable-livelock condition behind lint
//! `NVP-E006` (see [`crate::wcec_lint`]).

use nvp_isa::energy::{backup_energy, class_prices, restore_energy};
pub use nvp_isa::energy::{BACKUP_POLICY, CAPACITOR_NJ, RESERVE_SAFETY};
use nvp_isa::{ApproxConfig, Instr, InstrClass};

/// Per-class static instruction energies (nJ) at one governor bitwidth.
///
/// Single-lane pricing: the static analysis bounds the lane-0 live
/// computation. Incidental SIMD lanes only ever *add* energy at runtime,
/// but they also only exist when the runtime chose to merge parked frames —
/// the certificate bounds the program as declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Governor bitwidth this table was built for (1..=8).
    pub bits: u8,
    /// Energy in nJ per instruction, indexed by [`InstrClass::index`].
    pub class_nj: [f64; 6],
}

impl CostModel {
    /// Tabulates the platform model at `bits` (single lane, ALU and
    /// memory both at `bits`, matching `ApproxConfig::fixed`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn for_bits(bits: u8) -> CostModel {
        let class_nj = class_prices(&ApproxConfig::fixed(bits)).map(|e| e.as_nj());
        CostModel { bits, class_nj }
    }

    /// Static energy of one instruction, in nJ.
    pub fn instr_nj(&self, instr: Instr) -> f64 {
        self.class_nj[instr.class().index()]
    }

    /// Static energy of one instruction class, in nJ.
    pub fn class_cost_nj(&self, class: InstrClass) -> f64 {
        self.class_nj[class.index()]
    }
}

/// Usable compute energy per charge cycle at governor bitwidth `bits`, in
/// nJ: full capacity minus the reserved worst-case backup and the restore
/// that (re)entered the region.
///
/// This is the supremum over reachable capacitor states — the most
/// generous budget any single charge cycle can offer. A bounded region
/// WCEC above this figure therefore proves the region can never complete
/// within one cycle.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8`.
pub fn usable_nj(bits: u8) -> f64 {
    let reserve = backup_energy(BACKUP_POLICY, bits).as_nj() * RESERVE_SAFETY;
    let restore = restore_energy().as_nj();
    CAPACITOR_NJ - reserve - restore
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::energy::instr_energy;
    use nvp_nvm::RetentionPolicy;

    #[test]
    fn class_table_matches_direct_model_calls() {
        for bits in 1..=8u8 {
            let cm = CostModel::for_bits(bits);
            let cfg = ApproxConfig::fixed(bits);
            for class in InstrClass::ALL {
                let direct = instr_energy(class, &cfg).as_nj();
                // Bit-identical, not merely close: the simulator must be
                // able to drain exactly these figures.
                assert_eq!(cm.class_cost_nj(class), direct, "{class:?} at {bits}b");
            }
        }
    }

    #[test]
    fn narrower_bits_never_cost_more() {
        for class in InstrClass::ALL {
            let mut prev = f64::INFINITY;
            for bits in (1..=8u8).rev() {
                let c = CostModel::for_bits(bits).class_cost_nj(class);
                assert!(c <= prev, "{class:?}: {bits}b costs {c} > {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn usable_energy_grows_as_bits_shrink() {
        let mut prev = 0.0;
        for bits in (1..=8u8).rev() {
            let u = usable_nj(bits);
            assert!(u >= prev, "usable at {bits}b regressed: {u} < {prev}");
            prev = u;
        }
        // Sanity: the default platform leaves real compute headroom.
        assert!(usable_nj(8) > 1_000.0, "usable(8) = {}", usable_nj(8));
        assert!(usable_nj(8) < CAPACITOR_NJ);
    }

    /// FNV-1a digest of the platform's priced values, recorded before the
    /// calibration structs became constants.
    const PLATFORM_FNV: u64 = 0xef1c_3201_158e_3e44;

    /// Pins every figure the platform constants feed, bit for bit: a
    /// nudged constant or a regrouped product changes the digest, which
    /// tests that recompute a formula from the same constants cannot see.
    #[test]
    fn platform_values_are_pinned() {
        use nvp_isa::energy::backup_energy_scoped;
        use nvp_nvm::sttram::{anchors, bit_write_energy};
        let mut bits_seen: Vec<u64> = Vec::new();
        let incidental = ApproxConfig {
            ac_en: true,
            alu_bits: [8, 6, 3, 1],
            mem_bits: [7, 5, 2, 1],
            lanes: 4,
        };
        let cfgs = (1..=8u8).map(ApproxConfig::fixed).chain([incidental]);
        for cfg in cfgs {
            for class in InstrClass::ALL {
                bits_seen.push(instr_energy(class, &cfg).as_nj().to_bits());
            }
        }
        let policies = [
            RetentionPolicy::FullRetention,
            RetentionPolicy::Linear,
            RetentionPolicy::Log,
            RetentionPolicy::Parabola,
            RetentionPolicy::OneDay,
        ];
        for policy in policies {
            for bits in 1..=8u8 {
                bits_seen.push(backup_energy(policy, bits).as_nj().to_bits());
                for frac in [0.25, 0.5] {
                    let e = backup_energy_scoped(policy, bits, frac);
                    bits_seen.push(e.as_nj().to_bits());
                }
            }
        }
        bits_seen.push(restore_energy().as_nj().to_bits());
        for bits in 1..=8u8 {
            let cm = CostModel::for_bits(bits);
            bits_seen.extend(cm.class_nj.iter().map(|nj| nj.to_bits()));
            bits_seen.push(usable_nj(bits).to_bits());
        }
        for retention in [
            anchors::ten_ms(),
            anchors::one_second(),
            anchors::one_minute(),
            anchors::one_day(),
            anchors::ten_years(),
        ] {
            bits_seen.push(bit_write_energy(retention).as_nj().to_bits());
        }
        for policy in RetentionPolicy::SHAPED {
            bits_seen.push(policy.saving_vs_full().to_bits());
        }
        let digest = bits_seen.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            v.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        assert_eq!(
            digest,
            PLATFORM_FNV,
            "platform values changed ({} values, digest {digest:#018x})",
            bits_seen.len()
        );
    }

    #[test]
    fn instr_nj_routes_through_the_class_table() {
        use nvp_isa::Reg;
        let cm = CostModel::for_bits(4);
        let mul = Instr::Mul(Reg(0), Reg(1), Reg(2));
        assert_eq!(cm.instr_nj(mul), cm.class_cost_nj(InstrClass::Mul));
    }
}
