//! Static instruction pricing and platform energy budget for WCEC.
//!
//! The WCEC certifier ([`crate::wcec`]) needs two ingredients the dynamic
//! simulator already owns:
//!
//! * **per-instruction energy** — [`CostModel`] tabulates
//!   [`EnergyModel::instr_energy`] per [`InstrClass`] at a fixed governor
//!   bitwidth, so the static bound prices every instruction with *exactly*
//!   the arithmetic `nvp-sim` charges at runtime (the model lives in
//!   `nvp-isa` for precisely this reason);
//! * **how much of the capacitor a region may spend** — [`EnergyBudget`]
//!   mirrors the simulator's platform defaults (capacitor size, backup
//!   policy, reserve safety factor) and derives the *usable* energy per
//!   charge cycle: what is left for compute after the reserved backup and
//!   the restore that bracket it.
//!
//! The usable figure is deliberately the **supremum** over reachable
//! capacitor states: it assumes the capacitor recharges to *full* capacity
//! (not merely the start threshold) before the region runs, because ambient
//! income can top the capacitor up mid-region. A region whose WCEC exceeds
//! even this most generous budget at every governor setting can never
//! complete — that is the provable-livelock condition behind lint
//! `NVP-E006` (see [`crate::wcec_lint`]).

use nvp_isa::{ApproxConfig, EnergyModel, Instr, InstrClass};
use nvp_nvm::RetentionPolicy;
use serde::{Deserialize, Serialize};

/// Per-class static instruction energies (nJ) at one governor bitwidth.
///
/// Single-lane pricing: the static analysis bounds the lane-0 live
/// computation. Incidental SIMD lanes only ever *add* energy at runtime,
/// but they also only exist when the runtime chose to merge parked frames —
/// the certificate bounds the program as declared, and the simulator's
/// compiled engine independently refuses to arm blocks under incidental
/// execution (see `nvp-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Governor bitwidth this table was built for (1..=8).
    pub bits: u8,
    /// Energy in nJ per instruction, indexed by [`InstrClass::index`].
    pub class_nj: [f64; 6],
}

impl CostModel {
    /// Tabulates `model` at `bits` (single lane, ALU and memory both at
    /// `bits`, matching `ApproxConfig::fixed`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn new(model: &EnergyModel, bits: u8) -> CostModel {
        let cfg = ApproxConfig::fixed(bits);
        let mut class_nj = [0.0; 6];
        for class in InstrClass::ALL {
            class_nj[class.index()] = model.instr_energy(class, &cfg).as_nj();
        }
        CostModel { bits, class_nj }
    }

    /// Tabulates the default platform model at `bits`.
    pub fn for_bits(bits: u8) -> CostModel {
        CostModel::new(&EnergyModel::default(), bits)
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

/// Platform energy envelope the WCEC certificate is judged against.
///
/// `nvp-sim` takes its energy model and reserve safety factor from
/// [`EnergyBudget::default_platform`]. Capacity and backup policy mirror
/// `SystemConfig::default()`; a drift guard in the simulator's test suite
/// keeps those two in sync.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBudget {
    /// Storage capacitor capacity, in nJ.
    pub capacity_nj: f64,
    /// Retention policy backups are written under.
    pub backup_policy: RetentionPolicy,
    /// Safety multiplier on the reserved backup energy.
    pub reserve_safety: f64,
    /// The calibrated energy model.
    pub model: EnergyModel,
}

impl Default for EnergyBudget {
    fn default() -> Self {
        EnergyBudget::default_platform()
    }
}

impl EnergyBudget {
    /// The default platform: a 3.5 µJ capacitor, full-retention backups,
    /// a 1.1× backup reserve, and the calibrated [`EnergyModel`].
    pub fn default_platform() -> EnergyBudget {
        EnergyBudget {
            capacity_nj: 3_500.0,
            backup_policy: RetentionPolicy::FullRetention,
            reserve_safety: 1.1,
            model: EnergyModel::default(),
        }
    }

    /// Usable compute energy per charge cycle at governor bitwidth `bits`,
    /// in nJ: full capacity minus the reserved worst-case backup and the
    /// restore that (re)entered the region.
    ///
    /// This is the supremum over reachable capacitor states — the most
    /// generous budget any single charge cycle can offer. A bounded region
    /// WCEC above this figure therefore proves the region can never
    /// complete within one cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn usable_nj(&self, bits: u8) -> f64 {
        let reserve =
            self.model.backup_energy(self.backup_policy, bits).as_nj() * self.reserve_safety;
        let restore = self.model.restore_energy().as_nj();
        self.capacity_nj - reserve - restore
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_matches_direct_model_calls() {
        let model = EnergyModel::default();
        for bits in 1..=8u8 {
            let cm = CostModel::new(&model, bits);
            let cfg = ApproxConfig::fixed(bits);
            for class in InstrClass::ALL {
                let direct = model.instr_energy(class, &cfg).as_nj();
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
        let b = EnergyBudget::default_platform();
        let mut prev = 0.0;
        for bits in (1..=8u8).rev() {
            let u = b.usable_nj(bits);
            assert!(u >= prev, "usable at {bits}b regressed: {u} < {prev}");
            prev = u;
        }
        // Sanity: the default platform leaves real compute headroom.
        assert!(b.usable_nj(8) > 1_000.0, "usable(8) = {}", b.usable_nj(8));
        assert!(b.usable_nj(8) < b.capacity_nj);
    }

    #[test]
    fn instr_nj_routes_through_the_class_table() {
        use nvp_isa::Reg;
        let cm = CostModel::for_bits(4);
        let mul = Instr::Mul(Reg(0), Reg(1), Reg(2));
        assert_eq!(cm.instr_nj(mul), cm.class_cost_nj(InstrClass::Mul));
    }
}
