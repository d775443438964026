//! Analog front-end models: AC-DC rectifier and energy storage.
//!
//! Two storage regimes from Section 2.2:
//!
//! * [`Capacitor`] — the *small on-chip capacitor* of an NVP system, sized
//!   just large enough to guarantee a backup plus cycle-level voltage
//!   stability. Low leakage, charges quickly.
//! * [`EnergyStore`] — the *large energy-storage device* (supercapacitor) of
//!   the conventional wait-compute scheme. Exhibits the published
//!   pathologies: minimum charging current, charge/discharge conversion
//!   losses, and level-proportional leakage.
//!
//! The front end is the paper's one platform, so every parameter of the
//! rectifier and both stores is a constant of this module; nothing is
//! configurable.

use crate::units::{Energy, Power, Ticks};

/// Asymptotic rectifier efficiency at high input power.
const PEAK_EFFICIENCY: f64 = 0.85;

/// Knee power in µW at which rectifier efficiency reaches half its peak.
const KNEE_UW: f64 = 8.0;

/// AC-DC rectifier conversion efficiency for the given instantaneous input
/// power.
///
/// Rotational harvesters produce AC; the rectifier's efficiency collapses at
/// very low input power (diode drops dominate) and saturates at
/// `PEAK_EFFICIENCY` for strong inputs. We model this with a soft knee:
/// `η(p) = PEAK_EFFICIENCY · p / (p + KNEE_UW)`.
///
/// ```
/// use nvp_power::frontend::efficiency;
/// use nvp_power::units::Power;
/// let lo = efficiency(Power::from_uw(5.0));
/// let hi = efficiency(Power::from_uw(1000.0));
/// assert!(lo < hi && hi <= 0.9);
/// ```
pub fn efficiency(input: Power) -> f64 {
    let p = input.as_uw().max(0.0);
    PEAK_EFFICIENCY * p / (p + KNEE_UW)
}

/// DC power the rectifier delivers downstream for the given harvested input.
pub fn convert(input: Power) -> Power {
    input * efficiency(input)
}

/// DC energy the rectifier delivers over one tick for the given input power.
pub fn convert_tick(input: Power) -> Energy {
    convert(input) * Ticks(1)
}

/// Small on-chip capacitor used by an NVP system.
///
/// Sized to hold only a few backups' worth of energy; leakage is a small
/// constant trickle, `LEAK_PER_TICK`.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacity: Energy,
    level: Energy,
}

impl Capacitor {
    /// Leakage per tick.
    const LEAK_PER_TICK: Energy = Energy::from_pj(20.0);

    /// Creates an empty capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a positive finite energy.
    pub fn new(capacity: Energy) -> Self {
        assert!(
            capacity.is_valid() && capacity > Energy::ZERO,
            "capacitor capacity must be positive"
        );
        Capacitor {
            capacity,
            level: Energy::ZERO,
        }
    }

    /// Maximum energy the capacitor can hold.
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Currently stored energy.
    pub fn level(&self) -> Energy {
        self.level
    }

    /// Fill fraction in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.level / self.capacity
    }

    /// Adds harvested energy; overflow beyond capacity is discarded (the
    /// regulator shunts it). Returns the energy actually banked.
    pub fn charge(&mut self, e: Energy) -> Energy {
        let before = self.level;
        self.level = (self.level + e.max(Energy::ZERO)).min(self.capacity);
        self.level - before
    }

    /// Attempts to draw `e`; returns `true` and drains if enough energy is
    /// stored, otherwise leaves the level unchanged.
    pub fn try_drain(&mut self, e: Energy) -> bool {
        if self.level >= e {
            self.level -= e;
            true
        } else {
            false
        }
    }

    /// Drains up to `e`, returning the amount actually drained.
    pub fn drain_up_to(&mut self, e: Energy) -> Energy {
        let take = self.level.min(e.max(Energy::ZERO));
        self.level -= take;
        take
    }

    /// Lowers the stored level to `level`: the end of a run of
    /// [`try_drain`](Self::try_drain)-equivalent drains that the caller
    /// kept in a local (a metered instruction loop).
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or above the current level.
    #[inline]
    pub fn drain_to(&mut self, level: Energy) {
        assert!(
            level >= Energy::ZERO && level <= self.level,
            "drain_to may only lower the level"
        );
        self.level = level;
    }

    /// Applies one tick of leakage.
    pub fn leak_tick(&mut self) {
        self.level = self.level.saturating_sub(Self::LEAK_PER_TICK);
    }
}

/// Edge-detecting comparator on a stored-energy level (the restart-voltage
/// monitor of an NVP front end).
///
/// The hardware holds the core in reset until the capacitor charges past
/// the start threshold; this models the comparator's *edges* so a tracer
/// can record threshold crossings without logging every tick.
///
/// ```
/// use nvp_power::frontend::VoltageMonitor;
/// use nvp_power::units::Energy;
/// let mut m = VoltageMonitor::new();
/// let th = Energy::from_nj(100.0);
/// assert_eq!(m.observe(Energy::from_nj(50.0), th), None);      // still below
/// assert_eq!(m.observe(Energy::from_nj(120.0), th), Some(true)); // rising edge
/// assert_eq!(m.observe(Energy::from_nj(130.0), th), None);     // no new edge
/// assert_eq!(m.observe(Energy::from_nj(10.0), th), Some(false)); // falling edge
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoltageMonitor {
    was_above: bool,
}

impl VoltageMonitor {
    /// Creates a monitor whose comparator starts below threshold (an
    /// unpowered system).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sample. Returns `Some(true)` on a rising edge (level
    /// charged past the threshold), `Some(false)` on a falling edge, and
    /// `None` while the comparator state is unchanged.
    pub fn observe(&mut self, level: Energy, threshold: Energy) -> Option<bool> {
        let above = level >= threshold;
        let edge = above != self.was_above;
        self.was_above = above;
        edge.then_some(above)
    }
}

/// Large energy-storage device for the wait-compute baseline (Section 2.2).
///
/// Captures the conventional scheme's limitations called out by the paper:
///
/// * **minimum charging current** — below `MIN_CHARGE_POWER` the charger
///   cannot bank anything (e.g. 20 µA for the CAP-XX GZ115);
/// * **slow charging** — the current-limited charger pushes at most
///   `MAX_CHARGE_POWER` into the store; income above that is wasted;
/// * **conversion losses** — `CHARGE_EFFICIENCY` on the way in and
///   `DISCHARGE_EFFICIENCY` on the way out (moving charge into and out of a
///   large ESD);
/// * **level-proportional leakage** — a big supercap leaks more the fuller
///   it is, on top of a constant self-discharge floor.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyStore {
    capacity: Energy,
    level: Energy,
}

impl EnergyStore {
    /// Minimum DC input power required to charge at all (~50 µA at 2 V).
    const MIN_CHARGE_POWER: Power = Power::from_uw(100.0);
    /// Maximum power the current-limited charger pushes into the store.
    const MAX_CHARGE_POWER: Power = Power::from_uw(150.0);
    /// Fraction of input energy actually banked.
    const CHARGE_EFFICIENCY: f64 = 0.80;
    /// Fraction of drawn energy actually delivered to the load.
    const DISCHARGE_EFFICIENCY: f64 = 0.90;
    /// Per-tick leakage as a fraction of the current level (~0.17%/s at
    /// full).
    const LEAK_FRACTION_PER_TICK: f64 = 2.0e-7;
    /// Constant leakage floor per tick: ≈3 µW of supercap self-discharge
    /// (tens of µA — e.g. the GZ115 class the paper cites).
    const LEAK_FLOOR: Energy = Energy::from_nj(0.3);

    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive.
    pub fn new(capacity: Energy) -> Self {
        assert!(
            capacity.is_valid() && capacity > Energy::ZERO,
            "store capacity must be positive"
        );
        EnergyStore {
            capacity,
            level: Energy::ZERO,
        }
    }

    /// A store sized to hold one full frame of work for the given frame
    /// energy (the wait-compute design rule: the ESD must cover an entire
    /// logical unit of work, e.g. one image frame).
    pub fn sized_for(frame_energy: Energy) -> Self {
        // 50% headroom over the frame requirement (losses, leakage).
        EnergyStore::new(frame_energy * 1.5)
    }

    /// Maximum storable energy.
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Currently stored energy.
    pub fn level(&self) -> Energy {
        self.level
    }

    /// Fill fraction in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.level / self.capacity
    }

    /// Charges from one tick of DC input power. Returns the banked energy.
    ///
    /// Input below the minimum charging current banks nothing (the paper's
    /// "minimum charging current" limitation).
    pub fn charge_tick(&mut self, dc_input: Power) -> Energy {
        if dc_input < Self::MIN_CHARGE_POWER {
            return Energy::ZERO;
        }
        let incoming = dc_input.min(Self::MAX_CHARGE_POWER) * Ticks(1);
        let banked = (incoming * Self::CHARGE_EFFICIENCY).min(self.capacity - self.level);
        self.level += banked;
        banked
    }

    /// Whether the store holds enough to deliver `e` to the load after
    /// discharge losses.
    pub fn can_deliver(&self, e: Energy) -> bool {
        self.level >= e / Self::DISCHARGE_EFFICIENCY
    }

    /// Attempts to deliver `e` to the load, accounting for discharge losses.
    /// Returns `true` on success.
    pub fn try_deliver(&mut self, e: Energy) -> bool {
        let deliverable = self.can_deliver(e);
        if deliverable {
            self.level -= e / Self::DISCHARGE_EFFICIENCY;
        }
        deliverable
    }

    /// Applies one tick of leakage (constant floor plus
    /// level-proportional).
    pub fn leak_tick(&mut self) {
        let leak = self.level * Self::LEAK_FRACTION_PER_TICK + Self::LEAK_FLOOR;
        self.level = self.level.saturating_sub(leak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectifier_efficiency_monotonic() {
        let mut last = 0.0;
        for p in [1.0, 5.0, 20.0, 100.0, 1000.0] {
            let e = efficiency(Power::from_uw(p));
            assert!(e > last);
            assert!(e <= PEAK_EFFICIENCY);
            last = e;
        }
        assert_eq!(efficiency(Power::ZERO), 0.0);
        // Half the peak at the knee.
        let at_knee = efficiency(Power::from_uw(KNEE_UW));
        assert!((at_knee - PEAK_EFFICIENCY / 2.0).abs() < 1e-12);
    }

    #[test]
    fn rectifier_convert_tick_energy() {
        // 100 µW for one tick is 10 nJ harvested, scaled by η(100 µW).
        let e = convert_tick(Power::from_uw(100.0));
        let eta = PEAK_EFFICIENCY * 100.0 / (100.0 + KNEE_UW);
        assert!((e.as_nj() - 10.0 * eta).abs() < 1e-9);
    }

    #[test]
    fn capacitor_charge_clamps_at_capacity() {
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        assert_eq!(c.charge(Energy::from_nj(6.0)), Energy::from_nj(6.0));
        assert_eq!(c.charge(Energy::from_nj(6.0)), Energy::from_nj(4.0));
        assert_eq!(c.level(), c.capacity());
        assert!((c.fill() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_drain_semantics() {
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        c.charge(Energy::from_nj(5.0));
        assert!(!c.try_drain(Energy::from_nj(6.0)));
        assert_eq!(c.level(), Energy::from_nj(5.0));
        assert!(c.try_drain(Energy::from_nj(5.0)));
        assert_eq!(c.level(), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "may only lower")]
    fn capacitor_drain_to_only_lowers() {
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        c.charge(Energy::from_nj(5.0));
        c.drain_to(Energy::from_nj(2.0));
        assert_eq!(c.level(), Energy::from_nj(2.0));
        c.drain_to(Energy::from_nj(3.0));
    }

    #[test]
    fn capacitor_drain_up_to_partial() {
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        c.charge(Energy::from_nj(3.0));
        assert_eq!(c.drain_up_to(Energy::from_nj(5.0)), Energy::from_nj(3.0));
        assert_eq!(c.level(), Energy::ZERO);
    }

    #[test]
    fn capacitor_leaks() {
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        c.charge(Capacitor::LEAK_PER_TICK * 2.5);
        c.leak_tick();
        let left = (Capacitor::LEAK_PER_TICK * 1.5).as_nj();
        assert!((c.level().as_nj() - left).abs() < 1e-12);
        c.leak_tick();
        c.leak_tick();
        assert_eq!(c.level(), Energy::ZERO); // saturates at zero
    }

    #[test]
    fn store_rejects_weak_charging_current() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        assert_eq!(s.charge_tick(Power::from_uw(10.0)), Energy::ZERO);
        assert_eq!(s.charge_tick(Power::from_uw(99.0)), Energy::ZERO);
        assert!(s.charge_tick(EnergyStore::MIN_CHARGE_POWER) > Energy::ZERO);
    }

    #[test]
    fn store_charge_losses() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        let banked = s.charge_tick(Power::from_uw(100.0));
        // 100 µW·tick = 10 nJ in, 8 nJ banked.
        assert!((banked.as_nj() - 10.0 * EnergyStore::CHARGE_EFFICIENCY).abs() < 1e-9);
    }

    #[test]
    fn store_discharge_losses() {
        let mut s = EnergyStore::new(Energy::from_uj(1.0));
        for _ in 0..10 {
            s.charge_tick(Power::from_mw(5.0)); // bank plenty (rate-limited)
        }
        let before = s.level();
        assert!(s.can_deliver(Energy::from_nj(10.0)));
        assert!(s.try_deliver(Energy::from_nj(10.0)));
        let drawn = (before - s.level()).as_nj();
        assert!((drawn - 10.0 / EnergyStore::DISCHARGE_EFFICIENCY).abs() < 1e-9);
        // Delivering everything stored would need more than is stored.
        assert!(!s.can_deliver(s.level()));
        assert!(!s.try_deliver(s.level()));
    }

    #[test]
    fn store_leak_proportional_plus_floor() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        s.charge_tick(Power::from_mw(1.0));
        let before = s.level().as_nj();
        s.leak_tick();
        let leak = before * EnergyStore::LEAK_FRACTION_PER_TICK + EnergyStore::LEAK_FLOOR.as_nj();
        assert!((s.level().as_nj() - (before - leak)).abs() < 1e-9);
        // Floor saturates at zero.
        let mut empty = EnergyStore::new(Energy::from_uj(1.0));
        empty.leak_tick();
        assert_eq!(empty.level(), Energy::ZERO);
    }

    #[test]
    fn store_charge_rate_limited() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        // 10 mW input, but the charger caps at 150 µW -> 15 nJ per tick,
        // of which the charge efficiency banks 12 nJ.
        let banked = s.charge_tick(Power::from_mw(10.0));
        assert!((banked.as_nj() - 15.0 * EnergyStore::CHARGE_EFFICIENCY).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn capacitor_zero_capacity_panics() {
        let _ = Capacitor::new(Energy::ZERO);
    }

    /// FNV-1a digest of every value `front_end_values_are_pinned` sees.
    const FRONT_END_FNV: u64 = 0x1f4c_67e1_b57e_1b29;

    /// Pins the rectifier curve and both stores' charge, leak and deliver
    /// arithmetic bit for bit: a nudged constant or a regrouped product
    /// changes the digest.
    #[test]
    fn front_end_values_are_pinned() {
        let mut bits_seen: Vec<u64> = Vec::new();
        for uw in [
            0.0, 0.5, 1.0, 5.0, KNEE_UW, 20.0, 33.0, 100.0, 150.0, 400.0, 1000.0, 2000.0,
        ] {
            let p = Power::from_uw(uw);
            bits_seen.push(efficiency(p).to_bits());
            bits_seen.push(convert_tick(p).as_nj().to_bits());
        }
        let mut c = Capacitor::new(Energy::from_nj(10.0));
        for nj in [0.0, 0.5, 3.0, 7.5] {
            bits_seen.push(c.charge(Energy::from_nj(nj)).as_nj().to_bits());
            c.leak_tick();
            bits_seen.push(c.level().as_nj().to_bits());
        }
        for _ in 0..520 {
            c.leak_tick();
            bits_seen.push(c.level().as_nj().to_bits());
        }
        let mut s = EnergyStore::new(Energy::from_uj(1.0));
        for uw in [0.0, 99.9, 100.0, 120.0, 150.0, 2000.0] {
            bits_seen.push(s.charge_tick(Power::from_uw(uw)).as_nj().to_bits());
            s.leak_tick();
            bits_seen.push(s.level().as_nj().to_bits());
        }
        for _ in 0..100 {
            bits_seen.push(s.charge_tick(Power::from_uw(2000.0)).as_nj().to_bits());
        }
        let burst = Energy::from_nj(45.0);
        for _ in 0..30 {
            bits_seen.push(u64::from(s.can_deliver(burst)));
            bits_seen.push(u64::from(s.try_deliver(burst)));
            s.leak_tick();
            bits_seen.push(s.level().as_nj().to_bits());
        }
        let digest = bits_seen.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            v.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        assert_eq!(
            digest,
            FRONT_END_FNV,
            "front-end values changed ({} values, digest {digest:#018x})",
            bits_seen.len()
        );
    }

    #[test]
    fn voltage_monitor_reports_edges_only() {
        let mut m = VoltageMonitor::new();
        let th = Energy::from_nj(50.0);
        // Equality counts as above (matches the restart comparison in the
        // simulator's off-phase check).
        assert_eq!(m.observe(Energy::from_nj(50.0), th), Some(true));
        assert_eq!(m.observe(Energy::from_nj(50.0), th), None);
        assert_eq!(m.observe(Energy::from_nj(49.0), th), Some(false));
        assert_eq!(m.observe(Energy::from_nj(0.0), th), None);
        assert_eq!(m.observe(Energy::from_nj(99.0), th), Some(true));
    }
}
