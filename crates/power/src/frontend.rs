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

use crate::units::{Energy, Power, Ticks};

/// AC-DC rectifier with power-dependent conversion efficiency.
///
/// Rotational harvesters produce AC; the rectifier's efficiency collapses at
/// very low input power (diode drops dominate) and saturates at
/// `peak_efficiency` for strong inputs. We model this with a soft knee:
/// `η(p) = η_peak · p / (p + knee)`.
///
/// ```
/// use nvp_power::frontend::Rectifier;
/// use nvp_power::units::Power;
/// let r = Rectifier::default();
/// let lo = r.efficiency(Power::from_uw(5.0));
/// let hi = r.efficiency(Power::from_uw(1000.0));
/// assert!(lo < hi && hi <= 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rectifier {
    /// Asymptotic efficiency at high input power (0..=1).
    pub peak_efficiency: f64,
    /// Knee power in µW at which efficiency reaches half its peak.
    pub knee_uw: f64,
}

impl Default for Rectifier {
    fn default() -> Self {
        Rectifier {
            peak_efficiency: 0.85,
            knee_uw: 8.0,
        }
    }
}

impl Rectifier {
    /// Conversion efficiency for the given instantaneous input power.
    pub fn efficiency(&self, input: Power) -> f64 {
        let p = input.as_uw().max(0.0);
        self.peak_efficiency * p / (p + self.knee_uw)
    }

    /// DC power delivered downstream for the given harvested input.
    pub fn convert(&self, input: Power) -> Power {
        input * self.efficiency(input)
    }

    /// DC energy delivered over one tick for the given input power.
    pub fn convert_tick(&self, input: Power) -> Energy {
        self.convert(input) * Ticks(1)
    }
}

/// Small on-chip capacitor used by an NVP system.
///
/// Sized to hold only a few backups' worth of energy; leakage is a small
/// constant trickle.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacity: Energy,
    level: Energy,
    leak_per_tick: Energy,
}

impl Capacitor {
    /// Creates an empty capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a positive finite energy.
    pub fn new(capacity: Energy, leak_per_tick: Energy) -> Self {
        assert!(
            capacity.is_valid() && capacity > Energy::ZERO,
            "capacitor capacity must be positive"
        );
        assert!(leak_per_tick.is_valid(), "leakage must be non-negative");
        Capacitor {
            capacity,
            level: Energy::ZERO,
            leak_per_tick,
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
        self.level = self.level.saturating_sub(self.leak_per_tick);
    }

    /// Empties the capacitor (deep power-down).
    pub fn deplete(&mut self) {
        self.level = Energy::ZERO;
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
/// * **minimum charging current** — below `min_charge_power` the charger
///   cannot bank anything (e.g. 20 µA for the CAP-XX GZ115);
/// * **conversion losses** — `charge_efficiency` on the way in and
///   `discharge_efficiency` on the way out (moving charge into and out of a
///   large ESD);
/// * **level-proportional leakage** — a big supercap leaks more the fuller
///   it is.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyStore {
    capacity: Energy,
    level: Energy,
    /// Minimum DC input power required to charge at all.
    pub min_charge_power: Power,
    /// Maximum power the (current-limited) charger can push into the
    /// store; income above this is wasted — the "slow charging curve".
    pub max_charge_power: Power,
    /// Fraction of input energy actually banked.
    pub charge_efficiency: f64,
    /// Fraction of drawn energy actually delivered to the load.
    pub discharge_efficiency: f64,
    /// Per-tick leakage as a fraction of the current level.
    pub leak_fraction_per_tick: f64,
    /// Constant leakage floor per tick (supercap self-discharge, tens of
    /// µA — e.g. the GZ115 class the paper cites).
    pub leak_floor: Energy,
}

impl EnergyStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if capacity is non-positive or an efficiency is outside (0,1].
    pub fn new(capacity: Energy) -> Self {
        assert!(
            capacity.is_valid() && capacity > Energy::ZERO,
            "store capacity must be positive"
        );
        EnergyStore {
            capacity,
            level: Energy::ZERO,
            min_charge_power: Power::from_uw(100.0), // ~50 µA at 2 V
            max_charge_power: Power::from_uw(150.0), // current-limited charger
            charge_efficiency: 0.80,
            discharge_efficiency: 0.90,
            leak_fraction_per_tick: 2.0e-7,   // ~0.17%/s at full
            leak_floor: Energy::from_nj(0.3), // ≈3 µW self-discharge
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
        if dc_input < self.min_charge_power {
            return Energy::ZERO;
        }
        let incoming = dc_input.min(self.max_charge_power) * Ticks(1);
        let banked = (incoming * self.charge_efficiency).min(self.capacity - self.level);
        self.level += banked;
        banked
    }

    /// Attempts to deliver `e` to the load, accounting for discharge losses.
    /// Returns `true` on success.
    pub fn try_deliver(&mut self, e: Energy) -> bool {
        let need = e / self.discharge_efficiency;
        if self.level >= need {
            self.level -= need;
            true
        } else {
            false
        }
    }

    /// Applies one tick of leakage (constant floor plus
    /// level-proportional).
    pub fn leak_tick(&mut self) {
        let leak = self.level * self.leak_fraction_per_tick + self.leak_floor;
        self.level = self.level.saturating_sub(leak);
    }

    /// Empties the store.
    pub fn deplete(&mut self) {
        self.level = Energy::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectifier_efficiency_monotonic() {
        let r = Rectifier::default();
        let mut last = 0.0;
        for p in [1.0, 5.0, 20.0, 100.0, 1000.0] {
            let e = r.efficiency(Power::from_uw(p));
            assert!(e > last);
            assert!(e <= r.peak_efficiency);
            last = e;
        }
        assert_eq!(r.efficiency(Power::ZERO), 0.0);
    }

    #[test]
    fn rectifier_convert_tick_energy() {
        let r = Rectifier {
            peak_efficiency: 0.5,
            knee_uw: 0.0,
        };
        // 100 µW at 50% for one tick = 5 nJ.
        let e = r.convert_tick(Power::from_uw(100.0));
        assert!((e.as_nj() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_charge_clamps_at_capacity() {
        let mut c = Capacitor::new(Energy::from_nj(10.0), Energy::ZERO);
        assert_eq!(c.charge(Energy::from_nj(6.0)), Energy::from_nj(6.0));
        assert_eq!(c.charge(Energy::from_nj(6.0)), Energy::from_nj(4.0));
        assert_eq!(c.level(), c.capacity());
        assert!((c.fill() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_drain_semantics() {
        let mut c = Capacitor::new(Energy::from_nj(10.0), Energy::ZERO);
        c.charge(Energy::from_nj(5.0));
        assert!(!c.try_drain(Energy::from_nj(6.0)));
        assert_eq!(c.level(), Energy::from_nj(5.0));
        assert!(c.try_drain(Energy::from_nj(5.0)));
        assert_eq!(c.level(), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "may only lower")]
    fn capacitor_drain_to_only_lowers() {
        let mut c = Capacitor::new(Energy::from_nj(10.0), Energy::ZERO);
        c.charge(Energy::from_nj(5.0));
        c.drain_to(Energy::from_nj(2.0));
        assert_eq!(c.level(), Energy::from_nj(2.0));
        c.drain_to(Energy::from_nj(3.0));
    }

    #[test]
    fn capacitor_drain_up_to_partial() {
        let mut c = Capacitor::new(Energy::from_nj(10.0), Energy::ZERO);
        c.charge(Energy::from_nj(3.0));
        assert_eq!(c.drain_up_to(Energy::from_nj(5.0)), Energy::from_nj(3.0));
        assert_eq!(c.level(), Energy::ZERO);
    }

    #[test]
    fn capacitor_leaks() {
        let mut c = Capacitor::new(Energy::from_nj(10.0), Energy::from_nj(1.0));
        c.charge(Energy::from_nj(2.5));
        c.leak_tick();
        c.leak_tick();
        c.leak_tick();
        assert_eq!(c.level(), Energy::ZERO); // saturates at zero
    }

    #[test]
    fn store_rejects_weak_charging_current() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        assert_eq!(s.charge_tick(Power::from_uw(10.0)), Energy::ZERO);
        assert_eq!(s.charge_tick(Power::from_uw(99.0)), Energy::ZERO);
        assert!(s.charge_tick(Power::from_uw(100.0)) > Energy::ZERO);
    }

    #[test]
    fn store_charge_losses() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        s.charge_efficiency = 0.5;
        let banked = s.charge_tick(Power::from_uw(100.0));
        // 100 µW·tick = 10 nJ in, 5 nJ banked.
        assert!((banked.as_nj() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn store_deplete_empties() {
        let mut s = EnergyStore::new(Energy::from_uj(1.0));
        s.charge_tick(Power::from_uw(100.0));
        s.deplete();
        assert_eq!(s.level(), Energy::ZERO);
    }

    #[test]
    fn store_discharge_losses() {
        let mut s = EnergyStore::new(Energy::from_uj(1.0));
        s.discharge_efficiency = 0.5;
        for _ in 0..10 {
            s.charge_tick(Power::from_mw(5.0)); // bank plenty (rate-limited)
        }
        let before = s.level();
        assert!(s.try_deliver(Energy::from_nj(10.0)));
        assert!((before - s.level()).as_nj() - 20.0 < 1e-9);
    }

    #[test]
    fn store_leak_proportional_plus_floor() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        s.leak_fraction_per_tick = 0.5;
        s.leak_floor = Energy::from_nj(1.0);
        s.charge_tick(Power::from_mw(1.0));
        let before = s.level();
        s.leak_tick();
        assert!((s.level().as_nj() - (before.as_nj() * 0.5 - 1.0)).abs() < 1e-9);
        // Floor saturates at zero.
        let mut empty = EnergyStore::new(Energy::from_uj(1.0));
        empty.leak_tick();
        assert_eq!(empty.level(), Energy::ZERO);
    }

    #[test]
    fn store_charge_rate_limited() {
        let mut s = EnergyStore::new(Energy::from_uj(10.0));
        s.charge_efficiency = 1.0;
        // 10 mW input, but the charger caps at 150 µW -> 15 nJ per tick.
        let banked = s.charge_tick(Power::from_mw(10.0));
        assert!((banked.as_nj() - 15.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn capacitor_zero_capacity_panics() {
        let _ = Capacitor::new(Energy::ZERO, Energy::ZERO);
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
