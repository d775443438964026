//! Energy-harvesting front-end substrate for nonvolatile-processor (NVP)
//! simulation.
//!
//! This crate models the power-provisioning side of a batteryless IoT device
//! as described in *Incidental Computing on IoT Nonvolatile Processors*
//! (MICRO-50, 2017), Section 2:
//!
//! * [`profile::PowerProfile`] — an income-power time series sampled every
//!   0.1 ms (the paper's Figure 2 traces),
//! * [`synth`] — a seeded synthetic generator reproducing the published
//!   statistics of a wrist-worn rotational ("unbalanced ring") harvester,
//! * [`outage`] — power-emergency extraction and duration statistics
//!   (Figure 3) at the 33 µW operating threshold,
//! * [`frontend`] — AC-DC rectifier and capacitor models, including the
//!   large energy-storage device used by the wait-compute baseline, all
//!   fixed to the paper's one platform.
//!
//! # Units
//!
//! All quantities use the strongly-typed wrappers in [`units`]:
//! power in microwatts ([`units::Power`]), energy in nanojoules
//! ([`units::Energy`]), and time in 0.1 ms ticks ([`units::Ticks`]).
//! One tick of 1 µW income is exactly 0.1 nJ.
//!
//! # Example
//!
//! ```
//! use nvp_power::synth::WatchProfile;
//! use nvp_power::outage::OutageStats;
//!
//! let profile = WatchProfile::P1.synthesize_seconds(10.0);
//! let stats = OutageStats::extract(&profile);
//! // A watch harvester experiences on the order of 10^3 power
//! // emergencies in a 10 s window (Section 2.2).
//! assert!(stats.count() > 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frontend;
pub mod outage;
pub mod profile;
pub mod synth;
pub mod units;

pub use frontend::{Capacitor, EnergyStore, VoltageMonitor};
pub use outage::{Outage, OutageStats};
pub use profile::PowerProfile;
pub use synth::{SynthParams, TraceSynthesizer, WatchProfile};
pub use units::{Energy, Power, Ticks, TICK_SECONDS};
