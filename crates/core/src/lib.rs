//! **incidental** — incidental computing for energy-harvesting nonvolatile
//! processors.
//!
//! A from-scratch reproduction of *Incidental Computing on IoT Nonvolatile
//! Processors* (Ma et al., MICRO-50, 2017). Batteryless devices buffer more
//! sensor frames than their harvested energy can process; instead of rolling
//! back after every power failure, an incidental NVP **rolls forward** to
//! the newest frame and finishes abandoned older frames opportunistically,
//! as extra SIMD lanes at reduced precision, whenever surplus power exists.
//! Backups are made cheaper by **retention-time shaping** (low-order bits
//! persisted just long enough to survive a typical outage), and interesting
//! low-quality outputs can later be improved by **recompute-and-combine**.
//!
//! # Crate map
//!
//! * [`pragma`] — the four `#pragma ac` annotations of Table 1, with a
//!   parser and validation,
//! * [`executor`] — [`IncidentalExecutor`]: wires a kernel, its pragmas and
//!   a power trace into the system simulator and scores output quality,
//! * [`rac`] — recompute-and-combine quality recovery (Section 8.5),
//! * [`tuning`] — the fine-tuned QoS policies of Table 2 and a search
//!   helper,
//! * [`report`] — quality/progress reporting shared by the examples and
//!   the reproduction harness.
//!
//! The substrates live in their own crates: [`nvp_power`] (harvester,
//! capacitor, traces), [`nvp_nvm`] (STT-RAM retention model, versioned
//! memory), [`nvp_isa`] (the 8-bit VM with approximate ALU and SIMD),
//! [`nvp_kernels`] (the ten MiBench-style testbenches) and [`nvp_sim`]
//! (the system-level simulator).
//!
//! # Quickstart
//!
//! ```
//! use incidental::prelude::*;
//!
//! // A wearable camera: median-filter frames under a watch harvester.
//! let exec = IncidentalExecutor::builder(KernelId::Median, 16, 16)
//!     .pragmas(PragmaSet::parse([
//!         "#pragma ac incidental (src, 2, 8, linear)",
//!         "#pragma ac incidental_recover_from (frame)",
//!     ]).unwrap())
//!     .frames(4)
//!     .build();
//! let profile = WatchProfile::P1.synthesize_seconds(2.0);
//! let report = exec.run(&profile);
//! assert!(report.progress.forward_progress > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod pragma;
pub mod rac;
pub mod report;
pub mod tuning;

pub use executor::{ExecutorBuilder, IncidentalExecutor, IncidentalReport};
pub use pragma::{Pragma, PragmaError, PragmaSet};
pub use rac::{recompute_and_combine, RacOutcome};
pub use report::{FrameQuality, ProgressSummary, QualityReport};
pub use tuning::{policy_for, table2, tune_for_qos, QosPolicy, QosTarget};

/// Convenient re-exports for applications.
pub mod prelude {
    pub use crate::executor::{IncidentalExecutor, IncidentalReport};
    pub use crate::pragma::{Pragma, PragmaSet};
    pub use crate::rac::recompute_and_combine;
    pub use crate::report::QualityReport;
    pub use crate::tuning::{policy_for, table2, tune_for_qos, QosPolicy, QosTarget};
    pub use nvp_kernels::{KernelId, KernelSpec};
    pub use nvp_nvm::RetentionPolicy;
    pub use nvp_power::synth::WatchProfile;
    pub use nvp_power::{PowerProfile, Ticks};
    pub use nvp_sim::{ExecMode, RunReport, SystemConfig};
}
