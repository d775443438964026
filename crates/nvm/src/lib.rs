//! Non-volatile memory substrate for NVP simulation.
//!
//! Models the storage technology side of *Incidental Computing on IoT
//! Nonvolatile Processors* (MICRO-50, 2017):
//!
//! * [`sttram`] — STT-RAM write current / pulse width / retention-time model
//!   (paper Figure 4) and the dynamic-retention write circuit's energy
//!   accounting (Figure 7),
//! * [`retention`] — the three retention-time shaping policies of Figure 5 /
//!   Equations (1)–(3): linear, log and parabola, plus full-retention
//!   baselines,
//! * [`backup`] — in-place decay of `incidental` data after an outage:
//!   bits whose retention the outage outlasted are re-sampled and counted
//!   as the retention failures of Figure 22,
//! * [`versioned`] — the 4-version data memory with 3-bit precision metadata
//!   used by incidental SIMD, and the [`MergeMode`] table of
//!   recompute-and-combine (Section 4).
//!
//! # Example
//!
//! ```
//! use nvp_nvm::sttram::SttRamModel;
//! use nvp_power::Ticks;
//!
//! let model = SttRamModel::default();
//! let day = model.bit_write_energy(Ticks::from_seconds(86_400.0));
//! let ms10 = model.bit_write_energy(Ticks::from_ms(10.0));
//! // Figure 4: ~77% of write energy is saved by dropping retention
//! // from 1 day to 10 ms.
//! let saving = 1.0 - ms10 / day;
//! assert!(saving > 0.5 && saving < 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod retention;
pub mod sttram;
pub mod versioned;

pub use retention::RetentionPolicy;
pub use sttram::SttRamModel;
pub use versioned::{MergeMode, VersionedMemory, VersionedWord, NUM_VERSIONS};
