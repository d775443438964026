//! System-level NVP simulator.
//!
//! The Rust equivalent of the paper's Matlab/Python system simulator
//! (Section 7, Figure 10, derived from Ma et al. HPCA'15): it replays a
//! harvested-power trace against the analog front end and drives the
//! functional VM instruction by instruction, deciding when to start, back
//! up, and recover, and producing the evaluation's two headline metrics —
//! **forward progress** (instructions persistently committed) and the
//! **number of backups**.
//!
//! * [`energy`] — the trace's income/compute flush cursor (the
//!   per-instruction, backup and restore energy model, calibrated to the
//!   paper's 0.209 mW @ 1 MHz core, is [`nvp_isa::energy`]),
//! * [`mode`] — the five NVP variants ([`ExecMode`]) and their tag
//!   grammar (`precise`, `simd4`, `fixed:N`, `dynamic:LO-HI`,
//!   `incidental:LO-HI`),
//! * [`governor`] — the dynamic-bitwidth approximation control unit
//!   (Figure 6), mapping stored energy and income power to a bitwidth,
//! * [`system`] — the execution state machine with roll-back (conventional
//!   NVP) and roll-forward (incidental) recovery, incidental SIMD lane
//!   management and retention-shaped backup decay,
//! * [`resume`] — the 4-entry non-volatile resume-point controller
//!   (Section 4),
//! * [`quickrun`] — power-free fixed-configuration runs for the
//!   bitwidth-vs-quality studies (Figures 11–14),
//! * [`waitcompute`] — the conventional charge-then-execute baseline
//!   (Section 2.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod governor;
pub mod mode;
pub mod quickrun;
pub mod resume;
pub mod system;
pub mod waitcompute;

pub use governor::Governor;
pub use mode::ExecMode;
pub use quickrun::{instructions_per_frame, run_fixed};
pub use system::{
    BackupScope, CheckpointPlan, CommittedFrame, ExecEngine, RunReport, SystemConfig, SystemSim,
};
pub use waitcompute::{WaitComputeReport, WaitComputeSim};
