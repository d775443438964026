//! nvp-exec — the execution layer: a scoped batch pool, the bounded
//! service queue, and the one bounded single-flight [`Cache`].
//!
//! The paper's evaluation is a large cross-product of kernels × power
//! profiles × schemes × policies; every cell is an independent simulation.
//! This crate turns that embarrassing parallelism into wall-clock speedup
//! without any external dependency (the build environment has no crates.io
//! access, so rayon/crossbeam are not options): plain [`std::thread`]
//! scoped workers over one shared claim counter.
//!
//! # Design
//!
//! * **One claim counter.** Each item of a [`Pool::map`] batch sits in its
//!   own slot; workers claim slot indices from a single atomic counter,
//!   last item first. The jobs are coarse (whole simulations), so one
//!   counter is all the load balancing they need.
//! * **Deterministic results.** Every item writes into its own result
//!   slot, and [`Pool::map`] returns results in item order no matter which
//!   worker ran what when. Callers that need reproducible *output* (the
//!   `repro` tables and `--trace` files) get it for free.
//! * **Panic propagation.** A panicking job aborts the batch: workers stop
//!   claiming new items (best-effort — siblings may already have claimed
//!   the rest), and the panic payload is re-raised on the caller's thread
//!   once all workers have stopped, so a sweep can never silently drop a
//!   failed cell.
//! * **Scoped.** Jobs may borrow from the caller's stack
//!   ([`std::thread::scope`] underneath); no `'static` bounds, no leaked
//!   threads, and pools nest freely (a job may run its own inner pool).
//!
//! ```
//! use nvp_exec::Pool;
//! let squares = Pool::new(4).map(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod pool;
mod service;

pub use cache::{fnv1a64, Cache, CacheStats, Flight, FlightError, LeaderToken, Lookup};
pub use pool::Pool;
pub use service::{QueueFull, ServicePool};
