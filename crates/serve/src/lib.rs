//! nvp-serve: a dependency-free HTTP service in front of the simulator.
//!
//! PR 4 made every simulation a pure function of its request — same
//! [`RunRequest`](nvp_repro::catalog::RunRequest), same bytes out, on
//! any machine. This crate turns that property into infrastructure:
//! since results are immutable values, they can be *content-addressed*,
//! and a simulation service becomes a cache in front of a worker pool.
//!
//! The service is built entirely on `std`:
//!
//! * [`json`] — the shared [`nvp_trace::json`] codec, re-exported: the
//!   same parser and renderer the JSONL traces go through;
//! * [`key`] — request canonicalization into [`key::SimKey`]s over the
//!   shared `nvp_repro::key` grammar;
//! * [`ResultCache`] — the LRU-bounded, single-flight
//!   [`nvp_exec::Cache`] of rendered bodies;
//! * `fleet` — asynchronous fleet jobs (`POST /v1/fleet`, polled via
//!   `GET /v1/fleet/{id}`), content-addressed by canonical spec;
//! * [`http`] — a minimal HTTP/1.1 subset with read deadlines;
//! * [`server`] — routing, admission control, and the drain path;
//! * [`metrics`] — counters, latency quantiles, and folded trace
//!   summaries for `/metrics`;
//! * [`signal`] — SIGTERM/SIGINT → drain, without a signals crate;
//! * [`client`] — a one-request HTTP client and an in-process server
//!   harness for driving the service over real sockets in tests.
//!
//! See DESIGN.md §10 for the protocol and the byte-identity contract.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub(crate) mod fleet;
pub mod http;
pub mod json;
pub mod key;
pub mod metrics;
pub mod server;
pub mod signal;

pub use key::{BadRequest, SimKey, SweepSpec};
pub use nvp_exec::FlightError;
pub use server::{Server, ServerConfig};

use std::sync::Arc;

/// The body cache: canonical [`SimKey`] spelling → rendered response
/// bytes. A hit re-serves the exact bytes the first computation produced,
/// which is what makes the byte-identity guarantee in DESIGN.md §10
/// checkable from outside.
pub type ResultCache = nvp_exec::Cache<String, Arc<Vec<u8>>>;
/// Outcome of a [`ResultCache`] lookup.
pub type Lookup = nvp_exec::Lookup<String, Arc<Vec<u8>>>;
/// Leadership of one [`ResultCache`] fill.
pub type LeaderToken = nvp_exec::LeaderToken<String, Arc<Vec<u8>>>;
