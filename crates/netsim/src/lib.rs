//! # ccr-netsim — end-to-end simulation and the experiment harness
//!
//! Glues the protocol crates (`ccr-edf`, `cc-fpr`), the physical model and
//! the workload generators into runnable experiments. Every table/figure of
//! the reproduction (DESIGN.md §4, experiments E1–E16) has a runner in
//! [`experiments`] and a subcommand in the `ccr-experiments` binary.
//!
//! The harness is deliberately deterministic: every experiment takes a
//! master seed and derives all randomness through
//! [`ccr_sim::SeedSequence`]; repeated runs produce identical tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission_app;
pub mod experiments;
pub mod runner;
pub mod trace;

pub use runner::{expand_periodic, run_with_mac, RunSummary, Workload};
pub use trace::{SlotRecord, TraceRecorder};
