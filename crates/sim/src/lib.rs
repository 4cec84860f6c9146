//! # ccr-sim — discrete-event simulation substrate
//!
//! A small, deterministic discrete-event simulation (DES) engine plus the
//! statistics toolkit used throughout the CCR-EDF reproduction.
//!
//! The engine is deliberately generic: the network crates define their own
//! event enums and drive an [`engine::EventQueue`] directly, which keeps the
//! hot loop free of dynamic dispatch.
//!
//! Determinism guarantees:
//! * events that compare equal on time are popped in FIFO schedule order
//!   (a monotone sequence number breaks ties), so a simulation run is a pure
//!   function of its inputs and seed;
//! * all randomness flows through [`rng::SeedSequence`], which derives
//!   independent named streams from one master seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod parallel;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod toml;

pub use engine::{EventQueue, ScheduledEvent};
pub use parallel::parallel_map;
pub use rng::SeedSequence;
pub use time::{SimTime, TimeDelta, TimeFromF64Error};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::engine::EventQueue;
    pub use crate::rng::SeedSequence;
    pub use crate::stats::{Counter, Histogram};
    pub use crate::time::{SimTime, TimeDelta};
}
