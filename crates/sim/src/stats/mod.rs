//! Streaming statistics used by the metric sinks of the simulator.
//!
//! Everything here is single-pass / O(1)-memory (except [`Series`], which
//! intentionally records raw points for plotting): simulations run for
//! millions of slots and must not hoard per-sample memory.

mod counter;
mod histogram;
mod series;

pub use counter::Counter;
pub use histogram::Histogram;
pub use series::Series;
