//! # ccr-phys — physical model of the pipelined fibre-ribbon ring
//!
//! Models the network architecture of Section 2 of the paper: a
//! unidirectional ring of `N` nodes joined by 10-fibre ribbon links
//! (8 data fibres + 1 clock fibre + 1 control fibre, Figure 1). The paper
//! assumes Motorola OPTOBUS links; since no such hardware exists here, this
//! crate is the *simulated substitute*: it reproduces exactly the quantities
//! the MAC protocol and the analysis of Section 4 observe — byte/bit times,
//! per-link propagation and control-packet delays — at picosecond
//! resolution. The ring-timing arithmetic built on them (Equations 1–6)
//! lives in `ccr-edf`'s `analysis::AnalyticModel`.
//!
//! Contents:
//! * [`ring`] — node/link identifiers, hop arithmetic, segment and link-set
//!   computation for spatial reuse;
//! * [`params`] — physical constants (clock period, propagation velocity,
//!   link length, node delays) with OPTOBUS-era defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
pub mod ring;

pub use params::{PhysParams, PhysParamsError};
pub use ring::{LinkId, LinkSet, NodeId, RingTopology};
