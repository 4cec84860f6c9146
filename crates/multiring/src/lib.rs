//! Multi-ring CCR-EDF fabric.
//!
//! The source paper analyses a *single* fibre-ribbon pipeline ring. This
//! crate scales the model out: several [`ccr_edf::network::RingNetwork`]
//! instances are composed into a **fabric** by *bridge* stations that sit
//! on two rings at once, forwarding each message into the next ring in the
//! slot they receive it. The pieces:
//!
//! - [`topology`] — rings, bridges, and the one router: the shortest path
//!   over live bridges, found on demand with deterministic tie-breaks, and
//!   expanded into segments that record the bridge directions they cross.
//!   Cyclic fabrics are rejected unless the builder opts in via
//!   [`topology::FabricTopologyBuilder::allow_cycles_with`]; the default
//!   opt-in, [`topology::CycleBound::Calculus`], arms the engine's
//!   network-calculus certifier instead of trusting cycles blindly.
//! - [`calculus`] — the end-to-end certifier over [`ccr_calculus`]: rings
//!   and bridge directions become rate-latency servers, connections token
//!   buckets, and every admission warm-starts the cyclic fixed point of
//!   Amari & Mifdaoui's multi-ring analysis on the servers it disturbs,
//!   refusing candidates that would void any flow's certified delay bound.
//! - [`admission`] — the pure end-to-end planner, one for healthy and
//!   degraded fabrics alike: floors from each ring's analytic worst-case
//!   latency, slack split proportionally to slot time (exact to the
//!   picosecond, [`admission::decompose_deadline`]), one per-ring
//!   sub-connection per segment, routed around the dead bridges it is
//!   given.
//! - [`engine`] — the lockstep fabric stepper: every ring steps one slot
//!   in place, then bridges hand each delivery into its next ring before
//!   the slot ends; end-to-end admission with rollback.
//! - [`fault`] — fabric-level fault scripting: ring-local fault events
//!   aimed at specific rings plus bridge kills, replayed bit-for-bit; the
//!   engine reroutes or revokes affected end-to-end connections.
//! - [`metrics`] — end-to-end latency/deadline accounting, per-segment
//!   breakdowns, bridge crossings, and fault/recovery counters, comparable
//!   with `==` across runs.
//!
//! ```
//! use ccr_multiring::prelude::*;
//!
//! let topo = FabricTopology::chain(2, 6);
//! let cfg = FabricConfig::uniform(topo, 2048, 42).unwrap();
//! let mut fabric = Fabric::new(cfg).unwrap();
//! fabric
//!     .open_connection(
//!         FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
//!             .period(ccr_sim::TimeDelta::from_ms(1)),
//!     )
//!     .unwrap();
//! fabric.run_slots(2_000);
//! assert!(fabric.metrics().e2e_delivered.get() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod calculus;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod topology;

pub use admission::{FabricAdmissionError, FabricConnectionId, FabricConnectionSpec};
pub use calculus::{CalculusAdmission, CalculusRejection, CalculusReport, CertifiedBatch};
pub use engine::{
    ConnectionEvent, EgressDelivery, Fabric, FabricBuildError, FabricConfig, InjectError,
    RevokeReason,
};
pub use fault::{BridgeEventKind, FabricFaultEvent, FabricFaultKind, FabricFaultScript};
pub use metrics::FabricMetrics;
pub use topology::{Bridge, CycleBound, FabricTopology, GlobalNodeId, RingId, TopologyError};

/// Convenient glob import.
pub mod prelude {
    pub use crate::admission::{
        FabricAdmissionError, FabricConnectionId, FabricConnectionSpec, SegmentEnv,
    };
    pub use crate::calculus::{CalculusAdmission, CalculusRejection, CalculusReport};
    pub use crate::engine::{
        ConnectionEvent, EgressDelivery, Fabric, FabricBuildError, FabricConfig, InjectError,
        RevokeReason,
    };
    pub use crate::fault::{BridgeEventKind, FabricFaultEvent, FabricFaultKind, FabricFaultScript};
    pub use crate::metrics::{FabricMetrics, RING_AVAILABILITY_WINDOW};
    pub use crate::topology::{
        Bridge, CycleBound, FabricTopology, GlobalNodeId, RingId, TopologyError,
    };
}
