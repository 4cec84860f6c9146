//! # ccr-edf — CCR-EDF protocol (IPDPS 2002 reproduction)
//!
//! Implementation of *"Fibre-Ribbon Ring Network with Inherent Support for
//! Earliest Deadline First Message Scheduling"* (Bergenhem & Jonsson,
//! IPDPS 2002): a slot-based medium access protocol for a pipelined
//! unidirectional fibre-ribbon ring in which **clock hand-over follows the
//! arbitration result** — the node holding the globally highest-priority
//! message becomes the slot master and generates the network clock, so the
//! most urgent message can always reach any destination without crossing
//! the clock break. On top of the MAC sit:
//!
//! * per-slot **EDF scheduling** of periodic messages in *logical real-time
//!   connections* (laxity → priority mapping, Table 1 of the paper);
//! * **admission control** with the utilisation test of Equations 5–6;
//! * three traffic classes (real-time connection / best effort /
//!   non-real-time) and single-destination, multicast and broadcast
//!   transmission with **spatial reuse**;
//! * parallel-computing **services**: short messages, barrier
//!   synchronisation, global reduction, and reliable transmission
//!   (acknowledgement + retransmission + flow control);
//! * the closed-form **analysis** of Sections 4–6 (Equations 1–6).
//!
//! The crate also provides the protocol-agnostic slot engine
//! ([`network::RingNetwork`]), parameterised by a [`mac::MacProtocol`]
//! implementation, so the CC-FPR baseline (crate `cc-fpr`) runs on exactly
//! the same machinery and differs only in its MAC decisions.
//!
//! ## Quick start
//! ```
//! use ccr_edf::prelude::*;
//!
//! let cfg = NetworkConfig::builder(8).slot_bytes(1024).build().unwrap();
//! let mut net = RingNetwork::new_ccr_edf(cfg.clone());
//!
//! // Ask admission control for a periodic connection: 1 slot every 100 µs.
//! let spec = ConnectionSpec::unicast(NodeId(0), NodeId(3))
//!     .period(TimeDelta::from_us(100))
//!     .size_slots(1);
//! let conn = net.open_connection(spec).expect("admitted");
//!
//! net.run_slots(10_000);
//! let m = net.metrics();
//! assert!(m.delivered.get() > 0, "messages flowed");
//! assert_eq!(m.rt_deadline_misses.get(), 0, "admitted traffic never misses");
//! net.close_connection(conn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod analysis;
pub mod arbitration;
pub mod config;
pub mod connection;
pub mod dbf;
pub mod fault;
pub mod mac;
pub mod message;
pub mod metrics;
pub mod network;
pub mod node;
pub mod priority;
pub mod queues;
pub mod services;
pub mod wire;

pub use ccr_phys::{LinkId, LinkSet, NodeId, RingTopology};
pub use ccr_sim::{SimTime, TimeDelta};

/// Commonly used items.
pub mod prelude {
    pub use crate::admission::AdmissionController;
    pub use crate::analysis::AnalyticModel;
    pub use crate::config::{NetworkConfig, NetworkConfigBuilder};
    pub use crate::connection::{ConnectionId, ConnectionSpec};
    pub use crate::mac::MacProtocol;
    pub use crate::message::{Destination, Message, MessageId, TrafficClass};
    pub use crate::metrics::Metrics;
    pub use crate::network::RingNetwork;
    pub use crate::priority::Priority;
    pub use ccr_phys::{LinkId, LinkSet, NodeId, RingTopology};
    pub use ccr_sim::{SimTime, TimeDelta};
}
