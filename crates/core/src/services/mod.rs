//! User services for parallel and distributed processing (Sections 1, 7 and
//! ref \[11] of the paper): barrier synchronisation, global reduction,
//! piggy-backed short messages, and reliable transmission.
//!
//! All four services ride the control channel: a node contributes its part
//! in the request it appends during the collection phase, the slot master
//! aggregates, and the distribution packet carries the result to everyone.
//! Because the master changes from slot to slot, **no service keeps state
//! at the master** — a node keeps re-asserting its contribution every slot
//! until it observes the completed result in a distribution packet. This
//! makes the services robust to arbitrary master movement (and is exactly
//! why they fit a network whose master follows the traffic).

pub mod barrier;
pub mod reduce;
pub mod reliable;
pub mod short_msg;

pub use barrier::BarrierState;
pub use reduce::{ReduceOp, ReduceState};
pub use reliable::{ReceiverState, RELIABLE_TIMEOUT_SLOTS};
pub use short_msg::ShortMsgOutbox;

use crate::queues::QueueKey;
use crate::wire::AckWire;
use std::collections::{HashMap, VecDeque};

/// Per-node service state, owned by [`crate::node::Node`].
#[derive(Debug, Default)]
pub struct NodeServiceState {
    /// Barrier participation.
    pub barrier: BarrierState,
    /// Reduction participation.
    pub reduce: ReduceState,
    /// Outgoing short messages (one rides per slot).
    pub short_out: ShortMsgOutbox,
    /// Acknowledgements waiting to ride the next request.
    pub acks_out: VecDeque<AckWire>,
    /// Reliable-reception bookkeeping.
    pub receiver: ReceiverState,
    /// Reliable sender: next sequence number to assign.
    pub next_seq: u8,
    /// Reliable sender: in-flight packets awaiting acknowledgement,
    /// sequence number → the message's queue key.
    pub awaiting: HashMap<u8, QueueKey>,
}
