//! The medium-access abstraction shared by CCR-EDF and the CC-FPR baseline.
//!
//! Section 3 of the paper: the MAC has two tasks — "decide and signal which
//! packet(s) is to be sent during a slot" and "know exactly which node has
//! the highest priority message in each slot … to perform clock hand over to
//! the correct node". Both protocols share the slot engine
//! ([`crate::network::RingNetwork`]); they differ in
//!
//! * what a node writes into the circulating collection packet
//!   ([`MacProtocol::make_request`] — CC-FPR *books* links node-locally,
//!   CCR-EDF merely states its desire), and
//! * what the master decides ([`MacProtocol::arbitrate`] — CC-FPR echoes the
//!   bookings and rotates the master round-robin, CCR-EDF sorts requests by
//!   priority, grants with spatial reuse, and hands the clock to the
//!   highest-priority node).

use crate::priority::Priority;
use crate::wire::{NodeSet, Request};
use ccr_phys::{LinkSet, NodeId, RingTopology};

/// What a node wants to transmit in the next slot (derived from the head of
/// its queues by [`crate::node::Node::desire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desire {
    /// Mapped request priority (Table 1).
    pub priority: Priority,
    /// Links the transmission needs (the contiguous segment).
    pub links: LinkSet,
    /// Receiver set.
    pub dests: NodeSet,
}

/// One granted transmission for the coming slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The transmitting node.
    pub node: NodeId,
    /// The links it occupies.
    pub links: LinkSet,
    /// The receivers.
    pub dests: NodeSet,
}

/// The master's decision for the coming slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPlan {
    /// Granted transmissions, in grant order (highest priority first).
    pub grants: Vec<Grant>,
    /// Master (clock generator) of the coming slot.
    pub next_master: NodeId,
    /// The node reported in the `hp-node` index field, when any node
    /// requested at all.
    pub hp_node: Option<NodeId>,
}

impl SlotPlan {
    /// An idle plan: nobody transmits, the master stays put.
    pub fn idle(master: NodeId) -> Self {
        SlotPlan {
            // ccr-verify: allow(alloc-in-hot-path) -- allocating constructor for setup/tests; the slot loop reuses plans via reset_idle
            grants: Vec::new(),
            next_master: master,
            hp_node: None,
        }
    }

    /// Reset in place to the idle plan, keeping the grant buffer's
    /// capacity (the allocation-free counterpart of [`SlotPlan::idle`]).
    pub fn reset_idle(&mut self, master: NodeId) {
        self.grants.clear();
        self.next_master = master;
        self.hp_node = None;
    }

    /// The grant for `node`, if present.
    pub fn grant_for(&self, node: NodeId) -> Option<&Grant> {
        self.grants.iter().find(|g| g.node == node)
    }
}

/// Reusable working memory for [`MacProtocol::arbitrate_into`], owned by
/// the slot engine so steady-state arbitration performs no allocations.
#[derive(Debug, Default)]
pub struct ArbScratch {
    /// Requesting nodes in arbitration order (filled by the protocol).
    pub order: Vec<NodeId>,
}

/// A medium-access protocol for the fibre-ribbon ring.
pub trait MacProtocol: std::fmt::Debug + Send {
    /// Short name for reports ("ccr-edf", "cc-fpr").
    fn name(&self) -> &'static str;

    /// Called as the collection packet passes `node` (ring order from the
    /// current master). `desire` is the node's preferred transmission, if
    /// any; `booked` is the union of link reservations already present in
    /// the packet from upstream nodes; `next_master_hint` is the clock
    /// owner of the coming slot *if the protocol pre-determines it*
    /// (CC-FPR's round-robin rotation — `None` under CCR-EDF, where the
    /// next master emerges from arbitration).
    ///
    /// Contract: with `desire = None` the result must be
    /// [`Request::IDLE`], whatever `booked` and `next_master_hint` are — a
    /// node with nothing to send can only append an idle request (Section
    /// 3). The slot engine relies on this: it does not call
    /// `make_request` for a node whose queues are empty, and appends
    /// `Request::IDLE` (plus any service fields) in its place.
    fn make_request(
        &self,
        node: NodeId,
        desire: Option<Desire>,
        booked: LinkSet,
        next_master_hint: Option<NodeId>,
        topo: RingTopology,
    ) -> Request;

    /// Master-side arbitration over the completed collection packet.
    /// `requests` is indexed by absolute node id.
    fn arbitrate(
        &self,
        requests: &[Request],
        current_master: NodeId,
        topo: RingTopology,
        spatial_reuse: bool,
    ) -> SlotPlan;

    /// Allocation-free arbitration: write the decision into `out`, using
    /// `scratch` for working memory. The slot engine calls this every slot
    /// with reused buffers; protocols should override it to avoid heap
    /// traffic on the hot path. The default delegates to
    /// [`MacProtocol::arbitrate`] (correct, but allocates a fresh plan).
    fn arbitrate_into(
        &self,
        requests: &[Request],
        current_master: NodeId,
        topo: RingTopology,
        spatial_reuse: bool,
        _scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    ) {
        *out = self.arbitrate(requests, current_master, topo, spatial_reuse);
    }

    /// The pre-determined next master, when the protocol rotates the clock
    /// independently of traffic (CC-FPR). `None` means "decided by
    /// arbitration" (CCR-EDF).
    fn fixed_rotation(&self, _current_master: NodeId, _topo: RingTopology) -> Option<NodeId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_plan_keeps_master() {
        let p = SlotPlan::idle(NodeId(3));
        assert_eq!(p.next_master, NodeId(3));
        assert!(p.grants.is_empty());
        assert_eq!(p.hp_node, None);
        assert_eq!(p.grant_for(NodeId(3)), None);
    }

    #[test]
    fn grant_lookup() {
        let g = Grant {
            node: NodeId(2),
            links: LinkSet::single(ccr_phys::LinkId(2)),
            dests: NodeSet::single(NodeId(3)),
        };
        let p = SlotPlan {
            grants: vec![g],
            next_master: NodeId(2),
            hp_node: Some(NodeId(2)),
        };
        assert_eq!(p.grant_for(NodeId(2)), Some(&g));
        assert_eq!(p.grant_for(NodeId(0)), None);
    }
}
