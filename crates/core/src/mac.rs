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
//! * what the master decides ([`MacProtocol::arbitrate_into`] — CC-FPR
//!   echoes the bookings and rotates the master round-robin, CCR-EDF sorts
//!   requests by priority, grants with spatial reuse, and hands the clock
//!   to the highest-priority node).
//!
//! The master reads a [`Collection`]: one entry per node, idle except at
//! the nodes that appended something, and the sets of those nodes, so
//! arbitration costs what the requesters cost, not what the ring does.

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
    #[cfg(test)]
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

/// The requests of one collection phase as the master holds them: an
/// entry per node by absolute index, [`Request::IDLE`] except at the nodes
/// that appended something else (Section 3: an empty node "writes zeros in
/// the other fields"). The slot engine resets and reads only those nodes,
/// so a slot pays for its appenders, not for the ring.
///
/// Collect a dense array (indexed by node) into one to arbitrate it
/// directly: `requests.iter().copied().collect::<Collection>()`.
#[derive(Debug)]
pub struct Collection {
    entries: Vec<Request>,
    /// Nodes whose entry is not idle.
    appended: NodeSet,
    /// Nodes whose entry asks for a transmission (a subset of `appended`).
    requesters: NodeSet,
}

impl Collection {
    /// An all-idle collection for an `n`-node ring.
    pub fn new(n: u16) -> Self {
        Collection {
            entries: vec![Request::IDLE; n as usize],
            appended: NodeSet::EMPTY,
            requesters: NodeSet::EMPTY,
        }
    }

    /// Make every entry idle again, touching only the appended ones.
    pub fn reset(&mut self) {
        for node in self.appended.iter() {
            self.entries[node.idx()] = Request::IDLE;
        }
        self.appended = NodeSet::EMPTY;
        self.requesters = NodeSet::EMPTY;
    }

    /// Record `node`'s entry. An idle entry needs no record.
    pub fn append(&mut self, node: NodeId, req: Request) {
        if req == Request::IDLE {
            return;
        }
        self.entries[node.idx()] = req;
        self.appended.insert(node);
        if req.wants_tx() {
            self.requesters.insert(node);
        }
    }

    /// Drop `node`'s entry, as if it had appended an idle one (a
    /// collection entry that failed its check at the master).
    pub fn drop_entry(&mut self, node: NodeId) {
        self.entries[node.idx()] = Request::IDLE;
        self.appended.remove(node);
        self.requesters.remove(node);
    }

    /// Every node's entry, by absolute node index.
    pub fn entries(&self) -> &[Request] {
        &self.entries
    }

    /// The nodes whose entry is not idle.
    pub fn appended(&self) -> NodeSet {
        self.appended
    }

    /// The nodes whose entry asks for a transmission.
    pub fn requesters(&self) -> NodeSet {
        self.requesters
    }
}

impl FromIterator<Request> for Collection {
    /// Collect a dense request array, entry `i` being node `i`'s.
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        let mut c = Collection::new(0);
        for (i, req) in iter.into_iter().enumerate() {
            c.entries.push(Request::IDLE);
            c.append(NodeId(i as u16), req);
        }
        c
    }
}

/// Arbitrate a dense request array (entry `i` is node `i`'s) into a fresh
/// plan: the one-shot, allocating form of [`MacProtocol::arbitrate_into`],
/// for tests. The slot engine keeps its buffers instead.
pub fn arbitrate(
    mac: &impl MacProtocol,
    requests: &[Request],
    current_master: NodeId,
    topo: RingTopology,
    spatial_reuse: bool,
) -> SlotPlan {
    let mut out = SlotPlan::idle(current_master);
    mac.arbitrate_into(
        &requests.iter().copied().collect(),
        current_master,
        topo,
        spatial_reuse,
        &mut ArbScratch::default(),
        &mut out,
    );
    out
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

    /// Master-side arbitration over the completed collection: write the
    /// decision for the coming slot into `out`, using `scratch` for working
    /// memory. The slot engine calls this every slot with reused buffers,
    /// so it must not allocate once they are warm, and it should cost what
    /// `requests.requesters()` costs rather than what the ring does.
    fn arbitrate_into(
        &self,
        requests: &Collection,
        current_master: NodeId,
        topo: RingTopology,
        spatial_reuse: bool,
        scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    );

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
    fn collection_records_only_non_idle_entries() {
        let t = RingTopology::new(6);
        let tx = Request::transmission(
            crate::priority::Priority::new(20),
            t.segment(NodeId(1), NodeId(3)),
            NodeSet::single(NodeId(3)),
        );
        let barrier_only = Request {
            barrier: true,
            ..Request::IDLE
        };
        let mut c = Collection::new(6);
        c.append(NodeId(0), Request::IDLE);
        c.append(NodeId(1), tx);
        c.append(NodeId(4), barrier_only);
        assert_eq!(c.appended(), [NodeId(1), NodeId(4)].into_iter().collect());
        assert_eq!(c.requesters(), NodeSet::single(NodeId(1)));
        assert_eq!(c.entries()[4], barrier_only);
        c.drop_entry(NodeId(1));
        assert_eq!(c.requesters(), NodeSet::EMPTY);
        assert_eq!(c.entries()[1], Request::IDLE);
        c.reset();
        assert_eq!(c.appended(), NodeSet::EMPTY);
        assert!(c.entries().iter().all(|r| *r == Request::IDLE));
        let dense: Collection = [Request::IDLE, tx, barrier_only].into_iter().collect();
        assert_eq!(dense.entries().len(), 3);
        assert_eq!(
            dense.appended(),
            [NodeId(1), NodeId(2)].into_iter().collect()
        );
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
