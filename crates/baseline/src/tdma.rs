//! Static TDMA baseline.
//!
//! The simplest member of the fibre-ribbon pipeline ring family (ref \[9]
//! of the paper describes TDMA-style access among its two networks): slot
//! ownership rotates round-robin and the owner — who is also the slot
//! master, so its transmission never crosses the clock break — may send one
//! message anywhere on the ring. No arbitration, no priorities, no spatial
//! reuse beyond the owner's own segment.
//!
//! Properties: perfectly fair (every node gets exactly 1/N of the slots),
//! constant 1-hop hand-over gap, zero control complexity — and complete
//! priority blindness: an urgent message waits up to N−1 slots for its
//! owner's turn regardless of deadline. It brackets the design space from
//! the opposite side of CCR-EDF: CC-FPR is unfair *and* priority-blind
//! under contention, TDMA is fair but priority-blind, CCR-EDF is
//! deadline-driven.

use ccr_edf::mac::{ArbScratch, Desire, Grant, MacProtocol, SlotPlan};
use ccr_edf::wire::Request;
use ccr_phys::{LinkSet, NodeId, RingTopology};

/// Static TDMA: slot k+1 belongs to the node after slot k's owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TdmaMac;

impl MacProtocol for TdmaMac {
    fn name(&self) -> &'static str {
        "tdma"
    }

    /// Only the owner of the coming slot requests; everyone else is silent
    /// (their queue state is irrelevant this slot).
    fn make_request(
        &self,
        node: NodeId,
        desire: Option<Desire>,
        _booked: LinkSet,
        next_master_hint: Option<NodeId>,
        _topo: RingTopology,
    ) -> Request {
        let owner = next_master_hint.expect("engine passes the rotation hint to TDMA");
        match desire {
            Some(d) if node == owner => Request::transmission(d.priority, d.links, d.dests),
            _ => Request::IDLE,
        }
    }

    /// Grant the owner's request (if any); ownership rotates regardless.
    fn arbitrate(
        &self,
        requests: &[Request],
        current_master: NodeId,
        topo: RingTopology,
        spatial_reuse: bool,
    ) -> SlotPlan {
        let mut out = SlotPlan::idle(current_master);
        let mut scratch = ArbScratch::default();
        self.arbitrate_into(
            requests,
            current_master,
            topo,
            spatial_reuse,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// Allocation-free arbitration: at most one grant, written into the
    /// engine's reused plan.
    fn arbitrate_into(
        &self,
        requests: &[Request],
        current_master: NodeId,
        topo: RingTopology,
        _spatial_reuse: bool,
        _scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    ) {
        let owner = topo.downstream(current_master, 1);
        let r = &requests[owner.idx()];
        out.reset_idle(owner);
        if r.wants_tx() {
            out.grants.push(Grant {
                node: owner,
                links: r.links,
                dests: r.dests,
            });
            out.hp_node = Some(owner);
        }
    }

    fn fixed_rotation(&self, current_master: NodeId, topo: RingTopology) -> Option<NodeId> {
        Some(topo.downstream(current_master, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_edf::priority::Priority;
    use ccr_edf::wire::NodeSet;

    fn topo(n: u16) -> RingTopology {
        RingTopology::new(n)
    }

    fn desire(t: RingTopology, src: u16, dst: u16) -> Desire {
        Desire {
            priority: Priority::new(31),
            links: t.segment(NodeId(src), NodeId(dst)),
            dests: NodeSet::single(NodeId(dst)),
        }
    }

    #[test]
    fn only_the_owner_requests() {
        let t = topo(5);
        let d = desire(t, 2, 4);
        // owner of the coming slot is node 2
        let r = TdmaMac.make_request(NodeId(2), Some(d), LinkSet::EMPTY, Some(NodeId(2)), t);
        assert!(r.wants_tx());
        // node 3 stays silent even with the most urgent message
        let d3 = desire(t, 3, 4);
        let r = TdmaMac.make_request(NodeId(3), Some(d3), LinkSet::EMPTY, Some(NodeId(2)), t);
        assert_eq!(r, Request::IDLE);
    }

    #[test]
    fn ownership_rotates_and_owner_is_granted() {
        let t = topo(4);
        let mut rs = vec![Request::IDLE; 4];
        rs[1] = Request::transmission(
            Priority::new(20),
            t.segment(NodeId(1), NodeId(3)),
            NodeSet::single(NodeId(3)),
        );
        let plan = TdmaMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.next_master, NodeId(1));
        assert_eq!(plan.grants.len(), 1);
        assert_eq!(plan.grants[0].node, NodeId(1));
        // empty slot still rotates
        let plan = TdmaMac.arbitrate(&[Request::IDLE; 4], NodeId(1), t, true);
        assert_eq!(plan.next_master, NodeId(2));
        assert!(plan.grants.is_empty());
    }

    #[test]
    fn end_to_end_round_robin_service() {
        use ccr_edf::config::NetworkConfig;
        use ccr_edf::message::{Destination, Message};
        use ccr_edf::network::RingNetwork;
        use ccr_edf::SimTime;

        let cfg = NetworkConfig::builder(4)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        let mut net = RingNetwork::with_mac(cfg, TdmaMac);
        for i in 0..4u16 {
            net.submit_message(
                SimTime::ZERO,
                Message::non_real_time(
                    NodeId(i),
                    Destination::Unicast(NodeId((i + 1) % 4)),
                    1,
                    SimTime::ZERO,
                ),
            );
        }
        net.run_slots(12);
        let m = net.metrics();
        assert_eq!(m.delivered.get(), 4, "every node served within one cycle");
        // gap is constant one hop
        assert_eq!(m.handover_hops.min(), Some(1));
        assert_eq!(m.handover_hops.max(), Some(1));
    }

    #[test]
    fn urgent_message_waits_for_its_turn() {
        use ccr_edf::config::NetworkConfig;
        use ccr_edf::message::{Destination, Message};
        use ccr_edf::network::RingNetwork;
        use ccr_edf::SimTime;

        let n = 8u16;
        let cfg = NetworkConfig::builder(n)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        let mut net = RingNetwork::with_mac(cfg, TdmaMac);
        // message at node 5; ownership starts rotating from node 0's
        // successor, so ~5 dead slots pass first
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(5), Destination::Unicast(NodeId(6)), 1, SimTime::ZERO),
        );
        let mut delivered_at = None;
        for s in 0..20 {
            if !net.step_slot().deliveries.is_empty() {
                delivered_at = Some(s);
                break;
            }
        }
        let s = delivered_at.expect("delivered");
        assert!(
            s >= 4,
            "TDMA made the urgent message wait its turn: slot {s}"
        );
    }
}
