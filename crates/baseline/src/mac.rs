//! The CC-FPR medium access protocol.

use ccr_edf::mac::{ArbScratch, Desire, Grant, MacProtocol, SlotPlan};
use ccr_edf::wire::Request;
use ccr_phys::{LinkSet, NodeId, RingTopology};

/// CC-FPR: round-robin clocking, node-local greedy booking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcFprMac;

impl MacProtocol for CcFprMac {
    fn name(&self) -> &'static str {
        "cc-fpr"
    }

    /// A CC-FPR node *books* its links in the circulating packet: it may
    /// only claim links that no upstream node has claimed, and its path
    /// must not cross the clock break of the coming slot (the link entering
    /// the round-robin next master). Otherwise it stays silent this slot —
    /// even for the most urgent message in the system. This is the
    /// priority-inversion mechanism CCR-EDF removes.
    fn make_request(
        &self,
        _node: NodeId,
        desire: Option<Desire>,
        booked: LinkSet,
        next_master_hint: Option<NodeId>,
        topo: RingTopology,
    ) -> Request {
        let Some(d) = desire else {
            return Request::IDLE;
        };
        let next_master =
            next_master_hint.expect("engine always passes the round-robin hint to CC-FPR");
        let break_link = topo.ingress(next_master);
        if !d.links.is_disjoint(booked) || d.links.contains(break_link) {
            return Request::IDLE; // cannot book: blocked or crosses break
        }
        Request::transmission(d.priority, d.links, d.dests)
    }

    /// The "master" in CC-FPR merely echoes the bookings: every node that
    /// managed to book transmits. The grant order is ring order from the
    /// master (the booking order). With spatial reuse disabled, only the
    /// first booker in ring order transmits.
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

    fn arbitrate_into(
        &self,
        requests: &[Request],
        current_master: NodeId,
        topo: RingTopology,
        spatial_reuse: bool,
        _scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    ) {
        out.grants.clear();
        out.next_master = topo.downstream(current_master, 1);
        for pos in 0..topo.n_nodes() {
            let nid = topo.downstream(current_master, pos);
            let r = &requests[nid.idx()];
            if r.wants_tx() {
                out.grants.push(Grant {
                    node: nid,
                    links: r.links,
                    dests: r.dests,
                });
                if !spatial_reuse {
                    break;
                }
            }
        }
        // hp-node is reported for observability (highest priority seen),
        // though CC-FPR does not act on it.
        out.hp_node = requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.wants_tx())
            .max_by_key(|(i, r)| (r.priority, std::cmp::Reverse(*i)))
            .map(|(i, _)| NodeId(i as u16));
    }

    /// CC-FPR rotates the master every slot, independent of traffic.
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

    fn desire(t: RingTopology, src: u16, dst: u16, p: u8) -> Desire {
        Desire {
            priority: Priority::new(p),
            links: t.segment(NodeId(src), NodeId(dst)),
            dests: NodeSet::single(NodeId(dst)),
        }
    }

    #[test]
    fn booking_respects_upstream_claims() {
        let t = topo(6);
        let d = desire(t, 1, 3, 31); // links 1,2
        let hint = Some(NodeId(5));
        // free links → books
        let r = CcFprMac.make_request(NodeId(1), Some(d), LinkSet::EMPTY, hint, t);
        assert!(r.wants_tx());
        // link 2 already booked upstream → silent
        let booked = t.segment(NodeId(2), NodeId(3));
        let r = CcFprMac.make_request(NodeId(1), Some(d), booked, hint, t);
        assert_eq!(r, Request::IDLE);
    }

    #[test]
    fn priority_inversion_urgent_message_blocked_by_break() {
        // The defining flaw: master is node 0, next master (round robin) is
        // node 1, break = ingress(1) = link 0. The most urgent message in
        // the system, 0 → 2 (links 0,1), crosses the break → cannot book.
        let t = topo(4);
        let d = desire(t, 0, 2, 31);
        let r = CcFprMac.make_request(NodeId(0), Some(d), LinkSet::EMPTY, Some(NodeId(1)), t);
        assert_eq!(r, Request::IDLE, "urgent message silenced by clock break");
    }

    #[test]
    fn rotation_is_round_robin() {
        let t = topo(5);
        assert_eq!(CcFprMac.fixed_rotation(NodeId(3), t), Some(NodeId(4)));
        assert_eq!(CcFprMac.fixed_rotation(NodeId(4), t), Some(NodeId(0)));
        // and arbitrate moves the master even with no traffic
        let plan = CcFprMac.arbitrate(&[Request::IDLE; 5], NodeId(2), t, true);
        assert_eq!(plan.next_master, NodeId(3));
        assert!(plan.grants.is_empty());
        assert_eq!(plan.hp_node, None);
    }

    #[test]
    fn grants_follow_ring_order_not_priority() {
        let t = topo(6);
        let mut rs = vec![Request::IDLE; 6];
        // node 1 (closer to master 0) books first despite lower priority
        rs[1] = Request::transmission(
            Priority::new(18),
            t.segment(NodeId(1), NodeId(3)),
            NodeSet::single(NodeId(3)),
        );
        rs[4] = Request::transmission(
            Priority::new(31),
            t.segment(NodeId(4), NodeId(5)),
            NodeSet::single(NodeId(5)),
        );
        let plan = CcFprMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.grants[0].node, NodeId(1), "ring order wins");
        assert_eq!(plan.grants.len(), 2);
        assert_eq!(plan.hp_node, Some(NodeId(4)), "hp reported for telemetry");
    }

    #[test]
    fn no_reuse_grants_first_booker_only() {
        let t = topo(6);
        let mut rs = vec![Request::IDLE; 6];
        rs[2] = Request::transmission(
            Priority::new(20),
            t.segment(NodeId(2), NodeId(3)),
            NodeSet::single(NodeId(3)),
        );
        rs[4] = Request::transmission(
            Priority::new(30),
            t.segment(NodeId(4), NodeId(5)),
            NodeSet::single(NodeId(5)),
        );
        let plan = CcFprMac.arbitrate(&rs, NodeId(0), t, false);
        assert_eq!(plan.grants.len(), 1);
        assert_eq!(plan.grants[0].node, NodeId(2));
    }

    #[test]
    fn hp_tie_break_prefers_lower_index() {
        let t = topo(4);
        let mut rs = vec![Request::IDLE; 4];
        for i in [1u16, 3] {
            rs[i as usize] = Request::transmission(
                Priority::new(25),
                t.segment(NodeId(i), NodeId((i + 1) % 4)),
                NodeSet::single(NodeId((i + 1) % 4)),
            );
        }
        let plan = CcFprMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.hp_node, Some(NodeId(1)));
    }
}
