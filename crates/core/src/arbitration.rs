//! CCR-EDF master-side arbitration (Section 3) — the paper's contribution.
//!
//! The master sorts the N requests by priority (ties resolved by node
//! index), hands the clock to the highest-priority node, and grants as many
//! non-overlapping transmissions as possible (spatial reuse). The crucial
//! invariant: **the next master is the highest-priority requester**, so its
//! transmission can never be cut by the clock break — the break sits on the
//! link entering the master, which an ≤ N−1 hop transmission from the
//! master never uses. This is what removes the priority inversion of
//! CC-FPR (Section 1).

use crate::mac::{ArbScratch, Desire, Grant, MacProtocol, SlotPlan};
use crate::wire::Request;
use ccr_phys::{LinkSet, NodeId, RingTopology};

/// The CCR-EDF medium access protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcrEdfMac;

impl CcrEdfMac {
    /// Sort requesting nodes by (priority desc, node index asc) — Section 3:
    /// "the requests are processed … sorted … In the event priority ties
    /// the index of the node resolves the tie." Fills `order` in place,
    /// reusing its capacity. `sort_unstable_by` keeps the
    /// sort itself off the heap (the stable sort allocates a merge buffer).
    pub fn sorted_requesters_into(requests: &[Request], order: &mut Vec<NodeId>) {
        order.clear();
        order.extend(
            requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.wants_tx())
                .map(|(i, _)| NodeId(i as u16)),
        );
        order.sort_unstable_by(|a, b| {
            requests[b.idx()]
                .priority
                .cmp(&requests[a.idx()].priority)
                .then(a.0.cmp(&b.0))
        });
    }
}

/// Shared grant routine: given requesters in arbitration order, hand the
/// clock to the first and grant greedily under the clock-break and
/// disjointness constraints.
fn grant_in_order_into(
    order: &[NodeId],
    requests: &[Request],
    current_master: NodeId,
    topo: RingTopology,
    spatial_reuse: bool,
    out: &mut SlotPlan,
) {
    let Some(&hp) = order.first() else {
        // Nobody has anything to send: the master keeps the clock.
        out.reset_idle(current_master);
        return;
    };

    // Clock break of the coming slot: the link entering the new master
    // carries no clock, so no granted transmission may use it.
    let break_link = topo.ingress(hp);
    let mut used = LinkSet::single(break_link);
    out.grants.clear();

    for &n in order {
        let r = &requests[n.idx()];
        debug_assert!(
            !r.links.is_empty(),
            "transmission request without links from {n}"
        );
        if r.links.is_disjoint(used) {
            out.grants.push(Grant {
                node: n,
                links: r.links,
                dests: r.dests,
            });
            used = used.union(r.links);
            if !spatial_reuse {
                break; // analysis mode: one message per slot (Section 5)
            }
        }
    }

    debug_assert_eq!(
        out.grants.first().map(|g| g.node),
        Some(hp),
        "highest-priority request must always be granted"
    );

    out.next_master = hp;
    out.hp_node = Some(hp);
}

impl MacProtocol for CcrEdfMac {
    fn name(&self) -> &'static str {
        "ccr-edf"
    }

    /// CCR-EDF nodes simply state their desire; no node-local booking.
    fn make_request(
        &self,
        _node: NodeId,
        desire: Option<Desire>,
        _booked: LinkSet,
        _next_master_hint: Option<NodeId>,
        _topo: RingTopology,
    ) -> Request {
        match desire {
            Some(d) => Request::transmission(d.priority, d.links, d.dests),
            None => Request::IDLE,
        }
    }

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
        scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    ) {
        Self::sorted_requesters_into(requests, &mut scratch.order);
        grant_in_order_into(
            &scratch.order,
            requests,
            current_master,
            topo,
            spatial_reuse,
            out,
        );
    }
}

/// Ablation variant of CCR-EDF (experiment E13): priority ties are broken
/// by downstream distance from the *current master* instead of by absolute
/// node index. The paper's fixed index tie-break ("the index of the node
/// resolves the tie") systematically favours low-numbered nodes whenever
/// equal-priority requests collide; rotating the tie-break with the master
/// restores long-run fairness at zero wire cost (the master already knows
/// its own position).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcrEdfRotatingMac;

impl CcrEdfRotatingMac {
    /// Sort requesting nodes by (priority desc, downstream distance from
    /// the current master asc) into `order`, reusing its capacity.
    pub fn sorted_requesters_into(
        requests: &[Request],
        master: NodeId,
        topo: RingTopology,
        order: &mut Vec<NodeId>,
    ) {
        order.clear();
        order.extend(
            requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.wants_tx())
                .map(|(i, _)| NodeId(i as u16)),
        );
        order.sort_unstable_by(|a, b| {
            requests[b.idx()]
                .priority
                .cmp(&requests[a.idx()].priority)
                .then(topo.hops(master, *a).cmp(&topo.hops(master, *b)))
        });
    }
}

impl MacProtocol for CcrEdfRotatingMac {
    fn name(&self) -> &'static str {
        "ccr-edf-rot"
    }

    fn make_request(
        &self,
        node: NodeId,
        desire: Option<Desire>,
        booked: LinkSet,
        hint: Option<NodeId>,
        topo: RingTopology,
    ) -> Request {
        CcrEdfMac.make_request(node, desire, booked, hint, topo)
    }

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
        scratch: &mut ArbScratch,
        out: &mut SlotPlan,
    ) {
        Self::sorted_requesters_into(requests, current_master, topo, &mut scratch.order);
        grant_in_order_into(
            &scratch.order,
            requests,
            current_master,
            topo,
            spatial_reuse,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;
    use crate::wire::NodeSet;

    fn topo(n: u16) -> RingTopology {
        RingTopology::new(n)
    }

    /// Request from `src` to `dst` with priority `p` on ring `t`.
    fn req(t: RingTopology, src: u16, dst: u16, p: u8) -> Request {
        Request::transmission(
            Priority::new(p),
            t.segment(NodeId(src), NodeId(dst)),
            NodeSet::single(NodeId(dst)),
        )
    }

    fn idle_all(n: u16) -> Vec<Request> {
        vec![Request::IDLE; n as usize]
    }

    #[test]
    fn highest_priority_becomes_master_and_is_granted() {
        let t = topo(5);
        let mut rs = idle_all(5);
        rs[1] = req(t, 1, 3, 20);
        rs[4] = req(t, 4, 2, 31); // most urgent
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.next_master, NodeId(4));
        assert_eq!(plan.hp_node, Some(NodeId(4)));
        assert_eq!(plan.grants[0].node, NodeId(4));
    }

    #[test]
    fn hp_transmission_never_crosses_its_own_break() {
        // The key property of the paper: for every possible hp request,
        // its segment excludes the link entering the hp node.
        let t = topo(8);
        for src in 0..8u16 {
            for hops in 1..8u16 {
                let dst = (src + hops) % 8;
                let mut rs = idle_all(8);
                rs[src as usize] = req(t, src, dst, 31);
                let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
                assert_eq!(plan.next_master, NodeId(src));
                let g = plan.grant_for(NodeId(src)).expect("hp always granted");
                assert!(!g.links.contains(t.ingress(NodeId(src))));
            }
        }
    }

    #[test]
    fn tie_broken_by_lower_node_index() {
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[4] = req(t, 4, 5, 25);
        rs[2] = req(t, 2, 3, 25);
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.next_master, NodeId(2));
    }

    #[test]
    fn spatial_reuse_grants_disjoint_segments() {
        // Figure 2 translated to 0-based: A: 0→2 (links 0,1), B: 3→{4,0}
        // (links 3,4). With hp = A, break link = ingress(0) = link 5 (wait,
        // N=5 → ingress(0) = link 4)... use N=6 to keep the break clear of
        // B's segment: break = ingress(0) = link 5.
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[0] = req(t, 0, 2, 31);
        rs[3] = Request::transmission(
            Priority::new(10),
            t.multicast_segment(NodeId(3), [NodeId(4), NodeId(5)]),
            [NodeId(4), NodeId(5)].into_iter().collect(),
        );
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(1), t, true);
        assert_eq!(plan.grants.len(), 2);
        assert_eq!(plan.grants[0].node, NodeId(0));
        assert_eq!(plan.grants[1].node, NodeId(3));
        // granted segments pairwise disjoint
        assert!(plan.grants[0].links.is_disjoint(plan.grants[1].links));
    }

    #[test]
    fn overlapping_lower_priority_denied() {
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[0] = req(t, 0, 3, 31); // links 0,1,2
        rs[1] = req(t, 1, 2, 20); // link 1 — overlaps
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.grants.len(), 1);
        assert!(plan.grant_for(NodeId(1)).is_none());
    }

    #[test]
    fn transmission_crossing_new_break_denied() {
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[2] = req(t, 2, 4, 31); // hp → master 2; break = link 1 (ingress(2))
        rs[0] = req(t, 0, 2, 30); // links 0,1 — crosses the break
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(5), t, true);
        assert_eq!(plan.next_master, NodeId(2));
        assert!(plan.grant_for(NodeId(0)).is_none(), "must not cross break");
        // but a request short of the break is fine
        rs[0] = req(t, 0, 1, 30); // link 0 only
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(5), t, true);
        assert!(plan.grant_for(NodeId(0)).is_some());
    }

    #[test]
    fn no_reuse_grants_exactly_one() {
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[0] = req(t, 0, 1, 31);
        rs[3] = req(t, 3, 4, 30); // disjoint, would be granted with reuse
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, false);
        assert_eq!(plan.grants.len(), 1);
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.grants.len(), 2);
    }

    #[test]
    fn all_idle_keeps_master() {
        let t = topo(4);
        let plan = CcrEdfMac.arbitrate(&idle_all(4), NodeId(2), t, true);
        assert_eq!(plan.next_master, NodeId(2));
        assert!(plan.grants.is_empty());
        assert_eq!(plan.hp_node, None);
    }

    #[test]
    fn grants_sorted_by_priority() {
        let t = topo(8);
        let mut rs = idle_all(8);
        rs[0] = req(t, 0, 1, 18);
        rs[2] = req(t, 2, 3, 25);
        rs[4] = req(t, 4, 5, 31);
        rs[6] = req(t, 6, 7, 20);
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        let order: Vec<u16> = plan.grants.iter().map(|g| g.node.0).collect();
        assert_eq!(order, vec![4, 2, 6, 0]);
    }

    #[test]
    fn sorted_requesters_ignores_idle() {
        let t = topo(4);
        let mut rs = idle_all(4);
        rs[1] = req(t, 1, 2, 5);
        let mut order = Vec::new();
        CcrEdfMac::sorted_requesters_into(&rs, &mut order);
        assert_eq!(order, vec![NodeId(1)]);
        CcrEdfMac::sorted_requesters_into(&idle_all(4), &mut order);
        assert!(order.is_empty());
    }

    #[test]
    fn make_request_passes_desire_through() {
        let t = topo(5);
        let d = Desire {
            priority: Priority::new(19),
            links: t.segment(NodeId(1), NodeId(3)),
            dests: NodeSet::single(NodeId(3)),
        };
        let r = CcrEdfMac.make_request(NodeId(1), Some(d), LinkSet::EMPTY, None, t);
        assert_eq!(r.priority, Priority::new(19));
        assert_eq!(r.links, d.links);
        let idle = CcrEdfMac.make_request(NodeId(1), None, LinkSet::EMPTY, None, t);
        assert_eq!(idle, Request::IDLE);
    }

    #[test]
    fn rotating_tie_break_follows_master() {
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[1] = req(t, 1, 2, 25);
        rs[4] = req(t, 4, 5, 25);
        // master 0: node 1 is closer downstream → wins the tie
        let plan = CcrEdfRotatingMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.next_master, NodeId(1));
        // master 3: node 4 is closer downstream → wins the tie
        let plan = CcrEdfRotatingMac.arbitrate(&rs, NodeId(3), t, true);
        assert_eq!(plan.next_master, NodeId(4));
        // with distinct priorities the rotation is irrelevant
        rs[1] = req(t, 1, 2, 31);
        let plan = CcrEdfRotatingMac.arbitrate(&rs, NodeId(3), t, true);
        assert_eq!(plan.next_master, NodeId(1));
    }

    #[test]
    fn rotating_variant_keeps_core_invariants() {
        let t = topo(8);
        let mut rs = idle_all(8);
        rs[2] = req(t, 2, 6, 28);
        rs[3] = req(t, 3, 4, 28);
        rs[7] = req(t, 7, 0, 31);
        for master in 0..8u16 {
            let plan = CcrEdfRotatingMac.arbitrate(&rs, NodeId(master), t, true);
            // hp by priority is always node 7 regardless of rotation
            assert_eq!(plan.next_master, NodeId(7));
            let mut used = LinkSet::single(t.ingress(plan.next_master));
            for g in &plan.grants {
                assert!(g.links.is_disjoint(used), "overlap at master {master}");
                used = used.union(g.links);
            }
        }
    }

    #[test]
    fn broadcast_excludes_everyone_else() {
        // A broadcast (N-1 hops) from the hp node occupies every link
        // except the break — no spatial reuse possible alongside it.
        let t = topo(6);
        let mut rs = idle_all(6);
        rs[2] = Request::transmission(
            Priority::new(31),
            t.segment_hops(NodeId(2), 5),
            t.nodes().filter(|&d| d != NodeId(2)).collect(),
        );
        rs[0] = req(t, 0, 1, 30);
        let plan = CcrEdfMac.arbitrate(&rs, NodeId(0), t, true);
        assert_eq!(plan.grants.len(), 1);
        assert_eq!(plan.grants[0].node, NodeId(2));
    }
}
