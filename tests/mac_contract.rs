//! The MAC contract the slot engine relies on.
//!
//! * A node with nothing to send (`desire = None`) appends
//!   `Request::IDLE`, whatever the upstream link bookings and whatever
//!   next-master hint it is given. The engine does not call `make_request`
//!   at nodes with empty queues, so every protocol must answer exactly what
//!   the skipped call would have.
//! * Arbitration reads only the requesters of a collection, yet decides
//!   exactly what a scan of every node's entry decides: each MAC is checked
//!   against a dense reference, the full-scan body it had before.

use ccr_edf_suite::edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf_suite::edf::mac::{arbitrate, Grant, MacProtocol, SlotPlan};
use ccr_edf_suite::edf::priority::Priority;
use ccr_edf_suite::edf::wire::{NodeSet, Request};
use ccr_edf_suite::fpr::{CcFprMac, TdmaMac};
use ccr_edf_suite::phys::{LinkSet, NodeId, RingTopology};
use ccr_edf_suite::sim::SeedSequence;

/// Drive `mac` at every node of an `n`-node ring with no desire, under
/// several upstream booking sets and every possible hint.
fn assert_idle_without_desire(mac: &impl MacProtocol, n: u16) {
    let topo = RingTopology::new(n);
    let all_links = topo
        .links()
        .fold(LinkSet::EMPTY, |acc, l| acc.union(LinkSet::single(l)));
    let booked_sets = [
        LinkSet::EMPTY,
        LinkSet::single(topo.egress(NodeId(0))),
        topo.segment_hops(NodeId(1), n / 2),
        all_links,
    ];
    let hints = std::iter::once(None).chain(topo.nodes().map(Some));
    for hint in hints {
        for node in topo.nodes() {
            for &booked in &booked_sets {
                assert_eq!(
                    mac.make_request(node, None, booked, hint, topo),
                    Request::IDLE,
                    "{} on a {n}-node ring: node {node}, booked {booked:?}, hint {hint:?}",
                    mac.name()
                );
            }
        }
    }
}

#[test]
fn every_mac_appends_an_idle_request_without_a_desire() {
    for n in [2u16, 5, 16, 64] {
        assert_idle_without_desire(&CcrEdfMac, n);
        assert_idle_without_desire(&CcrEdfRotatingMac, n);
        assert_idle_without_desire(&CcFprMac, n);
        assert_idle_without_desire(&TdmaMac, n);
    }
}

/// CCR-EDF's dense reference: rank every entry that wants to transmit by
/// (priority desc, `tie` asc), hand the clock to the first and grant
/// greedily around the new clock break.
fn dense_ccr_edf(
    requests: &[Request],
    master: NodeId,
    topo: RingTopology,
    spatial_reuse: bool,
    tie: impl Fn(NodeId) -> u16,
) -> SlotPlan {
    let mut order: Vec<NodeId> = requests
        .iter()
        .enumerate()
        .filter(|(_, r)| r.wants_tx())
        .map(|(i, _)| NodeId(i as u16))
        .collect();
    order.sort_unstable_by(|a, b| {
        requests[b.idx()]
            .priority
            .cmp(&requests[a.idx()].priority)
            .then(tie(*a).cmp(&tie(*b)))
    });
    let Some(&hp) = order.first() else {
        return SlotPlan::idle(master);
    };
    let mut used = LinkSet::single(topo.ingress(hp));
    let mut grants = Vec::new();
    for &node in &order {
        let r = &requests[node.idx()];
        if r.links.is_disjoint(used) {
            grants.push(Grant {
                node,
                links: r.links,
                dests: r.dests,
            });
            used = used.union(r.links);
            if !spatial_reuse {
                break;
            }
        }
    }
    SlotPlan {
        grants,
        next_master: hp,
        hp_node: Some(hp),
    }
}

/// CC-FPR's dense reference: walk every position from the master and
/// grant each booker in ring order; hp-node over every entry.
fn dense_cc_fpr(
    requests: &[Request],
    master: NodeId,
    topo: RingTopology,
    spatial_reuse: bool,
) -> SlotPlan {
    let mut plan = SlotPlan::idle(topo.downstream(master, 1));
    for pos in 0..topo.n_nodes() {
        let node = topo.downstream(master, pos);
        let r = &requests[node.idx()];
        if r.wants_tx() {
            plan.grants.push(Grant {
                node,
                links: r.links,
                dests: r.dests,
            });
            if !spatial_reuse {
                break;
            }
        }
    }
    plan.hp_node = requests
        .iter()
        .enumerate()
        .filter(|(_, r)| r.wants_tx())
        .max_by_key(|(i, r)| (r.priority, std::cmp::Reverse(*i)))
        .map(|(i, _)| NodeId(i as u16));
    plan
}

/// TDMA's dense reference: the owner's entry decides, ownership rotates.
fn dense_tdma(requests: &[Request], master: NodeId, topo: RingTopology) -> SlotPlan {
    let owner = topo.downstream(master, 1);
    let mut plan = SlotPlan::idle(owner);
    let r = &requests[owner.idx()];
    if r.wants_tx() {
        plan.grants.push(Grant {
            node: owner,
            links: r.links,
            dests: r.dests,
        });
        plan.hp_node = Some(owner);
    }
    plan
}

#[test]
fn sparse_arbitration_matches_the_dense_reference() {
    for case in 0..400u64 {
        let mut rng = SeedSequence::new(0x5A125E).stream("sparse-arb", case);
        let n = rng.gen_range(2u16..=64);
        let topo = RingTopology::new(n);
        let master = NodeId(rng.gen_range(0..n));
        let reuse = rng.gen_bool(0.5);
        // From an empty collection to a full one, with narrow priorities
        // so that ties are common, and service-only entries that request
        // nothing.
        let density = [0.0, 0.03, 0.2, 0.6, 1.0][rng.gen_range(0usize..5)];
        let requests: Vec<Request> = topo
            .nodes()
            .map(|src| {
                if !rng.gen_bool(density) {
                    return Request::IDLE;
                }
                let hops = rng.gen_range(1..n);
                let mut r = Request::transmission(
                    Priority::new(rng.gen_range(29u64..=31) as u8),
                    topo.segment_hops(src, hops),
                    NodeSet::single(topo.downstream(src, hops)),
                );
                if rng.gen_bool(0.1) {
                    r = Request {
                        barrier: true,
                        ..Request::IDLE
                    };
                }
                r
            })
            .collect();
        let ctx = format!("case {case}: n {n}, master {master}, reuse {reuse}");
        assert_eq!(
            arbitrate(&CcrEdfMac, &requests, master, topo, reuse),
            dense_ccr_edf(&requests, master, topo, reuse, |node| node.0),
            "ccr-edf, {ctx}"
        );
        assert_eq!(
            arbitrate(&CcrEdfRotatingMac, &requests, master, topo, reuse),
            dense_ccr_edf(&requests, master, topo, reuse, |node| topo
                .hops(master, node)),
            "ccr-edf-rot, {ctx}"
        );
        assert_eq!(
            arbitrate(&CcFprMac, &requests, master, topo, reuse),
            dense_cc_fpr(&requests, master, topo, reuse),
            "cc-fpr, {ctx}"
        );
        assert_eq!(
            arbitrate(&TdmaMac, &requests, master, topo, reuse),
            dense_tdma(&requests, master, topo),
            "tdma, {ctx}"
        );
    }
}
