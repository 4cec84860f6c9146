//! The MAC contract the slot engine relies on: a node with nothing to send
//! (`desire = None`) appends `Request::IDLE`, whatever the upstream link
//! bookings and whatever next-master hint it is given. The engine does not
//! call `make_request` at nodes with empty queues, so every protocol must
//! answer exactly what the skipped call would have.

use ccr_edf_suite::edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf_suite::edf::mac::MacProtocol;
use ccr_edf_suite::edf::wire::Request;
use ccr_edf_suite::fpr::{CcFprMac, TdmaMac};
use ccr_edf_suite::phys::{LinkSet, NodeId, RingTopology};

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
