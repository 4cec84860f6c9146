//! Randomised tests for ring geometry invariants.
//!
//! Formerly `proptest` properties; now driven by the seeded [`DetRng`]
//! from `ccr-sim` so the workspace needs no external dependencies.

use ccr_phys::{LinkSet, NodeId, RingTopology};
use ccr_sim::rng::DetRng;
use ccr_sim::SeedSequence;

const CASES: u64 = 256;

fn ring_and_nodes(rng: &mut DetRng) -> (u16, u16, u16) {
    let n = rng.gen_range(2u16..=64);
    (n, rng.gen_range(0..n), rng.gen_range(0..n))
}

/// hops(a,b) + hops(b,a) is 0 (same node) or N.
#[test]
fn hops_antisymmetric() {
    let mut rng = SeedSequence::new(0x9407).stream("hops", 0);
    for _ in 0..CASES {
        let (n, a, b) = ring_and_nodes(&mut rng);
        let t = RingTopology::new(n);
        let ab = t.hops(NodeId(a), NodeId(b));
        let ba = t.hops(NodeId(b), NodeId(a));
        if a == b {
            assert_eq!(ab + ba, 0);
        } else {
            assert_eq!(ab + ba, n);
        }
    }
}

/// downstream/upstream are inverses.
#[test]
fn down_up_inverse() {
    let mut rng = SeedSequence::new(0x9407).stream("updown", 0);
    for _ in 0..CASES {
        let (n, a, k) = ring_and_nodes(&mut rng);
        let t = RingTopology::new(n);
        let down = t.downstream(NodeId(a), k);
        assert_eq!(t.upstream(down, k), NodeId(a));
    }
}

/// A segment of h hops has exactly h links, starts at the egress link
/// and never contains the sender's ingress link.
#[test]
fn segment_shape() {
    let mut rng = SeedSequence::new(0x9407).stream("seg", 0);
    for _ in 0..CASES {
        let (n, a, _) = ring_and_nodes(&mut rng);
        let h = rng.gen_range(0u16..64) % n;
        let t = RingTopology::new(n);
        let seg = t.segment_hops(NodeId(a), h);
        assert_eq!(seg.len(), h as u32);
        if h > 0 {
            assert!(seg.contains(t.egress(NodeId(a))));
        }
        assert!(!seg.contains(t.ingress(NodeId(a))) || h == n, "h={h} n={n}");
    }
}

/// Two segments are disjoint iff their link sets do not intersect —
/// and the bitmask operations agree with a naive set model.
#[test]
fn linkset_matches_naive_model() {
    use std::collections::BTreeSet;
    let mut rng = SeedSequence::new(0x9407).stream("linkset", 0);
    for _ in 0..CASES {
        let n = rng.gen_range(2u16..=64);
        let xs: Vec<u16> = (0..rng.gen_range(0usize..20))
            .map(|_| rng.gen_range(0u16..64) % n)
            .collect();
        let ys: Vec<u16> = (0..rng.gen_range(0usize..20))
            .map(|_| rng.gen_range(0u16..64) % n)
            .collect();
        let a: LinkSet = xs.iter().map(|&x| ccr_phys::LinkId(x)).collect();
        let b: LinkSet = ys.iter().map(|&y| ccr_phys::LinkId(y)).collect();
        let sa: BTreeSet<u16> = xs.iter().copied().collect();
        let sb: BTreeSet<u16> = ys.iter().copied().collect();
        assert_eq!(a.len() as usize, sa.len());
        assert_eq!(a.is_disjoint(b), sa.is_disjoint(&sb));
        assert_eq!(a.union(b).len() as usize, sa.union(&sb).count());
        assert_eq!(
            a.intersection(b).len() as usize,
            sa.intersection(&sb).count()
        );
        let listed: Vec<u16> = a.iter().map(|l| l.0).collect();
        let expect: Vec<u16> = sa.iter().copied().collect();
        assert_eq!(listed, expect);
    }
}

/// Multicast segments cover the segment of every member destination.
#[test]
fn multicast_covers_members() {
    let mut rng = SeedSequence::new(0x9407).stream("mcast", 0);
    for _ in 0..CASES {
        let n = rng.gen_range(3u16..=64);
        let src = NodeId(rng.gen_range(0u16..64) % n);
        let dests: Vec<NodeId> = (0..rng.gen_range(1usize..8))
            .map(|_| NodeId(rng.gen_range(0u16..64) % n))
            .filter(|&d| d != src)
            .collect();
        if dests.is_empty() {
            continue;
        }
        let t = RingTopology::new(n);
        let seg = t.multicast_segment(src, dests.clone());
        for d in dests {
            let sub = t.segment(src, d);
            assert_eq!(sub.intersection(seg), sub, "member segment not covered");
        }
    }
}
