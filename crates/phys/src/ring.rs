//! Ring topology: node/link identifiers, hop arithmetic and link sets.
//!
//! The ring is unidirectional: node `i` transmits downstream to node
//! `(i+1) mod N` over link `i` (Figure 2 of the paper). A transmission from
//! `s` to destination set `D` occupies the contiguous segment of links from
//! `s` up to the furthest downstream destination — this is what makes
//! spatial reuse (several simultaneous transmissions in non-overlapping
//! segments) possible.

use std::fmt;

/// Maximum number of nodes supported by the [`LinkSet`] bitmask.
pub const MAX_NODES: u16 = 64;

/// Identifies a node on the ring (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

/// Identifies a unidirectional link: link `i` runs node `i` → node `i+1 mod N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl NodeId {
    /// Index as usize (for array indexing).
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index as usize (for array indexing).
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A set of ring links, stored as a bitmask (hence `N ≤ 64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkSet(pub u64);

impl LinkSet {
    /// The empty set.
    pub const EMPTY: LinkSet = LinkSet(0);

    /// Set containing a single link.
    #[inline]
    pub fn single(l: LinkId) -> Self {
        LinkSet(1 << l.0)
    }

    /// True if no links are in the set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of links in the set.
    #[inline]
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if `l` is in the set.
    #[inline]
    pub const fn contains(self, l: LinkId) -> bool {
        self.0 & (1 << l.0) != 0
    }

    /// True if the two sets share no link.
    #[inline]
    pub const fn is_disjoint(self, other: LinkSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: LinkSet) -> LinkSet {
        LinkSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: LinkSet) -> LinkSet {
        LinkSet(self.0 & other.0)
    }

    /// Insert a link.
    #[inline]
    pub fn insert(&mut self, l: LinkId) {
        self.0 |= 1 << l.0;
    }

    /// Iterate over member links in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = LinkId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                Some(LinkId(i))
            }
        })
    }
}

impl FromIterator<LinkId> for LinkSet {
    fn from_iter<T: IntoIterator<Item = LinkId>>(iter: T) -> Self {
        let mut s = LinkSet::EMPTY;
        for l in iter {
            s.insert(l);
        }
        s
    }
}

/// The unidirectional ring of `N` nodes (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingTopology {
    n: u16,
}

impl RingTopology {
    /// Create a ring of `n` nodes.
    ///
    /// # Panics
    /// Panics unless `2 ≤ n ≤ 64` (the paper targets small LAN/SAN rings;
    /// the 64 limit comes from the [`LinkSet`] bitmask).
    pub fn new(n: u16) -> Self {
        assert!(
            (2..=MAX_NODES).contains(&n),
            "ring size {n} outside supported range 2..=64"
        );
        RingTopology { n }
    }

    /// Number of nodes (equals the number of links).
    #[inline]
    pub const fn n_nodes(self) -> u16 {
        self.n
    }

    /// Iterate over all node ids.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// Iterate over all link ids.
    pub fn links(self) -> impl Iterator<Item = LinkId> {
        (0..self.n).map(LinkId)
    }

    /// The node `k` hops downstream of `from`.
    #[inline]
    pub fn downstream(self, from: NodeId, k: u16) -> NodeId {
        debug_assert!(from.0 < self.n);
        NodeId((from.0 + k) % self.n)
    }

    /// The node `k` hops upstream of `from`.
    #[inline]
    pub fn upstream(self, from: NodeId, k: u16) -> NodeId {
        debug_assert!(from.0 < self.n);
        NodeId((from.0 + self.n - (k % self.n)) % self.n)
    }

    /// Downstream hop count from `from` to `to` (0 when equal; otherwise
    /// 1 ..= N-1).
    #[inline]
    pub fn hops(self, from: NodeId, to: NodeId) -> u16 {
        debug_assert!(from.0 < self.n && to.0 < self.n);
        (to.0 + self.n - from.0) % self.n
    }

    /// The link leaving node `from` (link `from`).
    #[inline]
    pub fn egress(self, from: NodeId) -> LinkId {
        LinkId(from.0)
    }

    /// The link entering node `to` (link `to − 1 mod N`).
    ///
    /// This is the link that carries **no clock** when `to` is the slot
    /// master: the master's clock travels N−1 hops and stops just short of
    /// returning (Section 2), so no transmission may use this link.
    #[inline]
    pub fn ingress(self, to: NodeId) -> LinkId {
        LinkId((to.0 + self.n - 1) % self.n)
    }

    /// Links occupied by a unicast from `from` to `to`
    /// (`hops(from, to)` consecutive links starting at `egress(from)`).
    ///
    /// # Panics
    /// Panics in debug builds if `from == to` (a node cannot send to itself).
    pub fn segment(self, from: NodeId, to: NodeId) -> LinkSet {
        debug_assert_ne!(from, to, "self-transmission has no segment");
        self.segment_hops(from, self.hops(from, to))
    }

    /// Links occupied by a transmission of `hops` hops starting at `from`.
    pub fn segment_hops(self, from: NodeId, hops: u16) -> LinkSet {
        debug_assert!(
            hops < self.n,
            "segment of {hops} hops on an {}-ring",
            self.n
        );
        let mut set = LinkSet::EMPTY;
        for k in 0..hops {
            set.insert(LinkId((from.0 + k) % self.n));
        }
        set
    }

    /// Links occupied by a multicast from `from` to every node in `dests`:
    /// the contiguous segment up to the furthest downstream destination
    /// (Figure 2 — Node 4 multicasting to Node 5 and Node 1 spans links
    /// 4 and 5).
    ///
    /// Returns `LinkSet::EMPTY` when `dests` is empty or contains only
    /// `from` itself.
    pub fn multicast_segment(
        self,
        from: NodeId,
        dests: impl IntoIterator<Item = NodeId>,
    ) -> LinkSet {
        let max_hops = dests
            .into_iter()
            .map(|d| self.hops(from, d))
            .max()
            .unwrap_or(0);
        self.segment_hops(from, max_hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_arithmetic_wraps() {
        let r = RingTopology::new(5);
        assert_eq!(r.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(r.hops(NodeId(3), NodeId(0)), 2);
        assert_eq!(r.hops(NodeId(4), NodeId(4)), 0);
        assert_eq!(r.downstream(NodeId(4), 2), NodeId(1));
        assert_eq!(r.upstream(NodeId(0), 1), NodeId(4));
        assert_eq!(r.upstream(NodeId(2), 7), NodeId(0));
    }

    #[test]
    fn ingress_egress_relationship() {
        let r = RingTopology::new(4);
        for node in r.nodes() {
            assert_eq!(r.egress(node), LinkId(node.0));
            let up = r.upstream(node, 1);
            assert_eq!(r.ingress(node), r.egress(up));
        }
    }

    #[test]
    fn unicast_segment_is_contiguous() {
        let r = RingTopology::new(5);
        // Figure 2: node 1 → node 3 uses links 1 and 2.
        let seg = r.segment(NodeId(1), NodeId(3));
        assert_eq!(seg, [LinkId(1), LinkId(2)].into_iter().collect());
        // wrap-around: node 4 → node 1 uses links 4 and 0.
        let seg = r.segment(NodeId(4), NodeId(1));
        assert_eq!(seg, [LinkId(4), LinkId(0)].into_iter().collect());
    }

    #[test]
    fn figure2_scenario_is_disjoint() {
        // Figure 2: node 1 → node 3 (links 1,2) and node 4 → {5 ≡ 0, 1}
        // (links 4, 0) can proceed simultaneously. Paper numbers nodes 1..5;
        // we use 0..4, so "node 5" is our node 4... translate: nodes 0..=4,
        // tx A: 0→2 (links 0,1); tx B: 3→{4,0} (links 3,4).
        let r = RingTopology::new(5);
        let a = r.segment(NodeId(0), NodeId(2));
        let b = r.multicast_segment(NodeId(3), [NodeId(4), NodeId(0)]);
        assert!(a.is_disjoint(b));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn multicast_covers_furthest_destination() {
        let r = RingTopology::new(6);
        let seg = r.multicast_segment(NodeId(2), [NodeId(3), NodeId(5), NodeId(4)]);
        assert_eq!(seg.len(), 3); // links 2,3,4
        assert!(seg.contains(LinkId(2)) && seg.contains(LinkId(4)));
        assert!(!seg.contains(LinkId(5)));
    }

    #[test]
    fn empty_multicast_is_empty() {
        let r = RingTopology::new(4);
        assert!(r.multicast_segment(NodeId(0), []).is_empty());
        assert!(r.multicast_segment(NodeId(0), [NodeId(0)]).is_empty());
    }

    #[test]
    fn broadcast_spans_n_minus_1_links() {
        let r = RingTopology::new(7);
        for from in r.nodes() {
            let dests: Vec<NodeId> = r.nodes().filter(|&d| d != from).collect();
            assert_eq!(dests.len(), 6);
            let seg = r.multicast_segment(from, dests);
            assert_eq!(seg.len(), 6);
            assert!(!seg.contains(r.ingress(from)));
        }
    }

    #[test]
    fn linkset_operations() {
        let a: LinkSet = [LinkId(0), LinkId(2)].into_iter().collect();
        let b: LinkSet = [LinkId(1), LinkId(3)].into_iter().collect();
        assert!(a.is_disjoint(b));
        assert!(!a.is_disjoint(a));
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), LinkSet::EMPTY);
        assert!(a.contains(LinkId(2)));
        assert!(!a.contains(LinkId(1)));
        let collected: Vec<LinkId> = a.iter().collect();
        assert_eq!(collected, vec![LinkId(0), LinkId(2)]);
        assert_eq!(LinkSet::single(LinkId(5)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn oversized_ring_rejected() {
        let _ = RingTopology::new(65);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn degenerate_ring_rejected() {
        let _ = RingTopology::new(1);
    }

    #[test]
    fn max_ring_size_works() {
        let r = RingTopology::new(64);
        let seg = r.segment_hops(NodeId(1), 63);
        assert_eq!(seg.len(), 63);
        assert!(!seg.contains(r.ingress(NodeId(1))));
    }
}
