//! Fabric topology: rings, bridge nodes, and the one router.
//!
//! A *fabric* interconnects several CCR-EDF rings through **bridge nodes**
//! — a bridge is one physical station with a port on each of two rings. The
//! topology is static; routes are not stored. [`FabricTopology::route`]
//! computes each one on demand by breadth-first search over the *ring
//! graph* (rings are vertices, live bridges are edges) with a deterministic
//! tie-break, so the same fabric with the same dead bridges always routes
//! the same way. [`FabricTopology::segments`] expands a route into ring
//! segments, each recording the bridge it leaves through and the
//! direction it crosses it in.
//!
//! Cyclic inter-ring dependencies — a cycle in the ring graph — are the
//! hard case of Amari & Mifdaoui ("Enhancing Performance Bounds of
//! Multiple-Ring Networks with Cyclic Dependencies based on Network
//! Calculus"): per-segment bounds no longer compose by simple summation.
//! The builder therefore **rejects** cyclic fabrics by default; callers
//! opt in with [`FabricTopologyBuilder::allow_cycles_with`], choosing how
//! the cycle is to be bounded: [`CycleBound::Calculus`] routes every
//! admission through the `ccr-calculus` min-plus fixed-point solver
//! (certified finite e2e bounds, the default), while
//! [`CycleBound::Unbounded`] is the explicit simulation-only escape
//! hatch. The decision is preserved as [`FabricTopology::cycle_bound`]
//! (`Some` exactly for cyclic fabrics) so admission and reporting layers
//! can surface it.

use ccr_phys::NodeId;

/// Identity of one ring in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingId(pub u16);

impl std::fmt::Display for RingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A node addressed fabric-wide: ring plus position on that ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalNodeId {
    /// The ring the node sits on.
    pub ring: RingId,
    /// The node's position on that ring.
    pub node: NodeId,
}

impl GlobalNodeId {
    /// Shorthand constructor.
    pub fn new(ring: u16, node: u16) -> Self {
        GlobalNodeId {
            ring: RingId(ring),
            node: NodeId(node),
        }
    }
}

impl std::fmt::Display for GlobalNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ring, self.node)
    }
}

/// A bridge: one station present on two (distinct) rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bridge {
    /// First port.
    pub a: GlobalNodeId,
    /// Second port.
    pub b: GlobalNodeId,
}

impl Bridge {
    /// The bridge's port on `ring`, if it has one.
    pub fn port_on(&self, ring: RingId) -> Option<NodeId> {
        if self.a.ring == ring {
            Some(self.a.node)
        } else if self.b.ring == ring {
            Some(self.b.node)
        } else {
            None
        }
    }

    /// The ring on the far side of the bridge from `ring`.
    pub fn other_ring(&self, ring: RingId) -> Option<RingId> {
        if self.a.ring == ring {
            Some(self.b.ring)
        } else if self.b.ring == ring {
            Some(self.a.ring)
        } else {
            None
        }
    }
}

/// An inter-ring route: the rings visited and the bridges crossed between
/// them (`rings.len() == bridges.len() + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Rings visited, source ring first.
    pub rings: Vec<RingId>,
    /// Indices into [`FabricTopology::bridges`], one per crossing.
    pub bridges: Vec<usize>,
}

/// One ring traversal of an end-to-end path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The ring this segment runs on.
    pub ring: RingId,
    /// Entry node (the original source, or the ingress bridge port).
    pub from: NodeId,
    /// Exit node (the egress bridge port, or the final destination).
    pub to: NodeId,
    /// The bridge crossed *after* this segment (`None` on the last one).
    pub bridge: Option<usize>,
    /// The bridge direction that crossing takes, in the `2b`/`2b+1`
    /// layout ([`FabricTopology::queue_index`]): the engine's hand-off
    /// slot and the certifier's queue server for it. `None` on the last
    /// segment.
    pub queue: Option<usize>,
}

/// Why a topology failed to validate, or a path could not be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A bridge references a ring that does not exist.
    UnknownRing(RingId),
    /// A bridge port lies outside its ring.
    PortOutOfRange(GlobalNodeId),
    /// A bridge joins a ring to itself.
    SelfBridge(RingId),
    /// The ring graph contains a cycle and cycles were not allowed.
    CyclicFabric {
        /// The bridge whose addition closed the cycle.
        closing_bridge: usize,
    },
    /// No bridge path connects the two rings.
    NoRoute(RingId, RingId),
    /// A path segment would start and end on the same node (the source or
    /// destination coincides with a bridge port in a way that leaves a
    /// zero-length ring traversal).
    DegenerateSegment {
        /// The ring of the degenerate segment.
        ring: RingId,
        /// The coinciding node.
        node: NodeId,
    },
    /// Source and destination are the same node.
    SelfConnection(GlobalNodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownRing(r) => write!(f, "bridge references unknown ring {r}"),
            TopologyError::PortOutOfRange(g) => write!(f, "bridge port {g} outside its ring"),
            TopologyError::SelfBridge(r) => write!(f, "bridge joins ring {r} to itself"),
            TopologyError::CyclicFabric { closing_bridge } => write!(
                f,
                "bridge #{closing_bridge} closes a ring-graph cycle (cyclic inter-ring \
                 dependencies need an explicit bound: allow_cycles_with(CycleBound::…))"
            ),
            TopologyError::NoRoute(a, b) => write!(f, "no bridge path from {a} to {b}"),
            TopologyError::DegenerateSegment { ring, node } => write!(
                f,
                "degenerate segment on {ring}: entry and exit are both {node}"
            ),
            TopologyError::SelfConnection(g) => write!(f, "connection from {g} to itself"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// How the end-to-end guarantees of a **cyclic** ring graph are bounded.
///
/// Acyclic fabrics compose per-ring budgets by summation; a cycle breaks
/// that argument, so the builder demands an explicit policy before it will
/// accept one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleBound {
    /// Certify every admission with the min-plus network-calculus
    /// fixed-point solver (`ccr-calculus`): connections are only admitted
    /// when the whole set converges to finite end-to-end bounds within
    /// every deadline. The default, and the only analytically sound choice.
    #[default]
    Calculus,
    /// **Escape hatch — no analytic end-to-end bound.** Admission falls
    /// back to the per-ring utilisation tests alone, whose composition
    /// argument does *not* cover cyclic dependencies: admitted traffic can
    /// miss e2e deadlines under adversarial phasing. Only for experiments
    /// that measure the unbounded behaviour on purpose.
    Unbounded,
}

/// Builder for [`FabricTopology`].
#[derive(Debug, Default)]
pub struct FabricTopologyBuilder {
    ring_sizes: Vec<u16>,
    bridges: Vec<Bridge>,
    cycle_bound: Option<CycleBound>,
}

impl FabricTopologyBuilder {
    /// Add one ring of `n_nodes` nodes; returns its id.
    pub fn ring(&mut self, n_nodes: u16) -> RingId {
        self.ring_sizes.push(n_nodes);
        RingId(self.ring_sizes.len() as u16 - 1)
    }

    /// Add a bridge between two ports.
    pub fn bridge(&mut self, a: GlobalNodeId, b: GlobalNodeId) -> &mut Self {
        self.bridges.push(Bridge { a, b });
        self
    }

    /// Accept ring-graph cycles under an explicit bounding policy.
    ///
    /// With [`CycleBound::Calculus`] (the default policy value) the fabric
    /// engine routes every admission on the cyclic fabric through the
    /// min-plus fixed-point solver and only admits sets with certified
    /// finite end-to-end bounds. [`CycleBound::Unbounded`] accepts cycles
    /// with no analytic bound.
    pub fn allow_cycles_with(&mut self, bound: CycleBound) -> &mut Self {
        self.cycle_bound = Some(bound);
        self
    }

    /// Validate and freeze the topology.
    pub fn build(&self) -> Result<FabricTopology, TopologyError> {
        let n_rings = self.ring_sizes.len() as u16;
        // Validate bridges.
        for br in &self.bridges {
            for port in [br.a, br.b] {
                if port.ring.0 >= n_rings {
                    return Err(TopologyError::UnknownRing(port.ring));
                }
                if port.node.0 >= self.ring_sizes[port.ring.0 as usize] {
                    return Err(TopologyError::PortOutOfRange(port));
                }
            }
            if br.a.ring == br.b.ring {
                return Err(TopologyError::SelfBridge(br.a.ring));
            }
        }
        // Cycle detection by union-find over the ring graph: an edge whose
        // endpoints are already connected closes a cycle (this also catches
        // two parallel bridges between the same ring pair).
        let mut parent: Vec<usize> = (0..n_rings as usize).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut cyclic = false;
        for (i, br) in self.bridges.iter().enumerate() {
            let (ra, rb) = (
                find(&mut parent, br.a.ring.0 as usize),
                find(&mut parent, br.b.ring.0 as usize),
            );
            if ra == rb {
                cyclic = true;
                if self.cycle_bound.is_none() {
                    return Err(TopologyError::CyclicFabric { closing_bridge: i });
                }
            } else {
                parent[ra] = rb;
            }
        }
        Ok(FabricTopology {
            ring_sizes: self.ring_sizes.clone(),
            bridges: self.bridges.clone(),
            cycle_bound: if cyclic { self.cycle_bound } else { None },
        })
    }
}

/// The validated, frozen fabric topology. Routes are computed on demand by
/// [`FabricTopology::route`].
#[derive(Debug, Clone)]
pub struct FabricTopology {
    ring_sizes: Vec<u16>,
    bridges: Vec<Bridge>,
    cycle_bound: Option<CycleBound>,
}

impl FabricTopology {
    /// Start building a topology.
    pub fn builder() -> FabricTopologyBuilder {
        FabricTopologyBuilder::default()
    }

    /// A chain of `n_rings` rings of `nodes_per_ring` nodes each, bridged
    /// ring *i* node `n−1` ↔ ring *i+1* node `0` — the canonical acyclic
    /// fabric used by experiments and benchmarks.
    pub fn chain(n_rings: u16, nodes_per_ring: u16) -> FabricTopology {
        let mut b = Self::builder();
        for _ in 0..n_rings {
            b.ring(nodes_per_ring);
        }
        for i in 0..n_rings.saturating_sub(1) {
            b.bridge(
                GlobalNodeId::new(i, nodes_per_ring - 1),
                GlobalNodeId::new(i + 1, 0),
            );
        }
        b.build().expect("chain fabric is always valid")
    }

    /// Number of rings.
    pub fn n_rings(&self) -> u16 {
        self.ring_sizes.len() as u16
    }

    /// Node count of ring `r`.
    pub fn ring_size(&self, r: RingId) -> u16 {
        self.ring_sizes[r.0 as usize]
    }

    /// The bridges, in declaration order.
    pub fn bridges(&self) -> &[Bridge] {
        &self.bridges
    }

    /// Number of bridge directions: two per bridge — direction `2b`
    /// carries a→b traffic, `2b+1` carries b→a.
    pub fn n_queues(&self) -> usize {
        self.bridges.len() * 2
    }

    /// The ring index each bridge direction forwards into (direction `2b`
    /// egresses on bridge `b`'s `b`-side ring, `2b+1` on its `a`-side
    /// ring). This is the
    /// `queue_egress` table [`crate::calculus::CalculusAdmission::new`]
    /// expects, derivable from the topology alone — which is what lets a
    /// synthesizer certify candidates without building fabrics.
    pub fn queue_egress(&self) -> Vec<usize> {
        (0..self.n_queues())
            .map(|q| {
                let br = &self.bridges[q / 2];
                if q % 2 == 0 {
                    br.b.ring.0 as usize
                } else {
                    br.a.ring.0 as usize
                }
            })
            .collect()
    }

    /// The bridge-direction index crossed when leaving `from_ring`
    /// over bridge `bridge` (an index into [`bridges`](Self::bridges)).
    pub fn queue_index(&self, bridge: usize, from_ring: RingId) -> usize {
        if self.bridges[bridge].a.ring == from_ring {
            2 * bridge
        } else {
            2 * bridge + 1
        }
    }

    /// The bounding policy this cyclic fabric was built with; `None` for
    /// acyclic fabrics (the summation argument covers those).
    pub fn cycle_bound(&self) -> Option<CycleBound> {
        self.cycle_bound
    }

    /// Shortest route from `from` to `to` that crosses no bridge flagged in
    /// `dead` (indexed by bridge index; an empty slice or a missing entry
    /// means alive). Breadth-first search over the ring graph with
    /// neighbours scanned in bridge-index order, so the tie-break (fewest
    /// crossings, then lowest bridge indices) is deterministic and the same
    /// fabric always routes the same way. `None` when `from == to`, when
    /// either ring does not exist, or when the live bridges do not connect
    /// the rings.
    pub fn route(&self, from: RingId, to: RingId, dead: &[bool]) -> Option<Route> {
        if from == to || to.0 as usize >= self.ring_sizes.len() {
            return None;
        }
        // `prev[r]`: the ring and bridge ring `r` was first reached over.
        let mut prev: Vec<Option<(RingId, usize)>> = vec![None; self.ring_sizes.len()];
        let mut frontier = vec![from];
        let mut head = 0;
        'search: while let Some(&r) = frontier.get(head) {
            head += 1;
            for (bi, br) in self.bridges.iter().enumerate() {
                if dead.get(bi).copied().unwrap_or(false) {
                    continue;
                }
                let Some(next) = br.other_ring(r) else {
                    continue;
                };
                if next != from && prev[next.0 as usize].is_none() {
                    prev[next.0 as usize] = Some((r, bi));
                    if next == to {
                        break 'search;
                    }
                    frontier.push(next);
                }
            }
        }
        prev[to.0 as usize]?;
        let mut rings = vec![to];
        let mut bridges = Vec::new();
        let mut cur = to;
        while let Some((p, bi)) = prev[cur.0 as usize] {
            bridges.push(bi);
            rings.push(p);
            cur = p;
        }
        rings.reverse();
        bridges.reverse();
        Some(Route { rings, bridges })
    }

    /// Expand an end-to-end path into its ring segments, routed around the
    /// bridges flagged in `dead` (see [`route`](Self::route)). Same-ring
    /// paths never cross a bridge and are one segment.
    pub fn segments(
        &self,
        src: GlobalNodeId,
        dst: GlobalNodeId,
        dead: &[bool],
    ) -> Result<Vec<Segment>, TopologyError> {
        if src == dst {
            return Err(TopologyError::SelfConnection(src));
        }
        let route = if src.ring == dst.ring {
            Route {
                rings: vec![src.ring],
                bridges: Vec::new(),
            }
        } else {
            self.route(src.ring, dst.ring, dead)
                .ok_or(TopologyError::NoRoute(src.ring, dst.ring))?
        };
        let mut segs = Vec::with_capacity(route.rings.len());
        let mut entry = src.node;
        for (i, &ring) in route.rings.iter().enumerate() {
            let (exit, bridge, queue) = match route.bridges.get(i) {
                Some(&bi) => (
                    self.bridges[bi].port_on(ring).expect("route port"),
                    Some(bi),
                    Some(self.queue_index(bi, ring)),
                ),
                None => (dst.node, None, None),
            };
            if entry == exit {
                return Err(TopologyError::DegenerateSegment { ring, node: entry });
            }
            segs.push(Segment {
                ring,
                from: entry,
                to: exit,
                bridge,
                queue,
            });
            if let Some(bi) = bridge {
                entry = self.bridges[bi]
                    .port_on(route.rings[i + 1])
                    .expect("route port");
            }
        }
        Ok(segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_routes_end_to_end() {
        let t = FabricTopology::chain(3, 4);
        assert_eq!(t.n_rings(), 3);
        assert_eq!(t.bridges().len(), 2);
        assert!(t.cycle_bound().is_none());
        let r = t.route(RingId(0), RingId(2), &[]).unwrap();
        assert_eq!(r.rings, vec![RingId(0), RingId(1), RingId(2)]);
        assert_eq!(r.bridges, vec![0, 1]);
        // reverse direction too
        let r = t.route(RingId(2), RingId(0), &[]).unwrap();
        assert_eq!(r.rings, vec![RingId(2), RingId(1), RingId(0)]);
    }

    #[test]
    fn segments_expand_with_bridge_ports() {
        let t = FabricTopology::chain(3, 4);
        let segs = t
            .segments(GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 2), &[])
            .unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0],
            Segment {
                ring: RingId(0),
                from: NodeId(1),
                to: NodeId(3),
                bridge: Some(0),
                queue: Some(0),
            }
        );
        assert_eq!(
            segs[1],
            Segment {
                ring: RingId(1),
                from: NodeId(0),
                to: NodeId(3),
                bridge: Some(1),
                queue: Some(2),
            }
        );
        assert_eq!(
            segs[2],
            Segment {
                ring: RingId(2),
                from: NodeId(0),
                to: NodeId(2),
                bridge: None,
                queue: None,
            }
        );
    }

    #[test]
    fn same_ring_is_one_segment() {
        let t = FabricTopology::chain(2, 4);
        let segs = t
            .segments(GlobalNodeId::new(1, 0), GlobalNodeId::new(1, 3), &[])
            .unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].bridge, None);
        assert_eq!(segs[0].queue, None);
    }

    #[test]
    fn cycle_rejected_by_default_flagged_when_allowed() {
        let mut b = FabricTopology::builder();
        let r0 = b.ring(4);
        let r1 = b.ring(4);
        let r2 = b.ring(4);
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
        b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1)); // closes the cycle
        let err = b.build().unwrap_err();
        assert_eq!(err, TopologyError::CyclicFabric { closing_bridge: 2 });
        b.allow_cycles_with(CycleBound::Calculus);
        let t = b.build().unwrap();
        assert!(t.cycle_bound().is_some());
        assert_eq!(t.cycle_bound(), Some(CycleBound::Calculus));
        // routes still defined (shortest path, one crossing each)
        assert_eq!(t.route(r0, r1, &[]).unwrap().bridges.len(), 1);
        assert_eq!(t.route(r0, r2, &[]).unwrap().bridges.len(), 1);
        b.allow_cycles_with(CycleBound::Unbounded);
        assert_eq!(
            b.build().unwrap().cycle_bound(),
            Some(CycleBound::Unbounded)
        );
        // Acyclic fabrics never carry a policy.
        assert_eq!(FabricTopology::chain(3, 4).cycle_bound(), None);
    }

    #[test]
    fn parallel_bridges_count_as_cycle() {
        let mut b = FabricTopology::builder();
        b.ring(4);
        b.ring(4);
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 2));
        assert!(matches!(
            b.build(),
            Err(TopologyError::CyclicFabric { closing_bridge: 1 })
        ));
    }

    #[test]
    fn disconnected_rings_have_no_route() {
        let mut b = FabricTopology::builder();
        b.ring(4);
        b.ring(4);
        let t = b.build().unwrap();
        assert!(t.route(RingId(0), RingId(1), &[]).is_none());
        assert_eq!(
            t.segments(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 1), &[]),
            Err(TopologyError::NoRoute(RingId(0), RingId(1)))
        );
        // A ring that does not exist is unreachable, not a panic.
        assert!(t.route(RingId(0), RingId(9), &[]).is_none());
        assert_eq!(
            t.segments(GlobalNodeId::new(0, 0), GlobalNodeId::new(9, 1), &[]),
            Err(TopologyError::NoRoute(RingId(0), RingId(9)))
        );
    }

    #[test]
    fn validation_errors() {
        let mut b = FabricTopology::builder();
        b.ring(4);
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::UnknownRing(RingId(1))
        );

        let mut b = FabricTopology::builder();
        b.ring(4);
        b.ring(4);
        b.bridge(GlobalNodeId::new(0, 9), GlobalNodeId::new(1, 0));
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::PortOutOfRange(GlobalNodeId::new(0, 9))
        );

        let mut b = FabricTopology::builder();
        b.ring(4);
        b.ring(4);
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(0, 2));
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfBridge(RingId(0)));
    }

    #[test]
    fn avoiding_a_dead_bridge_takes_the_long_way_round() {
        // Triangle fabric: 0—1 (bridge 0), 1—2 (bridge 1), 2—0 (bridge 2).
        let mut b = FabricTopology::builder();
        b.ring(4);
        b.ring(4);
        b.ring(4);
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
        b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
        b.allow_cycles_with(CycleBound::Unbounded);
        let t = b.build().unwrap();
        // Healthy: one crossing via bridge 0.
        let direct = t.route(RingId(0), RingId(1), &[]).unwrap();
        assert_eq!(direct.bridges, vec![0]);
        // Bridge 0 dead: detour through ring 2 over bridges 2 then 1.
        let detour = t
            .route(RingId(0), RingId(1), &[true, false, false])
            .unwrap();
        assert_eq!(detour.rings, vec![RingId(0), RingId(2), RingId(1)]);
        assert_eq!(detour.bridges, vec![2, 1]);
        let segs = t
            .segments(
                GlobalNodeId::new(0, 2),
                GlobalNodeId::new(1, 3),
                &[true, false, false],
            )
            .unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].bridge, Some(2));
        assert_eq!(segs[1].bridge, Some(1));
        // Ring 0 is bridge 2's b side and ring 2 is bridge 1's b side, so
        // both crossings run b→a: queues 2·2+1 and 2·1+1.
        assert_eq!(
            (segs[0].queue, segs[1].queue, segs[2].queue),
            (Some(5), Some(3), None)
        );
        // Two dead bridges disconnect the pair entirely.
        assert!(t
            .route(RingId(0), RingId(1), &[true, true, false])
            .is_none());
        assert_eq!(
            t.segments(
                GlobalNodeId::new(0, 2),
                GlobalNodeId::new(1, 3),
                &[true, true, false],
            ),
            Err(TopologyError::NoRoute(RingId(0), RingId(1)))
        );
        // Same-ring paths never cross a bridge and are unaffected.
        let same = t
            .segments(
                GlobalNodeId::new(1, 0),
                GlobalNodeId::new(1, 2),
                &[true, true, true],
            )
            .unwrap();
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].bridge, None);
    }

    #[test]
    fn degenerate_segment_detected() {
        let t = FabricTopology::chain(2, 4);
        // source IS the bridge port on ring 0 → zero-length first segment
        let err = t
            .segments(GlobalNodeId::new(0, 3), GlobalNodeId::new(1, 2), &[])
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::DegenerateSegment {
                ring: RingId(0),
                node: NodeId(3)
            }
        );
        // self connection
        assert!(matches!(
            t.segments(GlobalNodeId::new(0, 1), GlobalNodeId::new(0, 1), &[]),
            Err(TopologyError::SelfConnection(_))
        ));
    }
}
