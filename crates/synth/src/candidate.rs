//! Candidate topologies: a partition of the stations into rings plus a
//! bridge set over those rings, translatable into a validated
//! [`FabricTopology`].
//!
//! The node layout is canonical: ring `r` places its stations first, in
//! partition order, then appends one port node per incident bridge (in
//! global bridge order). Node *numbers* therefore shift when a station
//! moves — but a flow's route through the fabric is a sequence of rings
//! and directed bridge queues, and those are untouched by renumbering.
//! That is what makes the move-station refinement warm-startable: the
//! calculus server set is identical before and after, only the moved
//! station's own flows need re-planning.

use crate::matrix::StationId;
use ccr_multiring::topology::{CycleBound, FabricTopology, TopologyError};
use ccr_multiring::GlobalNodeId;

/// Hard per-ring node limit (stations + bridge ports): the ring protocol
/// model asserts 2..=64 nodes.
pub const MAX_RING_NODES: u16 = 64;

/// One candidate fabric shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Station partition: `rings[r]` lists the stations placed on ring
    /// `r`, in node order. Every ring holds at least one station.
    pub rings: Vec<Vec<StationId>>,
    /// Bridges as ring-index pairs, in declaration order.
    pub bridges: Vec<(usize, usize)>,
}

impl Candidate {
    /// Every station on one ring — the cheapest conceivable shape.
    pub fn single_ring(stations: u16) -> Self {
        Candidate {
            rings: vec![(0..stations).map(StationId).collect()],
            bridges: Vec::new(),
        }
    }

    /// Bridges incident to ring `r`, in global bridge order.
    fn incident(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.bridges
            .iter()
            .enumerate()
            .filter(move |(_, &(a, b))| a == r || b == r)
            .map(|(i, _)| i)
    }

    /// Node count of ring `r`: its stations plus one port per incident
    /// bridge.
    pub fn ring_nodes(&self, r: usize) -> usize {
        self.rings[r].len() + self.incident(r).count()
    }

    /// Total node count across every ring — the `nodes` term of the cost
    /// model.
    pub fn n_nodes(&self) -> usize {
        (0..self.rings.len()).map(|r| self.ring_nodes(r)).sum()
    }

    /// The ring holding station `s`.
    pub fn ring_of(&self, s: StationId) -> usize {
        self.rings
            .iter()
            .position(|ring| ring.contains(&s))
            .expect("every station is placed")
    }

    /// Is every ring within the node limits a buildable fabric demands?
    /// (2..=64 nodes per ring; a bridgeless candidate must be one ring.)
    pub fn shape_ok(&self) -> bool {
        if self.rings.is_empty() || self.rings.iter().any(|r| r.is_empty()) {
            return false;
        }
        if self.bridges.is_empty() && self.rings.len() > 1 {
            return false;
        }
        (0..self.rings.len()).all(|r| {
            let n = self.ring_nodes(r);
            (2..=MAX_RING_NODES as usize).contains(&n)
        })
    }

    /// Are the rings connected by the bridge set?
    pub fn connected(&self) -> bool {
        let n = self.rings.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for &(a, b) in &self.bridges {
                let next = if a == r {
                    b
                } else if b == r {
                    a
                } else {
                    continue;
                };
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Does the bridge set close a cycle in the ring graph (including
    /// parallel bridges)?
    pub fn cyclic(&self) -> bool {
        let mut parent: Vec<usize> = (0..self.rings.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in &self.bridges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return true;
            }
            parent[ra] = rb;
        }
        false
    }

    /// Freeze the candidate into a validated [`FabricTopology`] plus the
    /// station → node map. Cyclic bridge sets are built with
    /// [`CycleBound::Calculus`] — every synthesis admission is
    /// calculus-certified anyway.
    pub fn build_topology(&self) -> Result<(FabricTopology, Vec<GlobalNodeId>), TopologyError> {
        let mut b = FabricTopology::builder();
        for r in 0..self.rings.len() {
            b.ring(self.ring_nodes(r) as u16);
        }
        // Port node of bridge `bi` on ring `r`: after the stations, in
        // incident-bridge order.
        let port = |r: usize, bi: usize| -> GlobalNodeId {
            let before = self.incident(r).filter(|&j| j < bi).count();
            GlobalNodeId::new(r as u16, (self.rings[r].len() + before) as u16)
        };
        for (bi, &(a, bb)) in self.bridges.iter().enumerate() {
            b.bridge(port(a, bi), port(bb, bi));
        }
        if self.cyclic() {
            b.allow_cycles_with(CycleBound::Calculus);
        }
        let topo = b.build()?;
        let mut max_station = 0u16;
        for ring in &self.rings {
            for s in ring {
                max_station = max_station.max(s.0);
            }
        }
        let mut nodes = vec![GlobalNodeId::new(0, 0); max_station as usize + 1];
        for (r, ring) in self.rings.iter().enumerate() {
            for (i, s) in ring.iter().enumerate() {
                nodes[s.0 as usize] = GlobalNodeId::new(r as u16, i as u16);
            }
        }
        Ok((topo, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_ring() -> Candidate {
        Candidate {
            rings: vec![
                vec![StationId(0), StationId(1)],
                vec![StationId(2), StationId(3)],
                vec![StationId(4)],
            ],
            bridges: vec![(0, 1), (1, 2)],
        }
    }

    #[test]
    fn node_layout_is_stations_then_ports() {
        let c = three_ring();
        assert_eq!(c.ring_nodes(0), 3); // 2 stations + 1 port
        assert_eq!(c.ring_nodes(1), 4); // 2 stations + 2 ports
        assert_eq!(c.ring_nodes(2), 2); // 1 station + 1 port
        assert_eq!(c.n_nodes(), 9);
        let (topo, nodes) = c.build_topology().unwrap();
        assert_eq!(topo.n_rings(), 3);
        assert_eq!(topo.bridges().len(), 2);
        assert_eq!(nodes[2], GlobalNodeId::new(1, 0));
        assert_eq!(nodes[4], GlobalNodeId::new(2, 0));
        // Bridge 0 ports: ring 0 node 2, ring 1 node 2; bridge 1: ring 1
        // node 3, ring 2 node 1.
        assert_eq!(topo.bridges()[0].a, GlobalNodeId::new(0, 2));
        assert_eq!(topo.bridges()[0].b, GlobalNodeId::new(1, 2));
        assert_eq!(topo.bridges()[1].a, GlobalNodeId::new(1, 3));
        assert_eq!(topo.bridges()[1].b, GlobalNodeId::new(2, 1));
    }

    #[test]
    fn shape_and_connectivity_checks() {
        let mut c = three_ring();
        assert!(c.shape_ok());
        assert!(c.connected());
        assert!(!c.cyclic());
        c.bridges.push((0, 2)); // closes the triangle
        assert!(c.cyclic());
        assert!(
            c.build_topology().is_ok(),
            "cycles build with Calculus bound"
        );
        c.bridges.clear();
        assert!(!c.connected());
        assert!(!c.shape_ok(), "multi-ring candidates need bridges");
        let single = Candidate::single_ring(6);
        assert!(single.shape_ok() && single.connected());
        assert_eq!(single.n_nodes(), 6);
    }

    #[test]
    fn renumbering_keeps_ring_routes() {
        // Moving a station within the partition changes node ids but not
        // the ring graph: the routes (ring sequences) stay identical.
        let c = three_ring();
        let (topo, _) = c.build_topology().unwrap();
        let mut moved = c.clone();
        let s = moved.rings[0].pop().unwrap();
        moved.rings[1].push(s);
        let (topo2, _) = moved.build_topology().unwrap();
        use ccr_multiring::RingId;
        let r = topo.route(RingId(0), RingId(2), &[]).unwrap();
        let r2 = topo2.route(RingId(0), RingId(2), &[]).unwrap();
        assert_eq!(r.rings, r2.rings);
        assert_eq!(r.bridges, r2.bridges);
        assert_eq!(topo.queue_egress(), topo2.queue_egress());
    }
}
