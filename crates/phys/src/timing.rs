//! Closed-form timing model — Equations 1 and 2 of the paper.
//!
//! * **Equation 1** — clock hand-over time: `t_handover = P · L · D`, where
//!   `P` is the propagation delay per metre, `L` the (common) link length
//!   and `D` the number of segments between the old and the new master.
//!   Worst case `D = N − 1` (hand-over to the upstream neighbour).
//! * **Equation 2** — minimum slot length: `t_minslot = N · t_node + t_prop`,
//!   where `t_node` is the control-packet delay through one node during the
//!   collection phase and `t_prop` the propagation around the whole ring:
//!   the collection phase must complete within one slot.
//!
//! `TimingModel` bundles the physical parameters with a ring size so that
//! the protocol crates and the experiment harness compute these quantities
//! from one place.

use crate::params::PhysParams;
use crate::ring::RingTopology;
use ccr_sim::time::TimeDelta;

/// Timing calculator for a concrete ring instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Physical constants.
    pub phys: PhysParams,
    /// Ring size (N).
    pub n_nodes: u16,
}

impl TimingModel {
    /// Bundle parameters for an `n`-node ring.
    pub fn new(phys: PhysParams, n_nodes: u16) -> Self {
        // Constructing the topology validates the node count.
        let _ = RingTopology::new(n_nodes);
        TimingModel { phys, n_nodes }
    }

    /// The ring topology this model describes.
    pub fn topology(&self) -> RingTopology {
        RingTopology::new(self.n_nodes)
    }

    /// **Equation 1**: hand-over time over `d` segments, `P · L · d`.
    ///
    /// `d = 0` (the same node stays master) costs nothing.
    pub fn handover_time(&self, d: u16) -> TimeDelta {
        debug_assert!(d < self.n_nodes, "hand-over distance {d} ≥ N");
        self.phys.hops_prop(d)
    }

    /// Worst-case hand-over time: `d = N − 1` (upstream neighbour).
    pub fn max_handover(&self) -> TimeDelta {
        self.handover_time(self.n_nodes - 1)
    }

    /// Propagation delay around the entire ring (`t_prop` in Equation 2).
    pub fn ring_prop(&self) -> TimeDelta {
        self.phys.hops_prop(self.n_nodes)
    }

    /// **Equation 2**: minimum slot length `N · t_node + t_prop`, given the
    /// per-node control-packet delay `t_node` (which the protocol layer
    /// derives from its request size — see `ccr-edf`'s wire module).
    pub fn min_slot(&self, t_node: TimeDelta) -> TimeDelta {
        t_node * self.n_nodes as u64 + self.ring_prop()
    }

    /// Duration of a slot carrying `slot_bytes` data bytes.
    pub fn slot_time(&self, slot_bytes: u32) -> TimeDelta {
        self.phys.data_tx_time(slot_bytes)
    }

    /// Smallest slot payload (in bytes) whose slot time satisfies
    /// Equation 2 for the given `t_node`, i.e. the shortest feasible slot.
    pub fn min_slot_bytes(&self, t_node: TimeDelta) -> u32 {
        let min = self.min_slot(t_node).as_ps();
        let per_byte = self.phys.clock_period.as_ps();
        min.div_ceil(per_byte) as u32
    }

    /// End-to-end delivery latency of a `bytes`-byte packet sent over
    /// `hops` hops: serialisation + propagation (cut-through, byte-level
    /// pipelining as in the paper's ribbon links).
    #[cfg(test)]
    pub fn delivery_latency(&self, bytes: u32, hops: u16) -> TimeDelta {
        self.phys.data_tx_time(bytes) + self.phys.hops_prop(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: u16, len_m: f64) -> TimingModel {
        TimingModel::new(PhysParams::with_link_length(len_m), n)
    }

    #[test]
    fn equation1_linear_in_distance() {
        let m = model(10, 20.0); // 20 m links → 100 ns per hop
        assert_eq!(m.handover_time(0), TimeDelta::ZERO);
        assert_eq!(m.handover_time(1), TimeDelta::from_ns(100));
        assert_eq!(m.handover_time(5), TimeDelta::from_ns(500));
        assert_eq!(m.max_handover(), TimeDelta::from_ns(900)); // D = N-1 = 9
    }

    #[test]
    fn equation2_min_slot() {
        let m = model(8, 10.0);
        let t_node = TimeDelta::from_ns(50);
        // 8 * 50 ns + 8 links * 50 ns = 400 + 400 = 800 ns
        assert_eq!(m.min_slot(t_node), TimeDelta::from_ns(800));
    }

    #[test]
    fn min_slot_bytes_rounds_up() {
        let m = model(8, 10.0);
        let t_node = TimeDelta::from_ns(50);
        // 800 ns / 2.5 ns per byte = 320 bytes exactly
        assert_eq!(m.min_slot_bytes(t_node), 320);
        // one ps more forces one more byte
        let t_node2 = TimeDelta::from_ps(50_001);
        assert_eq!(m.min_slot_bytes(t_node2), 321);
    }

    #[test]
    fn slot_time_is_payload_serialisation() {
        let m = model(4, 10.0);
        assert_eq!(m.slot_time(1_000), TimeDelta::from_ns(2_500));
    }

    #[test]
    fn delivery_latency_combines_tx_and_prop() {
        let m = model(6, 10.0);
        // 100 bytes = 250 ns; 3 hops * 50 ns = 150 ns
        assert_eq!(m.delivery_latency(100, 3), TimeDelta::from_ns(400));
    }

    #[test]
    fn max_handover_grows_with_ring() {
        let small = model(4, 10.0);
        let large = model(32, 10.0);
        assert!(large.max_handover() > small.max_handover());
        assert_eq!(large.max_handover(), TimeDelta::from_ns(50) * 31);
    }
}
