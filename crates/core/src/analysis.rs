//! The closed-form analysis of Sections 4–6 (Equations 1–6), and the one
//! place ring timing is computed.
//!
//! [`AnalyticModel`] holds one prefix table of per-link propagation in
//! integer picoseconds, built once from a configuration whose link lengths
//! it has checked. The slot engine reads its hand-over gaps, arrival times
//! and collection decision times from it; admission, the demand-bound
//! test, the multi-ring certifier and every experiment read the bounds.
//! Each answer is O(1) and an exact integer sum of the same per-link terms,
//! so per-link lengths (experiment E16) and the paper's equal links take
//! one code path.
//!
//! * Eq. 1 — hand-over time `P·L·D`: the propagation over the `D` links
//!   from the old master to the new one ([`AnalyticModel::segment_prop`]);
//!   its worst case is the ring minus its cheapest link, `P·L·(N−1)` for
//!   equal links;
//! * Eq. 2 — minimum slot length `N·t_node + t_prop`: the collection phase,
//!   followed by the distribution phase, must fit in one slot;
//! * Eq. 3 — maximum user-level delay `t_maxdelay = t_deadline + t_latency`;
//! * Eq. 4 — worst-case protocol latency `t_latency = 2·t_slot +
//!   t_handover_max` (one just-missed slot + one arbitration slot + the
//!   worst hand-over);
//! * Eq. 5 — EDF feasibility `Σ eᵢ/Pᵢ ≤ U_max`;
//! * Eq. 6 — worst-case utilisation `U_max = t_slot / (t_slot +
//!   t_handover_max)` (the gap after every slot is dead time; spatial reuse
//!   is deliberately *not* credited — Section 5).

use crate::config::{ConfigError, NetworkConfig};
use crate::connection::ConnectionSpec;
use crate::wire;
use ccr_phys::ring::MAX_NODES;
use ccr_phys::NodeId;
use ccr_sim::TimeDelta;

/// Analytic model for one network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticModel {
    /// `reach[i]` is `i·t_node` plus the propagation over links `0..i`
    /// (link `k` taken mod N), for `i` in `0..=2N`: the time the collection
    /// packet takes to travel `i` positions downstream of node 0. Doubled
    /// so that a span of up to N links from any node is one difference.
    reach: Vec<TimeDelta>,
    /// Per-node control-packet delay `t_node` (Equation 2).
    t_node: TimeDelta,
    /// The slot length `t_slot`.
    slot: TimeDelta,
    /// Worst-case hand-over gap: the ring minus its cheapest link.
    h_max: TimeDelta,
    /// Propagation over the longest single link.
    max_link: TimeDelta,
    /// Serialisation time of the distribution packet.
    dist_tx: TimeDelta,
    /// Time to send one data byte (one clock period).
    byte_time: TimeDelta,
}

impl AnalyticModel {
    /// Build from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration's link lengths or physical constants do
    /// not validate (construct it via the builder).
    pub fn new(cfg: &NetworkConfig) -> Self {
        Self::try_new(cfg).expect("invalid NetworkConfig")
    }

    /// Build from a configuration whose remaining fields need not be valid
    /// yet, rejecting a ring size, physical constants and link lengths the
    /// table cannot price. `validate` and `build_auto_slot` ask this model
    /// for the minimum slot, so both reject those first.
    pub(crate) fn try_new(cfg: &NetworkConfig) -> Result<Self, ConfigError> {
        if !(2..=MAX_NODES).contains(&cfg.n_nodes) {
            return Err(ConfigError::RingSize(cfg.n_nodes));
        }
        cfg.phys
            .validate()
            .map_err(|e| ConfigError::BadPhysParams(e.to_string()))?;
        let n = cfg.n_nodes as usize;
        let links: Vec<TimeDelta> = match &cfg.link_lengths_m {
            None => vec![cfg.phys.link_prop(); n],
            Some(ls) => {
                if ls.len() != n {
                    return Err(ConfigError::BadLinkLengths(format!(
                        "{} entries for {n} links",
                        ls.len()
                    )));
                }
                if ls.iter().any(|&l| l <= 0.0 || !l.is_finite()) {
                    return Err(ConfigError::BadLinkLengths(
                        "lengths must be positive and finite".into(),
                    ));
                }
                ls.iter()
                    .map(|&l| cfg.phys.try_prop_over(l))
                    .collect::<Result<_, _>>()
                    .map_err(|e| ConfigError::BadLinkLengths(e.to_string()))?
            }
        };
        let t_node = cfg.t_node();
        let mut reach = Vec::with_capacity(2 * n + 1);
        reach.push(TimeDelta::ZERO);
        for k in 0..2 * n {
            let next = t_node
                .as_ps()
                .checked_add(links[k % n].as_ps())
                .and_then(|step| reach[k].as_ps().checked_add(step))
                .ok_or_else(|| ConfigError::BadLinkLengths("ring propagation overflows".into()))?;
            reach.push(TimeDelta::from_ps(next));
        }
        let ring: TimeDelta = links.iter().copied().sum();
        let cheapest = links.iter().copied().min().unwrap_or(TimeDelta::ZERO);
        Ok(AnalyticModel {
            reach,
            t_node,
            slot: cfg.slot_time(),
            h_max: ring - cheapest,
            max_link: links.iter().copied().max().unwrap_or(TimeDelta::ZERO),
            dist_tx: cfg
                .phys
                .control_tx_time(wire::distribution_bits(cfg.n_nodes, cfg.services)),
            byte_time: cfg.phys.clock_period,
        })
    }

    /// Time from the slot start until the collection packet reaches the
    /// node `pos` hops downstream of `from`: `pos·t_node` plus the
    /// propagation over the `pos` links in between.
    #[inline]
    pub(crate) fn collection_offset(&self, from: NodeId, pos: u16) -> TimeDelta {
        let f = from.idx();
        self.reach[f + pos as usize] - self.reach[f]
    }

    /// The first position `p` in `from_pos..N` whose collection offset
    /// from `master` is at least `after`, or N when none is: where a
    /// release `after` past the slot start is first seen. A binary search
    /// over the sorted prefix table.
    pub(crate) fn first_position_reaching(
        &self,
        master: NodeId,
        from_pos: u16,
        after: TimeDelta,
    ) -> u16 {
        let n = self.reach.len() / 2;
        let (m, base) = (master.idx(), self.reach[master.idx()]);
        if self.reach[m + n - 1] - base < after {
            return n as u16; // beyond the last decision time: not this slot
        }
        let window = &self.reach[m + from_pos as usize..m + n];
        from_pos + window.partition_point(|&r| r - base < after) as u16
    }

    /// **Equation 1**: propagation over the `hops` consecutive links that
    /// start at `from`'s egress — the hand-over gap when the clock moves
    /// `hops` nodes downstream of master `from`, and the flight time of a
    /// transmission spanning `hops` links. `hops ≤ N`.
    #[inline]
    pub fn segment_prop(&self, from: NodeId, hops: u16) -> TimeDelta {
        self.collection_offset(from, hops) - self.t_node * hops as u64
    }

    /// The worst-case hand-over gap `t_handover_max`: the longest
    /// (N−1)-link segment, i.e. the ring minus its cheapest link
    /// (`P·L·(N−1)` for equal links).
    pub fn max_handover(&self) -> TimeDelta {
        self.h_max
    }

    /// Propagation over the longest single link.
    pub fn max_link_prop(&self) -> TimeDelta {
        self.max_link
    }

    /// The slot length `t_slot`.
    pub fn slot(&self) -> TimeDelta {
        self.slot
    }

    /// **Equation 2**: the collection phase, `N·t_node + t_prop`.
    pub fn collection_time(&self) -> TimeDelta {
        self.reach[self.reach.len() / 2]
    }

    /// Transmission plus worst-case propagation of the distribution packet
    /// (its N−1 hops start at whichever node is master).
    pub fn distribution_time(&self) -> TimeDelta {
        self.dist_tx + self.h_max
    }

    /// The slot length the control phases require: collection followed by
    /// arbitration/distribution must fit within one slot (Figure 3).
    pub fn control_phases_time(&self) -> TimeDelta {
        self.collection_time() + self.distribution_time()
    }

    /// Minimum feasible slot payload in bytes (Equation 2): the control
    /// phases rounded up to whole byte times.
    pub fn min_slot_bytes(&self) -> u32 {
        let need = self.control_phases_time().as_ps();
        need.div_ceil(self.byte_time.as_ps()) as u32
    }

    /// The guaranteed period `t_slot + t_handover_max`: one slot plus the
    /// worst gap after it. Equation 6's denominator, the demand-bound
    /// supply step, and the service rate of the certifier's rate-latency
    /// curves.
    pub fn guaranteed_period(&self) -> TimeDelta {
        self.slot + self.h_max
    }

    /// **Equation 6**: `U_max = t_slot / (t_slot + t_handover_max)` — the
    /// guaranteed worst-case utilisation / throughput fraction.
    pub fn u_max(&self) -> f64 {
        self.slot.as_ps() as f64 / self.guaranteed_period().as_ps() as f64
    }

    /// **Equation 4**: worst-case protocol latency
    /// `t_latency = 2·t_slot + t_handover_max`.
    pub fn worst_latency(&self) -> TimeDelta {
        self.slot * 2 + self.h_max
    }

    /// Utilisation of a connection set (the left side of Equation 5).
    pub fn utilisation(&self, specs: &[ConnectionSpec]) -> f64 {
        specs.iter().map(|s| s.utilisation(self.slot)).sum()
    }

    /// **Equation 5**: EDF feasibility test for a connection set.
    pub fn feasible(&self, specs: &[ConnectionSpec]) -> bool {
        self.utilisation(specs) <= self.u_max() + 1e-12
    }

    /// Worst-case *effective* slot rate: slots per second when every
    /// hand-over takes the maximum gap.
    #[cfg(test)]
    pub fn worst_slot_rate(&self) -> f64 {
        1.0 / self.guaranteed_period().as_secs_f64()
    }

    /// Best-case slot rate (master never moves: gap 0).
    #[cfg(test)]
    pub fn best_slot_rate(&self) -> f64 {
        1.0 / self.slot.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_phys::NodeId;

    fn cfg(n: u16, slot_bytes: u32, len_m: f64) -> NetworkConfig {
        NetworkConfig::builder(n)
            .slot_bytes(slot_bytes)
            .link_length_m(len_m)
            .build_auto_slot()
            .unwrap()
    }

    #[test]
    fn equation6_umax() {
        let c = cfg(10, 1024, 20.0);
        let a = AnalyticModel::new(&c);
        // h_max = 9 hops * 100 ns = 900 ns
        let t_slot_ns = c.slot_time().as_ns_f64();
        assert!((a.u_max() - t_slot_ns / (t_slot_ns + 900.0)).abs() < 1e-12);
        assert!(a.u_max() < 1.0);
    }

    #[test]
    fn umax_improves_with_longer_slots() {
        let small = AnalyticModel::new(&cfg(16, 512, 10.0));
        let large = AnalyticModel::new(&cfg(16, 8192, 10.0));
        assert!(large.u_max() > small.u_max());
    }

    #[test]
    fn umax_degrades_with_ring_size_and_length() {
        let base = AnalyticModel::new(&cfg(8, 2048, 10.0));
        let more_nodes = AnalyticModel::new(&cfg(32, 2048, 10.0));
        let longer = AnalyticModel::new(&cfg(8, 2048, 100.0));
        assert!(more_nodes.u_max() < base.u_max());
        assert!(longer.u_max() < base.u_max());
    }

    #[test]
    fn equation4_latency() {
        let c = cfg(10, 1024, 20.0);
        let a = AnalyticModel::new(&c);
        let expect = c.slot_time() * 2 + a.max_handover();
        assert_eq!(a.worst_latency(), expect);
    }

    #[test]
    fn equation5_feasibility_boundary() {
        let c = cfg(4, 1024, 10.0);
        let a = AnalyticModel::new(&c);
        let slot = c.slot_time();
        // Build a set with utilisation exactly u_max by period choice:
        // one connection, e = 1, P = slot / u_max.
        let p_ps = (slot.as_ps() as f64 / a.u_max()).round() as u64;
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_ps(p_ps))
            .size_slots(1);
        assert!(a.feasible(std::slice::from_ref(&spec)));
        // ... and one that just exceeds it.
        let over = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_ps(p_ps - p_ps / 50))
            .size_slots(1);
        assert!(!a.feasible(&[spec, over]));
    }

    #[test]
    fn utilisation_sums_over_connections() {
        let c = cfg(4, 1024, 10.0);
        let a = AnalyticModel::new(&c);
        let slot = c.slot_time();
        let mk = |mult: u64| {
            ConnectionSpec::unicast(NodeId(0), NodeId(1))
                .period(TimeDelta::from_ps(slot.as_ps() * mult))
                .size_slots(1)
        };
        let set = [mk(10), mk(10), mk(5)];
        assert!((a.utilisation(&set) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn slot_rates_bracket_reality() {
        let a = AnalyticModel::new(&cfg(8, 1024, 10.0));
        assert!(a.worst_slot_rate() < a.best_slot_rate());
        // u_max equals worst/best rate ratio
        let ratio = a.worst_slot_rate() / a.best_slot_rate();
        assert!((ratio - a.u_max()).abs() < 1e-9);
    }

    #[test]
    fn equation1_linear_in_distance() {
        let m = AnalyticModel::new(&cfg(10, 1024, 20.0)); // 20 m links → 100 ns per hop
        assert_eq!(m.segment_prop(NodeId(0), 0), TimeDelta::ZERO);
        assert_eq!(m.segment_prop(NodeId(0), 1), TimeDelta::from_ns(100));
        assert_eq!(m.segment_prop(NodeId(7), 5), TimeDelta::from_ns(500));
        assert_eq!(m.max_handover(), TimeDelta::from_ns(900)); // D = N-1 = 9
    }

    #[test]
    fn equation2_min_slot() {
        let c = cfg(8, 1024, 10.0);
        let m = AnalyticModel::new(&c);
        // 8 * 62.5 ns + 8 links * 50 ns = 500 + 400 = 900 ns
        assert_eq!(c.t_node(), TimeDelta::from_ps(62_500));
        assert_eq!(m.collection_time(), TimeDelta::from_ns(900));
        // each position adds one t_node and one link
        assert_eq!(
            m.collection_offset(NodeId(6), 3),
            TimeDelta::from_ps(337_500)
        );
    }

    #[test]
    fn min_slot_bytes_rounds_up() {
        let c = cfg(8, 1024, 10.0);
        let m = AnalyticModel::new(&c);
        let need = m.control_phases_time();
        let per_byte = c.phys.clock_period;
        assert!(per_byte * m.min_slot_bytes() as u64 >= need);
        assert!(per_byte * (m.min_slot_bytes() as u64 - 1) < need);
        // 0.3 m more link length adds 1.5 ns per link; the minimum follows
        let longer = AnalyticModel::new(&cfg(8, 1024, 10.3));
        assert!(longer.min_slot_bytes() > m.min_slot_bytes());
    }

    #[test]
    fn slot_time_is_payload_serialisation() {
        let c = NetworkConfig::builder(4).slot_bytes(1_000).build().unwrap();
        assert_eq!(AnalyticModel::new(&c).slot(), TimeDelta::from_ns(2_500));
    }

    #[test]
    fn delivery_latency_combines_tx_and_prop() {
        let c = cfg(6, 1024, 10.0);
        let m = AnalyticModel::new(&c);
        // 100 bytes = 250 ns; 3 hops * 50 ns = 150 ns
        let latency = c.phys.data_tx_time(100) + m.segment_prop(NodeId(4), 3);
        assert_eq!(latency, TimeDelta::from_ns(400));
    }

    #[test]
    fn max_handover_grows_with_ring() {
        let small = AnalyticModel::new(&cfg(4, 2048, 10.0));
        let large = AnalyticModel::new(&cfg(32, 2048, 10.0));
        assert!(large.max_handover() > small.max_handover());
        assert_eq!(large.max_handover(), TimeDelta::from_ns(50) * 31);
    }

    #[test]
    fn empty_set_is_feasible() {
        let a = AnalyticModel::new(&cfg(4, 1024, 10.0));
        assert!(a.feasible(&[]));
        assert_eq!(a.utilisation(&[]), 0.0);
    }
}
