//! The closed-form analysis of Sections 4–6 (Equations 1–6).
//!
//! These formulas are the paper's "results"; the experiment harness compares
//! every one of them against the simulator's measurements:
//!
//! * Eq. 1 — hand-over time `P·L·D` (delegated to [`ccr_phys::TimingModel`]);
//! * Eq. 2 — minimum slot length `N·t_node + t_prop` (ditto);
//! * Eq. 3 — maximum user-level delay `t_maxdelay = t_deadline + t_latency`;
//! * Eq. 4 — worst-case protocol latency `t_latency = 2·t_slot +
//!   t_handover_max` (one just-missed slot + one arbitration slot + the
//!   worst hand-over);
//! * Eq. 5 — EDF feasibility `Σ eᵢ/Pᵢ ≤ U_max`;
//! * Eq. 6 — worst-case utilisation `U_max = t_slot / (t_slot +
//!   t_handover_max)` (the gap after every slot is dead time; spatial reuse
//!   is deliberately *not* credited — Section 5).

use crate::config::NetworkConfig;
use crate::connection::ConnectionSpec;
use ccr_phys::TimingModel;
use ccr_sim::TimeDelta;

/// Analytic model for one network configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticModel {
    timing: TimingModel,
    slot: TimeDelta,
    /// Worst-case hand-over gap (segment-exact for heterogeneous links;
    /// equals `timing.max_handover()` for the paper's homogeneous case).
    h_max: TimeDelta,
}

impl AnalyticModel {
    /// Build from a validated configuration (heterogeneous-link aware).
    pub fn new(cfg: &NetworkConfig) -> Self {
        AnalyticModel {
            timing: cfg.timing(),
            slot: cfg.slot_time(),
            h_max: cfg.max_handover(),
        }
    }

    /// The worst-case hand-over gap this model uses.
    pub fn max_handover(&self) -> TimeDelta {
        self.h_max
    }

    /// The slot length `t_slot`.
    pub fn slot(&self) -> TimeDelta {
        self.slot
    }

    /// The underlying timing model (Equations 1–2).
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// **Equation 6**: `U_max = t_slot / (t_slot + t_handover_max)` — the
    /// guaranteed worst-case utilisation / throughput fraction.
    pub fn u_max(&self) -> f64 {
        let t_slot = self.slot.as_ps() as f64;
        let h = self.h_max.as_ps() as f64;
        t_slot / (t_slot + h)
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
        1.0 / (self.slot + self.h_max).as_secs_f64()
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
        let expect = c.slot_time() * 2 + c.timing().max_handover();
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
    fn empty_set_is_feasible() {
        let a = AnalyticModel::new(&cfg(4, 1024, 10.0));
        assert!(a.feasible(&[]));
        assert_eq!(a.utilisation(&[]), 0.0);
    }
}
