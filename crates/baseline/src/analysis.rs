//! Worst-case analysis of CC-FPR — the "pessimistic bound" the CCR-EDF
//! paper cites to motivate its design (refs \[4], \[5]: "a rather pessimistic
//! worst-case schedulability bound … makes it unsuitable for hard real time
//! traffic, because of very low guaranteed utilisation").
//!
//! Derivation (documented in DESIGN.md):
//!
//! * The hand-over gap is *constant* (one hop) — CC-FPR's one advantage.
//! * Booking is first-come in ring order from the master, so in the worst
//!   case a node only holds first booking rights when it sits immediately
//!   after the master — once every N slots.
//! * The clock break of slot *k+1* sits at the round-robin next master;
//!   a message whose path contains that node cannot be sent that slot.
//!   When the node *is* first booker (s = m+1) the break is its own ingress
//!   link, never in its path, so the 1-in-N guarantee survives blocking.
//!
//! Hence the guaranteed fraction of slots for any single node is `1/N`, and
//! the guaranteed utilisation bound is
//! `U_ccfpr = (1/N) · t_slot / (t_slot + t_hop)` — compared against
//! CCR-EDF's `U_max = t_slot / (t_slot + (N−1)·t_hop)` in experiment E12.
//! For realistic parameters the CC-FPR bound is several times smaller, and
//! it *shrinks* with N, which is exactly the "of little use" verdict of
//! ref \[5].

use ccr_edf::analysis::AnalyticModel;
use ccr_edf::config::NetworkConfig;
use ccr_sim::TimeDelta;

/// Closed-form CC-FPR bounds for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcFprAnalysis {
    n_nodes: u16,
    slot: TimeDelta,
    hop_gap: TimeDelta,
}

impl CcFprAnalysis {
    /// Build from a validated configuration.
    pub fn new(cfg: &NetworkConfig) -> Self {
        CcFprAnalysis {
            n_nodes: cfg.n_nodes,
            slot: cfg.slot_time(),
            hop_gap: AnalyticModel::new(cfg).max_link_prop(),
        }
    }

    /// The constant hand-over gap: one hop, priced at the longest link.
    pub fn constant_gap(&self) -> TimeDelta {
        self.hop_gap
    }

    /// Fraction of total time spent inside slots — CC-FPR's *throughput*
    /// is good because the gap is short and constant.
    pub fn slot_time_fraction(&self) -> f64 {
        let s = self.slot.as_ps() as f64;
        s / (s + self.hop_gap.as_ps() as f64)
    }

    /// Worst-case fraction of slots guaranteed to one node (first booking
    /// rights rotate round-robin).
    pub fn guaranteed_node_fraction(&self) -> f64 {
        1.0 / self.n_nodes as f64
    }

    /// The pessimistic guaranteed-utilisation bound for hard real-time
    /// traffic of a single node: `(1/N) · t_slot / (t_slot + t_hop)`.
    pub fn u_guaranteed(&self) -> f64 {
        self.guaranteed_node_fraction() * self.slot_time_fraction()
    }

    /// Ratio of CCR-EDF's guaranteed utilisation to CC-FPR's for the same
    /// configuration — the headline number of experiment E12.
    pub fn ccr_edf_advantage(&self, ccr: &AnalyticModel) -> f64 {
        ccr.u_max() / self.u_guaranteed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u16) -> NetworkConfig {
        NetworkConfig::builder(n)
            .slot_bytes(1024)
            .build_auto_slot()
            .unwrap()
    }

    #[test]
    fn constant_gap_is_one_hop() {
        let c = cfg(10);
        let a = CcFprAnalysis::new(&c);
        let one_hop = AnalyticModel::new(&c).segment_prop(ccr_edf::NodeId(0), 1);
        assert_eq!(a.constant_gap(), one_hop);
        assert!(a.slot_time_fraction() > 0.9, "short constant gap");
    }

    #[test]
    fn guaranteed_bound_is_pessimistic() {
        let c = cfg(16);
        let ccfpr = CcFprAnalysis::new(&c);
        let ccr = AnalyticModel::new(&c);
        // The paper's motivation: CC-FPR's guaranteed utilisation is far
        // below CCR-EDF's U_max.
        assert!(ccfpr.u_guaranteed() < ccr.u_max() / 5.0);
        assert!(ccfpr.ccr_edf_advantage(&ccr) > 5.0);
    }

    #[test]
    fn bound_shrinks_with_ring_size() {
        let small = CcFprAnalysis::new(&cfg(4));
        let large = CcFprAnalysis::new(&cfg(32));
        assert!(large.u_guaranteed() < small.u_guaranteed());
    }
}
