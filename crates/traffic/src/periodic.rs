//! Random periodic connection-set generation.
//!
//! Builds sets of [`ConnectionSpec`]s whose total utilisation (Equation 5's
//! left side) hits a requested target, with log-uniform periods — the
//! standard methodology for schedulability experiments. Used by experiments
//! E4–E6 and E11.

use crate::uunifast::uunifast;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::{NodeId, TimeDelta};
use ccr_sim::rng::DetRng;

/// Builder for random periodic connection sets.
#[derive(Debug, Clone)]
pub struct PeriodicSetBuilder {
    /// Ring size (sources/destinations drawn from `0..n_nodes`).
    pub n_nodes: u16,
    /// Number of connections.
    pub n_conns: usize,
    /// Total utilisation target (Σ e·t_slot/P).
    pub total_utilisation: f64,
    /// Slot length used to convert utilisation to periods.
    pub slot: TimeDelta,
    /// Period range (log-uniform), in slots.
    pub period_slots_range: (u64, u64),
    /// Maximum message size in slots (sizes are derived from the period so
    /// the utilisation target is met exactly, then clamped here).
    pub max_size_slots: u32,
    /// Draw sources/destinations locally (≤ `locality_hops` downstream)
    /// instead of uniformly. `None` = uniform destinations.
    pub locality_hops: Option<u16>,
}

impl PeriodicSetBuilder {
    /// A sensible default builder for an `n`-node ring at a target load.
    pub fn new(n_nodes: u16, n_conns: usize, total_utilisation: f64, slot: TimeDelta) -> Self {
        PeriodicSetBuilder {
            n_nodes,
            n_conns,
            total_utilisation,
            slot,
            period_slots_range: (20, 2_000),
            max_size_slots: 16,
            locality_hops: None,
        }
    }

    /// Restrict destinations to at most `hops` downstream of the source.
    #[cfg(test)]
    pub fn locality(mut self, hops: u16) -> Self {
        self.locality_hops = Some(hops);
        self
    }

    /// Set the period range, in slots.
    pub fn periods(mut self, lo: u64, hi: u64) -> Self {
        self.period_slots_range = (lo, hi);
        self
    }

    /// Generate the set. Total utilisation matches the target to within
    /// rounding of sizes/periods (each connection's size is at least 1
    /// slot, so very small shares round *up*; callers that need an exact
    /// cap should check with [`ccr_edf::analysis::AnalyticModel`]).
    pub fn generate(&self, rng: &mut DetRng) -> Vec<ConnectionSpec> {
        assert!(self.n_nodes >= 2, "need at least 2 nodes");
        let shares = uunifast(rng, self.n_conns, self.total_utilisation);
        let (lo, hi) = self.period_slots_range;
        assert!(lo >= 1 && hi >= lo, "bad period range");
        let log_lo = (lo as f64).ln();
        let log_hi = (hi as f64).ln();
        shares
            .into_iter()
            .map(|u| {
                let src = NodeId(rng.gen_range(0..self.n_nodes));
                let hops_limit = self.locality_hops.unwrap_or(self.n_nodes - 1).max(1);
                let hops = rng.gen_range(1..=hops_limit.min(self.n_nodes - 1));
                let dst = NodeId((src.0 + hops) % self.n_nodes);
                // log-uniform period
                let p_slots = (log_lo + rng.gen_f64() * (log_hi - log_lo)).exp();
                // size from share: u = e * slot / P  →  e = u * P_slots,
                // clamped in f64 first so the cast cannot wrap on extreme
                // draws.
                let e_f64 = (u * p_slots)
                    .round()
                    .clamp(1.0, f64::from(self.max_size_slots));
                let e = e_f64 as u32;
                // re-derive the period so the utilisation share is honoured
                // with the clamped integral size: P = e * slot / u.
                let period_ps = if u > 0.0 {
                    TimeDelta::from_ps_f64_saturating(f64::from(e) * self.slot.as_ps() as f64 / u)
                        .as_ps()
                } else {
                    self.slot.as_ps() * hi
                };
                ConnectionSpec::unicast(src, dst)
                    .period(TimeDelta::from_ps(period_ps.max(self.slot.as_ps())))
                    .size_slots(e)
                    .phase(TimeDelta::from_ps(rng.gen_range(0..period_ps.max(1))))
            })
            .collect()
    }

    /// Generate and report the achieved utilisation (after rounding).
    #[cfg(test)]
    pub fn generate_with_util(&self, rng: &mut DetRng) -> (Vec<ConnectionSpec>, f64) {
        let set = self.generate(rng);
        let u = set.iter().map(|s| s.utilisation(self.slot)).sum();
        (set, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_phys::RingTopology;
    use ccr_sim::SeedSequence;

    fn slot() -> TimeDelta {
        TimeDelta::from_us(2)
    }

    #[test]
    fn hits_utilisation_target() {
        let mut rng = SeedSequence::new(3).stream("per", 0);
        let b = PeriodicSetBuilder::new(8, 12, 0.6, slot());
        let (set, u) = b.generate_with_util(&mut rng);
        assert_eq!(set.len(), 12);
        // periods are re-derived after size clamping, so the achieved
        // utilisation is close to the target (clamping at e=1/P≥slot can
        // distort extreme shares slightly)
        assert!((u - 0.6).abs() < 0.05, "achieved {u}");
    }

    #[test]
    fn specs_are_valid() {
        let topo = RingTopology::new(8);
        let mut rng = SeedSequence::new(3).stream("per", 1);
        let b = PeriodicSetBuilder::new(8, 30, 0.8, slot());
        for spec in b.generate(&mut rng) {
            spec.validate(topo).expect("valid spec");
            assert!(spec.size_slots >= 1);
            assert!(spec.phase < spec.period);
        }
    }

    #[test]
    fn locality_limits_span() {
        let topo = RingTopology::new(16);
        let mut rng = SeedSequence::new(3).stream("per", 2);
        let b = PeriodicSetBuilder::new(16, 40, 0.5, slot()).locality(2);
        for spec in b.generate(&mut rng) {
            let hops = spec.dest.span_hops(topo, spec.src);
            assert!((1..=2).contains(&hops), "span {hops}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = |seed| {
            let mut rng = SeedSequence::new(seed).stream("per", 0);
            PeriodicSetBuilder::new(8, 10, 0.5, slot()).generate(&mut rng)
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    fn zero_connections() {
        let mut rng = SeedSequence::new(1).stream("per", 3);
        let b = PeriodicSetBuilder::new(4, 0, 0.5, slot());
        assert!(b.generate(&mut rng).is_empty());
    }
}
