//! End-to-end EDF admission: decompose a fabric connection into per-ring
//! sub-connections and admit each against its ring's schedulability test.
//!
//! The planner here is **pure** — it turns a [`FabricConnectionSpec`] plus
//! the per-ring timing environment into one [`ccr_edf::ConnectionSpec`]
//! per route segment, or explains why no decomposition exists. The
//! stateful part (actually running each ring's utilisation/demand-bound
//! test, certifying, rolling back on mid-route rejection) lives in
//! [`crate::engine::Fabric::open_connection`], which drives this planner.
//!
//! ## Decomposition rule
//!
//! Each segment first receives its *floor*: the ring's analytic worst-case
//! latency for one slot ([`ccr_edf::analysis::AnalyticModel::worst_latency`])
//! plus `(e − 1)` further slot times for a multi-slot message. If the
//! floors already exceed the end-to-end deadline, no split can work and
//! the connection is rejected as [`FabricAdmissionError::DeadlineTooTight`]
//! *before* touching any ring. The remaining slack is then divided
//! proportionally to each ring's slot time (per [`decompose_deadline`],
//! exact to the picosecond), so
//! slower rings get proportionally looser sub-deadlines. Every segment's
//! relative deadline is finally clamped to the period, as required by the
//! per-ring constrained-deadline model (`D ≤ P`).
//!
//! Admitting every sub-connection under its ring's test composes into the
//! end-to-end guarantee because the budgets sum to (at most) the e2e
//! deadline and a bridge hands a message to the next ring no later than
//! the end of its segment budget. This summation argument is only sound on
//! acyclic fabrics — cyclic ring graphs (see
//! [`crate::topology::FabricTopology::cycle_bound`]) need network-calculus
//! machinery beyond this model, which is why the topology builder rejects
//! them by default.

use crate::topology::{FabricTopology, GlobalNodeId, Segment, TopologyError};
use ccr_edf::admission::AdmissionError;
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::connection::ConnectionSpec;
use ccr_sim::TimeDelta;

/// Identity of an admitted end-to-end fabric connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FabricConnectionId(pub u64);

/// The parameters of a requested end-to-end connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConnectionSpec {
    /// Originating node.
    pub src: GlobalNodeId,
    /// Final destination node (unicast — the fabric routes point-to-point).
    pub dst: GlobalNodeId,
    /// Message period.
    pub period: TimeDelta,
    /// Message size in slots.
    pub size_slots: u32,
    /// End-to-end relative deadline (release at the source → delivery at
    /// the destination).
    pub e2e_deadline: TimeDelta,
    /// Release phase of the first message.
    pub phase: TimeDelta,
}

impl FabricConnectionSpec {
    /// Start a spec with deadline = period and 1-slot messages.
    pub fn unicast(src: GlobalNodeId, dst: GlobalNodeId) -> Self {
        FabricConnectionSpec {
            src,
            dst,
            period: TimeDelta::from_ms(1),
            size_slots: 1,
            e2e_deadline: TimeDelta::from_ms(1),
            phase: TimeDelta::ZERO,
        }
    }

    /// Set the period; also sets the e2e deadline when it still tracks the
    /// old period (the common `D = P` case).
    pub fn period(mut self, p: TimeDelta) -> Self {
        if self.e2e_deadline == self.period {
            self.e2e_deadline = p;
        }
        self.period = p;
        self
    }

    /// Set the message size in slots.
    pub fn size_slots(mut self, e: u32) -> Self {
        self.size_slots = e;
        self
    }

    /// Set the end-to-end deadline.
    pub fn e2e_deadline(mut self, d: TimeDelta) -> Self {
        self.e2e_deadline = d;
        self
    }

    /// Set the release phase.
    pub fn phase(mut self, ph: TimeDelta) -> Self {
        self.phase = ph;
        self
    }
}

/// Per-ring timing environment the planner needs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentEnv {
    /// The ring's slot time.
    pub slot: TimeDelta,
    /// The ring's guaranteed period `t_slot + t_handover_max`
    /// ([`ccr_edf::analysis::AnalyticModel::guaranteed_period`]): one slot
    /// per period is the long-run service rate the network-calculus layer
    /// builds its per-ring service curves from.
    pub period: TimeDelta,
}

impl SegmentEnv {
    /// The environment of a ring with this analytic model.
    pub fn new(model: &AnalyticModel) -> Self {
        SegmentEnv {
            slot: model.slot(),
            period: model.guaranteed_period(),
        }
    }

    /// The ring's analytic worst-case latency for a single-slot message
    /// (Equation 4, `2·t_slot + t_handover_max`): one slot time past the
    /// guaranteed period.
    pub fn worst_latency(&self) -> TimeDelta {
        let slot_time = self.slot;
        self.period + slot_time
    }

    /// Minimum budget a segment needs to carry an `e`-slot message.
    pub fn floor(&self, size_slots: u32) -> TimeDelta {
        self.worst_latency() + self.slot.times(size_slots.saturating_sub(1) as u64)
    }
}

/// One planned hop of an end-to-end connection.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSegment {
    /// The route segment (ring, entry, exit, following bridge).
    pub segment: Segment,
    /// The per-ring sub-connection to admit on that ring.
    pub spec: ConnectionSpec,
    /// The segment's deadline budget (before the period clamp).
    pub budget: TimeDelta,
}

/// A complete admission plan for one fabric connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionPlan {
    /// The original request.
    pub spec: FabricConnectionSpec,
    /// One entry per route segment, source ring first.
    pub segments: Vec<PlannedSegment>,
}

impl ConnectionPlan {
    /// Bridges crossed by this plan (indices into the fabric's bridge
    /// list), in crossing order.
    pub fn bridges(&self) -> impl Iterator<Item = usize> + '_ {
        self.segments.iter().filter_map(|s| s.segment.bridge)
    }

    /// Bridge directions this plan crosses (see [`Segment::queue`]), in
    /// crossing order.
    pub fn queues(&self) -> impl Iterator<Item = usize> + '_ {
        self.segments.iter().filter_map(|s| s.segment.queue)
    }
}

/// Why an end-to-end connection was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricAdmissionError {
    /// The path could not be formed at all.
    Topology(TopologyError),
    /// Spec invalid on its face (zero period/size, deadline > period, …).
    InvalidSpec(String),
    /// The per-segment latency floors alone exceed the e2e deadline — no
    /// decomposition can meet it.
    DeadlineTooTight {
        /// Sum of the per-segment floors.
        needed: TimeDelta,
        /// The requested e2e deadline.
        available: TimeDelta,
    },
    /// Ring `segment` (index into the plan) refused its sub-connection.
    SegmentRejected {
        /// Index of the refusing segment in the plan.
        segment: usize,
        /// The ring-level admission error.
        error: AdmissionError,
    },
    /// The network-calculus certifier refused the set: with the candidate
    /// added, some flow no longer has a finite certified end-to-end bound
    /// within its deadline (see [`crate::calculus::CalculusAdmission`]).
    Calculus(crate::calculus::CalculusRejection),
}

impl std::fmt::Display for FabricAdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricAdmissionError::Topology(e) => write!(f, "routing failed: {e}"),
            FabricAdmissionError::InvalidSpec(s) => write!(f, "invalid spec: {s}"),
            FabricAdmissionError::DeadlineTooTight { needed, available } => write!(
                f,
                "e2e deadline too tight: segment floors need {needed}, only {available} available"
            ),
            FabricAdmissionError::SegmentRejected { segment, error } => {
                write!(f, "segment #{segment} rejected: {error}")
            }
            FabricAdmissionError::Calculus(e) => {
                write!(f, "calculus certification refused: {e}")
            }
        }
    }
}

impl std::error::Error for FabricAdmissionError {}

impl From<TopologyError> for FabricAdmissionError {
    fn from(e: TopologyError) -> Self {
        FabricAdmissionError::Topology(e)
    }
}

/// Decompose `spec` into per-ring sub-connections over the route that
/// avoids the bridges flagged in `dead` (an empty slice when every bridge
/// is alive; see [`FabricTopology::route`]).
///
/// `envs` must hold one [`SegmentEnv`] per ring of the fabric, indexed by
/// ring id. Pure: consults no network state beyond the timing constants.
/// Returns [`FabricAdmissionError::Topology`] with
/// [`TopologyError::NoRoute`] when the live bridges offer no path.
pub fn plan_connection(
    topo: &FabricTopology,
    spec: &FabricConnectionSpec,
    envs: &[SegmentEnv],
    dead: &[bool],
) -> Result<ConnectionPlan, FabricAdmissionError> {
    validate_spec(spec)?;
    let segments = topo.segments(spec.src, spec.dst, dead)?;
    // Floors: what each segment needs no matter how generous the split.
    let floors: Vec<TimeDelta> = segments
        .iter()
        .map(|s| envs[s.ring.0 as usize].floor(spec.size_slots))
        .collect();
    let need: u64 = floors.iter().map(|f| f.as_ps()).sum();
    let have = spec.e2e_deadline.as_ps();
    if need > have {
        return Err(FabricAdmissionError::DeadlineTooTight {
            needed: TimeDelta::from_ps(need),
            available: spec.e2e_deadline,
        });
    }
    // Slack is divided proportionally to slot time; exact to the ps.
    let weights: Vec<u64> = segments
        .iter()
        .map(|s| envs[s.ring.0 as usize].slot.as_ps())
        .collect();
    let slack = decompose_deadline(TimeDelta::from_ps(have - need), &weights)
        .expect("segments exist with non-zero slot times");
    let planned = segments
        .iter()
        .zip(floors.iter().zip(slack.iter()))
        .enumerate()
        .map(|(i, (seg, (&floor, &extra)))| {
            let budget = floor + extra;
            let rel = budget.min(spec.period);
            let mut sub = ConnectionSpec::unicast(seg.from, seg.to)
                .period(spec.period)
                .size_slots(spec.size_slots)
                .deadline(rel);
            if i == 0 {
                sub = sub.phase(spec.phase);
            }
            PlannedSegment {
                segment: *seg,
                spec: sub,
                budget,
            }
        })
        .collect();
    Ok(ConnectionPlan {
        spec: spec.clone(),
        segments: planned,
    })
}

/// Split an end-to-end relative deadline over `weights.len()` segments,
/// proportionally to `weights`, such that the budgets sum to exactly
/// `e2e`. The integer remainder of the division lands on the earliest
/// segments (one extra picosecond each), which keeps the rule exact and
/// deterministic.
///
/// Returns `None` when there are no segments or every weight is zero.
pub fn decompose_deadline(e2e: TimeDelta, weights: &[u64]) -> Option<Vec<TimeDelta>> {
    if weights.is_empty() {
        return None;
    }
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        return None;
    }
    let d = e2e.as_ps() as u128;
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|&w| ((d * w as u128) / total) as u64)
        .collect();
    let assigned: u128 = budgets.iter().map(|&b| b as u128).sum();
    let mut remainder = (d - assigned) as u64;
    for b in budgets.iter_mut() {
        if remainder == 0 {
            break;
        }
        *b += 1;
        remainder -= 1;
    }
    Some(budgets.into_iter().map(TimeDelta::from_ps).collect())
}

fn validate_spec(spec: &FabricConnectionSpec) -> Result<(), FabricAdmissionError> {
    if spec.size_slots == 0 {
        return Err(FabricAdmissionError::InvalidSpec(
            "zero-size messages".into(),
        ));
    }
    if spec.period.is_zero() {
        return Err(FabricAdmissionError::InvalidSpec("zero period".into()));
    }
    if spec.e2e_deadline.is_zero() {
        return Err(FabricAdmissionError::InvalidSpec(
            "zero e2e deadline".into(),
        ));
    }
    if spec.e2e_deadline > spec.period {
        return Err(FabricAdmissionError::InvalidSpec(format!(
            "e2e deadline {} exceeds period {} (the per-ring model requires D \u{2264} P)",
            spec.e2e_deadline, spec.period
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RingId;
    use ccr_phys::NodeId;

    fn envs3() -> Vec<SegmentEnv> {
        // ring 1 is twice as slow as rings 0 and 2
        vec![
            SegmentEnv {
                slot: TimeDelta::from_us(2),
                period: TimeDelta::from_us(8),
            },
            SegmentEnv {
                slot: TimeDelta::from_us(4),
                period: TimeDelta::from_us(16),
            },
            SegmentEnv {
                slot: TimeDelta::from_us(2),
                period: TimeDelta::from_us(8),
            },
        ]
    }

    #[test]
    fn budgets_cover_floors_and_sum_to_e2e() {
        let topo = FabricTopology::chain(3, 4);
        let spec = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 2))
            .period(TimeDelta::from_us(500))
            .e2e_deadline(TimeDelta::from_us(100));
        let envs = envs3();
        let plan = plan_connection(&topo, &spec, &envs, &[]).unwrap();
        assert_eq!(plan.segments.len(), 3);
        let total: u64 = plan.segments.iter().map(|p| p.budget.as_ps()).sum();
        assert_eq!(total, spec.e2e_deadline.as_ps(), "budgets sum exactly");
        for (p, env) in plan.segments.iter().zip([&envs[0], &envs[1], &envs[2]]) {
            assert!(p.budget >= env.floor(1), "budget covers the floor");
            assert_eq!(p.spec.rel_deadline, Some(p.budget));
            assert_eq!(p.spec.period, spec.period);
        }
        // slower middle ring gets the larger share of the slack
        assert!(plan.segments[1].budget > plan.segments[0].budget);
        // sub-connection endpoints follow the bridge ports
        assert_eq!(plan.segments[0].spec.src, NodeId(1));
        assert_eq!(plan.segments[2].spec.src, NodeId(0));
        assert_eq!(plan.bridges().collect::<Vec<_>>(), vec![0, 1]);
        // ...and the plan carries the directed queues it enters (a→b twice).
        assert_eq!(plan.queues().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn too_tight_deadline_rejected_before_any_ring() {
        let topo = FabricTopology::chain(3, 4);
        let spec = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 2))
            .period(TimeDelta::from_us(500))
            .e2e_deadline(TimeDelta::from_us(30)); // floors alone need 40 µs
        let err = plan_connection(&topo, &spec, &envs3(), &[]).unwrap_err();
        assert_eq!(
            err,
            FabricAdmissionError::DeadlineTooTight {
                needed: TimeDelta::from_us(40),
                available: TimeDelta::from_us(30),
            }
        );
    }

    #[test]
    fn multi_slot_messages_raise_the_floor() {
        let topo = FabricTopology::chain(2, 4);
        let envs = vec![envs3()[0], envs3()[2]];
        let one = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 2))
            .period(TimeDelta::from_us(500))
            .e2e_deadline(TimeDelta::from_us(22));
        assert!(
            plan_connection(&topo, &one, &envs, &[]).is_ok(),
            "1-slot fits"
        );
        let big = one.clone().size_slots(4); // floor grows by 3 slots per segment
        assert!(matches!(
            plan_connection(&topo, &big, &envs, &[]),
            Err(FabricAdmissionError::DeadlineTooTight { .. })
        ));
    }

    #[test]
    fn invalid_specs_rejected() {
        let topo = FabricTopology::chain(2, 4);
        let envs = vec![envs3()[0], envs3()[2]];
        let base = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 2))
            .period(TimeDelta::from_us(100));
        assert!(matches!(
            plan_connection(&topo, &base.clone().size_slots(0), &envs, &[]),
            Err(FabricAdmissionError::InvalidSpec(_))
        ));
        assert!(matches!(
            plan_connection(
                &topo,
                &base.clone().e2e_deadline(TimeDelta::from_us(200)),
                &envs,
                &[]
            ),
            Err(FabricAdmissionError::InvalidSpec(_))
        ));
        // routing failures surface as Topology errors
        let disc = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(0, 1));
        assert!(matches!(
            plan_connection(&topo, &disc, &envs, &[]),
            Err(FabricAdmissionError::Topology(
                TopologyError::SelfConnection(_)
            ))
        ));
        let _ = RingId(0);
    }

    #[test]
    fn same_ring_connection_gets_full_deadline() {
        let topo = FabricTopology::chain(2, 4);
        let envs = vec![envs3()[0], envs3()[2]];
        let spec = FabricConnectionSpec::unicast(GlobalNodeId::new(1, 0), GlobalNodeId::new(1, 3))
            .period(TimeDelta::from_us(100))
            .e2e_deadline(TimeDelta::from_us(60));
        let plan = plan_connection(&topo, &spec, &envs, &[]).unwrap();
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].budget, TimeDelta::from_us(60));
        assert_eq!(
            plan.segments[0].spec.rel_deadline,
            Some(TimeDelta::from_us(60))
        );
    }

    #[test]
    fn decomposition_sums_exactly() {
        let d = TimeDelta::from_ps(1_000_003);
        let parts = decompose_deadline(d, &[3, 3, 1]).unwrap();
        let sum: u64 = parts.iter().map(|p| p.as_ps()).sum();
        assert_eq!(sum, d.as_ps(), "budgets must sum to the e2e deadline");
        // proportionality: the weight-3 segments get ~3× the weight-1 one
        assert!(parts[0] >= parts[2]);
        let ratio = parts[0].as_ps() as f64 / parts[2].as_ps() as f64;
        assert!((ratio - 3.0).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn decomposition_equal_weights_near_even() {
        let d = TimeDelta::from_us(100);
        let parts = decompose_deadline(d, &[1, 1, 1]).unwrap();
        let sum: u64 = parts.iter().map(|p| p.as_ps()).sum();
        assert_eq!(sum, d.as_ps());
        let max = parts.iter().max().unwrap().as_ps();
        let min = parts.iter().min().unwrap().as_ps();
        assert!(max - min <= 1, "remainder spread is at most 1 ps per part");
    }

    #[test]
    fn decomposition_degenerate_inputs() {
        assert!(decompose_deadline(TimeDelta::from_us(1), &[]).is_none());
        assert!(decompose_deadline(TimeDelta::from_us(1), &[0, 0]).is_none());
        let single = decompose_deadline(TimeDelta::from_us(7), &[5]).unwrap();
        assert_eq!(single, vec![TimeDelta::from_us(7)]);
    }
}
