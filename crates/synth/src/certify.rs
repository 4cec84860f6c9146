//! Candidate certification: price a [`Candidate`] with the same
//! network-calculus machinery the fabric engine admits against, without
//! ever building a fabric.
//!
//! The synthesizer certifies against **placement-independent** servers: a
//! single pessimistic [`SegmentEnv`] (derived from the largest ring the
//! search may emit, at a common slot size) is used for every ring, so the
//! calculus server set depends only on the ring count and bridge set —
//! never on where stations sit. Moving a station therefore leaves every
//! service curve untouched, and only the moved station's own flows need a
//! warm-started remove/admit pass ([`Certifier::retarget`]). Structural
//! moves (split, merge, bridge changes) change the server set and build a
//! fresh certifier — those are the counted full solves.
//!
//! The pessimism is sound: the final topology is re-certified with exact
//! per-ring environments at a slot size no larger than the search's, and
//! a shorter slot means a strictly faster service curve, so bounds only
//! tighten.

use crate::candidate::Candidate;
use crate::matrix::{Criticality, StationId, TrafficMatrix};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::config::NetworkConfig;
use ccr_multiring::admission::{plan_connection, ConnectionPlan, SegmentEnv};
use ccr_multiring::prelude::{CalculusAdmission, CalculusRejection};
use ccr_multiring::{
    FabricAdmissionError, FabricConnectionId, FabricConnectionSpec, FabricTopology, GlobalNodeId,
};
use ccr_sim::TimeDelta;

/// Tally of refused candidates/moves by refusal kind — the synthesizer's
/// rejected-candidate census, reported so an infeasible matrix explains
/// *why* nothing worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionCensus {
    /// Long-run demand overloaded a ring or bridge-queue server.
    pub utilisation: u64,
    /// A certified bound exceeded its flow's deadline.
    pub bound_exceeded: u64,
    /// The cyclic fixed point diverged.
    pub diverged: u64,
    /// Per-segment latency floors alone exceeded a deadline (too many
    /// hops for the deadline, regardless of load).
    pub deadline_floor: u64,
    /// No route/degenerate routing on the candidate.
    pub routing: u64,
    /// The candidate violated shape limits (ring node counts,
    /// connectivity) before any pricing ran.
    pub shape: u64,
}

impl RejectionCensus {
    /// Total refusals across every kind.
    pub fn total(&self) -> u64 {
        self.utilisation
            + self.bound_exceeded
            + self.diverged
            + self.deadline_floor
            + self.routing
            + self.shape
    }

    /// Record one refusal.
    pub(crate) fn record(&mut self, r: &Refusal) {
        match r {
            Refusal::Utilisation => self.utilisation += 1,
            Refusal::BoundExceeded => self.bound_exceeded += 1,
            Refusal::Diverged => self.diverged += 1,
            Refusal::DeadlineFloor => self.deadline_floor += 1,
            Refusal::Routing => self.routing += 1,
            Refusal::Shape => self.shape += 1,
        }
    }
}

/// Why one certification attempt failed (internal census key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    Utilisation,
    BoundExceeded,
    Diverged,
    DeadlineFloor,
    Routing,
    Shape,
}

pub(crate) fn classify(e: &FabricAdmissionError) -> Refusal {
    match e {
        FabricAdmissionError::Calculus(CalculusRejection::Utilisation { .. }) => {
            Refusal::Utilisation
        }
        FabricAdmissionError::Calculus(CalculusRejection::BoundExceeded { .. }) => {
            Refusal::BoundExceeded
        }
        FabricAdmissionError::Calculus(CalculusRejection::Diverged { .. }) => Refusal::Diverged,
        FabricAdmissionError::Calculus(CalculusRejection::Malformed) => Refusal::Shape,
        FabricAdmissionError::DeadlineTooTight { .. } => Refusal::DeadlineFloor,
        FabricAdmissionError::Topology(_) => Refusal::Routing,
        _ => Refusal::Shape,
    }
}

/// The segment environment of an `n_nodes` ring at `slot_bytes`: the
/// slot time depends only on the payload, but the worst hand-over gap
/// grows with the ring (Eq. 1 prices clock hand-over by hop distance),
/// so the environment is ring-size dependent. The search certifies every
/// ring at `max_ring_nodes` — pessimistic for anything smaller — and the
/// final certification re-derives each ring's exact environment.
pub(crate) fn probe_env(n_nodes: u16, slot_bytes: u32) -> Option<(SegmentEnv, u32)> {
    let cfg = NetworkConfig::builder(n_nodes)
        .slot_bytes(slot_bytes)
        .build_auto_slot()
        .ok()?;
    Some((SegmentEnv::new(&AnalyticModel::new(&cfg)), cfg.slot_bytes))
}

/// The smallest slot payload a ring of `n_nodes` can run (its control
/// phases must fit in one slot, so the floor grows with the ring).
pub(crate) fn min_slot_bytes(n_nodes: u16) -> Option<u32> {
    NetworkConfig::builder(n_nodes)
        .slot_bytes(1)
        .build_auto_slot()
        .ok()
        .map(|c| c.slot_bytes)
}

/// A live certification of one candidate: the frozen topology, the
/// station → node map, and the warm incremental calculus state holding
/// every guaranteed flow of the matrix.
pub(crate) struct Certifier {
    pub topo: FabricTopology,
    pub station_nodes: Vec<GlobalNodeId>,
    envs: Vec<SegmentEnv>,
    calc: CalculusAdmission,
    /// admit_batch invocations (the "certifier calls" bench metric).
    pub calls: u64,
    /// How many of those ran as full re-solves.
    pub full_solves: u64,
}

impl Certifier {
    /// Build the server set for `candidate` and certify every guaranteed
    /// flow of `matrix` in one batch. Best-effort flows are only checked
    /// for routability.
    pub fn new(
        candidate: &Candidate,
        matrix: &TrafficMatrix,
        envs: Vec<SegmentEnv>,
    ) -> Result<Self, Refusal> {
        if !candidate.shape_ok() || !candidate.connected() {
            return Err(Refusal::Shape);
        }
        let (topo, station_nodes) = candidate.build_topology().map_err(|_| Refusal::Routing)?;
        debug_assert_eq!(envs.len(), topo.n_rings() as usize);
        let calc = CalculusAdmission::new(&envs, &topo.queue_egress()).ok_or(Refusal::Shape)?;
        let mut cert = Certifier {
            topo,
            station_nodes,
            envs,
            calc,
            calls: 0,
            full_solves: 0,
        };
        // Routability of every flow (best-effort included) comes first:
        // a candidate that cannot even place a flow is refused before any
        // pricing.
        for f in matrix.flows.iter() {
            cert.topo
                .segments(
                    cert.station_nodes[f.src.0 as usize],
                    cert.station_nodes[f.dst.0 as usize],
                    &[],
                )
                .map_err(|_| Refusal::Routing)?;
        }
        let keys: Vec<usize> = matrix.guaranteed().map(|(i, _)| i).collect();
        cert.admit_flows(matrix, &keys)?;
        Ok(cert)
    }

    /// The spec a matrix flow certifies (and later admits on the real
    /// fabric) as.
    pub fn spec_for(&self, matrix: &TrafficMatrix, key: usize) -> FabricConnectionSpec {
        let f = &matrix.flows[key];
        FabricConnectionSpec::unicast(
            self.station_nodes[f.src.0 as usize],
            self.station_nodes[f.dst.0 as usize],
        )
        .period(f.period)
        .size_slots(f.size_slots)
        .e2e_deadline(f.deadline)
    }

    /// Plan one flow on the current topology.
    pub fn plan_for(&self, matrix: &TrafficMatrix, key: usize) -> Result<ConnectionPlan, Refusal> {
        plan_connection(&self.topo, &self.spec_for(matrix, key), &self.envs, &[])
            .map_err(|e| classify(&e))
    }

    /// Certify-and-install a batch of matrix flows (by index) in one warm
    /// fixed-point pass. All-or-nothing: on refusal the solver state is
    /// exactly as before.
    pub fn admit_flows(&mut self, matrix: &TrafficMatrix, keys: &[usize]) -> Result<(), Refusal> {
        if keys.is_empty() {
            return Ok(());
        }
        let mut plans = Vec::with_capacity(keys.len());
        for &k in keys {
            plans.push(self.plan_for(matrix, k)?);
        }
        let batch: Vec<(FabricConnectionId, &ConnectionPlan)> = keys
            .iter()
            .map(|&k| FabricConnectionId(k as u64))
            .zip(plans.iter())
            .collect();
        self.calls += 1;
        match self.calc.admit_batch(&batch) {
            Ok(report) => {
                if report.full {
                    self.full_solves += 1;
                }
                Ok(())
            }
            Err(e) => Err(classify(&FabricAdmissionError::Calculus(e))),
        }
    }

    /// Release a batch of matrix flows in one warm pass.
    pub fn remove_flows(&mut self, keys: &[usize]) {
        if keys.is_empty() {
            return;
        }
        let fids: Vec<FabricConnectionId> =
            keys.iter().map(|&k| FabricConnectionId(k as u64)).collect();
        self.calc.remove_batch(&fids);
    }

    /// Swap in a mutated candidate whose **server set is unchanged** (same
    /// ring count, same bridges — i.e. a station move). The warm solver
    /// state carries over; only the flows whose routes changed need a
    /// [`Certifier::remove_flows`]/[`Certifier::admit_flows`] pass.
    pub fn retarget(&mut self, candidate: &Candidate) -> Result<(), Refusal> {
        if !candidate.shape_ok() || !candidate.connected() {
            return Err(Refusal::Shape);
        }
        let (topo, station_nodes) = candidate.build_topology().map_err(|_| Refusal::Routing)?;
        debug_assert_eq!(topo.n_rings(), self.topo.n_rings());
        debug_assert_eq!(topo.queue_egress(), self.topo.queue_egress());
        self.topo = topo;
        self.station_nodes = station_nodes;
        Ok(())
    }

    /// The certified bound of flow `key`, from the current fixed point.
    pub fn bound(&self, key: usize) -> Option<TimeDelta> {
        self.calc.bound(FabricConnectionId(key as u64))
    }

    /// Total certified slack (deadline − bound) across the guaranteed
    /// flows — the cost model's tiebreak, larger is better.
    pub fn total_slack(&self, matrix: &TrafficMatrix) -> TimeDelta {
        let mut acc = TimeDelta::ZERO;
        for (k, f) in matrix.guaranteed() {
            if let Some(b) = self.bound(k) {
                acc += f.deadline.saturating_sub(b);
            }
        }
        acc
    }

    /// Per-ring guaranteed utilisation (demand over guaranteed service
    /// rate), transit traffic included — derived from the current plans.
    pub fn ring_utilisation(&self, matrix: &TrafficMatrix) -> Vec<f64> {
        let mut demand = vec![0.0f64; self.topo.n_rings() as usize];
        for (k, f) in matrix.guaranteed() {
            if let Ok(plan) = self.plan_for(matrix, k) {
                for seg in &plan.segments {
                    demand[seg.segment.ring.0 as usize] += f.rate();
                }
            }
        }
        demand
            .into_iter()
            .zip(self.envs.iter())
            .map(|(d, env)| d * env.period.as_ps() as f64)
            .collect()
    }

    /// Flows of the matrix whose route touches station `s` (source or
    /// destination) — exactly the set a station move dirties.
    pub fn flows_touching(matrix: &TrafficMatrix, s: StationId) -> Vec<usize> {
        matrix
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.criticality == Criticality::Guaranteed && (f.src == s || f.dst == s))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Reference certification: a fresh solver in forced-full mode admits the
/// whole guaranteed set in one batch and reports every bound. The
/// differential property — warm-started search state ≡ this, bit for bit
/// at the picosecond — is what the synth property suite checks.
pub(crate) fn full_reference_bounds(
    candidate: &Candidate,
    matrix: &TrafficMatrix,
    envs: Vec<SegmentEnv>,
) -> Result<Vec<(usize, TimeDelta)>, Refusal> {
    let (topo, station_nodes) = candidate.build_topology().map_err(|_| Refusal::Routing)?;
    let mut calc = CalculusAdmission::new(&envs, &topo.queue_egress()).ok_or(Refusal::Shape)?;
    calc.set_force_full(true);
    let mut plans = Vec::new();
    let mut keys = Vec::new();
    for (k, f) in matrix.guaranteed() {
        let spec = FabricConnectionSpec::unicast(
            station_nodes[f.src.0 as usize],
            station_nodes[f.dst.0 as usize],
        )
        .period(f.period)
        .size_slots(f.size_slots)
        .e2e_deadline(f.deadline);
        plans.push(plan_connection(&topo, &spec, &envs, &[]).map_err(|e| classify(&e))?);
        keys.push(k);
    }
    let batch: Vec<(FabricConnectionId, &ConnectionPlan)> = keys
        .iter()
        .map(|&k| FabricConnectionId(k as u64))
        .zip(plans.iter())
        .collect();
    calc.admit_batch(&batch)
        .map_err(|e| classify(&FabricAdmissionError::Calculus(e)))?;
    Ok(keys
        .iter()
        .map(|&k| {
            (
                k,
                calc.bound(FabricConnectionId(k as u64))
                    .expect("just admitted"),
            )
        })
        .collect())
}
