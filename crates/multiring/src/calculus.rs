//! Network-calculus admission for the fabric: certified end-to-end delay
//! bounds, including on **cyclic** ring graphs the per-hop budget
//! decomposition cannot cover.
//!
//! [`crate::admission`]'s summation argument — per-segment budgets that
//! add up to the e2e deadline — is only sound on acyclic fabrics, which is
//! why [`crate::topology`] historically rejected cycles outright. This
//! module closes that gap with the min-plus machinery of
//! [`ccr_calculus`]. The server set the solver prices has two kinds of
//! node:
//!
//! * **rings** — rate-latency servers `β(t) = R·(t − T)⁺` with
//!   `R = 1/(slot + h_max)` slots per picosecond (the paper's guaranteed
//!   long-run slot rate, Eq. 4 environment) and `T = worst_latency`.
//!   Rings schedule their slots EDF (the paper's headline), so every ring
//!   hop carries the segment's relative deadline as its *class* and the
//!   solver prices it with per-deadline-class left-over service, never
//!   looser than blind multiplexing.
//! * **bridge queues** — one server per directed bridge queue, replacing
//!   the old constant residents-based crossing delay with a flow-aware
//!   aggregation curve. The engine's forwarding phase drains up to
//!   `forward_per_slot` queued messages per fabric slot unconditionally,
//!   and a message occupies at least one slot, so
//!   `β(t) = (forward_per_slot / per_slot) · (t − per_slot)⁺` (in the
//!   egress ring's slot time) is a guaranteed service floor. Queues drain
//!   FIFO, not EDF, so queue hops are priced blindly (infinite class).
//!
//! Each admitted connection contributes a token-bucket arrival
//! `α(t) = e + (e/P)·t` slots along its interleaved ring/queue path.
//!
//! Admission is **incremental**: the [`ccr_calculus::IncrementalSolver`]
//! keeps the converged fixed point and its per-server aggregates, and
//! [`CalculusAdmission::admit_batch`] re-derives only the dirty set of
//! servers the batch touches. Of the flows there, only those with a dirty
//! hop before their last iterate; the rest are re-priced once. One
//! fixed-point pass is amortised over the whole batch. A refusal — by
//! the solver, by the deadline gate here, or by the rings after
//! [`CalculusAdmission::certify`] — is undone exactly from the solver's
//! undo log, with no second solve. Verdicts are bit-for-bit
//! deterministic: flows enter in admission-id order and every operator in
//! the kernel is an exact closed form. The forced full-solve reference
//! ([`CalculusAdmission::set_force_full`]) runs the same arithmetic with
//! everything dirty, which is what the differential suite leans on.

use crate::admission::{ConnectionPlan, FabricConnectionId, SegmentEnv};
use crate::bridge::BridgeConfig;
use ccr_calculus::{
    ArrivalCurve, FlowSpec, IncrementalSolver, ServiceCurve, SolveError, SolveReport, SolverSession,
};
use ccr_sim::TimeDelta;
use std::collections::BTreeMap;

/// Why the calculus certifier refused a candidate batch.
#[derive(Debug, Clone, PartialEq)]
pub enum CalculusRejection {
    /// Long-run rates alone overload ring `ring` — no bound exists. (Ring
    /// indices ≥ the ring count name bridge-queue servers.)
    Utilisation {
        /// Server index (rings first, then bridge queues).
        ring: usize,
        /// Aggregate demand (slots per picosecond).
        demand: f64,
        /// Guaranteed service rate (slots per picosecond).
        capacity: f64,
    },
    /// The cyclic fixed point diverged: output burstiness crossed the cap
    /// or was still moving after the iteration ceiling.
    Diverged {
        /// Fixed-point rounds executed before giving up.
        iterations: usize,
        /// Largest hop-arrival burst seen (slots).
        worst_burst: f64,
    },
    /// A flow's certified bound exceeds its e2e deadline. `flow` is
    /// `None` for a candidate of the rejected batch, `Some(fid)` when
    /// admitting the batch would break an *existing* flow's certificate.
    BoundExceeded {
        /// The flow whose certificate fails (`None` = a batch candidate).
        flow: Option<FabricConnectionId>,
        /// The certified end-to-end delay bound.
        bound: TimeDelta,
        /// That flow's end-to-end deadline.
        deadline: TimeDelta,
    },
    /// A candidate could not be translated into a flow model (degenerate
    /// period or size, or a bridge queue outside the queue set).
    Malformed,
}

impl std::fmt::Display for CalculusRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalculusRejection::Utilisation {
                ring,
                demand,
                capacity,
            } => write!(
                f,
                "ring {ring} over-utilised: demand {demand:.3e} \u{2265} capacity {capacity:.3e} slots/ps"
            ),
            CalculusRejection::Diverged {
                iterations,
                worst_burst,
            } => write!(
                f,
                "fixed point diverged after {iterations} iteration(s) (worst burst {worst_burst:.3e} slots)"
            ),
            CalculusRejection::BoundExceeded {
                flow,
                bound,
                deadline,
            } => match flow {
                Some(fid) => write!(
                    f,
                    "existing connection {fid:?} would lose its certificate: bound {bound} > deadline {deadline}"
                ),
                None => write!(f, "candidate bound {bound} exceeds its deadline {deadline}"),
            },
            CalculusRejection::Malformed => write!(f, "candidate has a degenerate flow model"),
        }
    }
}

impl std::error::Error for CalculusRejection {}

/// How an accepted certification ran — surfaced so the engine can count
/// warm-started versus full re-solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalculusReport {
    /// Fixed-point sweeps the solver executed.
    pub iterations: usize,
    /// `true` when the pass ran as a full re-solve (first fill, forced
    /// reference mode, or recovery from a tainted warm start).
    pub full: bool,
    /// Flows whose bounds were re-derived by this pass (the dirty set).
    pub dirty_flows: usize,
    /// Dirty flows the fixed point iterated (a dirty hop before their
    /// last); the others were only re-priced.
    pub iterated_flows: usize,
}

impl From<&SolveReport> for CalculusReport {
    fn from(r: &SolveReport) -> Self {
        CalculusReport {
            iterations: r.iterations,
            full: r.full,
            dirty_flows: r.dirty_flows.len(),
            iterated_flows: r.iterated_flows,
        }
    }
}

/// A certified batch that is not installed yet: the solver holds the
/// candidates, but dropping this undoes them exactly (the resident bounds
/// return bit for bit) until [`CertifiedBatch::commit`] keeps them.
#[derive(Debug)]
pub struct CertifiedBatch<'a> {
    session: SolverSession<'a>,
    deadlines: &'a mut BTreeMap<u64, f64>,
    admitted: Vec<(u64, f64)>,
    report: CalculusReport,
}

impl CertifiedBatch<'_> {
    /// How the certification ran.
    pub fn report(&self) -> CalculusReport {
        self.report
    }

    /// Install the batch: its flows stay certified.
    pub fn commit(self) -> CalculusReport {
        self.session.commit();
        self.deadlines.extend(self.admitted);
        self.report
    }
}

/// Stateful end-to-end certifier holding the warm-started incremental
/// solver. See the module docs for the server model.
#[derive(Debug, Clone)]
pub struct CalculusAdmission {
    solver: IncrementalSolver,
    /// Ring count; bridge-queue server `q` lives at index `n_rings + q`.
    n_rings: usize,
    /// Queue count (servers `n_rings..n_rings + n_queues`).
    n_queues: usize,
    /// End-to-end deadline (picoseconds) per admitted flow.
    deadlines: BTreeMap<u64, f64>,
}

impl CalculusAdmission {
    /// Build the certifier from the per-ring timing environments and the
    /// bridge-queue topology (`queue_egress[q]` = the ring queue `q`
    /// drains into, as computed by the engine). Returns `None` when an
    /// environment is degenerate (zero `slot + h_max`), which validated
    /// ring configurations never produce.
    pub fn new(envs: &[SegmentEnv], bridge: &BridgeConfig, queue_egress: &[usize]) -> Option<Self> {
        let mut per_slot_ps = Vec::with_capacity(envs.len());
        let mut services = Vec::with_capacity(envs.len() + queue_egress.len());
        for env in envs {
            let per_slot = (env.slot + env.max_handover).as_ps() as f64;
            let latency = env.worst_latency.as_ps() as f64;
            if per_slot <= 0.0 {
                return None;
            }
            services.push(ServiceCurve::rate_latency(1.0 / per_slot, latency).ok()?);
            per_slot_ps.push(per_slot);
        }
        let fps = f64::from(bridge.forward_per_slot.max(1));
        for &egress in queue_egress {
            let per_slot = *per_slot_ps.get(egress)?;
            services.push(ServiceCurve::rate_latency(fps / per_slot, per_slot).ok()?);
        }
        Some(CalculusAdmission {
            solver: IncrementalSolver::new(&services),
            n_rings: envs.len(),
            n_queues: queue_egress.len(),
            deadlines: BTreeMap::new(),
        })
    }

    /// Number of flows currently certified.
    #[cfg(test)]
    pub fn certified_flows(&self) -> usize {
        self.solver.len()
    }

    /// The certified e2e delay bound of an admitted flow — always derived
    /// from the solver's current fixed point, so it reflects the present
    /// admitted set.
    pub fn bound(&self, fid: FabricConnectionId) -> Option<TimeDelta> {
        self.solver
            .bounds(fid.0)
            .map(|b| TimeDelta::from_ps_f64_saturating(b.e2e_delay.ceil()))
    }

    /// Force every certification to run as a full re-solve — the bit-exact
    /// reference mode the differential suite compares warm starts against.
    pub fn set_force_full(&mut self, on: bool) {
        self.solver.set_force_full(on);
    }

    /// Certify and install a batch of candidates atomically, one warm
    /// fixed-point pass for the whole batch. Either every candidate is
    /// admitted (and every re-derived bound — old and new flows alike —
    /// stays within its deadline), or the solver state is exactly as
    /// before the call. Each plan's segments carry the bridge queues it
    /// enters.
    pub fn admit_batch(
        &mut self,
        batch: &[(FabricConnectionId, &ConnectionPlan)],
    ) -> Result<CalculusReport, CalculusRejection> {
        self.certify(batch).map(CertifiedBatch::commit)
    }

    /// Certify a batch like [`CalculusAdmission::admit_batch`], but keep it
    /// revocable: the returned [`CertifiedBatch`] installs it on commit and
    /// undoes it exactly on drop. A refusal is undone before this returns.
    pub fn certify(
        &mut self,
        batch: &[(FabricConnectionId, &ConnectionPlan)],
    ) -> Result<CertifiedBatch<'_>, CalculusRejection> {
        let mut flows = Vec::with_capacity(batch.len());
        for (fid, plan) in batch {
            flows.push((fid.0, self.flow_from_plan(plan)?));
        }
        let admitted: Vec<(u64, f64)> = batch
            .iter()
            .map(|(fid, plan)| (fid.0, plan.spec.e2e_deadline.as_ps() as f64))
            .collect();
        // The candidate batch runs inside a solver session: dropping the
        // session without committing (any early return below) undoes the
        // admission from the solver's log, restoring the prior fixed point
        // bit for bit.
        let mut session = self.solver.session();
        let report = session.admit(&flows).map_err(map_solve_error)?;
        // Deadline gate over the dirty set only: clean flows kept their
        // stored bounds, which passed this same gate when they were last
        // derived. Dirty keys ascend, and batch candidates carry the
        // largest ids, so an existing victim is named before a candidate.
        for &key in &report.dirty_flows {
            let bound_ps = session
                .bounds(key)
                .map(|b| b.e2e_delay)
                .unwrap_or(f64::INFINITY);
            let deadline_ps = self
                .deadlines
                .get(&key)
                .copied()
                .or_else(|| admitted.iter().find(|(k, _)| *k == key).map(|(_, d)| *d))
                .unwrap_or(f64::INFINITY);
            if bound_ps > deadline_ps {
                let candidate = admitted.iter().any(|(k, _)| *k == key);
                return Err(CalculusRejection::BoundExceeded {
                    flow: (!candidate).then_some(FabricConnectionId(key)),
                    bound: TimeDelta::from_ps_f64_saturating(bound_ps.ceil()),
                    deadline: TimeDelta::from_ps_f64_saturating(deadline_ps),
                });
            }
        }
        Ok(CertifiedBatch {
            session,
            deadlines: &mut self.deadlines,
            admitted,
            report: CalculusReport::from(&report),
        })
    }

    /// Release a batch of flows in one warm-started pass. Unknown ids are
    /// ignored.
    pub fn remove_batch(&mut self, fids: &[FabricConnectionId]) -> CalculusReport {
        let keys: Vec<u64> = fids.iter().map(|fid| fid.0).collect();
        for key in &keys {
            self.deadlines.remove(key);
        }
        CalculusReport::from(&self.solver.remove(&keys))
    }

    /// Release a single flow. See [`CalculusAdmission::remove_batch`].
    pub fn remove(&mut self, fid: FabricConnectionId) -> CalculusReport {
        self.remove_batch(&[fid])
    }

    /// Translate a plan into the solver's [`FlowSpec`]: rings and bridge
    /// queues interleaved along the route, EDF classes on the ring hops
    /// (the per-segment relative-deadline budget), blind bridge queues,
    /// no constant hop delays — queueing is priced by the queue servers.
    fn flow_from_plan(&self, plan: &ConnectionPlan) -> Result<FlowSpec, CalculusRejection> {
        let period_ps = plan.spec.period.as_ps() as f64;
        let burst = f64::from(plan.spec.size_slots);
        if plan.segments.is_empty()
            || period_ps <= 0.0
            || burst <= 0.0
            || plan.queues().any(|q| q >= self.n_queues)
        {
            return Err(CalculusRejection::Malformed);
        }
        let arrival = ArrivalCurve::token_bucket(burst, burst / period_ps)
            .map_err(|_| CalculusRejection::Malformed)?;
        // One ring hop per segment, one queue hop between each pair.
        let hops = 2 * plan.segments.len() - 1;
        let mut path = Vec::with_capacity(hops);
        let mut classes = Vec::with_capacity(hops);
        for seg in &plan.segments {
            path.push(seg.segment.ring.0 as usize);
            let budget_ps = seg.budget.as_ps() as f64;
            classes.push(if budget_ps > 0.0 {
                budget_ps
            } else {
                f64::INFINITY
            });
            if let Some(q) = seg.segment.queue {
                path.push(self.n_rings + q);
                classes.push(f64::INFINITY);
            }
        }
        let mut spec = FlowSpec::blind(path, arrival, vec![0.0; classes.len()]);
        spec.classes = classes;
        Ok(spec)
    }

    /// Test-only: admit a hand-built flow model directly, bypassing the
    /// planner (which floors deadlines and would never emit pathological
    /// rates).
    #[cfg(test)]
    fn admit_raw(
        &mut self,
        batch: &[(u64, FlowSpec, f64)],
    ) -> Result<CalculusReport, CalculusRejection> {
        let flows: Vec<(u64, FlowSpec)> = batch.iter().map(|(k, s, _)| (*k, s.clone())).collect();
        let report = self.solver.admit(&flows).map_err(map_solve_error)?;
        for (k, _, deadline_ps) in batch {
            self.deadlines.insert(*k, *deadline_ps);
        }
        Ok(CalculusReport::from(&report))
    }
}

fn map_solve_error(e: SolveError) -> CalculusRejection {
    match e {
        SolveError::MalformedFlow { .. } => CalculusRejection::Malformed,
        SolveError::Utilisation {
            ring,
            demand,
            capacity,
        } => CalculusRejection::Utilisation {
            ring,
            demand,
            capacity,
        },
        SolveError::Diverged {
            iterations,
            worst_burst,
        } => CalculusRejection::Diverged {
            iterations,
            worst_burst,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{plan_connection, FabricConnectionSpec};
    use crate::topology::{FabricTopology, GlobalNodeId};

    fn envs(n: usize) -> Vec<SegmentEnv> {
        (0..n)
            .map(|_| SegmentEnv {
                slot: TimeDelta::from_us(2),
                worst_latency: TimeDelta::from_us(10),
                max_handover: TimeDelta::from_us(6),
            })
            .collect()
    }

    fn plan_for(
        topo: &FabricTopology,
        envs: &[SegmentEnv],
        src: GlobalNodeId,
        dst: GlobalNodeId,
        period: TimeDelta,
    ) -> ConnectionPlan {
        let spec = FabricConnectionSpec::unicast(src, dst).period(period);
        plan_connection(topo, &spec, envs, &[]).expect("plan exists")
    }

    #[test]
    fn certifies_admits_and_releases_a_chain_flow() {
        let topo = FabricTopology::chain(2, 6);
        let envs = envs(2);
        let mut calc =
            CalculusAdmission::new(&envs, &BridgeConfig::default(), &topo.queue_egress()).unwrap();
        let plan = plan_for(
            &topo,
            &envs,
            GlobalNodeId::new(0, 1),
            GlobalNodeId::new(1, 3),
            TimeDelta::from_ms(1),
        );
        let fid = FabricConnectionId(1);
        let report = calc
            .admit_batch(&[(fid, &plan)])
            .expect("lightly loaded chain certifies");
        assert_eq!(report.dirty_flows, 1);
        assert_eq!(calc.certified_flows(), 1);
        let bound = calc.bound(fid).expect("bound installed");
        assert!(bound > TimeDelta::ZERO);
        assert!(bound <= plan.spec.e2e_deadline);
        calc.remove(fid);
        assert_eq!(calc.certified_flows(), 0);
        assert!(calc.bound(fid).is_none());
    }

    #[test]
    fn over_utilised_ring_is_refused_with_diagnostic() {
        let envs = envs(2);
        let queues = FabricTopology::chain(2, 6).queue_egress();
        let mut calc = CalculusAdmission::new(&envs, &BridgeConfig::default(), &queues).unwrap();
        // Service rate is 1 slot / 8 µs = 1.25e-7 slots/ps. Two flows at
        // 0.8e-7 each push ring 0 past capacity, so the batch is refused on
        // long-run rates alone and rolls back whole. (Flows this hot cannot
        // come out of the planner — its deadline floors keep every plannable
        // candidate under capacity — so build the models directly.)
        let hot = |key: u64| {
            let arrival = ArrivalCurve::token_bucket(1.0, 0.8e-7).unwrap();
            (key, FlowSpec::blind(vec![0], arrival, vec![0.0]), 1e12)
        };
        match calc.admit_raw(&[hot(1), hot(2)]) {
            Err(CalculusRejection::Utilisation {
                ring: 0,
                demand,
                capacity,
            }) => {
                assert!(demand >= capacity);
            }
            other => panic!("expected utilisation rejection, got {other:?}"),
        }
        assert_eq!(calc.certified_flows(), 0, "batch rolled back whole");
        // One of them alone fits fine.
        calc.admit_raw(&[hot(3)]).expect("single hot flow fits");
        assert_eq!(calc.certified_flows(), 1);
    }

    #[test]
    fn candidate_breaking_an_existing_certificate_is_refused() {
        let topo = FabricTopology::chain(2, 6);
        let envs = envs(2);
        let mut calc =
            CalculusAdmission::new(&envs, &BridgeConfig::default(), &topo.queue_egress()).unwrap();
        // Admit a flow, then shrink its recorded deadline to its certified
        // bound: any extra cross traffic on its servers pushes the bound
        // past the deadline and must name it as the victim.
        let plan = plan_for(
            &topo,
            &envs,
            GlobalNodeId::new(0, 1),
            GlobalNodeId::new(1, 3),
            TimeDelta::from_ms(1),
        );
        let fid = FabricConnectionId(1);
        calc.admit_batch(&[(fid, &plan)]).unwrap();
        let tight = calc.bound(fid).unwrap();
        calc.deadlines.insert(fid.0, tight.as_ps() as f64);
        let before = calc.bound(fid);
        let candidate = plan_for(
            &topo,
            &envs,
            GlobalNodeId::new(0, 2),
            GlobalNodeId::new(1, 4),
            TimeDelta::from_ms(1),
        );
        match calc.admit_batch(&[(FabricConnectionId(2), &candidate)]) {
            Err(CalculusRejection::BoundExceeded { flow, .. }) => {
                assert_eq!(flow, Some(fid), "the victim is named");
            }
            other => panic!("expected certificate break, got {other:?}"),
        }
        // The refused candidate rolled back: the victim's bound recovered.
        assert_eq!(calc.certified_flows(), 1);
        assert_eq!(calc.bound(fid), before);
    }

    #[test]
    fn verdicts_are_deterministic_across_recomputation() {
        let topo = FabricTopology::chain(3, 6);
        let envs = envs(3);
        let base =
            CalculusAdmission::new(&envs, &BridgeConfig::default(), &topo.queue_egress()).unwrap();
        let plan = plan_for(
            &topo,
            &envs,
            GlobalNodeId::new(0, 1),
            GlobalNodeId::new(2, 3),
            TimeDelta::from_ms(2),
        );
        let fid = FabricConnectionId(1);
        let mut a = base.clone();
        let mut b = base.clone();
        let ra = a.admit_batch(&[(fid, &plan)]).unwrap();
        let rb = b.admit_batch(&[(fid, &plan)]).unwrap();
        assert_eq!(a.bound(fid), b.bound(fid));
        assert_eq!(ra, rb);
    }

    #[test]
    fn warm_start_matches_forced_full_reference() {
        let topo = FabricTopology::chain(3, 6);
        let envs = envs(3);
        let mut warm =
            CalculusAdmission::new(&envs, &BridgeConfig::default(), &topo.queue_egress()).unwrap();
        let mut full = warm.clone();
        full.set_force_full(true);
        let mut fid = 0u64;
        for (src, dst) in [
            (GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 3)),
            (GlobalNodeId::new(1, 2), GlobalNodeId::new(2, 4)),
            (GlobalNodeId::new(0, 3), GlobalNodeId::new(1, 4)),
        ] {
            fid += 1;
            let plan = plan_for(&topo, &envs, src, dst, TimeDelta::from_ms(2));
            warm.admit_batch(&[(FabricConnectionId(fid), &plan)])
                .unwrap();
            full.admit_batch(&[(FabricConnectionId(fid), &plan)])
                .unwrap();
        }
        for k in 1..=fid {
            assert_eq!(
                warm.bound(FabricConnectionId(k)),
                full.bound(FabricConnectionId(k)),
                "flow {k}"
            );
        }
        // Releases stay bit-identical too.
        warm.remove(FabricConnectionId(2));
        full.remove(FabricConnectionId(2));
        for k in [1, 3] {
            assert_eq!(
                warm.bound(FabricConnectionId(k)),
                full.bound(FabricConnectionId(k)),
                "flow {k} after release"
            );
        }
    }
}
