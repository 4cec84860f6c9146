//! Online centralised admission control (Section 6).
//!
//! "The set Ma contains the logical real-time connections that have been
//! tested for feasibility and are accepted. … If the utilisation of the
//! logical real-time connections in Ma together with the new connection is
//! below U_max then the new logical real-time connection is admitted."
//!
//! [`AdmissionController`] is the pure decision kernel; the in-network
//! version (a designated node reached over best-effort messages, experiment
//! E8) lives in `ccr-netsim` and delegates every decision here.

use crate::analysis::AnalyticModel;
use crate::connection::{ConnectionId, ConnectionSpec};
use crate::dbf;
use crate::message::Destination;
use ccr_phys::{NodeId, RingTopology};
use std::collections::BTreeMap;

/// Which feasibility test the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// The paper's Equation 5 utilisation test. Exact for implicit
    /// deadlines (D = P); **unsound** for constrained deadlines (D < P),
    /// which it simply ignores — see experiment E15.
    #[default]
    Utilisation,
    /// Processor-demand criterion ([`crate::dbf`]): sound for constrained
    /// deadlines, equivalent to Equation 5 (modulo floor effects) for
    /// implicit ones.
    DemandBound,
}

/// Why a connection request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// Admitting would push utilisation above `U_max`.
    Overload {
        /// Utilisation already admitted.
        current: f64,
        /// Utilisation the new connection would add.
        requested: f64,
        /// The bound of Equation 6.
        u_max: f64,
    },
    /// The spec itself is malformed.
    InvalidSpec(String),
    /// The demand-bound test failed (constrained deadlines unschedulable
    /// even though utilisation fits).
    DemandOverrun {
        /// Human-readable verdict detail.
        detail: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overload {
                current,
                requested,
                u_max,
            } => write!(
                f,
                "admission refused: {current:.4} + {requested:.4} > U_max {u_max:.4}"
            ),
            AdmissionError::InvalidSpec(s) => write!(f, "invalid connection spec: {s}"),
            AdmissionError::DemandOverrun { detail } => {
                write!(f, "admission refused by demand-bound test: {detail}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The admission controller: owns the admitted set `Ma` and applies the
/// test of Equations 5–6.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    model: AnalyticModel,
    topo: RingTopology,
    policy: AdmissionPolicy,
    /// The admitted set `Ma` in id order: each connection's full spec
    /// (the demand-bound test and revalidation read it) and utilisation.
    admitted: BTreeMap<ConnectionId, (ConnectionSpec, f64)>,
    /// Best-effort registrations: validated and id-allocated, but outside
    /// `Ma` — they contribute no utilisation and are invisible to the
    /// feasibility tests, because best-effort traffic only rides capacity
    /// the guaranteed set leaves idle.
    best_effort: BTreeMap<ConnectionId, ConnectionSpec>,
    total: f64,
    next_id: u64,
    /// Degraded-mode scaling of `U_max` in `[0, 1]` — 1.0 when the ring is
    /// healthy; lowered after capacity loss (see [`Self::revalidate`]).
    capacity_factor: f64,
}

impl AdmissionController {
    /// New controller running the paper's utilisation test.
    pub fn new(model: AnalyticModel, topo: RingTopology) -> Self {
        Self::with_policy(model, topo, AdmissionPolicy::Utilisation)
    }

    /// New controller with an explicit feasibility policy.
    pub fn with_policy(model: AnalyticModel, topo: RingTopology, policy: AdmissionPolicy) -> Self {
        AdmissionController {
            model,
            topo,
            policy,
            admitted: BTreeMap::new(),
            best_effort: BTreeMap::new(),
            total: 0.0,
            next_id: 1,
            capacity_factor: 1.0,
        }
    }

    /// The active feasibility policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The bound of Equation 6, scaled by the degraded-mode capacity
    /// factor.
    pub fn u_max(&self) -> f64 {
        self.model.u_max() * self.capacity_factor
    }

    /// The current degraded-mode capacity factor.
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Scale the admissible utilisation bound (degraded mode after
    /// capacity loss); clamped to `[0, 1]`. This only moves the bound —
    /// call [`Self::revalidate`] to shed load until the admitted set fits
    /// under it again.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = if factor.is_nan() {
            1.0
        } else {
            factor.clamp(0.0, 1.0)
        };
    }

    /// Re-run the utilisation test over the admitted set after a capacity
    /// change, revoking connections until `ΣU ≤ U_max` holds again.
    ///
    /// Revocation order is EDF-inspired: the connection with the *latest*
    /// effective deadline goes first (it has the most slack and therefore
    /// the weakest claim to the remaining capacity), ties broken by the
    /// larger (younger) id — a total order, so the result is deterministic.
    /// Returns the revoked ids in revocation order.
    pub fn revalidate(&mut self) -> Vec<ConnectionId> {
        // ccr-verify: allow(alloc-in-hot-path) -- runs on capacity-change fault events, not in the steady-state slot loop
        let mut revoked = Vec::new();
        while self.total > self.u_max() + 1e-12 {
            let victim = self
                .admitted
                .iter()
                .max_by(|(ida, (sa, _)), (idb, (sb, _))| {
                    sa.effective_deadline()
                        .cmp(&sb.effective_deadline())
                        .then(ida.cmp(idb))
                })
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.remove(id);
                    revoked.push(id);
                }
                None => break, // nothing left to shed
            }
        }
        revoked
    }

    /// Ids of admitted connections that source at `node` or unicast into
    /// it — the set that can no longer flow once the node is bypassed.
    /// Sorted ascending. Covers reserved connections too.
    pub fn connections_touching(&self, node: NodeId) -> Vec<ConnectionId> {
        let mut ids: Vec<ConnectionId> = self
            .admitted
            .iter()
            .map(|(id, (s, _))| (id, s))
            .chain(self.best_effort.iter())
            .filter(|(_, s)| {
                s.src == node || matches!(s.dest, Destination::Unicast(d) if d == node)
            })
            .map(|(id, _)| *id)
            // ccr-verify: allow(alloc-in-hot-path) -- runs on node-failure events, not in the steady-state slot loop
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Utilisation of the currently admitted set.
    pub fn admitted_utilisation(&self) -> f64 {
        self.total
    }

    /// Number of admitted connections.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// True while `id` is still admitted (or reserved) — fault layers use
    /// this to detect sub-connections shed by degraded-mode revalidation.
    /// Best-effort registrations count: they hold no capacity, but they
    /// are live connections until removed.
    pub fn is_admitted(&self, id: ConnectionId) -> bool {
        self.admitted.contains_key(&id) || self.best_effort.contains_key(&id)
    }

    /// Headroom left under `U_max`.
    #[cfg(test)]
    pub fn headroom(&self) -> f64 {
        (self.u_max() - self.total).max(0.0)
    }

    /// Run the admission test without changing state.
    pub fn check(&self, spec: &ConnectionSpec) -> Result<f64, AdmissionError> {
        spec.validate(self.topo)
            .map_err(AdmissionError::InvalidSpec)?;
        let u = spec.utilisation(self.model.slot());
        if self.total + u > self.u_max() + 1e-12 {
            return Err(AdmissionError::Overload {
                current: self.total,
                requested: u,
                u_max: self.u_max(),
            });
        }
        if self.policy == AdmissionPolicy::DemandBound {
            // Id order (the map's) fixes the order of the f64 demand sums
            // in `dbf::feasible`.
            let mut all: Vec<ConnectionSpec> =
                self.admitted.values().map(|(s, _)| s.clone()).collect();
            all.push(spec.clone());
            let verdict = dbf::feasible(&self.model, &all);
            if !verdict.is_feasible() {
                return Err(AdmissionError::DemandOverrun {
                    detail: format!("{verdict:?}"),
                });
            }
        }
        Ok(u)
    }

    /// Try to admit; on success the connection joins `Ma` and receives an
    /// id.
    pub fn admit(&mut self, spec: &ConnectionSpec) -> Result<ConnectionId, AdmissionError> {
        let u = self.check(spec)?;
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        self.admitted.insert(id, (spec.clone(), u));
        self.total += u;
        Ok(id)
    }

    /// Register a best-effort connection: the spec is validated against
    /// the topology and receives an id from the same sequence as admitted
    /// connections, but it joins no feasibility test and holds no
    /// utilisation — best-effort traffic is served strictly from slots
    /// the guaranteed set leaves idle, so there is nothing to admit
    /// against. Infallible apart from spec validation.
    pub fn register_best_effort(
        &mut self,
        spec: &ConnectionSpec,
    ) -> Result<ConnectionId, AdmissionError> {
        spec.validate(self.topo)
            .map_err(AdmissionError::InvalidSpec)?;
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        self.best_effort.insert(id, spec.clone());
        Ok(id)
    }

    /// Number of registered best-effort connections.
    #[cfg(test)]
    pub fn best_effort_count(&self) -> usize {
        self.best_effort.len()
    }

    /// Remove a connection from `Ma` (releasing its utilisation) or from
    /// the best-effort register. Returns `false` if the id was unknown.
    pub fn remove(&mut self, id: ConnectionId) -> bool {
        match self.admitted.remove(&id) {
            Some((_, u)) => {
                self.total -= u;
                if self.admitted.is_empty() {
                    self.total = 0.0; // cancel float drift at quiescence
                }
                true
            }
            None => self.best_effort.remove(&id).is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use ccr_phys::NodeId;
    use ccr_sim::TimeDelta;

    fn controller() -> AdmissionController {
        let cfg = NetworkConfig::builder(8).slot_bytes(1024).build().unwrap();
        AdmissionController::new(AnalyticModel::new(&cfg), cfg.topology())
    }

    fn spec_with_util(ctl: &AdmissionController, u: f64) -> ConnectionSpec {
        // period = e * t_slot / u with e = 1
        let slot = ctl.model.slot().as_ps() as f64;
        ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_ps((slot / u).round() as u64))
            .size_slots(1)
    }

    #[test]
    fn admits_until_umax() {
        let mut c = controller();
        let u_max = c.u_max();
        let step = spec_with_util(&c, u_max / 4.0);
        for _ in 0..4 {
            c.admit(&step).unwrap();
        }
        assert!(c.admitted_utilisation() <= u_max + 1e-9);
        assert_eq!(c.admitted_count(), 4);
        // the 5th must fail
        let err = c.admit(&step).unwrap_err();
        assert!(matches!(err, AdmissionError::Overload { .. }));
        assert_eq!(c.admitted_count(), 4);
    }

    #[test]
    fn removal_frees_capacity() {
        let mut c = controller();
        let big = spec_with_util(&c, c.u_max() * 0.9);
        let id = c.admit(&big).unwrap();
        assert!(c.admit(&big).is_err());
        assert!(c.remove(id));
        assert!(!c.remove(id)); // double remove
        let id2 = c.admit(&big).unwrap();
        assert_ne!(id, id2, "ids are never reused");
    }

    #[test]
    fn check_does_not_mutate() {
        let c = controller();
        let s = spec_with_util(&c, 0.1);
        let u = c.check(&s).unwrap();
        assert!(u > 0.0);
        assert_eq!(c.admitted_count(), 0);
        assert_eq!(c.admitted_utilisation(), 0.0);
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut c = controller();
        let bad = ConnectionSpec::unicast(NodeId(0), NodeId(0));
        assert!(matches!(c.admit(&bad), Err(AdmissionError::InvalidSpec(_))));
    }

    #[test]
    fn headroom_tracks_admissions() {
        let mut c = controller();
        let h0 = c.headroom();
        assert!((h0 - c.u_max()).abs() < 1e-12);
        let s = spec_with_util(&c, 0.25);
        let u = s.utilisation(c.model.slot());
        c.admit(&s).unwrap();
        assert!((c.headroom() - (h0 - u)).abs() < 1e-12);
    }

    #[test]
    fn quiescent_controller_resets_drift() {
        let mut c = controller();
        let mut ids = vec![];
        for _ in 0..10 {
            ids.push(c.admit(&spec_with_util(&c, 0.05)).unwrap());
        }
        for id in ids {
            c.remove(id);
        }
        assert_eq!(c.admitted_utilisation(), 0.0);
    }

    #[test]
    fn demand_bound_policy_rejects_tight_constrained_sets() {
        let cfg = NetworkConfig::builder(8).slot_bytes(1024).build().unwrap();
        let model = AnalyticModel::new(&cfg);
        let slot = cfg.slot_time();
        // e = 5 slots due within D = 7 slots: one such connection fits
        // (worst-case supply in 7 slot-times is 6 slots), two cannot.
        let tight = |dst: u16| {
            ConnectionSpec::unicast(NodeId(0), NodeId(dst))
                .period(slot * 20)
                .size_slots(5)
                .deadline(slot * 7)
        };
        // utilisation policy (paper) happily admits both…
        let mut util = AdmissionController::new(model.clone(), cfg.topology());
        util.admit(&tight(1)).unwrap();
        util.admit(&tight(2)).unwrap();
        // …the demand-bound policy refuses the second.
        let mut dbf_ctl =
            AdmissionController::with_policy(model, cfg.topology(), AdmissionPolicy::DemandBound);
        assert_eq!(dbf_ctl.policy(), AdmissionPolicy::DemandBound);
        dbf_ctl.admit(&tight(1)).unwrap();
        let err = dbf_ctl.admit(&tight(2)).unwrap_err();
        assert!(matches!(err, AdmissionError::DemandOverrun { .. }), "{err}");
        // removal restores feasibility
        let ids: Vec<ConnectionId> = vec![];
        drop(ids);
    }

    #[test]
    fn demand_bound_policy_matches_util_for_implicit_deadlines() {
        let cfg = NetworkConfig::builder(8).slot_bytes(1024).build().unwrap();
        let model = AnalyticModel::new(&cfg);
        let slot = cfg.slot_time();
        let mk = || {
            ConnectionSpec::unicast(NodeId(0), NodeId(1))
                .period(slot * 20)
                .size_slots(2) // u = 0.1
        };
        let mut ctl =
            AdmissionController::with_policy(model, cfg.topology(), AdmissionPolicy::DemandBound);
        for _ in 0..8 {
            ctl.admit(&mk()).unwrap(); // up to 0.8 — fine under both tests
        }
    }

    #[test]
    fn capacity_factor_scales_bound_and_gates_new_admissions() {
        let mut c = controller();
        let full = c.u_max();
        c.set_capacity_factor(0.5);
        assert!((c.u_max() - full * 0.5).abs() < 1e-12);
        // A connection that fits the full ring no longer fits half of it.
        let big = spec_with_util(&c, full * 0.8);
        assert!(matches!(
            c.admit(&big),
            Err(AdmissionError::Overload { .. })
        ));
        c.set_capacity_factor(1.0);
        c.admit(&big).unwrap();
        // Out-of-range factors clamp instead of corrupting the bound.
        c.set_capacity_factor(7.0);
        assert!((c.u_max() - full).abs() < 1e-12);
        c.set_capacity_factor(f64::NAN);
        assert!((c.u_max() - full).abs() < 1e-12);
    }

    #[test]
    fn revalidate_sheds_latest_deadline_first_until_feasible() {
        let mut c = controller();
        let u_max = c.u_max();
        let slot = c.model.slot();
        // Equal-utilisation connections (u_max/4 each) with distinct
        // constrained deadlines inside the shared period.
        let period = TimeDelta::from_ps((slot.as_ps() as f64 * 4.0 / u_max).round() as u64);
        let mk = |num: u64, den: u64| {
            ConnectionSpec::unicast(NodeId(0), NodeId(1))
                .period(period)
                .size_slots(1)
                .deadline(TimeDelta::from_ps(period.as_ps() * num / den))
        };
        let id_tight = c.admit(&mk(1, 4)).unwrap(); // tightest deadline
        let id_mid = c.admit(&mk(1, 2)).unwrap();
        let id_loose = c.admit(&mk(1, 1)).unwrap(); // most slack
        assert!(c.revalidate().is_empty(), "healthy ring revokes nothing");

        // Half the capacity gone: ~0.75·U_max admitted > 0.5·U_max.
        c.set_capacity_factor(0.5);
        let revoked = c.revalidate();
        assert!(!revoked.is_empty());
        assert_eq!(revoked[0], id_loose, "latest deadline goes first");
        if revoked.len() > 1 {
            assert_eq!(revoked[1], id_mid);
        }
        assert!(!revoked.contains(&id_tight), "tightest deadline survives");
        assert!(c.admitted_utilisation() <= c.u_max() + 1e-12);
    }

    #[test]
    fn revalidate_ties_break_by_younger_id() {
        let mut c = controller();
        let u_max = c.u_max();
        let spec = spec_with_util(&c, u_max / 3.0);
        let a = c.admit(&spec).unwrap();
        let b = c.admit(&spec).unwrap();
        let d = c.admit(&spec).unwrap();
        assert!(a < b && b < d);
        c.set_capacity_factor(0.4);
        let revoked = c.revalidate();
        // Identical deadlines: the youngest (largest id) is shed first.
        assert_eq!(revoked[0], d);
        assert_eq!(revoked.get(1), Some(&b));
        assert!(c.admitted_count() >= 1);
    }

    #[test]
    fn best_effort_registrations_hold_no_capacity() {
        let mut c = controller();
        let big = spec_with_util(&c, c.u_max() * 0.9);
        let be = c.register_best_effort(&big).unwrap();
        assert!(c.is_admitted(be));
        assert_eq!(c.best_effort_count(), 1);
        assert_eq!(c.admitted_utilisation(), 0.0, "no utilisation charged");
        // The guaranteed set still has the whole ring: the same heavy spec
        // admits fine next to its best-effort twin.
        let rt = c.admit(&big).unwrap();
        assert_ne!(be, rt, "ids come from one sequence");
        // Degraded-mode shedding never touches best-effort registrations.
        c.set_capacity_factor(0.1);
        let revoked = c.revalidate();
        assert!(revoked.contains(&rt) && !revoked.contains(&be));
        assert!(c.is_admitted(be));
        assert!(c.remove(be));
        assert!(!c.remove(be));
        assert!(!c.is_admitted(be));
        // Invalid specs are still refused.
        let bad = ConnectionSpec::unicast(NodeId(0), NodeId(0));
        assert!(c.register_best_effort(&bad).is_err());
    }

    #[test]
    fn error_display() {
        let e = AdmissionError::Overload {
            current: 0.5,
            requested: 0.4,
            u_max: 0.8,
        };
        assert!(e.to_string().contains("U_max"));
        assert!(AdmissionError::InvalidSpec("x".into())
            .to_string()
            .contains("invalid"));
    }
}
