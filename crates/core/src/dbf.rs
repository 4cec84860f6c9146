//! Demand-bound-function admission (extension beyond the paper).
//!
//! Section 5 assumes every connection's relative deadline equals its
//! period, which makes the utilisation test of Equation 5 exact. With
//! *constrained* deadlines (`D < P`, supported by
//! [`crate::connection::ConnectionSpec::deadline`]) the utilisation test
//! is no longer sound — a set with `ΣU ≤ U_max` can still miss its tighter
//! deadlines. The standard fix is the processor-demand criterion
//! (Baruah, Rosier & Howell 1990) adapted to the slotted ring:
//!
//! * **demand** of connection *i* in any window of length `t`:
//!   `dbf_i(t) = max(0, ⌊(t − Dᵢ)/Pᵢ⌋ + 1) · eᵢ` slots;
//! * **supply** guaranteed by the network in a window of length `t`:
//!   `sbf(t) = ⌊t / (t_slot + t_handover_max)⌋` slots — one slot per
//!   worst-case slot+gap, the same pessimism as Equation 6;
//! * the set is feasible iff `Σᵢ dbf_i(t) ≤ sbf(t)` at every absolute
//!   deadline `t = Dᵢ + k·Pᵢ` up to the bounded horizon `L`.
//!
//! For implicit deadlines (`D = P`) this refines Equation 5 only by floor
//! effects; for constrained deadlines it is the sound test, and experiment
//! E15 shows the utilisation test admitting sets that then miss while the
//! demand-bound test correctly refuses them.

use crate::analysis::AnalyticModel;
use crate::connection::ConnectionSpec;
use ccr_sim::TimeDelta;

/// Cap on the number of demand checkpoints examined per test; sets whose
/// bounded horizon would need more are conservatively rejected (this only
/// happens when `ΣU` is within a hair of `U_max`).
pub const MAX_CHECKPOINTS: usize = 200_000;

/// Demand of one connection in a window of length `t`, in slots.
pub fn demand_slots(spec: &ConnectionSpec, t: TimeDelta) -> u64 {
    let d = spec.effective_deadline().as_ps();
    let p = spec.period.as_ps();
    let t = t.as_ps();
    if t < d {
        return 0;
    }
    ((t - d) / p + 1) * spec.size_slots as u64
}

/// Worst-case slot supply in a window of length `t`: one slot per
/// `t_slot + t_handover_max`.
pub fn supply_slots(model: &AnalyticModel, t: TimeDelta) -> u64 {
    t.as_ps() / model.guaranteed_period().as_ps()
}

/// Outcome of the demand-bound feasibility test.
#[derive(Debug, Clone, PartialEq)]
pub enum DbfVerdict {
    /// Demand never exceeds supply up to the bounded horizon.
    Feasible,
    /// Demand exceeded supply at this window length.
    Overrun {
        /// The violating window length.
        at: TimeDelta,
        /// Slots demanded in that window.
        demand: u64,
        /// Slots guaranteed in that window.
        supply: u64,
    },
    /// Total utilisation is not below the supply rate (no horizon exists).
    UtilisationExceeded,
    /// The horizon needed more than [`MAX_CHECKPOINTS`] checkpoints —
    /// conservatively rejected.
    HorizonTooLarge,
}

impl DbfVerdict {
    /// True for [`DbfVerdict::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, DbfVerdict::Feasible)
    }
}

/// Run the processor-demand test for `specs` under `model`.
pub fn feasible(model: &AnalyticModel, specs: &[ConnectionSpec]) -> DbfVerdict {
    if specs.is_empty() {
        return DbfVerdict::Feasible;
    }
    let slot = model.slot();
    let rate = model.u_max(); // supply rate in slot-time per unit time
    let util: f64 = specs.iter().map(|s| s.utilisation(slot)).sum();
    if util >= rate {
        return DbfVerdict::UtilisationExceeded;
    }

    // Horizon: any overrun must happen before
    //   L = (Σ eᵢ·t_slot + t_slot) / (rate − U)
    // (demand(t)·t_slot ≤ U·t + Σeᵢ·t_slot, supply(t)·t_slot ≥ rate·t − t_slot).
    let sum_e_time: f64 = specs
        .iter()
        .map(|s| s.size_slots as f64 * slot.as_ps() as f64)
        .sum();
    let horizon_ps = ((sum_e_time + slot.as_ps() as f64) / (rate - util)).ceil();
    if !horizon_ps.is_finite() || horizon_ps > 1e18 {
        return DbfVerdict::HorizonTooLarge;
    }
    let horizon = match TimeDelta::try_from_ps_f64(horizon_ps) {
        Ok(h) => h,
        Err(_) => return DbfVerdict::HorizonTooLarge,
    };

    // Rough checkpoint-count estimate before materialising them.
    let approx: f64 = specs
        .iter()
        .map(|s| horizon_ps / s.period.as_ps() as f64 + 1.0)
        .sum();
    if approx > MAX_CHECKPOINTS as f64 {
        return DbfVerdict::HorizonTooLarge;
    }

    // Checkpoints: every absolute deadline Dᵢ + k·Pᵢ ≤ L.
    let mut points: Vec<u64> = Vec::with_capacity(approx as usize + specs.len());
    for s in specs {
        let d = s.effective_deadline().as_ps();
        let p = s.period.as_ps();
        let mut t = d;
        while t <= horizon.as_ps() {
            points.push(t);
            t += p;
        }
    }
    points.sort_unstable();
    points.dedup();

    for &t_ps in &points {
        let t = TimeDelta::from_ps(t_ps);
        let demand: u64 = specs.iter().map(|s| demand_slots(s, t)).sum();
        let supply = supply_slots(model, t);
        if demand > supply {
            return DbfVerdict::Overrun {
                at: t,
                demand,
                supply,
            };
        }
    }
    DbfVerdict::Feasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use ccr_phys::NodeId;

    fn model() -> AnalyticModel {
        let cfg = NetworkConfig::builder(8)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        AnalyticModel::new(&cfg)
    }

    fn spec(period_slots: u64, e: u32, deadline_slots: Option<u64>) -> ConnectionSpec {
        let m = model();
        let slot = m.slot();
        let mut s = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(slot * period_slots)
            .size_slots(e);
        if let Some(d) = deadline_slots {
            s = s.deadline(slot * d);
        }
        s
    }

    #[test]
    fn demand_slots_steps_at_deadlines() {
        let m = model();
        let slot = m.slot();
        let s = spec(10, 2, Some(4));
        assert_eq!(demand_slots(&s, slot * 3), 0);
        assert_eq!(demand_slots(&s, slot * 4), 2);
        assert_eq!(demand_slots(&s, slot * 13), 2);
        assert_eq!(demand_slots(&s, slot * 14), 4);
        assert_eq!(demand_slots(&s, slot * 24), 6);
    }

    #[test]
    fn supply_is_worst_case_slot_rate() {
        let m = model();
        let per = m.slot() + m.max_handover();
        assert_eq!(supply_slots(&m, per * 7), 7);
        assert_eq!(supply_slots(&m, per * 7 - TimeDelta::from_ps(1)), 6);
        assert_eq!(supply_slots(&m, TimeDelta::ZERO), 0);
    }

    #[test]
    fn empty_set_feasible() {
        assert!(feasible(&model(), &[]).is_feasible());
    }

    #[test]
    fn implicit_deadline_light_set_feasible() {
        let set: Vec<_> = (0..4).map(|_| spec(40, 2, None)).collect(); // U = 0.2
        assert!(feasible(&model(), &set).is_feasible());
    }

    #[test]
    fn over_utilised_set_rejected_fast() {
        let set: Vec<_> = (0..6).map(|_| spec(10, 2, None)).collect(); // U = 1.2
        assert_eq!(feasible(&model(), &set), DbfVerdict::UtilisationExceeded);
    }

    #[test]
    fn constrained_deadlines_catch_what_utilisation_misses() {
        // Two connections, each U = 0.25 (ΣU = 0.5 « u_max ≈ 0.94), but
        // both demand 5 slots within a 5-slot deadline window — demand 10
        // slots by t = 5 slots, supply < 10 → infeasible.
        let m = model();
        let set = vec![spec(20, 5, Some(5)), spec(20, 5, Some(5))];
        let v = feasible(&m, &set);
        match v {
            DbfVerdict::Overrun { demand, supply, .. } => {
                assert!(demand > supply);
            }
            other => panic!("expected Overrun, got {other:?}"),
        }
        // the utilisation test would have admitted this set:
        let u: f64 = set.iter().map(|s| s.utilisation(m.slot())).sum();
        assert!(u < m.u_max());
    }

    #[test]
    fn constrained_but_spread_deadlines_feasible() {
        // Same utilisation, but the deadlines are staggered wide enough.
        let set = vec![spec(20, 5, Some(10)), spec(20, 5, Some(20))];
        assert!(
            feasible(&model(), &set).is_feasible(),
            "{:?}",
            feasible(&model(), &set)
        );
    }

    #[test]
    fn single_connection_needs_deadline_at_least_e_worst_slots() {
        let m = model();
        // e = 4 slots, worst-case supply in D: D must cover 4 slot+gap
        // units. D = 3 slots of pure slot time is certainly too tight.
        let tight = spec(50, 4, Some(3));
        assert!(!feasible(&m, std::slice::from_ref(&tight)).is_feasible());
        let loose = spec(50, 4, Some(10));
        assert!(feasible(&m, std::slice::from_ref(&loose)).is_feasible());
    }

    #[test]
    fn near_capacity_implicit_set_feasible_like_eq5() {
        // ΣU = 0.8 < u_max with implicit deadlines must pass (floors only
        // make dbf reject marginal sets right at the boundary).
        let set: Vec<_> = (0..8).map(|_| spec(10, 1, None)).collect();
        assert!(feasible(&model(), &set).is_feasible());
    }

    #[test]
    fn horizon_guard_triggers_near_saturation() {
        // ΣU within a hair of u_max with many connections → enormous
        // horizon → conservative rejection rather than unbounded work.
        let m = model();
        let u_max = m.u_max();
        let slot = m.slot();
        // one connection with U ≈ u_max − ε and a tiny period
        let period = TimeDelta::from_ps((slot.as_ps() as f64 / (u_max - 1e-9)) as u64);
        let s = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(period)
            .size_slots(1);
        let v = feasible(&m, std::slice::from_ref(&s));
        assert!(
            matches!(
                v,
                DbfVerdict::HorizonTooLarge
                    | DbfVerdict::UtilisationExceeded
                    | DbfVerdict::Overrun { .. }
            ),
            "expected conservative outcome, got {v:?}"
        );
    }
}
