//! Interop with the single-ring analysis in `ccr-edf`.
//!
//! The fabric certifier models every ring as a rate-latency server
//! `β(t) = R·(t − T)⁺` with `R = 1/(t_slot + t_handover_max)` and
//! `T = worst_latency`, and every connection as a token bucket
//! `α(t) = e + (e/P)·t`. Those curves are only sound if they bracket the
//! exact demand-bound-function arithmetic the core crate already trusts:
//!
//! * the service curve must **lower-bound** `dbf::supply_slots` — the
//!   guaranteed slot supply of Equation 6 — at every window length, and
//! * the arrival curve must **upper-bound** `dbf::demand_slots` for the
//!   same connection at every window length.
//!
//! These tests pin both inequalities across a sweep of window lengths and
//! randomised network configurations, so the calculus bounds can never be
//! silently tighter than the paper's own analysis.

use ccr_calculus::{delay_bound, ArrivalCurve, ServiceCurve};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::dbf;
use ccr_edf::prelude::NetworkConfig;
use ccr_edf::NodeId;
use ccr_sim::rng::DetRng;
use ccr_sim::TimeDelta;

/// The ring's rate-latency abstraction, exactly as the fabric certifier
/// builds it: `R` in slots per picosecond, `T` in picoseconds.
fn ring_service(model: &AnalyticModel) -> ServiceCurve {
    let per_slot = model.guaranteed_period().as_ps() as f64;
    let latency = model.worst_latency().as_ps() as f64;
    ServiceCurve::rate_latency(1.0 / per_slot, latency).expect("valid ring service curve")
}

/// The connection's token-bucket abstraction: burst `e` slots, rate `e/P`
/// slots per picosecond.
fn flow_arrival(spec: &ConnectionSpec) -> ArrivalCurve {
    let e = spec.size_slots as f64;
    let p = spec.period.as_ps() as f64;
    ArrivalCurve::token_bucket(e, e / p).expect("valid token bucket")
}

fn sweep_windows(model: &AnalyticModel) -> Vec<u64> {
    let per_slot = model.guaranteed_period().as_ps();
    let latency = model.worst_latency().as_ps();
    let mut ts = vec![0, 1, per_slot - 1, per_slot, per_slot + 1, latency];
    for k in 1..=256u64 {
        ts.push(latency + k * per_slot / 3);
        ts.push(k * per_slot);
    }
    ts
}

#[test]
fn service_curve_lower_bounds_dbf_supply() {
    for n in [4u16, 8, 16, 32] {
        let cfg = NetworkConfig::builder(n).build_auto_slot().unwrap();
        let model = AnalyticModel::new(&cfg);
        let beta = ring_service(&model);

        for t_ps in sweep_windows(&model) {
            let guaranteed = dbf::supply_slots(&model, TimeDelta::from_ps(t_ps));
            let certified = beta.eval(t_ps as f64);
            assert!(
                certified <= guaranteed as f64 + 1e-9,
                "n={n} t={t_ps}ps: service curve promises {certified} slots \
                 but the ring only guarantees {guaranteed}"
            );
        }
    }
}

#[test]
fn arrival_curve_upper_bounds_dbf_demand() {
    let mut rng = DetRng::new(0xCA1C);
    for case in 0..200 {
        let e = rng.gen_range(1..=8u32);
        let period = TimeDelta::from_us(rng.gen_range(50..=20_000u64));
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(period)
            .size_slots(e);
        let alpha = flow_arrival(&spec);

        for k in 0..400u64 {
            let t = TimeDelta::from_ps(k * period.as_ps() / 7);
            let demand = dbf::demand_slots(&spec, t);
            let envelope = alpha.eval(t.as_ps() as f64);
            assert!(
                envelope + 1e-6 >= demand as f64,
                "case {case} t={}ps: envelope {envelope} below exact demand {demand}",
                t.as_ps()
            );
        }
    }
}

/// The certified single-ring delay bound can never undercut the paper's
/// own worst-case access latency: `T` is the floor of the bound.
#[test]
fn single_ring_delay_bound_dominates_worst_latency() {
    let cfg = NetworkConfig::builder(10).build_auto_slot().unwrap();
    let model = AnalyticModel::new(&cfg);
    let beta = ring_service(&model);

    let spec = ConnectionSpec::unicast(NodeId(0), NodeId(5))
        .period(TimeDelta::from_ms(2))
        .size_slots(3);
    let bound = delay_bound(&flow_arrival(&spec), &beta).expect("stable flow");
    let worst = model.worst_latency().as_ps() as f64;
    assert!(
        bound >= worst,
        "calculus bound {bound}ps below analytic worst latency {worst}ps"
    );
    // And it stays finite and sane: latency plus the burst drained at R.
    let per_slot = model.guaranteed_period().as_ps() as f64;
    let expected = worst + 3.0 * per_slot;
    assert!(
        (bound - expected).abs() < 1e-6,
        "rate-latency bound should be T + e/R: got {bound}, expected {expected}"
    );
}
