//! Cross-crate end-to-end tests: analytic model vs simulator, application
//! scenarios, and protocol comparisons on the shared engine.

use ccr_edf_suite::edf::arbitration::CcrEdfMac;
use ccr_edf_suite::edf::message::{Destination, Message};
use ccr_edf_suite::prelude::*;

fn cfg(n: u16) -> NetworkConfig {
    NetworkConfig::builder(n)
        .slot_bytes(2048)
        .wire_check(true)
        .build_auto_slot()
        .unwrap()
}

#[test]
fn equation1_holds_for_every_forced_distance() {
    for n in [4u16, 9, 16, 33] {
        let c = cfg(n);
        let model = AnalyticModel::new(&c);
        for d in 1..n {
            let mut net = RingNetwork::new_ccr_edf(c.clone());
            net.submit_message(
                SimTime::ZERO,
                Message::non_real_time(
                    NodeId(d),
                    Destination::Unicast(NodeId((d + 1) % n)),
                    1,
                    SimTime::ZERO,
                ),
            );
            let expected = model.segment_prop(NodeId(0), d);
            let out = net.step_slot();
            assert_eq!(out.gap, expected, "N={n} D={d}");
        }
    }
}

#[test]
fn measured_slot_fraction_never_below_umax() {
    // U_max assumes a worst-case gap after *every* slot; the measured
    // slot-time fraction of any run must therefore be ≥ U_max.
    let c = cfg(12);
    let umax = AnalyticModel::new(&c).u_max();
    let slot = c.slot_time();
    let mut rng = SeedSequence::new(99).stream("t", 0);
    let set = PeriodicSetBuilder::new(12, 24, 0.8 * umax, slot).generate(&mut rng);
    let mut net = RingNetwork::new_ccr_edf(c);
    for s in set {
        let _ = net.open_connection(s);
    }
    net.run_slots(30_000);
    let measured = net.metrics().slot_time_fraction(slot);
    assert!(
        measured >= umax - 1e-9,
        "measured {measured} < u_max {umax}"
    );
}

#[test]
fn radar_scenario_is_admitted_and_clean() {
    let c = cfg(8);
    let mut radar = RadarScenario::default_on(8);
    radar.cpi = TimeDelta::from_ms(1);
    radar.cube_slots = 16;
    assert!(
        radar.utilisation(c.slot_time()) < AnalyticModel::new(&c).u_max(),
        "scenario must fit"
    );
    let mut net = RingNetwork::new_ccr_edf(c);
    for conn in radar.connections() {
        net.open_connection(conn).expect("radar pipeline admitted");
    }
    net.run_until(SimTime::from_ms(20));
    let m = net.metrics();
    assert!(m.delivered_rt.get() >= 4 * 19, "pipeline throughput");
    assert_eq!(m.rt_deadline_misses.get(), 0);
    assert_eq!(m.rt_bound_violations.get(), 0);
}

#[test]
fn multimedia_scenario_runs_mixed_classes() {
    let c = cfg(8);
    let media = MultimediaScenario::default_on(8);
    let mut net = RingNetwork::new_ccr_edf(c);
    let mut admitted = 0;
    for v in media.voice_connections() {
        if net.open_connection(v).is_ok() {
            admitted += 1;
        }
    }
    assert!(admitted > 0);
    let seq = SeedSequence::new(7);
    for (i, g) in media.video_generators().iter().enumerate() {
        let mut rng = seq.stream("video", i as u64);
        for (at, msg) in g.schedule(&mut rng, SimTime::ZERO, TimeDelta::from_ms(5)) {
            net.submit_message(at, msg);
        }
    }
    net.run_until(SimTime::from_ms(8));
    let m = net.metrics();
    assert!(m.delivered_rt.get() > 100, "voice flowed");
    assert!(m.delivered_be.get() > 10, "video flowed");
    assert_eq!(m.rt_deadline_misses.get(), 0, "voice guaranteed");
}

#[test]
fn identical_workload_both_protocols_conserve_messages() {
    let c = cfg(10);
    let mut rng = SeedSequence::new(31).stream("t", 0);
    let set = PeriodicSetBuilder::new(10, 20, 0.4, c.slot_time()).generate(&mut rng);
    let wl = Workload::raw(set);
    let slots = 20_000;
    let edf = run_with_mac(c.clone(), CcrEdfMac, &wl, slots);
    let fpr = run_with_mac(c, CcFprMac, &wl, slots);
    // both drained the same offered load (low enough for both)
    assert_eq!(
        edf.delivered_rt + edf.backlog,
        fpr.delivered_rt + fpr.backlog,
        "same offered messages"
    );
    assert!(edf.rt_miss_ratio <= fpr.rt_miss_ratio + 1e-9);
    // CC-FPR's gap is constant 1 hop; CCR-EDF's varies
    assert!(fpr.gap_max_ns <= fpr.gap_mean_ns * 1.01 + 1.0);
}

#[test]
fn suite_prelude_is_sufficient_for_common_usage() {
    // compile-time check that the facade exposes what a user needs
    let c = NetworkConfig::builder(4).build_auto_slot().unwrap();
    let a = AnalyticModel::new(&c);
    let mut net = RingNetwork::new_ccr_edf(c);
    let spec = ConnectionSpec::unicast(NodeId(0), NodeId(2))
        .period(TimeDelta::from_us(200))
        .size_slots(1);
    let id = net.open_connection(spec).unwrap();
    net.run_slots(1_000);
    assert!(net.metrics().delivered_rt.get() > 0);
    assert!(a.u_max() > 0.5);
    net.close_connection(id);
}
