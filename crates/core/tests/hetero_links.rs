//! Heterogeneous link lengths (extension — the paper assumes all links
//! equal, Section 2): segment-exact propagation, hand-over gaps and
//! bounds.

use ccr_edf::analysis::AnalyticModel;
use ccr_edf::config::{ConfigError, NetworkConfig, NetworkConfigBuilder};
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, SimTime, TimeDelta};

fn hetero_cfg(lengths: Vec<f64>) -> NetworkConfig {
    NetworkConfig::builder(lengths.len() as u16)
        .slot_bytes(2048)
        .link_lengths_m(lengths)
        .build_auto_slot()
        .unwrap()
}

#[test]
fn validation_rejects_malformed_length_vectors() {
    // `build_auto_slot` prices Equation 2 before it validates, so it must
    // reject the same lengths with the same typed error, not panic.
    for auto_slot in [false, true] {
        let finish = |b: NetworkConfigBuilder| {
            if auto_slot {
                b.build_auto_slot()
            } else {
                b.build()
            }
        };
        let lengths = |n: u16, ls: Vec<f64>| finish(NetworkConfig::builder(n).link_lengths_m(ls));
        let short = lengths(4, vec![1.0, 2.0]);
        assert!(matches!(short, Err(ConfigError::BadLinkLengths(_))));
        let neg = lengths(3, vec![1.0, -2.0, 3.0]);
        assert!(matches!(neg, Err(ConfigError::BadLinkLengths(_))));
        let nan = lengths(3, vec![1.0, f64::NAN, 3.0]);
        assert!(matches!(nan, Err(ConfigError::BadLinkLengths(_))));
        // a length whose delay overflows the picosecond clock
        let huge = lengths(3, vec![1.0, 1e300, 3.0]);
        assert!(matches!(huge, Err(ConfigError::BadLinkLengths(_))));
        // representable links whose doubled ring sum overflows it
        let long = lengths(64, vec![1e14; 64]);
        assert!(matches!(long, Err(ConfigError::BadLinkLengths(_))));
        // the shared scalar length overflowing is a bad physical constant
        let scalar = finish(NetworkConfig::builder(3).link_length_m(1e300));
        assert!(matches!(scalar, Err(ConfigError::BadPhysParams(_))));
    }
}

#[test]
fn per_link_propagation_and_aggregates() {
    // 4 links: 10, 20, 40, 80 m at 5 ns/m.
    let m = AnalyticModel::new(&hetero_cfg(vec![10.0, 20.0, 40.0, 80.0]));
    // link l is node l's egress: one hop from node l
    assert_eq!(m.segment_prop(NodeId(0), 1), TimeDelta::from_ns(50));
    assert_eq!(m.segment_prop(NodeId(3), 1), TimeDelta::from_ns(400));
    assert_eq!(m.segment_prop(NodeId(0), 4), TimeDelta::from_ns(750));
    // segment 1→0 (3 hops: links 1,2,3) = 100+200+400
    assert_eq!(m.segment_prop(NodeId(1), 3), TimeDelta::from_ns(700));
    // worst (N-1)-hop segment = ring minus cheapest link (link 0)
    assert_eq!(m.max_handover(), TimeDelta::from_ns(700));
    assert_eq!(m.max_link_prop(), TimeDelta::from_ns(400));
}

#[test]
fn homogeneous_vector_matches_scalar_config() {
    let hetero = hetero_cfg(vec![10.0; 6]);
    let homo = NetworkConfig::builder(6)
        .slot_bytes(2048)
        .link_length_m(10.0)
        .build_auto_slot()
        .unwrap();
    let (hetero, homo) = (AnalyticModel::new(&hetero), AnalyticModel::new(&homo));
    assert_eq!(
        hetero.segment_prop(NodeId(0), 6),
        homo.segment_prop(NodeId(0), 6)
    );
    assert_eq!(hetero.max_handover(), homo.max_handover());
    assert_eq!(hetero.collection_time(), homo.collection_time());
    assert_eq!(hetero.u_max(), homo.u_max());
}

#[test]
fn measured_gap_is_the_exact_segment_sum() {
    let lengths = vec![5.0, 100.0, 7.0, 60.0, 18.0];
    let c = hetero_cfg(lengths);
    for d in 1..5u16 {
        let mut net = RingNetwork::new_ccr_edf(c.clone());
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(
                NodeId(d),
                Destination::Unicast(NodeId((d + 1) % 5)),
                1,
                SimTime::ZERO,
            ),
        );
        let expect = AnalyticModel::new(&c).segment_prop(NodeId(0), d); // master 0 → node d
        let out = net.step_slot();
        assert_eq!(out.handover_hops, d);
        assert_eq!(out.gap, expect, "hetero gap at distance {d}");
    }
}

#[test]
fn hetero_gaps_never_exceed_hetero_bound() {
    let lengths = vec![3.0, 90.0, 12.0, 45.0, 27.0, 66.0, 8.0, 31.0];
    let c = hetero_cfg(lengths);
    let bound = AnalyticModel::new(&c).max_handover();
    let mut net = RingNetwork::new_ccr_edf(c);
    // bounce traffic between many nodes
    for i in 0..200u64 {
        let src = NodeId((i * 3 % 8) as u16);
        let dst = NodeId(((i * 3 + 1) % 8) as u16);
        net.submit_message(
            SimTime::from_us(i / 4),
            Message::non_real_time(src, Destination::Unicast(dst), 1, SimTime::ZERO),
        );
    }
    net.run_slots(2_000);
    let m = net.metrics();
    assert!(m.delivered.get() == 200);
    assert!(
        m.handover_gap.max().unwrap() <= bound.as_ps(),
        "gap exceeded hetero bound"
    );
}

#[test]
fn admitted_traffic_guaranteed_on_heterogeneous_ring() {
    let lengths = vec![2.0, 120.0, 35.0, 5.0, 80.0, 14.0];
    let c = hetero_cfg(lengths);
    let model = AnalyticModel::new(&c);
    let mut net = RingNetwork::new_ccr_edf(c.clone());
    // fill to ~0.8 of the hetero-aware u_max
    let slot = c.slot_time();
    let u_each = model.u_max() * 0.1;
    for i in 0..8u16 {
        let spec = ConnectionSpec::unicast(NodeId(i % 6), NodeId((i % 6 + 2) % 6))
            .period(TimeDelta::from_ps((slot.as_ps() as f64 / u_each) as u64))
            .size_slots(1);
        net.open_connection(spec).unwrap();
    }
    net.run_slots(60_000);
    let m = net.metrics();
    assert!(m.delivered_rt.get() > 1_000);
    assert_eq!(m.rt_deadline_misses.get(), 0);
    assert_eq!(m.rt_bound_violations.get(), 0);
}
