//! Heterogeneous link lengths (extension — the paper assumes all links
//! equal, Section 2): segment-exact propagation, hand-over gaps and
//! bounds.

use ccr_edf::config::{ConfigError, NetworkConfig};
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::{LinkId, NodeId, SimTime, TimeDelta};

fn hetero_cfg(lengths: Vec<f64>) -> NetworkConfig {
    NetworkConfig::builder(lengths.len() as u16)
        .slot_bytes(2048)
        .link_lengths_m(lengths)
        .build_auto_slot()
        .unwrap()
}

#[test]
fn validation_rejects_malformed_length_vectors() {
    let short = NetworkConfig::builder(4)
        .link_lengths_m(vec![1.0, 2.0])
        .build();
    assert!(matches!(short, Err(ConfigError::BadLinkLengths(_))));
    let neg = NetworkConfig::builder(3)
        .link_lengths_m(vec![1.0, -2.0, 3.0])
        .build();
    assert!(matches!(neg, Err(ConfigError::BadLinkLengths(_))));
    let nan = NetworkConfig::builder(3)
        .link_lengths_m(vec![1.0, f64::NAN, 3.0])
        .build();
    assert!(matches!(nan, Err(ConfigError::BadLinkLengths(_))));
}

#[test]
fn per_link_propagation_and_aggregates() {
    // 4 links: 10, 20, 40, 80 m at 5 ns/m.
    let c = hetero_cfg(vec![10.0, 20.0, 40.0, 80.0]);
    assert_eq!(c.link_prop_of(LinkId(0)), TimeDelta::from_ns(50));
    assert_eq!(c.link_prop_of(LinkId(3)), TimeDelta::from_ns(400));
    assert_eq!(c.ring_prop(), TimeDelta::from_ns(750));
    // segment 1→0 (3 hops: links 1,2,3) = 100+200+400
    assert_eq!(c.segment_prop(NodeId(1), 3), TimeDelta::from_ns(700));
    // worst (N-1)-hop segment = ring minus cheapest link (link 0)
    assert_eq!(c.max_handover(), TimeDelta::from_ns(700));
}

#[test]
fn homogeneous_vector_matches_scalar_config() {
    let hetero = hetero_cfg(vec![10.0; 6]);
    let homo = NetworkConfig::builder(6)
        .slot_bytes(2048)
        .link_length_m(10.0)
        .build_auto_slot()
        .unwrap();
    assert_eq!(hetero.ring_prop(), homo.ring_prop());
    assert_eq!(hetero.max_handover(), homo.max_handover());
    assert_eq!(hetero.collection_time(), homo.collection_time());
    assert_eq!(
        ccr_edf::analysis::AnalyticModel::new(&hetero).u_max(),
        ccr_edf::analysis::AnalyticModel::new(&homo).u_max()
    );
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
        let expect = c.segment_prop(NodeId(0), d); // master 0 → node d
        let out = net.step_slot();
        assert_eq!(out.handover_hops, d);
        assert_eq!(out.gap, expect, "hetero gap at distance {d}");
    }
}

#[test]
fn hetero_gaps_never_exceed_hetero_bound() {
    let lengths = vec![3.0, 90.0, 12.0, 45.0, 27.0, 66.0, 8.0, 31.0];
    let c = hetero_cfg(lengths);
    let bound = c.max_handover();
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
    let model = ccr_edf::analysis::AnalyticModel::new(&c);
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
