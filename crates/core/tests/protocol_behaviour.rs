//! Engine-level behaviour tests: the protocol subtleties that unit tests
//! of individual modules cannot see.

use ccr_edf::config::NetworkConfig;
use ccr_edf::connection::{ConnectionId, ConnectionSpec};
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::wire::ServiceWireConfig;
use ccr_edf::{NodeId, SimTime, TimeDelta};

fn cfg(n: u16) -> NetworkConfig {
    NetworkConfig::builder(n)
        .slot_bytes(2048)
        .wire_check(true)
        .build_auto_slot()
        .unwrap()
}

fn nrt(src: u16, dst: u16, size: u32) -> Message {
    Message::non_real_time(
        NodeId(src),
        Destination::Unicast(NodeId(dst)),
        size,
        SimTime::ZERO,
    )
}

#[test]
fn multicast_completion_is_timed_at_furthest_receiver() {
    let c = cfg(8);
    let mut net = RingNetwork::new_ccr_edf(c.clone());
    net.submit_message(
        SimTime::ZERO,
        Message::non_real_time(
            NodeId(1),
            Destination::Multicast([NodeId(3), NodeId(6)].into_iter().collect()),
            1,
            SimTime::ZERO,
        ),
    );
    net.step_slot();
    let out = net.step_slot();
    assert_eq!(out.deliveries.len(), 1);
    // slot 0 (no gap? hand-over 0→1 = 1 hop), slot 1, + 5 hops to node 6
    let prop = c.phys.link_prop();
    let expect = SimTime::ZERO + c.slot_time() * 2 + prop /*gap*/ + prop * 5;
    assert_eq!(out.deliveries[0].completed, expect);
}

#[test]
fn local_precedence_rt_beats_earlier_deadline_be() {
    // Section 3: "best effort messages will only be requested to be sent if
    // there is no logical real-time connection message queued" — even when
    // the BE message's deadline is earlier.
    let mut net = RingNetwork::new_ccr_edf(cfg(6));
    let be = Message::best_effort(
        NodeId(2),
        Destination::Unicast(NodeId(3)),
        1,
        SimTime::ZERO,
        SimTime::from_us(10), // very urgent
    );
    let rt = Message::real_time(
        NodeId(2),
        Destination::Unicast(NodeId(4)),
        1,
        SimTime::ZERO,
        SimTime::from_ms(10), // very lax
        ConnectionId(9),
    );
    let be_id = net.submit_message(SimTime::ZERO, be);
    let rt_id = net.submit_message(SimTime::ZERO, rt);
    let mut order = vec![];
    for _ in 0..6 {
        order.extend(net.step_slot().deliveries.iter().map(|d| d.msg.id));
    }
    assert_eq!(order, vec![rt_id, be_id], "RT class outranks BE deadline");
}

#[test]
fn granted_message_is_the_pinned_request_not_the_new_head() {
    // A more urgent message arriving after the request was made must wait
    // one slot (the "2 t_slot" term of Eq. 4); the pinned message flies.
    let c = cfg(6);
    let slot = c.slot_time();
    let mut net = RingNetwork::new_ccr_edf(c.clone());
    let first = Message::real_time(
        NodeId(1),
        Destination::Unicast(NodeId(2)),
        1,
        SimTime::ZERO,
        SimTime::from_ms(1),
        ConnectionId(1),
    );
    let first_id = net.submit_message(SimTime::ZERO, first);
    // urgent message released mid-slot-0, after node 1's decision time
    let late_release = SimTime::ZERO + slot - TimeDelta::from_ns(1);
    let urgent = Message {
        released: late_release,
        deadline: late_release + TimeDelta::from_us(30),
        ..Message::real_time(
            NodeId(1),
            Destination::Unicast(NodeId(3)),
            1,
            late_release,
            late_release,
            ConnectionId(2),
        )
    };
    let urgent_id = net.submit_message(late_release, urgent);
    let mut order = vec![];
    for _ in 0..6 {
        order.extend(net.step_slot().deliveries.iter().map(|d| d.msg.id));
    }
    assert_eq!(order, vec![first_id, urgent_id], "pin wins the first grant");
}

#[test]
fn expired_deadline_maps_to_top_priority_and_still_flows() {
    let mut net = RingNetwork::new_ccr_edf(cfg(4));
    let dead = Message::real_time(
        NodeId(1),
        Destination::Unicast(NodeId(2)),
        1,
        SimTime::ZERO,
        SimTime::from_ps(1), // already effectively expired
        ConnectionId(3),
    );
    net.submit_message(SimTime::ZERO, dead);
    net.run_slots(4);
    let m = net.metrics();
    assert_eq!(m.delivered_rt.get(), 1, "expired messages still delivered");
    assert_eq!(m.rt_deadline_misses.get(), 1, "and counted as a miss");
}

#[test]
fn closing_a_connection_lets_in_flight_messages_drain() {
    let c = cfg(6);
    let mut net = RingNetwork::new_ccr_edf(c);
    let id = net
        .open_connection(
            ConnectionSpec::unicast(NodeId(0), NodeId(3))
                .period(TimeDelta::from_us(100))
                .size_slots(4),
        )
        .unwrap();
    // run long enough for a release, then close mid-message
    net.run_slots(30);
    net.close_connection(id);
    let before = net.metrics().delivered_rt.get();
    net.run_slots(200);
    let after = net.metrics().delivered_rt.get();
    assert!(after >= before, "drain continued");
    assert_eq!(net.queued_messages(), 0, "nothing stuck after close");
}

#[test]
fn all_services_on_under_traffic_with_wire_check() {
    // Stress the full wire format: every service field live while data
    // flows, with the encode/decode assertion on every slot.
    let c = NetworkConfig::builder(8)
        .slot_bytes(2048)
        .services(ServiceWireConfig::ALL)
        .wire_check(true)
        .build_auto_slot()
        .unwrap();
    let mut net = RingNetwork::new_ccr_edf(c);
    net.open_connection(
        ConnectionSpec::unicast(NodeId(1), NodeId(5))
            .period(TimeDelta::from_us(60))
            .size_slots(1),
    )
    .unwrap();
    for i in 0..8u16 {
        net.reduce_submit(NodeId(i), 1000 + i as u32);
        net.barrier_enter(NodeId(i));
    }
    net.short_send(NodeId(2), NodeId(7), 0xABCD);
    net.submit_message(SimTime::ZERO, nrt(3, 6, 2).with_reliable());
    net.run_slots(3_000);
    let m = net.metrics();
    assert!(m.delivered_rt.get() > 10);
    assert_eq!(m.barriers_completed.get(), 1);
    assert_eq!(m.reductions_completed.get(), 1);
    assert_eq!(m.short_delivered.get(), 1);
    assert_eq!(m.delivered_nrt.get(), 1);
    assert_eq!(m.rt_deadline_misses.get(), 0);
}

#[test]
fn several_reliable_messages_from_one_node_interleave() {
    let c = NetworkConfig::builder(6)
        .slot_bytes(2048)
        .services(ServiceWireConfig {
            reliable: true,
            ..Default::default()
        })
        .build_auto_slot()
        .unwrap();
    let mut net = RingNetwork::new_ccr_edf(c);
    for k in 0..5u16 {
        net.submit_message(SimTime::ZERO, nrt(0, 1 + (k % 5), 2).with_reliable());
    }
    net.run_slots(400);
    let m = net.metrics();
    assert_eq!(m.delivered_nrt.get(), 5, "all stop-and-wait streams done");
    assert_eq!(m.retransmissions.get(), 0, "no loss, no retransmits");
}

#[test]
fn two_node_ring_works() {
    // Degenerate minimum: N = 2, one link each way... the ring has 2 links.
    let mut net = RingNetwork::new_ccr_edf(cfg(2));
    net.submit_message(SimTime::ZERO, nrt(0, 1, 1));
    net.submit_message(SimTime::ZERO, nrt(1, 0, 1));
    net.run_slots(10);
    assert_eq!(net.metrics().delivered.get(), 2);
}

#[test]
fn max_ring_64_nodes_works() {
    let c = cfg(64);
    let mut net = RingNetwork::new_ccr_edf(c);
    for i in (0..64u16).step_by(8) {
        net.submit_message(SimTime::ZERO, nrt(i, (i + 4) % 64, 1));
    }
    net.run_slots(30);
    assert_eq!(net.metrics().delivered.get(), 8);
}

#[test]
fn grant_counts_match_deliveries_for_unit_messages() {
    let mut net = RingNetwork::new_ccr_edf(cfg(8));
    for i in 0..40u16 {
        net.submit_message(SimTime::ZERO, nrt(i % 8, (i % 8 + 1) % 8, 1));
    }
    net.run_slots(200);
    let m = net.metrics();
    assert_eq!(m.delivered.get(), 40);
    assert_eq!(m.grants.get(), 40, "one grant per unit message");
}

#[test]
fn run_until_reaches_requested_time() {
    let mut net = RingNetwork::new_ccr_edf(cfg(4));
    let target = SimTime::from_ms(1);
    net.run_until(target);
    assert!(net.now() >= target);
    // and no drift: now() is the start of a slot, at most one slot+gap past
    let slack = net.config().slot_time() + net.config().timing().max_handover();
    assert!(net.now() <= target + slack);
}

#[test]
fn queue_depth_reporting() {
    let mut net = RingNetwork::new_ccr_edf(cfg(4));
    for _ in 0..5 {
        net.submit_message(SimTime::ZERO, nrt(0, 1, 3));
    }
    assert_eq!(net.queued_messages(), 0, "not yet materialised");
    net.step_slot();
    assert_eq!(net.queued_messages(), 5);
    net.run_slots(60);
    assert_eq!(net.queued_messages(), 0);
    assert_eq!(net.metrics().delivered.get(), 5);
}

#[test]
fn link_utilisation_accounting() {
    let mut net = RingNetwork::new_ccr_edf(cfg(6));
    // 20 one-hop messages over link 2 only
    for _ in 0..20 {
        net.submit_message(SimTime::ZERO, nrt(2, 3, 1));
    }
    net.run_slots(40);
    let m = net.metrics();
    assert_eq!(m.delivered.get(), 20);
    assert_eq!(m.link_busy_slots.len(), 6);
    for (i, &busy) in m.link_busy_slots.iter().enumerate() {
        if i != 2 {
            assert_eq!(busy, 0, "link {i} should be idle");
        }
    }
    assert_eq!(m.link_busy_slots[2], 20);
}

#[test]
fn be_latency_class_accounting_is_disjoint() {
    let mut net = RingNetwork::new_ccr_edf(cfg(6));
    net.submit_message(
        SimTime::ZERO,
        Message::best_effort(
            NodeId(0),
            Destination::Unicast(NodeId(1)),
            1,
            SimTime::ZERO,
            SimTime::from_ms(1),
        ),
    );
    net.submit_message(SimTime::ZERO, nrt(2, 3, 1));
    net.run_slots(10);
    let m = net.metrics();
    assert_eq!(m.delivered_be.get(), 1);
    assert_eq!(m.delivered_nrt.get(), 1);
    assert_eq!(m.delivered_rt.get(), 0);
    assert_eq!(m.latency_be.count(), 1);
    assert_eq!(m.latency_nrt.count(), 1);
    assert_eq!(m.latency_rt.count(), 0);
    assert_eq!(m.delivered.get(), 2);
}
