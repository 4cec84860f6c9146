//! Differential tests: the idle-slot fast-forward must be *invisible* in
//! every deterministic observable. Each scenario is run three ways —
//! slot-by-slot via `step_slot` (never fast-forwards), slot-by-slot via
//! `run_slots(1)` (fast-forwards one slot at a time, as the fabric's ring
//! phase does), and in one `run_slots(k)` chunk (fast-forwards whole idle
//! stretches) — and all three must produce byte-identical
//! `Metrics`, identical per-slot outcome traces, and the same final
//! clock, slot index and master.

use ccr_edf::config::{FaultConfig, NetworkConfig};
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::fault::{FaultKind, FaultScript};
use ccr_edf::message::MessageId;
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::wire::{NodeSet, ServiceWireConfig};
use ccr_edf::{NodeId, SimTime, TimeDelta};

fn cfg(n: u16, seed: u64) -> NetworkConfig {
    NetworkConfig::builder(n)
        .slot_bytes(1024)
        .seed(seed)
        .build()
        .unwrap()
}

/// The deterministic fingerprint of one executed slot.
type SlotTrace = (
    u64,
    SimTime,
    SimTime,
    NodeId,
    usize,
    NodeId,
    Vec<(MessageId, SimTime)>,
);

fn fingerprint(out: &ccr_edf::network::SlotOutcome) -> SlotTrace {
    (
        out.slot_index,
        out.slot_start,
        out.slot_end,
        out.master,
        out.grant_count,
        out.next_master,
        out.deliveries
            .iter()
            .map(|d| (d.msg.id, d.completed))
            .collect(),
    )
}

/// Drive `slots` slots three ways and assert every observable matches.
/// Returns the number of slots the chunked run fast-forwarded.
fn assert_fast_forward_invisible(build: &dyn Fn() -> RingNetwork, slots: u64) -> u64 {
    // Reference: pure step_slot, which never takes the fast path.
    let mut stepped = build();
    let mut trace_stepped = Vec::new();
    for _ in 0..slots {
        trace_stepped.push(fingerprint(stepped.step_slot()));
    }

    // Per-slot driver: run_slots(1) may fast-forward single idle slots.
    let mut single = build();
    let mut trace_single = Vec::new();
    for _ in 0..slots {
        single.run_slots(1);
        trace_single.push(fingerprint(single.last_outcome()));
    }
    assert_eq!(
        trace_stepped, trace_single,
        "per-slot outcome traces differ"
    );
    assert_eq!(
        stepped.metrics(),
        single.metrics(),
        "metrics differ (single)"
    );

    // Chunked driver: one run_slots call fast-forwards whole idle
    // stretches in O(1) each.
    let mut chunked = build();
    chunked.run_slots(slots);
    assert_eq!(
        stepped.metrics(),
        chunked.metrics(),
        "metrics differ (chunked)"
    );
    assert_eq!(stepped.now(), chunked.now(), "clock differs");
    assert_eq!(
        stepped.slot_index(),
        chunked.slot_index(),
        "slot index differs"
    );
    assert_eq!(stepped.master(), chunked.master(), "master differs");
    assert_eq!(
        stepped.queued_messages(),
        chunked.queued_messages(),
        "backlog differs"
    );
    chunked.throughput().fast_forwarded
}

#[test]
fn no_traffic_is_bit_identical_and_fast_forwards() {
    for seed in [1u64, 7, 42] {
        let build = move || RingNetwork::new_ccr_edf(cfg(8, seed));
        let ff = assert_fast_forward_invisible(&build, 3_000);
        assert_eq!(ff, 3_000, "a fully idle run must fast-forward every slot");
    }
}

#[test]
fn sparse_periodic_is_bit_identical_and_fast_forwards() {
    for seed in [3u64, 99] {
        let build = move || {
            let c = cfg(8, seed);
            let slot = c.slot_time();
            let mut net = RingNetwork::new_ccr_edf(c);
            // Two connections with a 200-slot period: long idle stretches
            // between releases.
            for (src, dst) in [(0u16, 3u16), (4, 7)] {
                let spec = ConnectionSpec::unicast(NodeId(src), NodeId(dst))
                    .period(slot * 200)
                    .size_slots(1);
                net.open_connection(spec).unwrap();
            }
            net
        };
        let ff = assert_fast_forward_invisible(&build, 4_000);
        assert!(
            ff > 3_000,
            "sparse traffic should fast-forward most slots, got {ff}"
        );
        // and traffic actually flowed
        let mut net = build();
        net.run_slots(4_000);
        assert!(net.metrics().delivered_rt.get() >= 19);
    }
}

#[test]
fn loaded_network_is_bit_identical() {
    for seed in [5u64, 11] {
        let build = move || {
            let c = cfg(8, seed);
            let slot = c.slot_time();
            let mut net = RingNetwork::new_ccr_edf(c);
            for (i, (src, dst)) in [(0u16, 2u16), (2, 5), (4, 7), (6, 1)]
                .into_iter()
                .enumerate()
            {
                let spec = ConnectionSpec::unicast(NodeId(src), NodeId(dst))
                    .period(slot * (8 + i as u64 * 3))
                    .size_slots(1);
                net.open_connection(spec).unwrap();
            }
            net
        };
        assert_fast_forward_invisible(&build, 2_000);
    }
}

#[test]
fn one_shot_bursts_are_bit_identical() {
    let build = || {
        let c = cfg(6, 13);
        let slot = c.slot_time();
        let mut net = RingNetwork::new_ccr_edf(c);
        // Bursts separated by long idle gaps, including multi-slot and
        // broadcast messages.
        for burst in 0..4u64 {
            let at = SimTime::ZERO + slot * (burst * 300);
            net.submit_message(
                at,
                Message::non_real_time(NodeId(1), Destination::Unicast(NodeId(4)), 2, at),
            );
            net.submit_message(
                at + TimeDelta::from_ns(5),
                Message::non_real_time(NodeId(3), Destination::Broadcast, 1, at),
            );
        }
        net
    };
    let ff = assert_fast_forward_invisible(&build, 1_500);
    assert!(
        ff > 1_000,
        "gaps between bursts should fast-forward, got {ff}"
    );
    let mut net = build();
    net.run_slots(1_500);
    assert_eq!(net.metrics().delivered.get(), 8);
}

#[test]
fn services_and_reliable_acks_are_bit_identical() {
    // Every service on: reliable messages leave their queue only when the
    // last ack comes back in a distribution packet, while a barrier and
    // short messages ride the control channel; idle stretches separate the
    // reliable bursts.
    let build = || {
        let c = NetworkConfig::builder(8)
            .slot_bytes(2048)
            .services(ServiceWireConfig::ALL)
            .seed(19)
            .build_auto_slot()
            .unwrap();
        let slot = c.slot_time();
        let mut net = RingNetwork::new_ccr_edf(c);
        for burst in 0..3u64 {
            let at = SimTime::ZERO + slot * (burst * 400);
            for (src, dst, size) in [(1u16, 5u16, 2u32), (6, 2, 1)] {
                let msg = Message::non_real_time(
                    NodeId(src),
                    Destination::Unicast(NodeId(dst)),
                    size,
                    at,
                );
                net.submit_message(at, msg.with_reliable());
            }
        }
        for i in 0..8u16 {
            net.barrier_enter(NodeId(i));
        }
        net.short_send(NodeId(2), NodeId(7), 0xABCD);
        net.short_send(NodeId(4), NodeId(0), 0x1234);
        net
    };
    let ff = assert_fast_forward_invisible(&build, 1_500);
    assert!(
        ff > 1_000,
        "gaps between bursts should fast-forward, got {ff}"
    );
    let mut net = build();
    net.run_slots(1_500);
    let m = net.metrics();
    assert_eq!(m.delivered_nrt.get(), 6);
    assert_eq!(m.barriers_completed.get(), 1);
    assert_eq!(m.short_delivered.get(), 2);
}

#[test]
fn failing_a_node_with_queued_messages_is_bit_identical() {
    // Node 2 dies at slot 40 with a backlog in its queues; one-shot bursts
    // elsewhere keep the ring busy now and then afterwards.
    let build = || {
        let c = NetworkConfig::builder(6)
            .slot_bytes(1024)
            .seed(23)
            .fault_script(FaultScript::new().at(40, FaultKind::FailNode(NodeId(2))))
            .faults(FaultConfig {
                recovery_timeout_slots: 4,
                ..Default::default()
            })
            .build()
            .unwrap();
        let slot = c.slot_time();
        let mut net = RingNetwork::new_ccr_edf(c);
        for _ in 0..6 {
            let msg = Message::non_real_time(
                NodeId(2),
                Destination::Unicast(NodeId(4)),
                8,
                SimTime::ZERO,
            );
            net.submit_message(SimTime::ZERO, msg);
        }
        for burst in 0..4u64 {
            let at = SimTime::ZERO + slot * (burst * 300 + 100);
            net.submit_message(
                at,
                Message::non_real_time(NodeId(0), Destination::Unicast(NodeId(3)), 2, at),
            );
        }
        net
    };
    let ff = assert_fast_forward_invisible(&build, 1_500);
    assert!(ff > 1_000, "the ring idles after the failure, got {ff}");
    let mut net = build();
    net.run_slots(1_500);
    let m = net.metrics();
    assert_eq!(m.nodes_failed.get(), 1);
    assert!(
        m.fault_dropped_messages.get() > 0,
        "the backlog died with node 2"
    );
    assert_eq!(m.delivered.get() + m.fault_dropped_messages.get(), 10);
}

#[test]
fn multicast_one_shots_are_bit_identical() {
    let build = || {
        let c = cfg(8, 29);
        let slot = c.slot_time();
        let mut net = RingNetwork::new_ccr_edf(c);
        let wide: NodeSet = [NodeId(2), NodeId(5), NodeId(7)].into_iter().collect();
        let pair: NodeSet = [NodeId(0), NodeId(3)].into_iter().collect();
        for burst in 0..4u64 {
            let at = SimTime::ZERO + slot * (burst * 250);
            net.submit_message(
                at,
                Message::non_real_time(NodeId(1), Destination::Multicast(wide), 2, at),
            );
            net.submit_message(
                at + TimeDelta::from_ns(7),
                Message::best_effort(
                    NodeId(6),
                    Destination::Multicast(pair),
                    1,
                    at,
                    at + slot * 50,
                ),
            );
        }
        net
    };
    let ff = assert_fast_forward_invisible(&build, 1_200);
    assert!(
        ff > 800,
        "gaps between bursts should fast-forward, got {ff}"
    );
    let mut net = build();
    net.run_slots(1_200);
    assert_eq!(net.metrics().delivered.get(), 8);
}

#[test]
fn run_until_matches_stepping() {
    let build = || {
        let c = cfg(8, 21);
        let slot = c.slot_time();
        let mut net = RingNetwork::new_ccr_edf(c);
        let spec = ConnectionSpec::unicast(NodeId(2), NodeId(6))
            .period(slot * 500)
            .size_slots(1);
        net.open_connection(spec).unwrap();
        net
    };
    let horizon = {
        let c = cfg(8, 21);
        SimTime::ZERO + c.slot_time() * 2_345 + TimeDelta::from_ns(3)
    };

    let mut stepped = build();
    while stepped.now() < horizon {
        stepped.step_slot();
    }
    let mut fast = build();
    fast.run_until(horizon);

    assert_eq!(stepped.metrics(), fast.metrics());
    assert_eq!(stepped.now(), fast.now());
    assert_eq!(stepped.slot_index(), fast.slot_index());
    assert!(fast.throughput().fast_forwarded > 1_000);
}

#[test]
fn fault_injection_disables_fast_forward() {
    // With token-loss probability > 0 every slot draws from the RNG, so
    // the fast path must refuse to skip even a fully idle network.
    let mut c = cfg(6, 17);
    c.faults.token_loss_prob = 0.01;
    c.faults.recovery_timeout_slots = 3;
    let mut net = RingNetwork::new_ccr_edf(c.clone());
    net.run_slots(2_000);
    assert_eq!(net.throughput().fast_forwarded, 0);
    assert!(
        net.metrics().tokens_lost.get() > 0,
        "faults must still fire"
    );
    let mut single = RingNetwork::new_ccr_edf(c);
    for _ in 0..2_000 {
        single.run_slots(1);
    }
    assert_eq!(single.throughput().fast_forwarded, 0);
    assert_eq!(
        single.metrics(),
        net.metrics(),
        "run_slots(1) ≡ run_slots(k)"
    );
}
