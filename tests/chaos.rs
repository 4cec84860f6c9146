//! Differential chaos tests: fault injection must be *deterministic*.
//!
//! The fault layer's whole value rests on replayability — a fault scenario
//! that cannot be replayed bit-for-bit cannot be debugged or regression-
//! tested. These tests pin the three equivalences the design guarantees:
//!
//! 1. same seed + same [`FaultScript`] ⇒ `==` [`Metrics`] across runs;
//! 2. slot-by-slot stepping ⇒ the same metrics as `run_slots` (whose idle
//!    fast-forward must stay bit-identical under scripted faults);
//! 3. a fabric under a script injecting node, token, bit-error *and*
//!    bridge faults at once ⇒ `==` [`FabricMetrics`] across runs, equal to
//!    the recorded values.
//!
//! Plus the historical wedge: killing designated restart node 0 must not
//! stall clock recovery (a live successor is elected).

use ccr_edf_suite::edf::config::FaultConfig;
use ccr_edf_suite::edf::fault::{FaultKind, FaultScript};
use ccr_edf_suite::edf::metrics::Metrics;
use ccr_edf_suite::multiring::{FabricFaultScript, FabricMetrics, RingId};
use ccr_edf_suite::prelude::*;

fn chaos_script() -> FaultScript {
    FaultScript::new()
        .at(40, FaultKind::CorruptCollection { victim: NodeId(3) })
        .at(90, FaultKind::LoseToken)
        .at(140, FaultKind::FailNode(NodeId(5)))
        .at(200, FaultKind::CorruptDistribution)
}

fn chaos_ring(seed: u64) -> RingNetwork {
    let cfg = NetworkConfig::builder(8)
        .slot_bytes(2_048)
        .seed(seed)
        .faults(FaultConfig {
            token_loss_prob: 2e-3,
            control_error_prob: 1e-3,
            data_loss_prob: 1e-3,
            recovery_timeout_slots: 5,
        })
        .fault_script(chaos_script())
        .build_auto_slot()
        .unwrap();
    let slot = cfg.slot_time();
    let mut net = RingNetwork::new_ccr_edf(cfg);
    for (i, (src, dst)) in [(1u16, 4u16), (2, 6), (5, 7), (0, 3)]
        .into_iter()
        .enumerate()
    {
        net.open_connection(
            ConnectionSpec::unicast(NodeId(src), NodeId(dst))
                .period(slot.times(20 + 10 * i as u64))
                .size_slots(1),
        )
        .unwrap();
    }
    net
}

#[test]
fn same_seed_and_script_replay_bit_for_bit() {
    let run = || {
        let mut net = chaos_ring(0xC0FFEE);
        net.run_slots(30_000);
        net.metrics().clone()
    };
    let (a, b): (Metrics, Metrics) = (run(), run());
    // Faults actually fired (stochastic + scripted), and yet…
    assert!(a.tokens_lost.get() > 10);
    assert!(a.control_corrupted.get() > 0);
    assert_eq!(a.nodes_failed.get(), 1);
    // …the runs are indistinguishable.
    assert_eq!(a, b);
}

#[test]
fn fast_forward_is_bit_identical_under_scripted_faults() {
    // Scripted faults only (stochastic probabilities disable the idle
    // fast-forward outright), sparse periods so idle stretches exist.
    let build = || {
        let cfg = NetworkConfig::builder(6)
            .slot_bytes(2_048)
            .seed(7)
            .faults(FaultConfig {
                recovery_timeout_slots: 4,
                ..Default::default()
            })
            .fault_script(
                FaultScript::new()
                    .at(500, FaultKind::LoseToken)
                    .at(1_500, FaultKind::FailNode(NodeId(4)))
                    .at(2_500, FaultKind::CorruptCollection { victim: NodeId(2) }),
            )
            .build_auto_slot()
            .unwrap();
        let slot = cfg.slot_time();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.open_connection(
            ConnectionSpec::unicast(NodeId(1), NodeId(3))
                .period(slot.times(400))
                .size_slots(1),
        )
        .unwrap();
        net
    };

    let mut stepped = build();
    for _ in 0..10_000 {
        stepped.step_slot();
    }
    let mut fast = build();
    fast.run_slots(10_000);

    assert!(
        fast.metrics().idle_slots.get() > 0,
        "idle stretches existed"
    );
    assert_eq!(stepped.metrics(), fast.metrics());
}

fn chaos_fabric() -> (FabricMetrics, Vec<Metrics>) {
    // Triangle with a detour, so the bridge kill reroutes rather than
    // revokes; ring-local scripts land node, token and bit-error faults.
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(6);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Unbounded);
    let topo = b.build().unwrap();

    let mut cfg = FabricConfig::uniform(topo, 2_048, 0xFAB).unwrap();
    for rc in &mut cfg.ring_configs {
        rc.faults.recovery_timeout_slots = 6;
    }
    cfg.ring_configs[2].faults.token_loss_prob = 2e-3;
    let cfg = cfg.fault_script(
        FabricFaultScript::new()
            .ring_at(100, RingId(0), FaultKind::LoseToken)
            .ring_at(150, RingId(1), FaultKind::FailNode(NodeId(4)))
            .ring_at(
                200,
                RingId(2),
                FaultKind::CorruptCollection { victim: NodeId(2) },
            )
            .kill_bridge_at(300, 0),
    );
    let mut fabric = Fabric::new(cfg).unwrap();
    fabric
        .open_connection(
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                .period(TimeDelta::from_ms(5)),
        )
        .unwrap();
    fabric
        .open_connection(
            FabricConnectionSpec::unicast(GlobalNodeId::new(2, 3), GlobalNodeId::new(2, 4))
                .period(TimeDelta::from_ms(2)),
        )
        .unwrap();
    fabric.run_slots(20_000);
    let rings = (0..3)
        .map(|r| fabric.ring_metrics(RingId(r)).clone())
        .collect();
    (fabric.metrics().clone(), rings)
}

#[test]
fn fabric_chaos_replays_pinned_values() {
    let first = chaos_fabric();
    // The same seed and script replay bit for bit…
    assert_eq!(first, chaos_fabric());
    let (m, rings) = &first;
    // …the full fault menu fired…
    assert_eq!(m.bridges_killed.get(), 1);
    assert!(m.e2e_rerouted.get() >= 1, "detour reroute happened");
    assert!(m.degraded_slots.get() > 0);
    assert!(m.e2e_delivered.get() > 0);
    // …and the run matches the recorded one.
    let segment_max: Vec<u64> = m
        .segment_latency
        .iter()
        .map(|h| h.max().unwrap_or(0))
        .collect();
    assert_eq!(
        (
            m.e2e_rerouted.get(),
            m.degraded_slots.get(),
            m.e2e_delivered.get(),
            m.forwarded.get(),
            segment_max,
        ),
        (1, 222, 74, 43, vec![41_260, 10_690, 10_340]),
        "fabric counters moved"
    );
    let ring_counts: Vec<[u64; 5]> = rings
        .iter()
        .map(|r| {
            [
                r.delivered.get(),
                r.grants.get(),
                r.master_changes.get(),
                r.data_bytes.get(),
                r.tokens_lost.get(),
            ]
        })
        .collect();
    assert_eq!(
        ring_counts,
        [
            [22, 22, 2, 45_056, 2],
            [22, 22, 0, 45_056, 1],
            [73, 73, 60, 149_504, 35],
        ],
        "per-ring counters moved"
    );
}

#[test]
fn killing_restart_node_zero_does_not_wedge_recovery() {
    let cfg = NetworkConfig::builder(6)
        .slot_bytes(2_048)
        .seed(1)
        .faults(FaultConfig {
            recovery_timeout_slots: 4,
            ..Default::default()
        })
        .fault_script(
            FaultScript::new()
                .at(50, FaultKind::FailNode(NodeId(0)))
                .at(100, FaultKind::LoseToken),
        )
        .build_auto_slot()
        .unwrap();
    let slot = cfg.slot_time();
    let mut net = RingNetwork::new_ccr_edf(cfg);
    net.open_connection(
        ConnectionSpec::unicast(NodeId(2), NodeId(5))
            .period(slot.times(25))
            .size_slots(1),
    )
    .unwrap();
    net.run_slots(150);
    let before = net.metrics().delivered_rt.get();
    net.run_slots(2_000);
    let m = net.metrics();
    // The token loss at slot 100 found designated restart node 0 dead; a
    // live successor took over after exactly the timeout — no wedge.
    assert_eq!(m.tokens_lost.get(), 1);
    assert_eq!(m.recovery_slots.get(), 4);
    assert!(
        m.delivered_rt.get() > before,
        "traffic resumed after the restart election"
    );
}
