//! End-to-end fabric acceptance tests: bridge-crossing delivery within
//! decomposed deadlines, admission rejection of infeasible sets, and
//! same-seed runs that replay bit for bit and match recorded values.

mod common;

use ccr_multiring::prelude::*;
use common::{all_ring_metrics, ring_counts, segment_maxima};

fn chain_fabric(rings: u16, nodes: u16, seed: u64) -> Fabric {
    let topo = FabricTopology::chain(rings, nodes);
    let cfg = FabricConfig::uniform(topo, 2048, seed).unwrap();
    Fabric::new(cfg).unwrap()
}

#[test]
fn two_ring_smoke_crosses_the_bridge_within_deadline() {
    let mut fabric = chain_fabric(2, 6, 101);
    let slot = fabric.segment_envs()[0].slot;
    fabric
        .open_connection(
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                .period(slot.times(200)),
        )
        .unwrap();
    fabric.run_slots(5_000);
    let m = fabric.metrics();
    assert!(
        m.e2e_delivered.get() >= 20,
        "cross-ring traffic flows: {m:?}"
    );
    assert_eq!(
        m.e2e_missed.get(),
        0,
        "a lone light connection meets every decomposed deadline"
    );
    assert!(m.forwarded.get() >= m.e2e_delivered.get());
    assert_eq!(m.bridge_drops.get(), 0);
    // both segments saw traffic
    assert!(m.segment_latency.len() == 2);
    assert!(m.segment_latency[0].count() > 0 && m.segment_latency[1].count() > 0);
}

#[test]
fn three_ring_two_bridge_set_admits_and_meets_deadlines() {
    let mut fabric = chain_fabric(3, 8, 202);
    let slot = fabric.segment_envs()[0].slot;
    // A cross-ring set spanning one and two bridges, plus a local stream.
    let set = [
        FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 3))
            .period(slot.times(400)), // crosses both bridges
        FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 4))
            .period(slot.times(300)), // crosses bridge 0
        FabricConnectionSpec::unicast(GlobalNodeId::new(1, 2), GlobalNodeId::new(2, 5))
            .period(slot.times(300)), // crosses bridge 1
        FabricConnectionSpec::unicast(GlobalNodeId::new(2, 1), GlobalNodeId::new(2, 6))
            .period(slot.times(250)), // stays on ring 2
    ];
    for spec in set {
        fabric.open_connection(spec).expect("feasible set admits");
    }
    assert_eq!(fabric.active_connections(), 4);
    fabric.run_slots(20_000);
    let m = fabric.metrics();
    assert!(m.e2e_delivered.get() >= 200, "all streams deliver: {m:?}");
    assert_eq!(m.e2e_missed.get(), 0, "decomposed deadlines all met: {m:?}");
    assert_eq!(m.bridge_drops.get(), 0);
    // three-segment routes populate three per-hop histograms
    assert_eq!(m.segment_latency.len(), 3);
    assert!(m.peak_bridge_occupancy >= 1, "bridges actually buffered");
}

#[test]
fn infeasible_set_rejected_at_admission() {
    let mut fabric = chain_fabric(2, 6, 303);
    let slot = fabric.segment_envs()[0].slot;
    // Deadline below the segment floors: rejected before touching a ring.
    let too_tight = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
        .period(slot.times(100))
        .e2e_deadline(slot.times(2));
    assert!(matches!(
        fabric.open_connection(too_tight),
        Err(FabricAdmissionError::DeadlineTooTight { .. })
    ));
    // Utilisation overload: greedily admit until a segment bounces, and
    // verify the rejection is all-or-nothing (no residue on either ring).
    let mut admitted = 0u32;
    let err = loop {
        let spec = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
            .period(slot.times(12));
        match fabric.open_connection(spec) {
            Ok(_) => admitted += 1,
            Err(e) => break e,
        }
        assert!(admitted < 1_000, "admission never saturated");
    };
    assert!(
        matches!(err, FabricAdmissionError::SegmentRejected { .. }),
        "unexpected rejection: {err:?}"
    );
    assert!(admitted >= 1, "some connections fit before saturation");
    assert_eq!(fabric.active_connections() as u32, admitted);
}

#[test]
fn three_ring_stepping_replays_pinned_values() {
    let run = || {
        let mut fabric = chain_fabric(3, 8, 404);
        let slot = fabric.segment_envs()[0].slot;
        let set = [
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(2, 3))
                .period(slot.times(150)),
            FabricConnectionSpec::unicast(GlobalNodeId::new(1, 3), GlobalNodeId::new(0, 2))
                .period(slot.times(170)),
            FabricConnectionSpec::unicast(GlobalNodeId::new(2, 4), GlobalNodeId::new(1, 1))
                .period(slot.times(190)),
        ];
        for spec in set {
            fabric.open_connection(spec).unwrap();
        }
        fabric.run_slots(8_000);
        (fabric.metrics().clone(), all_ring_metrics(&fabric))
    };
    let first = run();
    assert_eq!(first, run(), "same seed, same run");
    let (m, rings) = &first;
    assert!(m.e2e_delivered.get() > 0, "scenario produces traffic");
    assert_eq!(
        (m.e2e_delivered.get(), m.forwarded.get(), segment_maxima(m)),
        (145, 199, vec![15_550, 16_060, 10_590]),
        "fabric counters moved"
    );
    assert_eq!(
        ring_counts(rings),
        [
            [102, 102, 96, 208_896],
            [145, 145, 144, 296_960],
            [97, 97, 85, 198_656],
        ],
        "per-ring counters moved"
    );
}

#[test]
fn sparse_chain_replays_pinned_values_through_idle_rings() {
    // Long periods leave over 99.8 % of every ring's slots idle, so each
    // ring spends most of the run on its O(1) idle path; the values were
    // recorded with every ring stepping every slot.
    let run = || {
        let mut fabric = chain_fabric(4, 8, 606);
        let slot = fabric.segment_envs()[0].slot;
        let set = [
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(0, 5))
                .period(slot.times(1_000)), // stays on ring 0
            FabricConnectionSpec::unicast(GlobalNodeId::new(3, 6), GlobalNodeId::new(3, 2))
                .period(slot.times(2_900)), // stays on ring 3
            FabricConnectionSpec::unicast(GlobalNodeId::new(1, 3), GlobalNodeId::new(2, 1))
                .period(slot.times(1_700)), // crosses bridge 1
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(2, 4))
                .period(slot.times(2_300)), // crosses bridges 0 and 1
            FabricConnectionSpec::unicast(GlobalNodeId::new(3, 1), GlobalNodeId::new(1, 6))
                .period(slot.times(3_000)), // crosses bridges 2 and 1
        ];
        for spec in set {
            fabric.open_connection(spec).unwrap();
        }
        fabric.run_slots(30_000);
        let idle_path: Vec<u64> = (0..4)
            .map(|r| fabric.with_ring(RingId(r), |ring| ring.throughput().fast_forwarded))
            .collect();
        (
            fabric.metrics().clone(),
            all_ring_metrics(&fabric),
            idle_path,
        )
    };
    let first = run();
    assert_eq!(first, run(), "same seed, same run");
    let (m, rings, idle_path) = &first;
    assert!(
        idle_path.iter().all(|&k| k > 0),
        "every ring takes the idle path: {idle_path:?}"
    );
    assert_eq!(
        (
            m.e2e_delivered.get(),
            m.e2e_missed.get(),
            m.forwarded.get(),
            m.peak_bridge_occupancy,
            segment_maxima(m)
        ),
        (83, 0, 66, 1, vec![19_710, 15_760, 10_940]),
        "fabric counters moved"
    );
    assert_eq!(
        ring_counts(rings),
        [
            [44, 44, 29, 90_112],
            [42, 42, 41, 86_016],
            [42, 42, 20, 86_016],
            [21, 21, 20, 43_008],
        ],
        "per-ring counters moved"
    );
}

#[test]
fn faulty_rings_keep_fabric_deterministic() {
    // Token-loss fault injection exercises each ring's RNG; determinism
    // must still hold because every ring owns an independent seeded RNG.
    let run = || {
        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 505).unwrap();
        for rc in &mut cfg.ring_configs {
            rc.faults.token_loss_prob = 0.02;
            rc.faults.recovery_timeout_slots = 3;
        }
        let mut fabric = Fabric::new(cfg).unwrap();
        let slot = fabric.segment_envs()[0].slot;
        fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(slot.times(100)),
            )
            .unwrap();
        fabric.run_slots(6_000);
        (fabric.metrics().clone(), all_ring_metrics(&fabric))
    };
    let first = run();
    assert_eq!(first, run(), "same seed, same run");
    let (m, rings) = &first;
    assert!(m.e2e_delivered.get() > 0);
    assert_eq!(
        (m.e2e_delivered.get(), m.forwarded.get(), segment_maxima(m)),
        (60, 60, vec![32_770, 20_630]),
        "fabric counters moved"
    );
    let tokens_lost: Vec<u64> = rings.iter().map(|r| r.tokens_lost.get()).collect();
    assert_eq!(tokens_lost, [124, 109], "token losses moved");
    assert_eq!(
        ring_counts(rings),
        [[60, 60, 57, 122_880], [60, 60, 0, 122_880]],
        "per-ring counters moved"
    );
}
