//! Property and regression tests for the fabric layer.
//!
//! * `decompose_deadline` must split an end-to-end deadline so the per-hop
//!   budgets sum back *exactly*, to the picosecond, for arbitrary hop
//!   counts, weights and deadlines — the e2e guarantee composes from the
//!   per-segment guarantees only if nothing is lost to rounding.
//! * The restart-node election composed with a fault-cascaded bridge kill,
//!   and a kill → repair → reclaim story, must replay bit for bit and
//!   match their recorded values.
//! * The one router must return a shortest live route exactly when the
//!   live bridges connect the rings, checked against Floyd–Warshall and
//!   union-find over random fabrics and dead-bridge sets.

mod common;

use ccr_edf::fault::FaultKind;
use ccr_edf::metrics::Metrics;
use ccr_multiring::admission::decompose_deadline;
use ccr_multiring::prelude::*;
use ccr_phys::NodeId;
use ccr_sim::rng::DetRng;
use ccr_sim::TimeDelta;
use common::{all_ring_metrics, ring_counts, segment_maxima};

#[test]
fn deadline_decomposition_sums_exactly_for_random_inputs() {
    let mut rng = DetRng::new(0xDEC0);
    for case in 0..2_000 {
        let hops = rng.gen_range(1..=12u32) as usize;
        let mut weights: Vec<u64> = (0..hops)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => 0, // zero-weight hops are legal as long as one is not
                1 => rng.gen_range(1..=8u64),
                2 => rng.gen_range(1..=u32::MAX as u64),
                _ => rng.gen_range(1..=u64::MAX / 16),
            })
            .collect();
        if weights.iter().all(|&w| w == 0) {
            weights[0] = 1;
        }
        // Deadlines from a single picosecond up to centuries.
        let e2e_ps = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..=hops as u64),
            1 => rng.gen_range(1..=1_000_000u64),
            2 => rng.gen_range(1..=u64::MAX / 2),
            _ => u64::MAX - rng.gen_range(0..=1_000u64),
        };
        let e2e = TimeDelta::from_ps(e2e_ps);

        let budgets = decompose_deadline(e2e, &weights)
            .unwrap_or_else(|| panic!("case {case}: decomposition must exist"));
        assert_eq!(budgets.len(), hops, "case {case}: one budget per hop");
        let sum: u128 = budgets.iter().map(|b| b.as_ps() as u128).sum();
        assert_eq!(
            sum, e2e_ps as u128,
            "case {case}: budgets must sum exactly to the e2e deadline \
             (weights {weights:?}, e2e {e2e_ps} ps)"
        );
        // Each budget is its floor share plus at most one remainder ps.
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        for (hop, (&w, b)) in weights.iter().zip(&budgets).enumerate() {
            let floor = ((e2e_ps as u128 * w as u128) / total) as u64;
            assert!(
                b.as_ps() == floor || b.as_ps() == floor + 1,
                "case {case} hop {hop}: budget {} strays from floor share {floor}",
                b.as_ps()
            );
        }
    }
}

#[test]
fn degenerate_decompositions_are_rejected() {
    assert!(decompose_deadline(TimeDelta::from_us(1), &[]).is_none());
    assert!(decompose_deadline(TimeDelta::from_us(1), &[0, 0, 0]).is_none());
}

/// Triangle fabric where ring 0's node 0 is both the designated restart
/// node and a bridge endpoint: failing it cascades into a bridge kill, and
/// the follow-up token loss forces the restart-successor election. The
/// whole composition must replay bit-identically.
fn election_with_bridge_kill() -> (FabricMetrics, Vec<Metrics>) {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(6);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Unbounded);
    let topo = b.build().unwrap();

    let mut cfg = FabricConfig::uniform(topo, 2_048, 0xE1EC).unwrap();
    for rc in &mut cfg.ring_configs {
        rc.faults.recovery_timeout_slots = 6;
    }
    let cfg = cfg.fault_script(
        FabricFaultScript::new()
            // Kills the designated restart node; its bridge dies with it.
            .ring_at(100, RingId(0), FaultKind::FailNode(NodeId(0)))
            // Clock loss with node 0 dead: the election must pick the
            // nearest live successor.
            .ring_at(150, RingId(0), FaultKind::LoseToken),
    );
    let mut fabric = Fabric::new(cfg).unwrap();
    fabric
        .open_connection(
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                .period(TimeDelta::from_ms(5)),
        )
        .unwrap();
    fabric.run_slots(20_000);
    fabric.flush_health_series();
    (fabric.metrics().clone(), all_ring_metrics(&fabric))
}

#[test]
fn restart_election_with_bridge_kill_replays_pinned_values() {
    let first = election_with_bridge_kill();
    assert_eq!(first, election_with_bridge_kill(), "same seed, same run");
    let (m, rings) = &first;

    // The story actually happened: the node death took its bridge down,
    // the ring lost and recovered its clock, and the crossing connection
    // failed over to the detour through ring 2.
    assert_eq!(m.bridges_killed.get(), 1, "cascaded bridge kill");
    assert!(m.e2e_rerouted.get() >= 1, "detour reroute happened");
    assert!(m.degraded_slots.get() > 0, "recovery dead time counted");
    assert!(m.e2e_delivered.get() > 0, "traffic resumed");
    assert_eq!(rings[0].nodes_failed.get(), 1);
    assert!(rings[0].tokens_lost.get() >= 1);
    assert!(rings[0].recovery_slots.get() > 0);
    // The per-ring availability series localises the damage: both bridge-0
    // endpoint rings (0: node death + clock loss, 1: peer station bypass)
    // spent recovery slots degraded, while untouched ring 2 stayed at 1.0.
    assert!(m.ring_degraded_slots[0].get() > 0);
    assert!(m.ring_degraded_slots[1].get() > 0);
    assert_eq!(m.ring_degraded_slots.get(2).map_or(0, |c| c.get()), 0);
    assert!(!m.ring_availability.is_empty());

    assert_eq!(
        (
            m.e2e_rerouted.get(),
            m.degraded_slots.get(),
            m.e2e_delivered.get(),
            m.forwarded.get(),
            segment_maxima(m),
        ),
        (1, 12, 22, 43, vec![15_340, 10_540, 20_580]),
        "fabric counters moved"
    );
    assert_eq!(
        (rings[0].tokens_lost.get(), rings[0].recovery_slots.get()),
        (1, 6),
        "ring 0 recovery moved"
    );
    assert_eq!(
        ring_counts(rings),
        [
            [22, 22, 2, 45_056],
            [22, 22, 0, 45_056],
            [21, 21, 1, 43_008],
        ],
        "per-ring counters moved"
    );
}

/// Kill → repair → reclaim on a cyclic fabric: bridge 0 dies at slot 200
/// (the crossing connection detours through ring 2), comes back at slot
/// 6_000 (the connection is reclaimed onto the direct route), and the
/// whole story must replay bit-identically.
fn kill_repair_reclaim() -> (FabricMetrics, Vec<Metrics>) {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(6);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Unbounded);
    let topo = b.build().unwrap();

    let mut cfg = FabricConfig::uniform(topo, 2_048, 0x4EA1).unwrap();
    for rc in &mut cfg.ring_configs {
        rc.faults.recovery_timeout_slots = 6;
    }
    let cfg = cfg.fault_script(
        FabricFaultScript::new()
            .kill_bridge_at(200, 0)
            .repair_bridge_at(6_000, 0),
    );
    let mut fabric = Fabric::new(cfg).unwrap();
    fabric
        .open_connection(
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                .period(TimeDelta::from_ms(5)),
        )
        .unwrap();
    fabric.run_slots(20_000);
    fabric.flush_health_series();
    (fabric.metrics().clone(), all_ring_metrics(&fabric))
}

#[test]
fn kill_repair_reclaim_replays_pinned_values() {
    let first = kill_repair_reclaim();
    assert_eq!(first, kill_repair_reclaim(), "same seed, same run");
    let (m, rings) = &first;

    assert_eq!(m.bridges_killed.get(), 1);
    assert_eq!(m.bridges_repaired.get(), 1, "repair landed");
    assert!(m.e2e_rerouted.get() >= 1, "detour on the kill");
    assert!(
        m.e2e_reclaimed.get() >= 1,
        "direct route reclaimed after the repair"
    );
    assert!(m.e2e_delivered.get() > 0, "traffic kept flowing");
    // The repaired ports rejoined their rings.
    assert!(rings[0].nodes_repaired.get() >= 1);
    assert!(rings[1].nodes_repaired.get() >= 1);

    assert_eq!(
        (
            m.e2e_rerouted.get(),
            m.e2e_reclaimed.get(),
            m.e2e_delivered.get(),
            m.forwarded.get(),
            segment_maxima(m),
        ),
        (1, 1, 22, 28, vec![15_240, 10_640, 20_580]),
        "fabric counters moved"
    );
    assert_eq!(
        (rings[0].nodes_repaired.get(), rings[1].nodes_repaired.get()),
        (1, 1),
        "port repairs moved"
    );
    assert_eq!(
        ring_counts(rings),
        [[22, 22, 1, 45_056], [22, 22, 1, 45_056], [6, 6, 1, 12_288]],
        "per-ring counters moved"
    );
}

/// A seeded random fabric of 2–8 rings with a random bridge set: parallel
/// bridges and cycles included (accepted as [`CycleBound::Unbounded`]),
/// disconnected rings too.
fn random_topology(rng: &mut DetRng) -> FabricTopology {
    let n_rings = rng.gen_range(2..=8u32) as u16;
    let sizes: Vec<u16> = (0..n_rings)
        .map(|_| rng.gen_range(3..=8u32) as u16)
        .collect();
    let mut b = FabricTopology::builder();
    for &n in &sizes {
        b.ring(n);
    }
    let port = |rng: &mut DetRng, r: u16| {
        GlobalNodeId::new(r, rng.gen_range(0..u32::from(sizes[r as usize])) as u16)
    };
    for _ in 0..rng.gen_range(0..=2 * u32::from(n_rings)) {
        let ra = rng.gen_range(0..u32::from(n_rings)) as u16;
        let rb = (ra + rng.gen_range(1..u32::from(n_rings)) as u16) % n_rings;
        b.bridge(port(rng, ra), port(rng, rb));
    }
    b.allow_cycles_with(CycleBound::Unbounded);
    b.build().expect("random fabric validates")
}

#[test]
fn the_router_finds_shortest_live_routes_exactly_when_they_exist() {
    let mut rng = DetRng::new(0x2007E);
    let (mut multi_hop, mut unrouted, mut expanded) = (0, 0, 0);
    for case in 0..300 {
        let t = random_topology(&mut rng);
        let n = t.n_rings() as usize;
        let nb = t.bridges().len();
        // Dead sets: none (the empty slice), a full flag vector, or a
        // short prefix whose missing entries mean alive.
        let dead: Vec<bool> = match rng.gen_range(0..3u32) {
            0 => Vec::new(),
            1 => (0..nb).map(|_| rng.gen_bool(0.3)).collect(),
            _ => (0..rng.gen_range(0..=nb as u32))
                .map(|_| rng.gen_bool(0.5))
                .collect(),
        };
        let alive = |bi: usize| !dead.get(bi).copied().unwrap_or(false);

        // Independent oracles over the live bridges: Floyd–Warshall hop
        // counts and union-find connectivity.
        const FAR: usize = usize::MAX / 2;
        let mut hops = vec![vec![FAR; n]; n];
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &[usize], mut x: usize) -> usize {
            while parent[x] != x {
                x = parent[x];
            }
            x
        }
        for (r, row) in hops.iter_mut().enumerate() {
            row[r] = 0;
        }
        for (bi, br) in t.bridges().iter().enumerate() {
            if alive(bi) {
                let (a, c) = (br.a.ring.0 as usize, br.b.ring.0 as usize);
                hops[a][c] = 1;
                hops[c][a] = 1;
                let (ra, rc) = (find(&parent, a), find(&parent, c));
                parent[ra] = rc;
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    hops[i][j] = hops[i][j].min(hops[i][k] + hops[k][j]);
                }
            }
        }

        for (a, shortest) in hops.iter().enumerate() {
            let ra = RingId(a as u16);
            assert_eq!(t.route(ra, ra, &dead), None, "case {case}: self route");
            for c in (0..n).filter(|&c| c != a) {
                let rc = RingId(c as u16);
                let route = t.route(ra, rc, &dead);
                let connected = find(&parent, a) == find(&parent, c);
                assert_eq!(
                    route.is_some(),
                    connected,
                    "case {case}: {ra}->{rc} routed iff connected"
                );
                let Some(r) = route else {
                    unrouted += 1;
                    continue;
                };
                assert_eq!(r.rings.first(), Some(&ra), "case {case}: starts at {ra}");
                assert_eq!(r.rings.last(), Some(&rc), "case {case}: ends at {rc}");
                assert_eq!(r.rings.len(), r.bridges.len() + 1);
                for (i, &bi) in r.bridges.iter().enumerate() {
                    assert!(alive(bi), "case {case}: crosses dead bridge {bi}");
                    assert_eq!(
                        t.bridges()[bi].other_ring(r.rings[i]),
                        Some(r.rings[i + 1]),
                        "case {case}: bridge {bi} joins consecutive rings"
                    );
                }
                assert_eq!(r.bridges.len(), shortest[c], "case {case}: shortest");
                if r.bridges.len() > 1 {
                    multi_hop += 1;
                }
            }
        }

        // Expanded paths record the queue each crossing enters.
        for _ in 0..8 {
            let node = |rng: &mut DetRng| {
                let r = rng.gen_range(0..n as u32) as u16;
                GlobalNodeId::new(
                    r,
                    rng.gen_range(0..u32::from(t.ring_size(RingId(r)))) as u16,
                )
            };
            let (src, dst) = (node(&mut rng), node(&mut rng));
            let Ok(segs) = t.segments(src, dst, &dead) else {
                continue;
            };
            expanded += 1;
            let (last, crossed) = segs.split_last().expect("at least one segment");
            assert_eq!((last.bridge, last.queue), (None, None));
            for seg in crossed {
                let bi = seg.bridge.expect("non-final segments cross a bridge");
                assert_eq!(seg.queue, Some(t.queue_index(bi, seg.ring)), "case {case}");
            }
        }
    }
    // The sample exercises detours, cuts and expansion alike.
    assert!(multi_hop > 1_000, "{multi_hop} multi-hop routes");
    assert!(unrouted > 1_000, "{unrouted} disconnected pairs");
    assert!(expanded > 500, "{expanded} expanded paths");
}
