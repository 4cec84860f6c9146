//! Fabric-level differential suite for incremental calculus admission,
//! plus the freed-capacity reclaim that `close_connection` now triggers.
//!
//! Twin fabrics — one on the warm-started dirty-set certifier, one with
//! [`FabricConfig::calculus_force_full`] armed — are driven through the
//! same seeded admit/close/kill/repair command stream. After every command
//! the admission outcomes, the connection events and every opened
//! connection's certified end-to-end bound must match exactly: the
//! incremental solver is a pure optimisation, never a semantic change. A
//! connection keeps its id through every reroute and reclaim until it is
//! closed, and a closed id never resolves again.
//!
//! [`FabricConfig::calculus_force_full`]: ccr_multiring::FabricConfig::calculus_force_full

use ccr_edf_suite::multiring::{ConnectionEvent, FabricConnectionId};
use ccr_edf_suite::prelude::*;
use ccr_edf_suite::sim::rng::DetRng;

/// Cyclic triangle with the calculus bound armed (two routes between any
/// ring pair, so kills reroute instead of always revoking).
fn triangle(ring_size: u16) -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(ring_size);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Calculus);
    b.build().expect("cyclic triangle builds")
}

fn random_spec(rng: &mut DetRng, n_rings: u16, ring_size: u16) -> FabricConnectionSpec {
    let src_ring = rng.gen_range(0..n_rings as u32) as u16;
    let mut dst_ring = rng.gen_range(0..n_rings as u32) as u16;
    if dst_ring == src_ring {
        dst_ring = (dst_ring + 1) % n_rings;
    }
    let src = GlobalNodeId::new(
        src_ring,
        2 + rng.gen_range(0..(ring_size - 2) as u32) as u16,
    );
    let dst = GlobalNodeId::new(
        dst_ring,
        2 + rng.gen_range(0..(ring_size - 2) as u32) as u16,
    );
    FabricConnectionSpec::unicast(src, dst)
        .period(TimeDelta::from_us(1_500 + 500 * rng.gen_range(0..=12u64)))
        .size_slots(1 + rng.gen_range(0..=1u32))
}

fn bounds_of(fabric: &Fabric, fids: &[FabricConnectionId]) -> Vec<Option<TimeDelta>> {
    fids.iter().map(|&f| fabric.e2e_bound(f)).collect()
}

#[test]
fn warm_started_fabric_equals_forced_full_reference_under_churn() {
    for seed in 0..24u64 {
        let mut rng = DetRng::new(0xD1FF ^ (seed << 16));
        let ring_size = 6 + rng.gen_range(0..=3u32) as u16;
        let topo = || {
            if seed % 2 == 0 {
                triangle(ring_size)
            } else {
                FabricTopology::chain(3, ring_size)
            }
        };
        let build = |force_full: bool| {
            let cfg = FabricConfig::uniform(topo(), 2_048, seed)
                .expect("fabric config")
                .calculus(true)
                .calculus_force_full(force_full);
            Fabric::new(cfg).expect("fabric builds")
        };
        let mut warm = build(false);
        let mut full = build(true);
        let n_rings = 3u16;
        // Every opened id not yet closed: open, or revoked by a fault.
        let mut admitted: Vec<FabricConnectionId> = Vec::new();
        let mut closed: Vec<FabricConnectionId> = Vec::new();
        let (mut events_warm, mut events_full) = (Vec::new(), Vec::new());
        for op in 0..30u32 {
            let ctx = format!("seed {seed} op {op}");
            match rng.gen_range(0..10u32) {
                // Bias towards opens so a resident set builds up.
                0..=5 => {
                    let spec = random_spec(&mut rng, n_rings, ring_size);
                    let rw = warm.open_connection(spec.clone());
                    let rf = full.open_connection(spec);
                    assert_eq!(rw.is_ok(), rf.is_ok(), "{ctx}: admission verdicts diverge");
                    if let (Ok(fw), Ok(ff)) = (rw, rf) {
                        assert_eq!(fw, ff, "{ctx}: connection ids diverge");
                        admitted.push(fw);
                    }
                }
                6..=7 if !admitted.is_empty() => {
                    let idx = rng.gen_range(0..admitted.len() as u32) as usize;
                    let fid = admitted.swap_remove(idx);
                    // Open or revoked, the id is its owner's to close.
                    assert!(warm.close_connection(fid), "{ctx}: warm refuses the close");
                    assert!(full.close_connection(fid), "{ctx}: full refuses the close");
                    closed.push(fid);
                }
                8 => {
                    let b = rng.gen_range(0..3u32) as usize % warm.topology().bridges().len();
                    assert_eq!(
                        warm.kill_bridge(b),
                        full.kill_bridge(b),
                        "{ctx}: kill outcomes diverge"
                    );
                }
                _ => {
                    let b = rng.gen_range(0..3u32) as usize % warm.topology().bridges().len();
                    assert_eq!(
                        warm.repair_bridge(b),
                        full.repair_bridge(b),
                        "{ctx}: repair outcomes diverge"
                    );
                }
            }
            // Faults reroute, revoke, and reclaim connections; the resident
            // sets must stay in lockstep, with identical certificates.
            assert_eq!(
                warm.active_connections(),
                full.active_connections(),
                "{ctx}: resident counts diverge"
            );
            assert_eq!(
                bounds_of(&warm, &admitted),
                bounds_of(&full, &admitted),
                "{ctx}: certified bounds diverge"
            );
            let from = events_warm.len();
            warm.drain_connection_events(&mut events_warm);
            full.drain_connection_events(&mut events_full);
            assert_eq!(events_warm, events_full, "{ctx}: connection events diverge");
            for ev in &events_warm[from..] {
                let (ConnectionEvent::Rerouted { fid }
                | ConnectionEvent::Revoked { fid, .. }
                | ConnectionEvent::Reclaimed { fid }) = *ev;
                assert!(admitted.contains(&fid), "{ctx}: {ev:?} names no open id");
            }
            for &fid in &closed {
                assert_eq!(warm.e2e_bound(fid), None, "{ctx}: closed {fid:?} resolves");
                assert_eq!(full.e2e_bound(fid), None, "{ctx}: closed {fid:?} resolves");
            }
        }
    }
}

#[test]
fn batch_admission_matches_sequential_admission_bounds() {
    // open_connections (one fixed point for the batch) must land on the
    // same certificates as opening the same specs one by one.
    for seed in 0..6u64 {
        let mut rng = DetRng::new(0xBA7C ^ seed);
        let ring_size = 8;
        let specs: Vec<FabricConnectionSpec> = (0..8)
            .map(|_| random_spec(&mut rng, 3, ring_size))
            .collect();
        let build = || {
            let cfg = FabricConfig::uniform(FabricTopology::chain(3, ring_size), 2_048, seed)
                .expect("fabric config")
                .calculus(true);
            Fabric::new(cfg).expect("fabric builds")
        };
        let mut batch = build();
        let mut sequential = build();
        let batch_fids = match batch.open_connections(&specs) {
            Ok(fids) => fids,
            Err(_) => {
                // The batch is all-or-nothing: when it refuses, nothing may
                // remain resident.
                assert_eq!(batch.active_connections(), 0, "seed {seed}: partial batch");
                continue;
            }
        };
        let seq_fids: Vec<FabricConnectionId> = specs
            .iter()
            .map(|s| {
                sequential
                    .open_connection(s.clone())
                    .expect("sequential admits what the batch admitted")
            })
            .collect();
        assert_eq!(batch_fids, seq_fids, "seed {seed}: id streams diverge");
        assert_eq!(
            bounds_of(&batch, &batch_fids),
            bounds_of(&sequential, &seq_fids),
            "seed {seed}: batch and sequential certificates diverge"
        );
    }
}

#[test]
fn closing_a_connection_reclaims_a_revoked_one() {
    // A bridge kill revokes the only cross-ring connection (a chain has no
    // alternate route). While the bridge is down, filler connections eat
    // ring 1's capacity, so the post-repair reclaim fails. The moment a
    // filler closes, the freed capacity must go to the revoked connection
    // — without waiting for another repair event.
    let cfg = FabricConfig::uniform(FabricTopology::chain(2, 6), 2_048, 11)
        .expect("fabric config")
        .calculus(true);
    let mut fabric = Fabric::new(cfg).expect("fabric builds");
    // The cross connection is *heavier* (shorter period) than a filler, so
    // once fillers saturate ring 1 past the point of refusing a filler,
    // the cross spec cannot fit either.
    let cross = FabricConnectionSpec::unicast(GlobalNodeId::new(0, 3), GlobalNodeId::new(1, 4))
        .period(TimeDelta::from_us(120));
    fabric
        .open_connection(cross.clone())
        .expect("cross-ring connection admits");
    assert!(fabric.kill_bridge(0), "bridge dies");
    assert_eq!(fabric.metrics().e2e_revoked.get(), 1, "no alternate route");
    assert_eq!(fabric.active_connections(), 0);
    // Saturate ring 1 while the bridge is down (short periods = high
    // utilisation per filler).
    let filler = || {
        FabricConnectionSpec::unicast(GlobalNodeId::new(1, 2), GlobalNodeId::new(1, 4))
            .period(TimeDelta::from_us(200))
    };
    // Keep admitting until ring 1 refuses, so the revoked spec cannot fit.
    let mut fillers = Vec::new();
    while let Ok(fid) = fabric.open_connection(filler()) {
        fillers.push(fid);
    }
    assert!(!fillers.is_empty(), "at least one filler admits");
    assert!(fabric.repair_bridge(0), "bridge comes back");
    assert_eq!(
        fabric.metrics().e2e_reclaimed.get(),
        0,
        "ring 1 is full — the repair-time reclaim must fail"
    );
    // Freeing capacity triggers the reclaim without any further event.
    let mut closed = 0;
    while fabric.metrics().e2e_reclaimed.get() == 0 {
        let fid = fillers.pop().expect("closing every filler must reclaim");
        fabric.close_connection(fid);
        closed += 1;
    }
    assert!(closed >= 1);
    assert_eq!(fabric.metrics().e2e_reclaimed.get(), 1);
    assert!(
        fabric.active_connections() >= 1,
        "the revoked connection is back"
    );
}

/// Eight 8-node rings bridged into one cycle (node 7 of ring `r` to node
/// 0 of ring `r + 1`), certified by the calculus.
fn ring_of_rings() -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..8 {
        b.ring(8);
    }
    for r in 0..8u16 {
        b.bridge(GlobalNodeId::new(r, 7), GlobalNodeId::new((r + 1) % 8, 0));
    }
    b.allow_cycles_with(CycleBound::Calculus);
    b.build().expect("ring of rings builds")
}

/// A flow between inner nodes (never a bridge port) of ring `r`, or from
/// ring `r` to ring `r + 1` when `cross`.
fn churn_spec(rng: &mut DetRng, r: u16, cross: bool) -> FabricConnectionSpec {
    let src = 1 + rng.gen_range(0..6u32) as u16;
    let (dst_ring, dst) = if cross {
        ((r + 1) % 8, 1 + rng.gen_range(0..6u32) as u16)
    } else {
        (r, 1 + (src + rng.gen_range(0..5u32) as u16) % 6)
    };
    FabricConnectionSpec::unicast(GlobalNodeId::new(r, src), GlobalNodeId::new(dst_ring, dst))
        .period(TimeDelta::from_ms(40 + rng.gen_range(0..80u64)))
}

#[test]
fn ring_local_open_on_the_cycle_iterates_only_the_crossing_flows() {
    let mut rng = DetRng::new(0xC4C1E);
    // 320 ring-local residents, 40 per ring, plus one flow across each
    // bridge: those close the cycle the fixed point iterates over.
    let residents: Vec<FabricConnectionSpec> = (0..328u16)
        .map(|i| churn_spec(&mut rng, i % 8, i >= 320))
        .collect();
    let build = |force_full: bool| {
        let cfg = FabricConfig::uniform(ring_of_rings(), 2_048, 1)
            .expect("fabric config")
            .calculus_force_full(force_full);
        let mut fabric = Fabric::new(cfg).expect("fabric builds");
        fabric
            .open_connections(&residents)
            .expect("residents certify");
        fabric
    };
    let mut warm = build(false);
    let mut full = build(true);
    // (re-priced, iterated) flows summed over every certifier pass.
    let work = |f: &Fabric| {
        (
            f.metrics().calc_dirty_flows.get(),
            f.metrics().calc_iterated_flows.get(),
        )
    };
    // The set-up batch: every resident is new, only the crossing ones
    // have a hop after another.
    assert_eq!(work(&warm), (328, 8));

    let local = churn_spec(&mut rng, 3, false);
    let fw = warm.open_connection(local.clone()).expect("warm admits");
    let ff = full.open_connection(local).expect("full admits");
    assert_eq!(fw, ff);
    // The cycle dirties every server, so all 329 flows are re-priced, but
    // only the 8 crossing residents iterate.
    assert_eq!(work(&warm), (328 + 329, 8 + 8));
    assert_eq!(warm.metrics().calc_admit_incremental.get(), 2);
    assert_eq!(full.metrics().calc_admit_full.get(), 2);

    // A crossing open iterates itself too.
    let cross = churn_spec(&mut rng, 5, true);
    let fw = warm.open_connection(cross.clone()).expect("warm admits");
    full.open_connection(cross).expect("full admits");
    assert_eq!(work(&warm), (328 + 329 + 330, 8 + 8 + 9));

    // Closing the crossing flow re-prices the rest and iterates the
    // crossing residents again.
    assert!(warm.close_connection(fw) && full.close_connection(fw));
    assert_eq!(work(&warm), (328 + 329 + 330 + 329, 8 + 8 + 9 + 8));

    let fids: Vec<FabricConnectionId> = (1..=331).map(FabricConnectionId).collect();
    let bw = bounds_of(&warm, &fids);
    assert_eq!(bw.iter().filter(|b| b.is_some()).count(), 329);
    assert_eq!(
        bw,
        bounds_of(&full, &fids),
        "warm and full certificates diverge"
    );
}
