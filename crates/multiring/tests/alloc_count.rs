//! The fabric slot's allocation budget, counted by a global allocator
//! that wraps the system one. After warm-up, fabric slots whose traffic
//! stays on its own ring — sparse, so most ring slots take the idle path,
//! or busy — allocate nothing. A bridge forward costs exactly one `Box`:
//! the egress ring's release queue owns each forwarded message.
//!
//! Deliberately a SINGLE `#[test]`: the Rust test harness runs tests in
//! one process, possibly concurrently, and a second test's allocations
//! would corrupt the counter. All phases run sequentially inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ccr_multiring::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const RINGS: u16 = 3;

/// A 3×8 chain with `(src, dst, period in slots)` connections opened.
fn chain(seed: u64, conns: &[(GlobalNodeId, GlobalNodeId, u64)]) -> Fabric {
    let topo = FabricTopology::chain(RINGS, 8);
    let mut fabric = Fabric::new(FabricConfig::uniform(topo, 2048, seed).unwrap()).unwrap();
    let slot = fabric.segment_envs()[0].slot;
    for &(src, dst, period) in conns {
        fabric
            .open_connection(FabricConnectionSpec::unicast(src, dst).period(slot.times(period)))
            .expect("admits");
    }
    fabric
}

/// Allocations made by `slots` fabric slots after a 5 000-slot warm-up
/// (queues, histograms and per-connection maps grow to their
/// steady-state capacity), with the forwards made in the same window.
fn measured(fabric: &mut Fabric, slots: u64) -> (u64, u64) {
    fabric.run_slots(5_000);
    let forwarded = fabric.metrics().forwarded.get();
    let before = allocs();
    fabric.run_slots(slots);
    let during = allocs() - before;
    (during, fabric.metrics().forwarded.get() - forwarded)
}

fn idle_path_slots(fabric: &Fabric) -> Vec<u64> {
    (0..RINGS)
        .map(|r| fabric.with_ring(RingId(r), |ring| ring.throughput().fast_forwarded))
        .collect()
}

#[test]
fn steady_state_fabric_slots_allocate_only_per_forward() {
    let g = GlobalNodeId::new;

    // --- sparse, ring-local: mostly the idle path ------------------------
    let local: Vec<_> = (0..RINGS)
        .map(|r| (g(r, 1), g(r, 5), 1_000 + 500 * r as u64))
        .collect();
    let mut sparse = chain(1, &local);
    let (during, _) = measured(&mut sparse, 100_000);
    assert_eq!(during, 0, "sparse fabric slots allocated {during} times");
    let idle = idle_path_slots(&sparse);
    assert!(
        idle.iter().all(|&k| k > 100_000),
        "rings take the idle path: {idle:?}"
    );
    assert!(sparse.metrics().e2e_delivered.get() > 0);

    // --- busy, ring-local: most ring slots step -------------------------
    let busy: Vec<_> = (0..RINGS)
        .flat_map(|r| {
            [
                (g(r, 1), g(r, 4), 7),
                (g(r, 2), g(r, 6), 9),
                (g(r, 5), g(r, 3), 11),
            ]
        })
        .collect();
    let mut loaded = chain(2, &busy);
    let (during, _) = measured(&mut loaded, 100_000);
    assert_eq!(during, 0, "busy fabric slots allocated {during} times");
    let idle = idle_path_slots(&loaded);
    for (r, &k) in idle.iter().enumerate() {
        let slots = loaded.ring_metrics(RingId(r as u16)).slots.get();
        assert!(
            k * 2 < slots,
            "ring {r} took the idle path in {k} of {slots} slots"
        );
    }

    // --- one crossing connection: one box per forward --------------------
    let mut crossing = chain(3, &[(g(0, 1), g(2, 3), 300)]);
    let (during, forwards) = measured(&mut crossing, 100_000);
    assert!(forwards > 0, "the connection crosses the bridges");
    assert!(
        during <= forwards,
        "{during} allocations for {forwards} bridge forwards"
    );
}
