//! loom models of the concurrency protocol in `crates/sim/src/parallel.rs`.
//!
//! `parallel_map` relies on exactly two synchronisation facts:
//!
//! 1. **Claim partition** — workers claim input indices with
//!    `next.fetch_add(1, Ordering::Relaxed)` and stop once the claimed
//!    index reaches `n` (`i >= n`). Because `fetch_add` is an atomic
//!    read-modify-write, every index in `0..n` is claimed by *exactly one*
//!    worker even under `Relaxed` ordering.
//! 2. **Publish-then-join visibility** — each worker writes its results
//!    unsynchronised (no locks, no atomics) into slots it exclusively
//!    claimed; the caller only reads them after `join()`, whose
//!    happens-before edge makes every write visible and race-free.
//!
//! The real implementation uses `std::thread::scope`, which loom cannot
//! shim, so the models re-express the identical protocol with
//! `loom::thread::spawn` + `join`. Problem sizes are tiny (2 workers,
//! n ≤ 4) to keep the exhaustive interleaving search tractable; the
//! protocol has no size-dependent behaviour.

#[cfg(test)]
mod models {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::Arc;
    use loom::thread;

    /// Per-index result slots written without locks — safe only because the
    /// claim protocol hands each index to exactly one worker. `loom`'s
    /// `UnsafeCell` instruments every access, so any interleaving in which
    /// two threads touch the same slot concurrently fails the model.
    struct Slots(Vec<loom::cell::UnsafeCell<usize>>);

    unsafe impl Sync for Slots {}

    impl Slots {
        fn new(n: usize) -> Self {
            Slots((0..n).map(|_| loom::cell::UnsafeCell::new(0)).collect())
        }
    }

    /// Run the worker loop of `parallel_map` against `slots`: claim indices
    /// off the shared cursor and bump every claimed slot. "f(x) = slot += 1"
    /// makes double-claims visible as counts > 1.
    fn worker(next: &AtomicUsize, slots: &Slots, n: usize) {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            slots.0[i].with_mut(|p| unsafe { *p += 1 });
        }
    }

    fn check_partition(n: usize, workers: usize) {
        loom::model(move || {
            let next = Arc::new(AtomicUsize::new(0));
            let slots = Arc::new(Slots::new(n));
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = Arc::clone(&next);
                    let slots = Arc::clone(&slots);
                    thread::spawn(move || worker(&next, &slots, n))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // join() happened-before these reads; every index claimed once.
            for (i, cell) in slots.0.iter().enumerate() {
                let hits = cell.with(|p| unsafe { *p });
                assert_eq!(hits, 1, "index {i} claimed {hits} times");
            }
        });
    }

    /// Per-item claiming (`parallel_map`): the cursor partitions `0..n`
    /// exactly, with no lost or doubly-claimed index, in every interleaving.
    #[test]
    fn per_item_claims_partition_the_range() {
        check_partition(3, 2);
    }

    /// More workers than items: surplus workers must observe `i >= n`
    /// and exit without touching any slot.
    #[test]
    fn surplus_workers_terminate_without_claiming() {
        check_partition(1, 3);
    }

    /// The visibility claim in isolation: results written by a worker
    /// before it finishes are visible to the joining thread even though the
    /// cursor uses `Relaxed` ordering — `join()` alone provides the edge.
    /// The payload (`i + 7`) is checked by value, not just by count.
    #[test]
    fn results_published_before_join_are_visible() {
        loom::model(|| {
            const N: usize = 2;
            let next = Arc::new(AtomicUsize::new(0));
            let slots = Arc::new(Slots::new(N));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let next = Arc::clone(&next);
                    let slots = Arc::clone(&slots);
                    thread::spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= N {
                            break;
                        }
                        slots.0[i].with_mut(|p| unsafe { *p = i + 7 });
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for (i, cell) in slots.0.iter().enumerate() {
                assert_eq!(cell.with(|p| unsafe { *p }), i + 7);
            }
        });
    }
}
