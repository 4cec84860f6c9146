//! Deterministic fork-join parallelism over independent work items.
//!
//! Experiment sweeps fan independent runs — whole rings, fabrics or seeds —
//! out over `std::thread::scope` workers. Results return in input order,
//! so callers observe output that is byte-identical regardless of thread
//! count or scheduling. A worker panic is propagated to the caller with
//! its original payload once the remaining workers have drained.
//!
//! This module lives in `ccr-sim` (rather than the experiment harness) so
//! that every layer of the workspace can share one implementation;
//! `ccr_netsim::sweep` re-exports it unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The claim-protocol expressions shared verbatim between the worker loop
/// below and the loom models in `verify/loom/src/lib.rs`.
///
/// The loom models cannot link against `parallel_map_impl` directly
/// (`std::thread::scope` has no loom shim), so they re-express the same
/// protocol by hand. These constants pin the three expressions both sides
/// must agree on; `tests::loom_models_pin_the_same_protocol` asserts each
/// appears verbatim in both files, so editing the protocol here without
/// updating the model (or vice versa) fails the build's test run rather
/// than silently verifying a different algorithm.
pub mod protocol {
    /// The atomic claim: a read-modify-write hands each window start to
    /// exactly one worker even under `Relaxed` ordering.
    pub const CLAIM: &str = "next.fetch_add(chunk, Ordering::Relaxed)";
    /// The termination check: a claimed start past the input length means
    /// the cursor has run dry.
    pub const TERMINATE: &str = "start >= n";
    /// The ragged-tail window bound for the chunked variant.
    pub const TAIL: &str = "(start + chunk).min(n)";
}

/// Run `f` over `inputs` on up to `threads` worker threads, preserving
/// input order in the output.
///
/// Work distribution is a shared atomic cursor: each worker repeatedly
/// claims the next single index. If any worker panics, the panic payload
/// is re-raised on the calling thread via [`std::panic::resume_unwind`],
/// exactly as if `f` had panicked inline.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_impl(inputs, threads, f, 1)
}

/// Like [`parallel_map`], but workers claim contiguous chunks of
/// `chunk` indices per steal instead of single items.
///
/// Fewer cursor contentions per item; the trade-off is coarser load
/// balancing at the tail. `benches/microbench.rs` compares the two on the
/// sweep workload — for slot-engine-sized work items the difference is in
/// the noise, so the per-item cursor stays the default.
pub fn parallel_map_chunked<I, O, F>(inputs: Vec<I>, threads: usize, chunk: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_impl(inputs, threads, f, chunk.max(1))
}

fn parallel_map_impl<I, O, F>(inputs: Vec<I>, threads: usize, f: F, chunk: usize) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || inputs.len() <= 1 {
        return inputs.iter().map(&f).collect();
    }
    let n = inputs.len();
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let inputs_ref = &inputs;
    let f_ref = &f;
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads.min(n) {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, O)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (i, input) in (start..end).zip(&inputs_ref[start..end]) {
                        local.push((i, f_ref(input)));
                    }
                }
                local
            }));
        }
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, o) in local {
                        out[i] = Some(o);
                    }
                }
                // Keep the first payload; let the remaining workers finish
                // (they stop claiming work once the cursor runs out).
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    out.into_iter().map(|o| o.expect("all filled")).collect()
}

/// Default worker count: physical parallelism minus one, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = parallel_map(inputs.clone(), 8, |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![5], 16, |&x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn heavier_closure_runs_in_parallel_correctly() {
        let out = parallel_map((0..32u64).collect(), 4, |&x| {
            // some busywork with a data dependency
            (0..1_000).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        let expect: Vec<u64> = (0..32u64)
            .map(|x| (0..1_000).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i)))
            .collect();
        assert_eq!(out, expect);
    }

    /// The determinism contract: for any input shape,
    /// `parallel_map_chunked` must return byte-identical output to
    /// `parallel_map`, whatever the thread count or chunk size. A
    /// property-style loop over a few dozen (len × threads × chunk)
    /// shapes, with a non-trivial per-item function whose output encodes
    /// the item index so misplaced results are caught.
    #[test]
    fn chunked_is_byte_identical_to_per_item_across_shapes() {
        let work = |&x: &u64| -> Vec<u8> {
            let h = (0..64).fold(x ^ 0x9E37_79B9, |acc, i| {
                acc.wrapping_mul(6364136223846793005).wrapping_add(i)
            });
            h.to_le_bytes().to_vec()
        };
        for len in [0usize, 1, 2, 7, 64, 101] {
            let inputs: Vec<u64> = (0..len as u64).collect();
            let reference = parallel_map(inputs.clone(), 1, work);
            for threads in [1usize, 2, 3, 8] {
                let per_item = parallel_map(inputs.clone(), threads, work);
                assert_eq!(per_item, reference, "len={len} threads={threads}");
                for chunk in [0usize, 1, 2, 5, 16, 1024] {
                    let chunked = parallel_map_chunked(inputs.clone(), threads, chunk, work);
                    assert_eq!(
                        chunked, reference,
                        "len={len} threads={threads} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..64u64).collect(), 4, |&x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("original String payload");
        assert_eq!(msg, "boom at 33");
    }

    #[test]
    fn panic_in_chunked_variant_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_chunked((0..64u64).collect(), 4, 8, |&x| {
                if x == 60 {
                    panic!("late panic");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The loom models under `verify/loom` re-express this module's claim
    /// protocol by hand (loom cannot shim `std::thread::scope`). Pin the
    /// shared expressions: each must appear verbatim in both this file and
    /// the model, so a protocol change in either place that is not
    /// mirrored in the other fails here instead of going unverified.
    #[test]
    fn loom_models_pin_the_same_protocol() {
        let this_file = include_str!("parallel.rs");
        let model_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../verify/loom/src/lib.rs");
        let model = std::fs::read_to_string(model_path)
            .unwrap_or_else(|e| panic!("read {model_path}: {e}"));
        for (name, expr) in [
            ("CLAIM", super::protocol::CLAIM),
            ("TERMINATE", super::protocol::TERMINATE),
            ("TAIL", super::protocol::TAIL),
        ] {
            // The constant's own definition also matches in this file;
            // require a second occurrence — the real worker-loop code.
            let here = this_file.matches(expr).count();
            assert!(
                here >= 2,
                "protocol::{name} ({expr:?}) not used by the worker loop"
            );
            assert!(
                model.contains(expr),
                "protocol::{name} ({expr:?}) missing from the loom model — \
                 verify/loom/src/lib.rs no longer checks the shipped protocol"
            );
        }
    }
}
