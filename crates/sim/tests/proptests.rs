//! Randomised tests for the simulation substrate.
//!
//! Formerly `proptest` properties; now driven by the crate's own seeded
//! [`DetRng`] so the workspace needs no external dependencies. Each case
//! runs against many deterministic random inputs, so failures reproduce
//! exactly.

use ccr_sim::rng::DetRng;
use ccr_sim::stats::Histogram;
use ccr_sim::{EventQueue, SeedSequence, SimTime};

const CASES: u64 = 128;

/// Events always pop in non-decreasing time order, FIFO on ties.
#[test]
fn event_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = SeedSequence::new(0xE0E0).stream("evq", case);
        let len = rng.gen_range(1usize..200);
        let times: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = vec![];
        let mut prev_t = None;
        while let Some((t, idx)) = q.pop() {
            assert!(t >= last_time);
            if prev_t == Some(t) {
                // FIFO on equal times: indices increase
                assert!(*seen_at_time.last().unwrap() < idx);
                seen_at_time.push(idx);
            } else {
                seen_at_time = vec![idx];
            }
            prev_t = Some(t);
            last_time = t;
        }
        assert!(q.is_empty());
    }
}

/// The histogram quantile is within its advertised relative error and
/// bracketed by min/max.
#[test]
fn histogram_quantile_bounds() {
    for case in 0..CASES {
        let mut rng = SeedSequence::new(0x1157).stream("quant", case);
        let len = rng.gen_range(1usize..500);
        let values: Vec<u64> = (0..len)
            .map(|_| rng.gen_range(1u64..1_000_000_000))
            .collect();
        let q = rng.gen_range(0.01f64..1.0);
        let mut h = Histogram::new(6);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        let est = h.quantile(q).unwrap();
        assert!(est >= *sorted.first().unwrap());
        assert!(est <= *sorted.last().unwrap());
        // exact rank the estimate should approximate
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = sorted[rank - 1];
        let rel = (est as f64 - exact as f64).abs() / exact as f64;
        assert!(
            rel <= 1.0 / 64.0 + 1e-12,
            "rel err {rel}: est {est} vs exact {exact}"
        );
    }
}

/// Histogram count/mean/min/max are exact regardless of input order.
#[test]
fn histogram_moments_exact() {
    for case in 0..CASES {
        let mut rng = SeedSequence::new(0x4157).stream("mom", case);
        let len = rng.gen_range(1usize..300);
        let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1_000_000)).collect();
        let mut h = Histogram::new(4);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), values.iter().min().copied());
        assert_eq!(h.max(), values.iter().max().copied());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean().unwrap() - mean).abs() < 1e-6);
    }
}

/// Seed streams are reproducible and label-separated.
#[test]
fn seed_sequence_properties() {
    let mut rng = DetRng::new(0x5EED);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let a = rng.gen_range(0u64..100);
        let b = rng.gen_range(0u64..100);
        let s = SeedSequence::new(seed);
        assert_eq!(
            s.child_seed("x", a),
            SeedSequence::new(seed).child_seed("x", a)
        );
        if a != b {
            assert_ne!(s.child_seed("x", a), s.child_seed("x", b));
        }
        assert_ne!(s.child_seed("x", a), s.child_seed("y", a));
    }
}
