//! Seeded randomized law tests for the min-plus kernel.
//!
//! Hand-rolled property tests in the house style (no external proptest
//! dependency): `ccr_sim::DetRng` drives hundreds of random curve
//! instances per law, every case fully reproducible from its seed.

use ccr_calculus::{
    backlog_bound, delay_bound, solve, ArrivalCurve, FabricModel, FlowSpec, RateLatency,
    ServiceCurve,
};
use ccr_sim::rng::DetRng;

const CASES: u64 = 300;
const SAMPLE_TS: [f64; 9] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 256.0];

fn random_arrival(rng: &mut DetRng) -> ArrivalCurve {
    let n = rng.gen_range(1u64..4);
    let mut curve = ArrivalCurve::token_bucket(rng.gen_f64() * 10.0, 0.05 + rng.gen_f64() * 2.0)
        .expect("finite non-negative token bucket");
    for _ in 1..n {
        let tb = ArrivalCurve::token_bucket(rng.gen_f64() * 20.0, 0.05 + rng.gen_f64() * 2.0)
            .expect("finite non-negative token bucket");
        curve = curve.min(&tb);
    }
    curve
}

fn random_service(rng: &mut DetRng) -> ServiceCurve {
    ServiceCurve::rate_latency(0.5 + rng.gen_f64() * 3.0, rng.gen_f64() * 5.0)
        .expect("valid rate-latency curve")
}

fn assert_pointwise_eq(a: &ArrivalCurve, b: &ArrivalCurve, what: &str, seed: u64) {
    for t in SAMPLE_TS {
        let (va, vb) = (a.eval(t), b.eval(t));
        assert!(
            (va - vb).abs() <= 1e-9 * va.abs().max(1.0),
            "{what} violated at seed {seed}, t={t}: {va} vs {vb}"
        );
    }
}

#[test]
fn convolution_is_commutative_and_associative() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let (a, b, c) = (
            random_arrival(&mut rng),
            random_arrival(&mut rng),
            random_arrival(&mut rng),
        );
        assert_pointwise_eq(&a.min(&b), &b.min(&a), "commutativity", seed);
        assert_pointwise_eq(
            &a.min(&b).min(&c),
            &a.min(&b.min(&c)),
            "associativity",
            seed,
        );
    }
}

#[test]
fn convolution_is_monotone() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let a = random_arrival(&mut rng);
        let b = random_arrival(&mut rng);
        // a2 ≥ a pointwise: add a constant offset to every piece.
        let bump = ArrivalCurve::token_bucket(1.0 + rng.gen_f64() * 5.0, 0.0)
            .expect("constant bump curve");
        let mut a2 = ArrivalCurve::zero();
        a.plus_into(&bump, &mut a2);
        let (lo, hi) = (a.min(&b), a2.min(&b));
        for t in SAMPLE_TS {
            assert!(
                lo.eval(t) <= hi.eval(t) + 1e-9,
                "monotonicity violated at seed {seed}, t={t}"
            );
        }
    }
}

#[test]
fn deconvolution_is_the_residual_of_convolution() {
    // Galois connection: with γ = α ⊘ β it must hold that α ≤ γ ⊗ β,
    // and γ dominates the defining supremum α(t+u) − β(u).
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let alpha = random_arrival(&mut rng);
        let rl = RateLatency {
            rate: alpha.rate() + 0.1 + rng.gen_f64() * 2.0,
            latency: rng.gen_f64() * 5.0,
        };
        let beta = rl.to_curve();
        let mut gamma = ArrivalCurve::zero();
        assert!(
            alpha.deconvolve_into(rl, &mut gamma),
            "rate fits, deconvolution exists"
        );
        for t in SAMPLE_TS {
            // sup dominance: γ(t) ≥ α(t+u) − β(u) for every u ≥ 0.
            for k in 0..40 {
                let u = k as f64 * 0.45;
                let lhs = alpha.eval(t + u) - beta.eval(u);
                assert!(
                    gamma.eval(t) >= lhs - 1e-9,
                    "sup dominance violated at seed {seed}, t={t}, u={u}"
                );
            }
            // Residual: α(t) ≤ inf_s γ(t−s) + β(s) (grid minimum bounds the
            // infimum from above, so this check is necessary for the law).
            let mut conv = f64::INFINITY;
            for k in 0..=60 {
                let s = t * k as f64 / 60.0;
                conv = conv.min(gamma.eval(t - s) + beta.eval(s));
            }
            assert!(
                alpha.eval(t) <= conv + 1e-9,
                "residual law violated at seed {seed}, t={t}"
            );
        }
    }
}

#[test]
fn delay_bound_is_monotone_in_burst() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let alpha = random_arrival(&mut rng);
        let beta = random_service(&mut rng);
        if alpha.rate() > beta.tail_rate() {
            continue;
        }
        let bump = ArrivalCurve::token_bucket(0.5 + rng.gen_f64() * 4.0, 0.0)
            .expect("constant bump curve");
        let mut fatter = ArrivalCurve::zero();
        alpha.plus_into(&bump, &mut fatter);
        let d1 = delay_bound(&alpha, &beta).expect("rate fits");
        let d2 = delay_bound(&fatter, &beta).expect("rate unchanged, still fits");
        assert!(
            d2 >= d1 - 1e-9,
            "delay bound not monotone in burst at seed {seed}: {d1} vs {d2}"
        );
        let v1 = backlog_bound(&alpha, &beta).expect("rate fits");
        let v2 = backlog_bound(&fatter, &beta).expect("rate fits");
        assert!(
            v2 >= v1 - 1e-9,
            "backlog not monotone in burst at seed {seed}"
        );
    }
}

#[test]
fn left_over_service_is_sound() {
    // β_lo ≤ (β − α_cross)⁺ would be unsound the other way: the left-over
    // curve must never promise more than the residual capacity.
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let beta = random_service(&mut rng);
        let cross = random_arrival(&mut rng);
        let Some(lo) = beta.left_over(&cross) else {
            continue;
        };
        for t in SAMPLE_TS {
            let residual = (beta.eval(t) - cross.eval(t)).max(0.0);
            // Non-decreasing closure only lifts the early zero region, never
            // above a later residual value: check against the running sup.
            let mut sup = 0.0_f64;
            for k in 0..=40 {
                let s = t * k as f64 / 40.0;
                sup = sup.max((beta.eval(s) - cross.eval(s)).max(0.0));
            }
            let _ = residual;
            assert!(
                lo.eval(t) <= sup + 1e-9,
                "left-over exceeds residual closure at seed {seed}, t={t}"
            );
        }
    }
}

#[test]
fn solver_iteration_count_is_bounded_across_random_cyclic_models() {
    for seed in 0..100 {
        let mut rng = DetRng::new(0xCA1C << 16 | seed);
        let n_rings = rng.gen_range(2u64..5) as usize;
        let services: Vec<ServiceCurve> = (0..n_rings).map(|_| random_service(&mut rng)).collect();
        let n_flows = rng.gen_range(1u64..6) as usize;
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|_| {
                let start = rng.gen_range(0u64..n_rings as u64) as usize;
                let len = rng.gen_range(1u64..=n_rings as u64) as usize;
                let path: Vec<usize> = (0..len).map(|k| (start + k) % n_rings).collect();
                let mut hop_delay = vec![0.0];
                hop_delay.extend((1..len).map(|_| rng.gen_f64() * 10.0));
                FlowSpec::blind(path, random_arrival(&mut rng), hop_delay)
            })
            .collect();
        match solve(&FabricModel { services, flows }) {
            Ok(sol) => {
                assert!(sol.iterations <= ccr_calculus::MAX_ITERATIONS);
                for fb in &sol.flows {
                    assert!(fb.e2e_delay.is_finite() && fb.e2e_delay >= 0.0);
                    assert!(fb.backlog.is_finite() && fb.backlog >= 0.0);
                }
            }
            Err(e) => {
                // Rejections must carry a diagnostic and never loop forever.
                let msg = format!("{e}");
                assert!(!msg.is_empty());
            }
        }
    }
}

#[test]
fn edf_aware_bounds_are_never_looser_than_blind_multiplexing() {
    // Law: attaching *any* deadline classes to a solvable flow set may only
    // tighten the certified bounds. The solver prices every mixed-class hop
    // as min(blind, EDF), so a regression here means the min was dropped
    // somewhere. Tiny relative slack absorbs the different member orderings
    // of the two runs (class sorts reshuffle f64 accumulation).
    let mut compared = 0;
    for seed in 0..200 {
        let mut rng = DetRng::new(0xEDF0 << 16 | seed);
        let n_rings = rng.gen_range(2u64..5) as usize;
        let services: Vec<ServiceCurve> = (0..n_rings).map(|_| random_service(&mut rng)).collect();
        let n_flows = rng.gen_range(2u64..6) as usize;
        let mut blind_flows = Vec::new();
        let mut edf_flows = Vec::new();
        for _ in 0..n_flows {
            let start = rng.gen_range(0u64..n_rings as u64) as usize;
            let len = rng.gen_range(1u64..=n_rings as u64) as usize;
            let path: Vec<usize> = (0..len).map(|k| (start + k) % n_rings).collect();
            let mut hop_delay = vec![0.0];
            hop_delay.extend((1..len).map(|_| rng.gen_f64() * 10.0));
            let arrival = random_arrival(&mut rng);
            // Mix finite classes with blind (infinite) hops.
            let classes: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_range(0u64..4) == 0 {
                        f64::INFINITY
                    } else {
                        1.0 + rng.gen_f64() * 500.0
                    }
                })
                .collect();
            blind_flows.push(FlowSpec::blind(
                path.clone(),
                arrival.clone(),
                hop_delay.clone(),
            ));
            let mut spec = FlowSpec::blind(path, arrival, hop_delay);
            spec.classes = classes;
            edf_flows.push(spec);
        }
        let blind = solve(&FabricModel {
            services: services.clone(),
            flows: blind_flows,
        });
        let edf = solve(&FabricModel {
            services,
            flows: edf_flows,
        });
        let (Ok(blind), Ok(edf)) = (blind, edf) else {
            // A set the blind solver rejects is allowed to pass under EDF
            // pricing (tighter cross-traffic), never the question here.
            continue;
        };
        compared += 1;
        for (i, (b, e)) in blind.flows.iter().zip(edf.flows.iter()).enumerate() {
            assert!(
                e.e2e_delay <= b.e2e_delay * (1.0 + 1e-9) + 1e-9,
                "seed {seed} flow {i}: EDF delay {} looser than blind {}",
                e.e2e_delay,
                b.e2e_delay
            );
            assert!(
                e.backlog <= b.backlog * (1.0 + 1e-9) + 1e-9,
                "seed {seed} flow {i}: EDF backlog {} looser than blind {}",
                e.backlog,
                b.backlog
            );
            for (h, (bd, ed)) in b.hop_delays.iter().zip(e.hop_delays.iter()).enumerate() {
                assert!(
                    ed <= &(bd * (1.0 + 1e-9) + 1e-9),
                    "seed {seed} flow {i} hop {h}: EDF hop delay looser"
                );
            }
        }
    }
    assert!(
        compared >= 40,
        "only {compared} solvable cases — law undertested"
    );
}
