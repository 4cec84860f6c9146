//! Differential suite for the warm-started incremental solver.
//!
//! The incremental path exists purely as a performance optimisation: a
//! warm-started, dirty-set-restricted fixed point must be *observationally
//! identical* to throwing the state away and re-solving the whole flow set
//! from scratch. These tests drive twin solvers — one warm, one with
//! [`IncrementalSolver::set_force_full`] armed — through long seeded
//! admit/close churn across ≥24 random fabrics and assert bit-identical
//! verdicts and bounds (exact `f64` equality, no tolerance) after every
//! single operation. A third twin tries candidates inside sessions and
//! drops about half of them: the undo log must leave it exactly where the
//! twins that never saw those candidates are.

use ccr_calculus::{ArrivalCurve, FlowSpec, IncrementalSolver, ServiceCurve, SolveError};
use ccr_sim::rng::DetRng;

const FABRICS: u64 = 24;
const OPS_PER_FABRIC: u32 = 40;

fn random_service(rng: &mut DetRng) -> ServiceCurve {
    ServiceCurve::rate_latency(0.5 + rng.gen_f64() * 3.0, rng.gen_f64() * 5.0)
        .expect("valid rate-latency curve")
}

fn random_flow(rng: &mut DetRng, n_rings: usize) -> FlowSpec {
    let start = rng.gen_range(0..n_rings as u32) as usize;
    let len = 1 + rng.gen_range(0..n_rings as u32) as usize;
    let path: Vec<usize> = (0..len).map(|k| (start + k) % n_rings).collect();
    let mut hop_delay = vec![0.0];
    hop_delay.extend((1..len).map(|_| rng.gen_f64() * 10.0));
    let arrival = ArrivalCurve::token_bucket(rng.gen_f64() * 8.0, 0.02 + rng.gen_f64() * 0.4)
        .expect("token bucket");
    let mut spec = FlowSpec::blind(path, arrival, hop_delay);
    // Mix EDF deadline classes with blind hops, like the fabric does
    // (rings are classed, bridge queues are not).
    spec.classes = (0..len)
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                f64::INFINITY
            } else {
                5.0 + rng.gen_f64() * 200.0
            }
        })
        .collect();
    spec
}

/// The two error variants carry floats derived from different iteration
/// histories; identity of the *verdict* means same variant and same
/// location, which is what admission control observes.
fn same_rejection(a: &SolveError, b: &SolveError) -> bool {
    match (a, b) {
        (SolveError::MalformedFlow { flow: fa }, SolveError::MalformedFlow { flow: fb }) => {
            fa == fb
        }
        (SolveError::Utilisation { ring: ra, .. }, SolveError::Utilisation { ring: rb, .. }) => {
            ra == rb
        }
        (SolveError::Diverged { .. }, SolveError::Diverged { .. }) => true,
        _ => false,
    }
}

fn assert_states_identical(warm: &IncrementalSolver, full: &IncrementalSolver, ctx: &str) {
    let warm_keys: Vec<u64> = warm.keys().collect();
    let full_keys: Vec<u64> = full.keys().collect();
    assert_eq!(warm_keys, full_keys, "{ctx}: resident sets diverge");
    for key in warm_keys {
        let wb = warm.bounds(key).expect("resident bounds");
        let fb = full.bounds(key).expect("resident bounds");
        assert_eq!(
            wb, fb,
            "{ctx}: flow {key} bounds diverge between warm-started and full re-solve"
        );
    }
}

#[test]
fn incremental_equals_full_resolve_under_admit_close_churn() {
    let mut churned_ops = 0u64;
    for fabric_seed in 0..FABRICS {
        let mut rng = DetRng::new(0x14C0 ^ fabric_seed);
        let n_rings = 2 + rng.gen_range(0..4u32) as usize;
        let services: Vec<ServiceCurve> = (0..n_rings).map(|_| random_service(&mut rng)).collect();
        let mut warm = IncrementalSolver::new(&services);
        let mut full = IncrementalSolver::new(&services);
        full.set_force_full(true);
        let mut next_key = 0u64;
        let mut resident: Vec<u64> = Vec::new();
        for op in 0..OPS_PER_FABRIC {
            let ctx = format!("fabric {fabric_seed} op {op}");
            let close = !resident.is_empty() && rng.gen_range(0..3u32) == 0;
            if close {
                // Remove a random non-empty batch of resident flows.
                let n = 1 + rng.gen_range(0..resident.len().min(3) as u32) as usize;
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    let idx = rng.gen_range(0..resident.len() as u32) as usize;
                    batch.push(resident.swap_remove(idx));
                }
                warm.remove(&batch);
                full.remove(&batch);
            } else {
                let n = 1 + rng.gen_range(0..3u32) as usize;
                let batch: Vec<(u64, FlowSpec)> = (0..n)
                    .map(|_| {
                        next_key += 1;
                        (next_key, random_flow(&mut rng, n_rings))
                    })
                    .collect();
                let keys: Vec<u64> = batch.iter().map(|(k, _)| *k).collect();
                let rw = warm.admit(&batch);
                let rf = full.admit(&batch);
                match (&rw, &rf) {
                    (Ok(_), Ok(_)) => resident.extend(keys),
                    (Err(ew), Err(ef)) => assert!(
                        same_rejection(ew, ef),
                        "{ctx}: rejections diverge: {ew} vs {ef}"
                    ),
                    _ => panic!(
                        "{ctx}: verdicts diverge: warm {:?} vs full {:?}",
                        rw.as_ref().map(|_| ()),
                        rf.as_ref().map(|_| ())
                    ),
                }
            }
            assert_states_identical(&warm, &full, &ctx);
            churned_ops += 1;
        }
    }
    assert!(churned_ops >= FABRICS * OPS_PER_FABRIC as u64 / 2);
}

#[test]
fn removal_restores_the_untouched_fixed_point_exactly() {
    // Admit A, snapshot; admit B; remove B — the solver must land back on
    // A's exact fixed point (not just something within tolerance), for
    // every seed.
    for seed in 0..FABRICS {
        let mut rng = DetRng::new(0xBACC ^ (seed << 8));
        let n_rings = 2 + rng.gen_range(0..3u32) as usize;
        let services: Vec<ServiceCurve> = (0..n_rings).map(|_| random_service(&mut rng)).collect();
        let mut solver = IncrementalSolver::new(&services);
        let base: Vec<(u64, FlowSpec)> = (0..3)
            .map(|k| (k, random_flow(&mut rng, n_rings)))
            .collect();
        if solver.admit(&base).is_err() {
            continue;
        }
        let snapshot: Vec<_> = (0..3)
            .map(|k| solver.bounds(k).expect("resident").clone())
            .collect();
        if solver
            .admit(&[(100, random_flow(&mut rng, n_rings))])
            .is_err()
        {
            continue;
        }
        solver.remove(&[100]);
        for k in 0..3 {
            assert_eq!(
                solver.bounds(k).expect("still resident"),
                &snapshot[k as usize],
                "seed {seed}: flow {k} did not return to its prior fixed point"
            );
        }
    }
}

/// A flow through hub server 0, alone or with one hop on another of three
/// servers before or after it, or a flow off the hub, which moves hub
/// arrivals without changing the hub's members; a quarter of its hops are
/// blind.
fn hub_flow(rng: &mut DetRng) -> FlowSpec {
    let other = 1 + rng.gen_range(0..2u32) as usize;
    let path = match rng.gen_range(0..4u32) {
        0 => vec![0],
        1 => vec![0, other],
        2 => vec![other, 0],
        _ => vec![other],
    };
    let mut hop_delay = vec![0.0];
    hop_delay.extend((1..path.len()).map(|_| rng.gen_f64() * 10.0));
    let arrival = ArrivalCurve::token_bucket(rng.gen_f64() * 4.0, 0.001 + rng.gen_f64() * 0.006)
        .expect("token bucket");
    let mut spec = FlowSpec::blind(path, arrival, hop_delay);
    for class in &mut spec.classes {
        if rng.gen_range(0..4u32) != 0 {
            *class = 5.0 + rng.gen_f64() * 200.0;
        }
    }
    spec
}

#[test]
fn long_class_tables_match_full_resolve() {
    let mut rng = DetRng::new(0xC1A55);
    let services: Vec<ServiceCurve> = (0..3).map(|_| random_service(&mut rng)).collect();
    let mut warm = IncrementalSolver::new(&services);
    let mut full = IncrementalSolver::new(&services);
    full.set_force_full(true);
    let mut next_key = 0u64;
    let mut resident: Vec<u64> = Vec::new();
    let (mut most_classes, mut blind_at_hub) = (0usize, false);
    for op in 0..2 * OPS_PER_FABRIC {
        let ctx = format!("op {op}");
        if resident.len() > 45 && rng.gen_range(0..3u32) == 0 {
            let n = 1 + rng.gen_range(0..2u32) as usize;
            let batch: Vec<u64> = (0..n)
                .map(|_| resident.swap_remove(rng.gen_range(0..resident.len() as u32) as usize))
                .collect();
            warm.remove(&batch);
            full.remove(&batch);
        } else {
            let batch: Vec<(u64, FlowSpec)> = (0..1 + rng.gen_range(0..3u32))
                .map(|_| {
                    next_key += 1;
                    (next_key, hub_flow(&mut rng))
                })
                .collect();
            let rw = warm.admit(&batch);
            let rf = full.admit(&batch);
            assert_eq!(rw.is_ok(), rf.is_ok(), "{ctx}: verdicts diverge");
            if rw.is_ok() {
                resident.extend(batch.iter().map(|(k, _)| *k));
            }
        }
        assert_states_identical(&warm, &full, &ctx);
        // `full` keeps its aggregates across operations too; a solver
        // built from nothing is the reference no kept table can reach.
        let mut fresh = IncrementalSolver::new(&services);
        let all: Vec<(u64, FlowSpec)> = warm
            .keys()
            .map(|k| (k, warm.spec(k).expect("resident spec").clone()))
            .collect();
        fresh.admit(&all).expect("the resident set certifies");
        assert_states_identical(&warm, &fresh, &format!("{ctx} (from nothing)"));
        let mut hub_classes: Vec<f64> = resident
            .iter()
            .filter_map(|&k| {
                let spec = warm.spec(k).expect("resident spec");
                let hop = spec.path.iter().position(|&s| s == 0)?;
                Some(spec.classes[hop])
            })
            .collect();
        blind_at_hub |= hub_classes.iter().any(|c| c.is_infinite());
        hub_classes.retain(|c| c.is_finite());
        hub_classes.sort_by(f64::total_cmp);
        hub_classes.dedup();
        most_classes = most_classes.max(hub_classes.len());
    }
    assert!(
        most_classes >= 40 && blind_at_hub,
        "coverage: {most_classes} distinct classes at the hub, blind hops {blind_at_hub}"
    );
}

/// One or two fresh flows under new keys.
fn new_batch(rng: &mut DetRng, next_key: &mut u64, n_rings: usize) -> Vec<(u64, FlowSpec)> {
    let n = 1 + rng.gen_range(0..2u32) as usize;
    (0..n)
        .map(|_| {
            *next_key += 1;
            (*next_key, random_flow(rng, n_rings))
        })
        .collect()
}

/// Every stored bit of a resident flow's bounds.
fn bound_bits(solver: &IncrementalSolver, key: u64) -> Vec<u64> {
    let b = solver.bounds(key).expect("resident bounds");
    let mut bits = vec![b.e2e_delay.to_bits(), b.backlog.to_bits()];
    bits.extend(b.hop_delays.iter().map(|d| d.to_bits()));
    bits
}

fn assert_same_bits(a: &IncrementalSolver, b: &IncrementalSolver, ctx: &str) {
    let keys: Vec<u64> = a.keys().collect();
    assert_eq!(
        keys,
        b.keys().collect::<Vec<_>>(),
        "{ctx}: resident sets diverge"
    );
    for key in keys {
        assert_eq!(
            bound_bits(a, key),
            bound_bits(b, key),
            "{ctx}: flow {key} bounds diverge"
        );
    }
    assert_eq!(a.tainted(), b.tainted(), "{ctx}: taint flags diverge");
}

#[test]
fn dropped_sessions_leave_the_exact_state_of_never_trying() {
    let (mut dropped, mut kept, mut refused_inside) = (0u32, 0u32, 0u32);
    let (mut diverged_inside, mut tainted_ops) = (0u32, 0u32);
    for fabric_seed in 0..FABRICS {
        let mut rng = DetRng::new(0x5E55 ^ (fabric_seed << 4));
        let n_rings = 2 + rng.gen_range(0..4u32) as usize;
        let services: Vec<ServiceCurve> = (0..n_rings).map(|_| random_service(&mut rng)).collect();
        // `warm` and `full` only see the committed candidates; `sess`
        // tries every candidate inside a session.
        let mut warm = IncrementalSolver::new(&services);
        let mut full = IncrementalSolver::new(&services);
        full.set_force_full(true);
        let mut sess = IncrementalSolver::new(&services);
        let mut next_key = 0u64;
        let mut resident: Vec<u64> = Vec::new();
        for op in 0..OPS_PER_FABRIC {
            let ctx = format!("fabric {fabric_seed} op {op}");
            match rng.gen_range(0..6u32) {
                0 if !resident.is_empty() => {
                    let idx = rng.gen_range(0..resident.len() as u32) as usize;
                    let key = resident.swap_remove(idx);
                    warm.remove(&[key]);
                    full.remove(&[key]);
                    sess.remove(&[key]);
                }
                1..=3 => {
                    // Tried and dropped: one or two admissions, then the
                    // session goes out of scope uncommitted.
                    let tries = 1 + rng.gen_range(0..2u32);
                    let mut session = sess.session();
                    for _ in 0..tries {
                        match session.admit(&new_batch(&mut rng, &mut next_key, n_rings)) {
                            Ok(_) => dropped += 1,
                            Err(SolveError::Diverged { .. }) => diverged_inside += 1,
                            Err(_) => refused_inside += 1,
                        }
                    }
                }
                _ => {
                    let b = new_batch(&mut rng, &mut next_key, n_rings);
                    let keys: Vec<u64> = b.iter().map(|(k, _)| *k).collect();
                    let rw = warm.admit(&b);
                    let rf = full.admit(&b);
                    let mut session = sess.session();
                    let rs = session.admit(&b);
                    session.commit();
                    assert_eq!(
                        rw.is_ok(),
                        rf.is_ok(),
                        "{ctx}: warm and full verdicts diverge"
                    );
                    assert_eq!(rw.is_ok(), rs.is_ok(), "{ctx}: session verdict diverges");
                    if rw.is_ok() {
                        kept += 1;
                        resident.extend(keys);
                    }
                }
            }
            tainted_ops += u32::from(warm.tainted());
            assert_same_bits(&sess, &warm, &format!("{ctx} (session vs warm)"));
            assert_same_bits(&sess, &full, &format!("{ctx} (session vs full)"));
        }
    }
    // Divergent candidates and tainted twins both occur, so the undo of a
    // half-iterated solve and the taint restore are exercised too.
    assert!(
        dropped >= 100
            && kept >= 100
            && refused_inside >= 10
            && diverged_inside >= 10
            && tainted_ops >= 10,
        "coverage: {dropped} dropped, {kept} kept, {refused_inside} refused and \
         {diverged_inside} diverged in a session, {tainted_ops} tainted"
    );
}
