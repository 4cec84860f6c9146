//! E19 — the network-calculus certifier: bounds vs reality on cyclic
//! fabrics.
//!
//! The seed fabric rejected every cyclic topology at build time because
//! its per-segment admission has no way to bound traffic that can loop
//! between rings. The `ccr-calculus` engine closes that gap with the
//! min-plus fixed-point analysis of Amari & Mifdaoui (arXiv:1605.07353):
//! rings become rate-latency servers, connections token buckets, and
//! every admission re-solves the cyclic fixed point, converging to a
//! certified end-to-end delay bound or rejecting outright. This
//! experiment validates the certificates three ways:
//!
//! 1. **Headline** — the cyclic 3×8-node triangle the seed refuses to
//!    build is admitted under [`CycleBound::Calculus`] with a finite
//!    certified bound per connection, and a long simulation never
//!    observes an end-to-end latency above any certificate.
//! 2. **Differential sweep** — ≥20 seeded random fabrics (acyclic chains
//!    and cyclic triangles, random ring sizes, random connection sets)
//!    run with the certifier armed; across every admitted connection the
//!    observed worst-case end-to-end latency must stay at or below the
//!    certified bound — **zero violations** — and the tightness ratio
//!    `observed / bound` is recorded per fabric.
//! 3. **Solver behaviour** — the raw fixed-point solver on a symmetric
//!    cyclic triangle under increasing utilisation: it either converges
//!    in a few iterations to finite bounds or rejects with an explicit
//!    diagnostic (`Utilisation` past capacity); it never silently loops
//!    or returns an uncertified bound.
//!
//! CSV artefacts (full runs only; best-effort, skipped on read-only
//! checkouts):
//! `results/e19_headline.csv`, `results/e19_differential.csv`,
//! `results/e19_solver.csv`.

use super::{write_results, ExpOptions, ExperimentResult};
use ccr_calculus::{solve, ArrivalCurve, FabricModel, FlowSpec, ServiceCurve, SolveError};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::config::NetworkConfig;
use ccr_multiring::prelude::*;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::rng::DetRng;
use ccr_sim::{SeedSequence, TimeDelta};

/// Triangle of three rings: 0—1 (bridge 0), 1—2 (bridge 1), 2—0
/// (bridge 2) — genuinely cyclic.
fn triangle(ring_size: u16, bound: CycleBound) -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(ring_size);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(bound);
    b.build().expect("triangle builds under an explicit bound")
}

/// Run E19.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let seq = SeedSequence::new(opts.seed).subsequence("e19", 0);
    let mut notes = vec![];

    // --- 1. headline: the cyclic triangle the seed cannot build --------
    {
        let mut b = FabricTopology::builder();
        for _ in 0..3 {
            b.ring(8);
        }
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
        b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
        assert!(
            b.build().is_err(),
            "the seed behaviour: cyclic topologies are rejected at build"
        );
        notes.push(
            "seed behaviour confirmed: the cyclic 3x8 triangle is rejected at topology \
             build without an explicit cycle bound"
                .to_string(),
        );
    }

    let headline = headline_table(opts, &seq, &mut notes);

    // --- 2. differential sweep: bound vs observed on random fabrics ----
    let differential = differential_table(opts, &seq, &mut notes);

    // --- 3. raw solver behaviour under increasing utilisation ----------
    let solver = solver_table(&mut notes);

    write_results(
        opts,
        &[
            ("e19_headline.csv", &headline.to_csv()),
            ("e19_differential.csv", &differential.to_csv()),
            ("e19_solver.csv", &solver.to_csv()),
        ],
        &mut notes,
    );

    ExperimentResult {
        tables: vec![headline, differential, solver],
        notes,
    }
}

/// E19a: admit three crossing connections on the calculus-certified
/// triangle and soak them; every observed worst case must respect its
/// certificate.
fn headline_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let topo = triangle(8, CycleBound::Calculus);
    let cfg =
        FabricConfig::uniform(topo, 2_048, seq.child_seed("headline", 0)).expect("fabric config");
    let mut fabric = Fabric::new(cfg).expect("fabric builds with the certifier armed");
    assert!(fabric.calculus_enabled());

    let conns = [
        (GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3), 5u64),
        (GlobalNodeId::new(1, 4), GlobalNodeId::new(2, 3), 4),
        (GlobalNodeId::new(2, 4), GlobalNodeId::new(0, 3), 5),
        (GlobalNodeId::new(0, 5), GlobalNodeId::new(2, 6), 8),
    ];
    let mut fids = vec![];
    for &(src, dst, period_ms) in &conns {
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(src, dst).period(TimeDelta::from_ms(period_ms)),
            )
            .expect("the certifier admits the headline set");
        fids.push((fid, src, dst, period_ms));
    }
    fabric.run_slots(opts.slots(40_000));

    let mut table = Table::new(
        "E19a — headline: certified bounds on the cyclic 3x8 triangle",
        &[
            "conn",
            "src",
            "dst",
            "period_ms",
            "bound_us",
            "observed_us",
            "tightness",
        ],
    );
    for (i, &(fid, src, dst, period_ms)) in fids.iter().enumerate() {
        let bound = fabric.e2e_bound(fid).expect("certified bound");
        let observed = fabric
            .observed_e2e_max(fid)
            .expect("headline traffic flowed");
        assert!(
            observed <= bound,
            "conn {i}: observed {observed} exceeds certified bound {bound}"
        );
        table.row(&[
            i.to_string(),
            format!("{src}"),
            format!("{dst}"),
            period_ms.to_string(),
            fmt_f64(bound.as_ps() as f64 / 1e6, 1),
            fmt_f64(observed.as_ps() as f64 / 1e6, 1),
            fmt_f64(observed.as_ps() as f64 / bound.as_ps() as f64, 3),
        ]);
    }
    notes.push(
        "the previously unbuildable cyclic triangle now admits crossing connections \
         with finite certified end-to-end bounds, and the soak never observed a \
         latency above any certificate"
            .to_string(),
    );
    table
}

/// One randomly generated fabric of the differential sweep.
struct DiffOutcome {
    topo_name: &'static str,
    admitted: u64,
    refused: u64,
    violations: u64,
    /// Worst (largest) `observed / bound` ratio across admitted flows
    /// that carried traffic; `None` when nothing was delivered.
    worst_ratio: Option<f64>,
}

/// E19b: ≥20 seeded random fabrics, certifier armed on all of them
/// (acyclic included), observed worst case vs certified bound per flow.
fn differential_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let n_fabrics: u64 = if opts.quick { 20 } else { 40 };
    let horizon = opts.slots(20_000);
    let cases: Vec<u64> = (0..n_fabrics).collect();

    let rows = parallel_map(cases, opts.threads, |&i| {
        let seed = seq.child_seed("diff", i);
        let mut rng = DetRng::new(seed);
        let ring_size = 6 + rng.gen_range(0..=4u32) as u16;
        let cyclic = i % 2 == 0;
        let topo = if cyclic {
            triangle(ring_size, CycleBound::Calculus)
        } else {
            FabricTopology::chain(2 + (rng.gen_range(0..=1u32) as u16), ring_size)
        };
        let n_rings = topo.n_rings();
        let cfg = FabricConfig::uniform(topo, 2_048, seed)
            .expect("fabric config")
            .calculus(true);
        let mut fabric = Fabric::new(cfg).expect("fabric builds");
        assert!(fabric.calculus_enabled());

        let n_conns = 4 + rng.gen_range(0..=4u32);
        let mut admitted = vec![];
        let mut refused = 0u64;
        for _ in 0..n_conns {
            let src_ring = rng.gen_range(0..n_rings as u32) as u16;
            let mut dst_ring = rng.gen_range(0..n_rings as u32) as u16;
            if dst_ring == src_ring {
                dst_ring = (dst_ring + 1) % n_rings;
            }
            // Stay clear of the first two node indices — bridge ports
            // live there on every topology this sweep generates.
            let src = GlobalNodeId::new(
                src_ring,
                2 + rng.gen_range(0..(ring_size - 2) as u32) as u16,
            );
            let dst = GlobalNodeId::new(
                dst_ring,
                2 + rng.gen_range(0..(ring_size - 2) as u32) as u16,
            );
            let period = TimeDelta::from_us(2_000 + 500 * rng.gen_range(0..=16u64));
            let spec = FabricConnectionSpec::unicast(src, dst)
                .period(period)
                .size_slots(1 + rng.gen_range(0..=1u32));
            match fabric.open_connection(spec) {
                Ok(fid) => admitted.push(fid),
                Err(_) => refused += 1,
            }
        }
        fabric.run_slots(horizon);

        let mut violations = 0u64;
        let mut worst_ratio: Option<f64> = None;
        for &fid in &admitted {
            let bound = fabric.e2e_bound(fid).expect("every admission is certified");
            if let Some(observed) = fabric.observed_e2e_max(fid) {
                if observed > bound {
                    violations += 1;
                }
                let ratio = observed.as_ps() as f64 / bound.as_ps() as f64;
                worst_ratio = Some(worst_ratio.map_or(ratio, |w: f64| w.max(ratio)));
            }
        }
        DiffOutcome {
            topo_name: if cyclic { "triangle" } else { "chain" },
            admitted: admitted.len() as u64,
            refused,
            violations,
            worst_ratio,
        }
    });

    let mut table = Table::new(
        "E19b — differential: certified bound vs observed max, random fabrics",
        &[
            "fabric",
            "topology",
            "admitted",
            "refused",
            "violations",
            "worst_obs/bound",
        ],
    );
    let mut total_admitted = 0u64;
    let mut total_violations = 0u64;
    let mut global_worst: f64 = 0.0;
    for (i, o) in rows.iter().enumerate() {
        total_admitted += o.admitted;
        total_violations += o.violations;
        if let Some(r) = o.worst_ratio {
            global_worst = global_worst.max(r);
        }
        table.row(&[
            i.to_string(),
            o.topo_name.to_string(),
            o.admitted.to_string(),
            o.refused.to_string(),
            o.violations.to_string(),
            o.worst_ratio
                .map_or_else(|| "-".to_string(), |r| fmt_f64(r, 3)),
        ]);
    }
    assert!(total_admitted > 0, "the sweep must admit real traffic");
    assert_eq!(
        total_violations, 0,
        "a certified bound was violated by the simulation"
    );
    notes.push(format!(
        "differential sweep: {n_fabrics} seeded random fabrics, {total_admitted} admitted \
         connections, zero bound violations; worst observed/bound tightness ratio {} \
         (1.0 would mean a bound met exactly)",
        fmt_f64(global_worst, 3)
    ));
    table
}

/// E19c: the raw fixed-point solver on a symmetric cyclic triangle —
/// three flows chase each other around the cycle while per-ring
/// utilisation sweeps towards and past capacity.
fn solver_table(notes: &mut Vec<String>) -> Table {
    // Realistic per-ring timing from the paper's own analytic model.
    let cfg = NetworkConfig::builder(8).build_auto_slot().expect("config");
    let model = AnalyticModel::new(&cfg);
    let per_slot = (model.slot() + model.max_handover()).as_ps() as f64;
    let rate = 1.0 / per_slot; // slots per picosecond
    let latency = model.worst_latency().as_ps() as f64;
    let service = ServiceCurve::rate_latency(rate, latency).expect("ring service");

    let mut table = Table::new(
        "E19c — fixed-point solver: converge-or-reject vs per-ring utilisation",
        &["util", "verdict", "iterations", "max_bound_us"],
    );
    let mut converged = 0u32;
    let mut rejected = 0u32;
    for step in [5u32, 20, 40, 60, 80, 90, 95, 100, 110] {
        let util = step as f64 / 100.0;
        // Each ring carries two of the three cyclic flows.
        let per_flow_rate = util * rate / 2.0;
        let flows: Vec<FlowSpec> = [[0usize, 1], [1, 2], [2, 0]]
            .iter()
            .map(|path| {
                FlowSpec::blind(
                    path.to_vec(),
                    ArrivalCurve::token_bucket(2.0, per_flow_rate).expect("token bucket"),
                    vec![0.0, per_slot],
                )
            })
            .collect();
        let fabric = FabricModel {
            services: vec![service.clone(), service.clone(), service.clone()],
            flows,
        };
        let (verdict, iterations, max_bound) = match solve(&fabric) {
            Ok(sol) => {
                converged += 1;
                let worst = sol.flows.iter().map(|f| f.e2e_delay).fold(0.0f64, f64::max);
                ("converged".to_string(), sol.iterations.to_string(), worst)
            }
            Err(SolveError::Utilisation { ring, .. }) => {
                rejected += 1;
                (
                    format!("reject: ring {ring} over capacity"),
                    "-".to_string(),
                    f64::NAN,
                )
            }
            Err(SolveError::Diverged { iterations, .. }) => {
                rejected += 1;
                (
                    "reject: diverged".to_string(),
                    iterations.to_string(),
                    f64::NAN,
                )
            }
            Err(e) => panic!("malformed solver input in E19c: {e}"),
        };
        table.row(&[
            fmt_f64(util, 2),
            verdict,
            iterations,
            if max_bound.is_nan() {
                "-".to_string()
            } else {
                fmt_f64(max_bound / 1e6, 1)
            },
        ]);
    }
    assert!(converged > 0, "feasible utilisations must converge");
    assert!(rejected > 0, "over-capacity utilisations must be rejected");
    notes.push(format!(
        "the cyclic fixed point converged for {converged} feasible load points and \
         explicitly rejected {rejected} infeasible ones — the solver never returns \
         an uncertified bound"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calculus() {
        let r = run(&ExpOptions::quick(19));
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[0].n_rows(), 4); // headline connections
        assert_eq!(r.tables[1].n_rows(), 20); // quick differential fabrics
        assert_eq!(r.tables[2].n_rows(), 9); // solver utilisation sweep
        assert!(r.notes.iter().any(|n| n.contains("zero bound violations")));
        assert!(r.notes.iter().any(|n| n.contains("rejected")));
    }
}
