//! E23 — calculus-certified topology synthesis from traffic matrices.
//!
//! Every fabric so far was drawn by hand: pick rings, place nodes, wire
//! bridges, then hope the admission layer certifies the workload.
//! `ccr-synth` inverts that: the traffic matrix is the specification and
//! the topology is the output, searched under the same (min,+) calculus
//! engine the runtime admits against, so the synthesized fabric is
//! admissible by construction. This experiment validates the synthesizer
//! three ways:
//!
//! 1. **Headline** — a 12-station, 3-cluster reference matrix is
//!    synthesized and compared against the hand-built 3×8-node cyclic
//!    triangle (24 nodes + 3 bridges = cost 27): the synthesized fabric
//!    certifies the same matrix at strictly lower cost, and a slot-engine
//!    soak — with every best-effort flow flooding far past its declared
//!    rate — meets **every** guaranteed deadline with zero observed
//!    latencies above the certificates.
//! 2. **Differential sweep** — seeded random matrices are synthesized;
//!    for every returned topology a cold forced-full solve must reproduce
//!    the search's warm-started bounds **bit-identically** (zero
//!    mismatches), and a slot-engine confirmation run must observe zero
//!    guaranteed misses and zero certified-bound violations.
//! 3. **Refusals** — infeasible matrices (overloaded stations, hopeless
//!    deadlines) come back as typed errors with a census, never as an
//!    uncertified topology.
//!
//! CSV artefacts (full runs only; best-effort, skipped on read-only
//! checkouts):
//! `results/e23_synthesis.csv`, `results/e23_differential.csv`.

use super::{write_results, ExpOptions, ExperimentResult};
use crate::sweep::parallel_map;
use ccr_multiring::prelude::*;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::rng::DetRng;
use ccr_sim::{SeedSequence, TimeDelta};
use ccr_synth::{synthesize, Criticality, SynthConfig, TrafficMatrix};

/// The reference matrix: 12 stations in three locality clusters of four,
/// heavy intra-cluster traffic, light cross-cluster coupling, plus two
/// best-effort flows that only need routes.
fn reference_matrix() -> TrafficMatrix {
    let mut m = TrafficMatrix::new(12);
    for cluster in 0..3u16 {
        let base = cluster * 4;
        // A ring of flows inside each cluster at a demanding period.
        for i in 0..4u16 {
            let f = m.flow(base + i, base + (i + 1) % 4, TimeDelta::from_us(400));
            f.deadline = TimeDelta::from_us(300);
        }
    }
    // Cross-cluster couplings, one per cluster pair, slower.
    for &(a, b) in &[(0u16, 4u16), (4, 8), (8, 0)] {
        let f = m.flow(a, b, TimeDelta::from_ms(2));
        f.deadline = TimeDelta::from_ms(1);
    }
    // Best-effort telemetry: placed, routed, never certified.
    for &(a, b) in &[(1u16, 9u16), (5, 2)] {
        let f = m.flow(a, b, TimeDelta::from_ms(1));
        f.criticality = Criticality::BestEffort;
    }
    m
}

/// The hand-built comparison fabric: the E19 cyclic triangle, 3 rings of
/// 8 nodes and 3 bridges — cost 24·1 + 3·1 = 27 under the synth cost
/// model.
fn hand_built_triangle() -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(8);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Calculus);
    b.build().expect("triangle builds under the calculus bound")
}

/// Run E23.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let seq = SeedSequence::new(opts.seed).subsequence("e23", 0);
    let mut notes = vec![];

    let headline = headline_table(opts, &seq, &mut notes);
    let differential = differential_table(opts, &seq, &mut notes);

    write_results(
        opts,
        &[
            ("e23_synthesis.csv", &headline.to_csv()),
            ("e23_differential.csv", &differential.to_csv()),
        ],
        &mut notes,
    );

    ExperimentResult {
        tables: vec![headline, differential],
        notes,
    }
}

/// E23a: synthesize the reference matrix, beat the hand-built triangle on
/// cost, and confirm every certificate in the slot engine under
/// best-effort flood.
fn headline_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let matrix = reference_matrix();
    let synth = synthesize(&matrix, &SynthConfig::default())
        .expect("the reference matrix is synthesizable");

    // The hand-built yardstick under the same cost model.
    let triangle = hand_built_triangle();
    let hand_nodes: u64 = (0..triangle.n_rings())
        .map(|r| u64::from(triangle.ring_size(RingId(r))))
        .sum();
    let hand_cost = hand_nodes + triangle.bridges().len() as u64;
    assert_eq!(hand_cost, 27, "3x8 triangle + 3 bridges");
    assert!(
        synth.report.cost < hand_cost,
        "synthesized cost {} is not below the hand-built {hand_cost}",
        synth.report.cost
    );

    // Slot-engine confirmation: build the synthesized fabric, open every
    // guaranteed flow (periodic sources) and every best-effort flow
    // (flooded manually), soak, then audit.
    let mut fabric = Fabric::new(
        synth
            .fabric_config(seq.child_seed("headline", 0))
            .expect("synthesized fabric config builds"),
    )
    .expect("synthesized fabric builds");
    assert!(fabric.calculus_enabled());

    let mut guaranteed = vec![];
    for (k, _) in matrix.guaranteed() {
        let fid = fabric
            .open_connection(synth.connection_spec(k))
            .expect("synthesized topology admits its own matrix");
        guaranteed.push((k, fid));
    }
    // Certificates are a property of the whole admitted set, so compare
    // only once every flow is resident: the engine's one-by-one warm
    // admissions must land on the same fixed point the synthesizer's
    // batch certification found.
    let guaranteed: Vec<(usize, FabricConnectionId, TimeDelta)> = guaranteed
        .into_iter()
        .map(|(k, fid)| {
            let engine_bound = fabric.e2e_bound(fid).expect("certified");
            let (_, synth_bound) = synth
                .bounds
                .iter()
                .find(|(i, _)| *i == k)
                .expect("every guaranteed flow carries a synthesis bound");
            assert_eq!(
                engine_bound, *synth_bound,
                "flow {k}: the fabric's certificate differs from the synthesizer's"
            );
            (k, fid, engine_bound)
        })
        .collect();
    let mut best_effort = vec![];
    for (k, _) in matrix.best_effort() {
        let fid = fabric
            .open_best_effort(synth.connection_spec(k))
            .expect("best-effort flows route on the synthesized topology");
        best_effort.push(fid);
    }

    // Soak with the best-effort flows flooding every slot — far past
    // their declared periods.
    let horizon = opts.slots(40_000);
    for _ in 0..horizon {
        for &fid in &best_effort {
            let _ = fabric.inject(fid);
        }
        fabric.run_slots(1);
    }
    fabric.run_slots(2_000); // drain

    let mut table = Table::new(
        "E23a — headline: synthesized fabric vs the hand-built 3x8 triangle",
        &[
            "fabric",
            "nodes",
            "bridges",
            "cost",
            "rings",
            "worst_tightness",
            "guaranteed_misses",
        ],
    );
    let mut worst_ratio = 0.0f64;
    for &(k, fid, bound) in &guaranteed {
        if let Some(observed) = fabric.observed_e2e_max(fid) {
            assert!(
                observed <= bound,
                "flow {k}: observed {observed} exceeds certified bound {bound}"
            );
            worst_ratio = worst_ratio.max(observed.as_ps() as f64 / bound.as_ps() as f64);
        }
    }
    let misses = fabric.metrics().e2e_delivered.get() - fabric.metrics().e2e_met.get();
    assert_eq!(misses, 0, "guaranteed deliveries missed deadlines");
    assert!(
        fabric.metrics().be_delivered.get() > 0,
        "best-effort flood never got through"
    );
    table.row(&[
        "synthesized".into(),
        synth.report.nodes.to_string(),
        synth.report.bridges.to_string(),
        synth.report.cost.to_string(),
        synth.report.rings.len().to_string(),
        fmt_f64(worst_ratio, 3),
        misses.to_string(),
    ]);
    table.row(&[
        "hand-built 3x8".into(),
        hand_nodes.to_string(),
        triangle.bridges().len().to_string(),
        hand_cost.to_string(),
        "3".into(),
        "-".into(),
        "-".into(),
    ]);
    notes.push(format!(
        "synthesized fabric: cost {} vs hand-built 27; {} certifier call(s) ({} full); \
         every guaranteed deadline met under best-effort flood ({} best-effort deliveries)",
        synth.report.cost,
        synth.report.certifier_calls,
        synth.report.full_solves,
        fabric.metrics().be_delivered.get(),
    ));
    notes.push(format!("synth report: {}", synth.report));
    table
}

/// Outcome of one random matrix in the differential sweep.
struct DiffOutcome {
    synthesized: bool,
    bit_mismatches: u64,
    bound_violations: u64,
    guaranteed_misses: u64,
    cost: u64,
}

/// E23b: random matrices — bit-identical forced-full re-certification and
/// slot-engine confirmation with zero guaranteed misses.
fn differential_table(opts: &ExpOptions, seq: &SeedSequence, notes: &mut Vec<String>) -> Table {
    let n_cases: u64 = if opts.quick { 12 } else { 30 };
    let horizon = opts.slots(20_000);
    let cases: Vec<u64> = (0..n_cases).collect();

    let rows = parallel_map(cases, opts.threads, |&i| {
        let seed = seq.child_seed("diff", i);
        let mut rng = DetRng::new(seed);
        let stations = 4 + rng.gen_range(0..7u16); // 4..=10
        let mut m = TrafficMatrix::new(stations);
        let n_flows = 3 + rng.gen_range(0..6usize);
        for _ in 0..n_flows {
            let src = rng.gen_range(0..stations);
            let mut dst = rng.gen_range(0..stations);
            if dst == src {
                dst = (dst + 1) % stations;
            }
            let period_us = 300 + rng.gen_range(0..2_000u64);
            let f = m.flow(src, dst, TimeDelta::from_us(period_us));
            f.deadline = TimeDelta::from_us((period_us * (50 + rng.gen_range(0..51u64))) / 100);
            if rng.gen_bool(0.1) {
                f.criticality = Criticality::BestEffort;
            }
        }
        let synth = match synthesize(&m, &SynthConfig::default()) {
            Ok(s) => s,
            Err(_) => {
                return DiffOutcome {
                    synthesized: false,
                    bit_mismatches: 0,
                    bound_violations: 0,
                    guaranteed_misses: 0,
                    cost: 0,
                }
            }
        };

        // Bit-identical forced-full reference.
        let reference = synth
            .recertify_full()
            .expect("returned topologies re-certify");
        let bit_mismatches = synth
            .search_bounds
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;

        // Slot-engine confirmation.
        let mut fabric = Fabric::new(
            synth
                .fabric_config(seed)
                .expect("synthesized config builds"),
        )
        .expect("synthesized fabric builds");
        let mut fids = vec![];
        for (k, _) in synth.matrix.guaranteed() {
            let fid = fabric
                .open_connection(synth.connection_spec(k))
                .expect("synthesized topology admits its matrix");
            fids.push(fid);
        }
        for (k, _) in synth.matrix.best_effort() {
            let _ = fabric.open_best_effort(synth.connection_spec(k));
        }
        fabric.run_slots(horizon);
        let bound_violations = fids
            .iter()
            .filter(
                |&&fid| match (fabric.observed_e2e_max(fid), fabric.e2e_bound(fid)) {
                    (Some(obs), Some(bound)) => obs > bound,
                    _ => false,
                },
            )
            .count() as u64;
        let guaranteed_misses =
            fabric.metrics().e2e_delivered.get() - fabric.metrics().e2e_met.get();
        DiffOutcome {
            synthesized: true,
            bit_mismatches,
            bound_violations,
            guaranteed_misses,
            cost: synth.report.cost,
        }
    });

    let synthesized = rows.iter().filter(|r| r.synthesized).count() as u64;
    let mismatches: u64 = rows.iter().map(|r| r.bit_mismatches).sum();
    let violations: u64 = rows.iter().map(|r| r.bound_violations).sum();
    let misses: u64 = rows.iter().map(|r| r.guaranteed_misses).sum();
    assert!(synthesized >= n_cases / 2, "sweep generator too brutal");
    assert_eq!(
        mismatches, 0,
        "warm-started bounds diverged from forced-full reference"
    );
    assert_eq!(violations, 0, "observed latency exceeded a certified bound");
    assert_eq!(
        misses, 0,
        "a synthesized fabric missed a guaranteed deadline"
    );

    let mut table = Table::new(
        "E23b — differential sweep: random matrices, forced-full re-certification, slot-engine confirmation",
        &[
            "matrices",
            "synthesized",
            "rejected_typed",
            "bit_mismatches",
            "bound_violations",
            "guaranteed_misses",
            "mean_cost",
        ],
    );
    let mean_cost = if synthesized > 0 {
        rows.iter().map(|r| r.cost).sum::<u64>() as f64 / synthesized as f64
    } else {
        0.0
    };
    table.row(&[
        n_cases.to_string(),
        synthesized.to_string(),
        (n_cases - synthesized).to_string(),
        mismatches.to_string(),
        violations.to_string(),
        misses.to_string(),
        fmt_f64(mean_cost, 1),
    ]);
    notes.push(format!(
        "{synthesized}/{n_cases} random matrices synthesized; every returned topology \
         re-certified bit-identically under a forced-full solve and confirmed in the \
         slot engine with zero bound violations and zero guaranteed misses"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_quick_runs_clean() {
        let result = run(&ExpOptions::quick(7));
        assert_eq!(result.tables.len(), 2);
        assert!(result.notes.iter().any(|n| n.contains("bit-identically")));
    }
}
