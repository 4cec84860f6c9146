//! E20 — admission-churn soak: the incremental control plane at scale.
//!
//! PR 6 turned the calculus certifier from a stateless full re-solve into
//! a warm-started incremental solver (dirty-set restricted fixed point,
//! EDF-aware left-over service, batched admits). This experiment soaks
//! the *control plane* the way E19 soaks the data plane: a chain fabric
//! carrying thousands of resident certified connections is driven through
//! a long open/close churn and the per-operation wall-clock latency is
//! recorded — once on the warm-started certifier and once with
//! [`FabricConfig::calculus_force_full`] armed, the bit-exact reference
//! that re-solves everything per operation.
//!
//! Reported:
//!
//! 1. **Churn latency** — p50/p95/p99/max microseconds per open and per
//!    close in both modes, plus sustained ops/s and the resulting
//!    incremental-vs-full speedup. perfbench's `admission_churn` workload
//!    times the same operations on a cyclic fabric.
//! 2. **Steady-state headroom** — with the full resident set certified,
//!    the distribution of relative deadline slack
//!    `1 − bound/deadline` across residents: how much certified margin
//!    the fabric still holds at scale.
//!
//! Asserted: every warm certification ran incrementally, the probes both
//! fabrics opened got equal bounds, and after both churns every
//! resident's bound on the warm fabric equals the forced-full one.
//!
//! CSV artefacts (full runs only; best-effort, skipped on read-only
//! checkouts):
//! `results/e20_churn.csv`, `results/e20_headroom.csv`.

use super::{write_results, ExpOptions, ExperimentResult};
use ccr_multiring::prelude::*;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::TimeDelta;
use std::time::Instant;

/// Resident population: same-ring flows at two long periods, so every
/// churn operation dirties one ring while the rest of the fabric's fixed
/// point stays warm.
fn resident_specs(rings: u16, per_ring: usize) -> Vec<FabricConnectionSpec> {
    let mut specs = Vec::with_capacity(rings as usize * per_ring);
    for r in 0..rings {
        for i in 0..per_ring {
            let (src, dst) = ((2 + (i % 3)) as u16, (5 + (i % 3)) as u16);
            let period = TimeDelta::from_ms(if i % 2 == 0 { 40 } else { 80 });
            specs.push(
                FabricConnectionSpec::unicast(GlobalNodeId::new(r, src), GlobalNodeId::new(r, dst))
                    .period(period),
            );
        }
    }
    specs
}

fn build(rings: u16, per_ring: usize, force_full: bool, seed: u64) -> Fabric {
    let cfg = FabricConfig::uniform(FabricTopology::chain(rings, 8), 2_048, seed)
        .expect("fabric config")
        .calculus(true)
        .calculus_force_full(force_full);
    let mut fabric = Fabric::new(cfg).expect("fabric builds");
    let specs = resident_specs(rings, per_ring);
    let fids = fabric
        .open_connections(&specs)
        .expect("resident population admits in one batch");
    assert_eq!(fids.len(), specs.len());
    fabric
}

/// Per-op wall-clock latencies in microseconds, opens and closes
/// separately, and each probe's certified bound.
struct Churn {
    open_us: Vec<f64>,
    close_us: Vec<f64>,
    probe_bounds: Vec<TimeDelta>,
}

/// Open/close churn over rotating rings.
fn churn(fabric: &mut Fabric, rings: u16, ops: u32) -> Churn {
    let mut open_us = Vec::with_capacity(ops as usize);
    let mut close_us = Vec::with_capacity(ops as usize);
    let mut probe_bounds = Vec::with_capacity(ops as usize);
    for op in 0..ops {
        let r = (op % rings as u32) as u16;
        let spec = FabricConnectionSpec::unicast(GlobalNodeId::new(r, 3), GlobalNodeId::new(r, 6))
            .period(TimeDelta::from_ms(60));
        let t0 = Instant::now();
        let fid = fabric.open_connection(spec).expect("probe admits");
        open_us.push(t0.elapsed().as_secs_f64() * 1e6);
        probe_bounds.push(fabric.e2e_bound(fid).expect("probe is certified"));
        let t0 = Instant::now();
        fabric.close_connection(fid);
        close_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Churn {
        open_us,
        close_us,
        probe_bounds,
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn latency_row(table: &mut Table, mode: &str, kind: &str, mut us: Vec<f64>) -> f64 {
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total_s: f64 = us.iter().sum::<f64>() / 1e6;
    let ops_per_s = us.len() as f64 / total_s.max(1e-12);
    table.row(&[
        mode.to_string(),
        kind.to_string(),
        us.len().to_string(),
        fmt_f64(percentile(&us, 0.50), 1),
        fmt_f64(percentile(&us, 0.95), 1),
        fmt_f64(percentile(&us, 0.99), 1),
        fmt_f64(percentile(&us, 1.0), 1),
        fmt_f64(ops_per_s, 0),
    ]);
    ops_per_s
}

/// Run E20.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut notes = vec![];
    let rings: u16 = if opts.quick { 8 } else { 16 };
    let per_ring: usize = if opts.quick { 40 } else { 160 };
    let residents = rings as usize * per_ring;
    let churn_ops: u32 = if opts.quick { 120 } else { 2_000 };
    // The full-re-solve reference pays the whole fixed point per op; keep
    // its sample small so the soak stays runnable.
    let full_ops: u32 = if opts.quick { 12 } else { 60 };

    // --- 1. churn latency: warm-started vs forced-full ----------------
    let mut churn_table = Table::new(
        "E20a — admission churn latency (wall clock, resident set certified)",
        &[
            "mode",
            "op",
            "count",
            "p50_us",
            "p95_us",
            "p99_us",
            "max_us",
            "ops_per_s",
        ],
    );
    let mut warm = build(rings, per_ring, false, 0xE20);
    let warm_churn = churn(&mut warm, rings, churn_ops);
    let warm_open_rate = latency_row(&mut churn_table, "incremental", "open", warm_churn.open_us);
    latency_row(
        &mut churn_table,
        "incremental",
        "close",
        warm_churn.close_us,
    );

    let mut full = build(rings, per_ring, true, 0xE20);
    let full_churn = churn(&mut full, rings, full_ops);
    let full_open_rate = latency_row(&mut churn_table, "full", "open", full_churn.open_us);
    latency_row(&mut churn_table, "full", "close", full_churn.close_us);

    // The equivalence verdict, asserted: the warm path certified every
    // operation incrementally and landed on the forced-full reference's
    // bounds, for the probes both fabrics opened and for every resident
    // after both churns.
    let m = warm.metrics();
    assert_eq!(
        m.calc_admit_full.get(),
        0,
        "no warm certification re-solved fully"
    );
    assert_eq!(
        m.calc_admit_incremental.get(),
        u64::from(churn_ops) + 1,
        "the resident batch and every probe certified incrementally"
    );
    assert_eq!(
        warm_churn.probe_bounds[..full_ops as usize],
        full_churn.probe_bounds[..],
        "probe bounds: incremental ≡ full re-solve"
    );
    for fid in (1..=residents as u64).map(FabricConnectionId) {
        assert_eq!(
            warm.e2e_bound(fid),
            full.e2e_bound(fid),
            "resident {fid:?}: incremental ≡ full re-solve"
        );
    }

    let speedup = warm_open_rate / full_open_rate;
    notes.push(format!(
        "{residents} resident certified connections; open-path speedup \
         incremental vs full re-solve: {speedup:.1}x"
    ));
    notes.push(format!(
        "warm-started fabric certifications: {} incremental, {} full re-solves",
        m.calc_admit_incremental.get(),
        m.calc_admit_full.get()
    ));

    // --- 2. steady-state headroom across the resident set -------------
    let mut headroom_table = Table::new(
        "E20b — steady-state certified headroom (relative deadline slack)",
        &["metric", "value"],
    );
    let specs = resident_specs(rings, per_ring);
    let mut slack: Vec<f64> = Vec::with_capacity(residents);
    let fids: Vec<FabricConnectionId> = (1..=residents as u64).map(FabricConnectionId).collect();
    for (fid, spec) in fids.iter().zip(specs.iter()) {
        let bound = warm.e2e_bound(*fid).expect("resident is certified");
        let frac = bound.as_ps() as f64 / spec.e2e_deadline.as_ps() as f64;
        assert!(frac <= 1.0, "certified bound within deadline");
        slack.push(1.0 - frac);
    }
    slack.sort_by(|a, b| a.partial_cmp(b).expect("finite slack"));
    let mean = slack.iter().sum::<f64>() / slack.len() as f64;
    for (name, v) in [
        ("residents", residents as f64),
        ("min_slack", slack[0]),
        ("p10_slack", percentile(&slack, 0.10)),
        ("p50_slack", percentile(&slack, 0.50)),
        ("mean_slack", mean),
        ("max_slack", slack[slack.len() - 1]),
    ] {
        headroom_table.row(&[name.to_string(), fmt_f64(v, 4)]);
    }
    notes.push(format!(
        "every resident keeps a certified bound within its deadline; minimum \
         relative slack {:.3}",
        slack[0]
    ));

    write_results(
        opts,
        &[
            ("e20_churn.csv", &churn_table.to_csv()),
            ("e20_headroom.csv", &headroom_table.to_csv()),
        ],
        &mut notes,
    );

    ExperimentResult {
        tables: vec![churn_table, headroom_table],
        notes,
    }
}
