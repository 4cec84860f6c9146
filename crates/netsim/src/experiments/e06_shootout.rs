//! E6 — the headline comparison: CCR-EDF vs CC-FPR deadline-miss ratio as
//! offered load rises.
//!
//! Both protocols receive *identical* periodic real-time traffic (injected
//! past admission control so loads above `U_max` are reachable) on the same
//! slot engine. The paper's claim: CC-FPR's round-robin clocking and
//! ring-order booking cause priority inversion and deadline misses well
//! below the load CCR-EDF sustains, while CCR-EDF's arbitration-driven
//! hand-over delivers global EDF and stays miss-free up to `U_max`.

use super::{base_config, ExpOptions, ExperimentResult};
use crate::runner::{run_with_mac, RunSummary, Workload};
use cc_fpr::CcFprMac;
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::arbitration::CcrEdfMac;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct Point {
    load_frac: f64,
    rep: u64,
}

/// Run E6.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
    let model = AnalyticModel::new(&cfg);
    let seq = SeedSequence::new(opts.seed);
    let loads: Vec<f64> = if opts.quick {
        vec![0.4, 0.9, 1.3]
    } else {
        vec![
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4,
        ]
    };
    let reps = opts.reps(3);
    let slots = opts.slots(150_000);

    let points: Vec<Point> = loads
        .iter()
        .flat_map(|&l| (0..reps).map(move |rep| Point { load_frac: l, rep }))
        .collect();

    let cfg_ref = &cfg;
    // Four runs per point: {CCR-EDF, CC-FPR} × {reuse on, reuse off}. The
    // no-reuse runs reproduce the conditions of the Section 5 analysis
    // (one message per slot), where U_max is the true capacity and the
    // crossover is sharp; the reuse runs show run-time behaviour, where
    // spatial reuse gives both protocols extra headroom.
    let results: Vec<(Point, [RunSummary; 4])> = parallel_map(points, opts.threads, |&p| {
        let target = p.load_frac * model.u_max();
        let mut rng = seq
            .subsequence("e6", (p.load_frac * 1000.0) as u64)
            .stream("traffic", p.rep);
        // Tight periods (deadline = period, Section 5) are what separate
        // the protocols: CC-FPR's rotating clock break blocks a message
        // for up to N slots, which only matters when deadlines leave
        // little slack.
        let set = PeriodicSetBuilder::new(n, n as usize * 3, target, cfg_ref.slot_time())
            .periods(10, 300)
            .generate(&mut rng);
        let workload = Workload::raw(set);
        let mut no_reuse = cfg_ref.clone();
        no_reuse.spatial_reuse = false;
        let runs = [
            run_with_mac(cfg_ref.clone(), CcrEdfMac, &workload, slots),
            run_with_mac(cfg_ref.clone(), CcFprMac, &workload, slots),
            run_with_mac(no_reuse.clone(), CcrEdfMac, &workload, slots),
            run_with_mac(no_reuse, CcFprMac, &workload, slots),
        ];
        (p, runs)
    });

    // Aggregate per load across reps.
    let mut t_reuse = Table::new(
        "E6a — miss ratio vs offered load, spatial reuse ON (run-time behaviour, N = 16)",
        &[
            "load/u_max",
            "edf_miss",
            "fpr_miss",
            "edf_p99_us",
            "fpr_p99_us",
            "edf_backlog",
            "fpr_backlog",
        ],
    );
    let mut t_plain = Table::new(
        "E6b — miss ratio vs offered load, spatial reuse OFF (Section 5 analysis conditions)",
        &[
            "load/u_max",
            "edf_miss",
            "fpr_miss",
            "edf_p99_us",
            "fpr_p99_us",
            "edf_backlog",
            "fpr_backlog",
        ],
    );
    let mut notes = vec![format!("u_max = {:.4}", model.u_max())];
    for &load in &loads {
        let runs: Vec<&(Point, [RunSummary; 4])> = results
            .iter()
            .filter(|(p, _)| (p.load_frac - load).abs() < 1e-9)
            .collect();
        let k = runs.len() as f64;
        let avg =
            |f: &dyn Fn(&[RunSummary; 4]) -> f64| runs.iter().map(|(_, r)| f(r)).sum::<f64>() / k;
        t_reuse.row(&[
            fmt_f64(load, 2),
            fmt_pct(avg(&|r| r[0].rt_miss_ratio)),
            fmt_pct(avg(&|r| r[1].rt_miss_ratio)),
            fmt_f64(avg(&|r| r[0].rt_latency_p99_us), 1),
            fmt_f64(avg(&|r| r[1].rt_latency_p99_us), 1),
            fmt_f64(avg(&|r| r[0].backlog as f64), 0),
            fmt_f64(avg(&|r| r[1].backlog as f64), 0),
        ]);
        t_plain.row(&[
            fmt_f64(load, 2),
            fmt_pct(avg(&|r| r[2].rt_miss_ratio)),
            fmt_pct(avg(&|r| r[3].rt_miss_ratio)),
            fmt_f64(avg(&|r| r[2].rt_latency_p99_us), 1),
            fmt_f64(avg(&|r| r[3].rt_latency_p99_us), 1),
            fmt_f64(avg(&|r| r[2].backlog as f64), 0),
            fmt_f64(avg(&|r| r[3].backlog as f64), 0),
        ]);
        // Structural claims of the paper: the guarantee region is clean for
        // CCR-EDF in both modes.
        if load <= 0.9 {
            let edf_reuse = avg(&|r| r[0].rt_miss_ratio);
            let edf_plain = avg(&|r| r[2].rt_miss_ratio);
            assert!(
                edf_reuse < 0.001 && edf_plain < 0.005,
                "CCR-EDF missed below u_max (load {load}: reuse {edf_reuse}, plain {edf_plain})"
            );
        }
    }
    // The crossover claim under analysis conditions: at some admissible
    // load CC-FPR already misses while CCR-EDF does not.
    let crossover = loads.iter().find(|&&l| {
        l <= 1.0
            && results
                .iter()
                .filter(|(p, _)| (p.load_frac - l).abs() < 1e-9)
                .any(|(_, r)| r[3].rt_miss_ratio > 0.01 && r[2].rt_miss_ratio < 0.001)
    });
    if let Some(l) = crossover {
        notes.push(format!(
            "no-reuse crossover: CC-FPR misses from load {l:.2}·u_max while CCR-EDF is clean"
        ));
    }

    ExperimentResult {
        tables: vec![t_reuse, t_plain],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shootout_shape() {
        let r = run(&ExpOptions::quick(6));
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].n_rows(), 3);
        assert_eq!(r.tables[1].n_rows(), 3);
    }
}
