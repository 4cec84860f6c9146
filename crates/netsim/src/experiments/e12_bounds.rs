//! E12 — the motivation numbers: CC-FPR's pessimistic worst-case bound vs
//! CCR-EDF's guarantee, and what each protocol actually sustains.
//!
//! Section 1: CC-FPR "has a rather pessimistic worst-case schedulability
//! bound … very low guaranteed utilisation", attributed to the simple
//! clocking strategy. Part A tabulates both analytic bounds across ring
//! sizes; Part B loads each protocol at three operating points — the
//! CC-FPR bound, half of CCR-EDF's `U_max`, and `0.95·U_max` — and measures
//! miss ratios: CC-FPR behaves at its (tiny) bound and degrades between the
//! bounds; CCR-EDF is clean all the way to `U_max`.

use super::{base_config, ring_sizes, ExpOptions, ExperimentResult};
use crate::runner::{run_with_mac, Workload};
use cc_fpr::{CcFprAnalysis, CcFprMac};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::arbitration::CcrEdfMac;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E12.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut ta = Table::new(
        "E12a — guaranteed utilisation bounds (L = 10 m, 2 KiB slots)",
        &[
            "n_nodes",
            "ccfpr_gap_ns",
            "ccr_gap_max_ns",
            "ccfpr_u_bound",
            "ccr_u_max",
            "advantage",
        ],
    );
    for &n in &ring_sizes(opts) {
        let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
        let fpr = CcFprAnalysis::new(&cfg);
        let edf = AnalyticModel::new(&cfg);
        ta.row(&[
            n.to_string(),
            fmt_f64(fpr.constant_gap().as_ns_f64(), 0),
            fmt_f64(cfg.timing().max_handover().as_ns_f64(), 0),
            fmt_f64(fpr.u_guaranteed(), 4),
            fmt_f64(edf.u_max(), 4),
            fmt_f64(fpr.ccr_edf_advantage(&edf), 1),
        ]);
    }

    // ---- Part B: measured behaviour at the bounds -------------------------
    let n = 16u16;
    let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
    let fpr_a = CcFprAnalysis::new(&cfg);
    let edf_a = AnalyticModel::new(&cfg);
    let seq = SeedSequence::new(opts.seed);
    let slots = opts.slots(150_000);
    let points: Vec<(&str, f64)> = vec![
        ("ccfpr bound", fpr_a.u_guaranteed()),
        ("0.5 u_max", 0.5 * edf_a.u_max()),
        ("0.95 u_max", 0.95 * edf_a.u_max()),
    ];
    let cfg_ref = &cfg;
    let rows = parallel_map(points.clone(), opts.threads, |&(label, u)| {
        let mut rng = seq
            .subsequence("e12", (u * 10_000.0) as u64)
            .stream("traffic", 0);
        let set = PeriodicSetBuilder::new(n, n as usize * 2, u, cfg_ref.slot_time())
            .periods(50, 2_000)
            .generate(&mut rng);
        let wl = Workload::raw(set);
        let edf = run_with_mac(cfg_ref.clone(), CcrEdfMac, &wl, slots);
        let fpr = run_with_mac(cfg_ref.clone(), CcFprMac, &wl, slots);
        (label, u, edf.rt_miss_ratio, fpr.rt_miss_ratio)
    });
    let mut tb = Table::new(
        "E12b — measured miss ratios at the analytic operating points (N = 16)",
        &[
            "operating point",
            "utilisation",
            "ccr-edf_miss",
            "cc-fpr_miss",
        ],
    );
    for (label, u, edf_miss, fpr_miss) in &rows {
        tb.row(&[
            label.to_string(),
            fmt_f64(*u, 4),
            fmt_pct(*edf_miss),
            fmt_pct(*fpr_miss),
        ]);
    }
    // Structural claims: CCR-EDF clean at 0.95 u_max; CC-FPR clean at its
    // own bound.
    let at = |l: &str| rows.iter().find(|r| r.0 == l).unwrap();
    assert!(at("0.95 u_max").2 < 0.001, "CCR-EDF missed below U_max");
    assert!(
        at("ccfpr bound").3 < 0.001,
        "CC-FPR missed at its own guaranteed bound"
    );

    let notes = vec![format!(
        "at N = 16 the CCR-EDF guarantee is {:.1}x CC-FPR's pessimistic bound \
         ({:.4} vs {:.4}) — the gap the paper attributes to the simple clocking strategy",
        fpr_a.ccr_edf_advantage(&edf_a),
        edf_a.u_max(),
        fpr_a.u_guaranteed()
    )];

    ExperimentResult {
        tables: vec![ta, tb],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bounds() {
        let r = run(&ExpOptions::quick(12));
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[1].n_rows(), 3);
    }
}
