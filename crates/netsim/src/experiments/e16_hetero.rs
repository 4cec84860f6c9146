//! E16 — extension: heterogeneous link lengths.
//!
//! Section 2 assumes "all links … of the same length", which makes
//! Equation 1 a single line `P·L·D`. Real installations differ; this
//! experiment gives every link a random length (log-uniform over one
//! order of magnitude around a 10 m mean) and measures:
//!
//! 1. the gap distribution vs two analytic models — Eq. 1 evaluated with
//!    the *average* length (the paper's natural approximation) and the
//!    segment-exact heterogeneous bound;
//! 2. whether the average-length `U_max` over- or under-promises, and that
//!    the hetero-aware bound keeps the guarantee.

use super::{base_config, ExpOptions, ExperimentResult};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::network::RingNetwork;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E16.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let seq = SeedSequence::new(opts.seed);
    let slots = opts.slots(100_000);
    let reps: Vec<u64> = (0..opts.reps(4)).collect();

    let rows = parallel_map(reps, opts.threads, |&rep| {
        let mut rng = seq.subsequence("e16", rep).stream("lengths", 0);
        // log-uniform lengths in [3, 30] m, mean ≈ 10 m
        let lengths: Vec<f64> = (0..n).map(|_| 3.0 * 10f64.powf(rng.gen_f64())).collect();
        let mean_len = lengths.iter().sum::<f64>() / n as f64;
        let hetero = base_config(n, 2_048)
            .link_lengths_m(lengths)
            .build_auto_slot()
            .unwrap();
        let homo_avg = base_config(n, hetero.slot_bytes)
            .link_length_m(mean_len)
            .build_auto_slot()
            .unwrap();

        let hetero_model = AnalyticModel::new(&hetero);
        let avg_model = AnalyticModel::new(&homo_avg);

        // drive at 0.8 of the hetero-aware (sound) u_max
        let mut trng = seq.subsequence("e16", rep).stream("traffic", 0);
        let set = PeriodicSetBuilder::new(
            n,
            n as usize * 2,
            0.8 * hetero_model.u_max(),
            hetero.slot_time(),
        )
        .periods(50, 2_000)
        .generate(&mut trng);
        let mut net = RingNetwork::new_ccr_edf(hetero.clone());
        for spec in set {
            let _ = net.open_connection(spec);
        }
        net.run_slots(slots);
        let m = net.metrics();
        (
            rep,
            mean_len,
            m.handover_gap.mean().unwrap_or(f64::NAN) / 1e3,
            m.handover_gap.max().map_or(f64::NAN, |v| v as f64 / 1e3),
            avg_model.max_handover().as_ns_f64(),
            hetero_model.max_handover().as_ns_f64(),
            avg_model.u_max(),
            hetero_model.u_max(),
            m.rt_deadline_misses.get(),
            m.rt_bound_violations.get(),
        )
    });

    let mut table = Table::new(
        "E16 — heterogeneous link lengths (log-uniform 3-30 m, N = 16, load 0.8·u_max)",
        &[
            "rep",
            "mean_len_m",
            "gap_mean_ns",
            "gap_max_ns",
            "eq1_avgL_max_ns",
            "hetero_max_ns",
            "u_max_avgL",
            "u_max_hetero",
            "misses",
        ],
    );
    let mut notes = vec![];
    let mut avg_underestimates = 0;
    for (rep, mean_len, gmean, gmax, avg_bound, het_bound, u_avg, u_het, misses, viol) in &rows {
        assert_eq!(*misses, 0, "hetero-admitted set missed (rep {rep})");
        assert_eq!(*viol, 0);
        assert!(
            *gmax <= het_bound + 1e-6,
            "gap exceeded the hetero bound (rep {rep})"
        );
        if gmax > avg_bound {
            avg_underestimates += 1;
        }
        table.row(&[
            rep.to_string(),
            fmt_f64(*mean_len, 1),
            fmt_f64(*gmean, 1),
            fmt_f64(*gmax, 1),
            fmt_f64(*avg_bound, 1),
            fmt_f64(*het_bound, 1),
            fmt_f64(*u_avg, 4),
            fmt_f64(*u_het, 4),
            misses.to_string(),
        ]);
    }
    notes.push(format!(
        "in {avg_underestimates}/{} repetitions the measured worst gap exceeded Eq. 1 \
         evaluated with the average length — the paper's equal-length assumption \
         under-promises there; the segment-exact hetero bound held every time",
        rows.len()
    ));
    notes.push(
        "admitted traffic at 0.8 of the hetero-aware u_max: zero misses on every ring".into(),
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
    fn quick_hetero() {
        let r = run(&ExpOptions::quick(16));
        assert_eq!(r.tables.len(), 1);
        assert!(r.tables[0].n_rows() >= 1);
    }
}
