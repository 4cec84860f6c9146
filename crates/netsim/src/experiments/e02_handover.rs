//! E2 — Equation 1 / Figures 6–7: clock hand-over time.
//!
//! Part A forces a hand-over of every possible hop distance `D` and checks
//! the measured gap against `P·L·D`. Part B runs random traffic and reports
//! the gap distribution: the mean is well below the worst case (the paper's
//! point that `U_max` is conservative), and the max never exceeds
//! `P·L·(N−1)`.

use super::{base_config, ring_sizes, ExpOptions, ExperimentResult};
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, SimTime};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E2.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut tables = vec![];
    let mut notes = vec![];

    // ---- Part A: forced hand-over of distance D -------------------------
    let mut ta = Table::new(
        "E2a — hand-over time vs hop distance (Equation 1, L = 10 m)",
        &["n_nodes", "hops_D", "analytic_ns", "measured_ns", "ok"],
    );
    for &n in &ring_sizes(opts) {
        let cfg = base_config(n, 4096).build_auto_slot().unwrap();
        for d in 1..n {
            // Master starts at node 0; a single message from node d forces
            // the first hand-over to cover exactly d hops.
            let mut net = RingNetwork::new_ccr_edf(cfg.clone());
            net.submit_message(
                SimTime::ZERO,
                Message::non_real_time(
                    NodeId(d),
                    Destination::Unicast(NodeId((d + 1) % n)),
                    1,
                    SimTime::ZERO,
                ),
            );
            let analytic = cfg.timing().handover_time(d);
            let out = net.step_slot();
            assert_eq!(out.handover_hops, d);
            let measured = out.gap;
            if d == 1 || d == n - 1 || d == n / 2 {
                ta.row(&[
                    n.to_string(),
                    d.to_string(),
                    fmt_f64(analytic.as_ns_f64(), 1),
                    fmt_f64(measured.as_ns_f64(), 1),
                    (measured == analytic).to_string(),
                ]);
            }
            assert_eq!(measured, analytic, "Eq. 1 violated at N={n}, D={d}");
        }
    }
    notes.push("every forced distance 1..N-1 matched P·L·D exactly".into());

    // ---- Part B: gap distribution under random load ---------------------
    let mut tb = Table::new(
        "E2b — hand-over gap distribution under random periodic load (u = 0.5)",
        &[
            "n_nodes",
            "link_m",
            "gap_mean_ns",
            "gap_p99_ns",
            "gap_max_ns",
            "analytic_max_ns",
            "master_moves",
        ],
    );
    let seq = SeedSequence::new(opts.seed);
    let cases: Vec<(u16, f64)> = ring_sizes(opts)
        .into_iter()
        .flat_map(|n| [(n, 10.0), (n, 100.0)])
        .collect();
    let slots = opts.slots(100_000);
    let rows = parallel_map(cases, opts.threads, |&(n, link_m)| {
        let cfg = base_config(n, 4096)
            .link_length_m(link_m)
            .build_auto_slot()
            .unwrap();
        let mut rng = seq
            .subsequence("e2b", n as u64)
            .stream("traffic", link_m as u64);
        let set =
            PeriodicSetBuilder::new(n, (n as usize) * 2, 0.5, cfg.slot_time()).generate(&mut rng);
        let analytic_max = cfg.timing().max_handover();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        for spec in set {
            let _ = net.open_connection(spec);
        }
        net.run_slots(slots);
        let m = net.metrics();
        (
            n,
            link_m,
            m.handover_gap.mean().unwrap_or(f64::NAN) / 1e3,
            m.handover_gap
                .quantile(0.99)
                .map_or(f64::NAN, |v| v as f64 / 1e3),
            m.handover_gap.max().map_or(f64::NAN, |v| v as f64 / 1e3),
            analytic_max.as_ns_f64(),
            m.master_changes.get(),
        )
    });
    for (n, link_m, mean, p99, max, amax, moves) in rows {
        assert!(
            max <= amax + 1e-9,
            "measured gap exceeded Eq. 1 worst case: {max} > {amax}"
        );
        tb.row(&[
            n.to_string(),
            fmt_f64(link_m, 0),
            fmt_f64(mean, 1),
            fmt_f64(p99, 1),
            fmt_f64(max, 1),
            fmt_f64(amax, 1),
            moves.to_string(),
        ]);
    }
    notes.push("measured gaps never exceed the Eq. 1 worst case".into());
    tables.push(ta);
    tables.push(tb);

    ExperimentResult { tables, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_equation1() {
        let r = run(&ExpOptions::quick(42));
        assert_eq!(r.tables.len(), 2);
        // every Part A row reports ok = true
        let csv = r.tables[0].to_csv();
        assert!(!csv.contains("false"));
        assert!(r.tables[1].n_rows() > 0);
    }
}
