//! E4 — Equations 5–6: the `U_max` bound and the admission boundary.
//!
//! Part A tabulates `U_max = t_slot / (t_slot + t_handover_max)` across
//! ring size, slot length and link length. Part B fills the admission
//! controller with many small connections and verifies the accepted
//! utilisation converges on `U_max` from below. Part C runs an admitted
//! full-load set and confirms zero misses while the *measured* slot-time
//! fraction stays above `U_max` (gaps are usually shorter than worst case).

use super::{base_config, ring_sizes, ExpOptions, ExperimentResult};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::connection::ConnectionSpec;
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, TimeDelta};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PeriodicSetBuilder;

/// Run E4.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut notes = vec![];

    // ---- Part A: the bound itself ----------------------------------------
    let mut ta = Table::new(
        "E4a — U_max (Equation 6) across N, slot length and link length",
        &[
            "n_nodes",
            "slot_bytes",
            "link_m",
            "t_slot_us",
            "h_max_us",
            "u_max",
        ],
    );
    for &n in &ring_sizes(opts) {
        for slot_bytes in [512u32, 2_048, 8_192] {
            for link_m in [5.0, 50.0] {
                let Ok(cfg) = base_config(n, slot_bytes).link_length_m(link_m).build() else {
                    continue; // infeasible (slot below Eq. 2 minimum)
                };
                let a = AnalyticModel::new(&cfg);
                ta.row(&[
                    n.to_string(),
                    slot_bytes.to_string(),
                    fmt_f64(link_m, 0),
                    fmt_f64(cfg.slot_time().as_us_f64(), 3),
                    fmt_f64(cfg.timing().max_handover().as_us_f64(), 3),
                    fmt_f64(a.u_max(), 4),
                ]);
            }
        }
    }

    // ---- Part B: admission boundary ---------------------------------------
    let mut tb = Table::new(
        "E4b — admission fills exactly to U_max (Equation 5 test)",
        &[
            "n_nodes",
            "u_max",
            "admitted_u",
            "admitted_conns",
            "first_reject_at_u",
        ],
    );
    for &n in &ring_sizes(opts) {
        let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
        let a = AnalyticModel::new(&cfg);
        let slot = cfg.slot_time();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        // many identical small connections, each u = u_max/40
        let u_step = a.u_max() / 40.0;
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_ps(
                (slot.as_ps() as f64 / u_step).round() as u64
            ))
            .size_slots(1);
        let mut admitted = 0u32;
        let mut reject_at = f64::NAN;
        for _ in 0..60 {
            match net.open_connection(spec.clone()) {
                Ok(_) => admitted += 1,
                Err(_) => {
                    reject_at = net.admission().admitted_utilisation() + u_step;
                    break;
                }
            }
        }
        let admitted_u = net.admission().admitted_utilisation();
        assert!(admitted_u <= a.u_max() + 1e-9);
        assert!(
            a.u_max() - admitted_u < u_step + 1e-9,
            "admission left more than one step of headroom"
        );
        tb.row(&[
            n.to_string(),
            fmt_f64(a.u_max(), 4),
            fmt_f64(admitted_u, 4),
            admitted.to_string(),
            fmt_f64(reject_at, 4),
        ]);
    }
    notes.push("admitted utilisation converges on U_max from below".into());

    // ---- Part C: admitted full load never misses ---------------------------
    let mut tc = Table::new(
        "E4c — admitted sets at ~0.95·U_max: misses and measured slot-time fraction",
        &[
            "n_nodes",
            "target_u",
            "admitted_u",
            "delivered_rt",
            "misses",
            "slot_time_frac",
            "u_max",
        ],
    );
    let seq = SeedSequence::new(opts.seed);
    let slots = opts.slots(150_000);
    let rows = parallel_map(ring_sizes(opts), opts.threads, |&n| {
        let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
        let a = AnalyticModel::new(&cfg);
        let target = 0.95 * a.u_max();
        let mut rng = seq.subsequence("e4c", n as u64).stream("traffic", 0);
        let set = PeriodicSetBuilder::new(n, (n as usize) * 3, target, cfg.slot_time())
            .periods(50, 4_000)
            .generate(&mut rng);
        let slot = cfg.slot_time();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        for spec in set {
            let _ = net.open_connection(spec);
        }
        let admitted_u = net.admission().admitted_utilisation();
        net.run_slots(slots);
        let m = net.metrics();
        (
            n,
            target,
            admitted_u,
            m.delivered_rt.get(),
            m.rt_deadline_misses.get(),
            m.slot_time_fraction(slot),
            a.u_max(),
        )
    });
    for (n, target, admitted_u, delivered, misses, frac, umax) in rows {
        assert_eq!(misses, 0, "admitted set missed deadlines at N={n}");
        tc.row(&[
            n.to_string(),
            fmt_f64(target, 4),
            fmt_f64(admitted_u, 4),
            delivered.to_string(),
            misses.to_string(),
            fmt_f64(frac, 4),
            fmt_f64(umax, 4),
        ]);
    }
    notes.push("admitted traffic at ~0.95·U_max: zero deadline misses".into());

    ExperimentResult {
        tables: vec![ta, tb, tc],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run() {
        let r = run(&ExpOptions::quick(4));
        assert_eq!(r.tables.len(), 3);
        assert!(r.tables[2].n_rows() >= 3);
    }
}
