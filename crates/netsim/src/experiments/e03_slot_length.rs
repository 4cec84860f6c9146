//! E3 — Equation 2: minimum slot length `N·t_node + t_prop`.
//!
//! Reports the control-phase budget per ring size and service mix, checks
//! the feasibility frontier (a slot one byte below the minimum must be
//! rejected, the minimum itself accepted), and measures the control-channel
//! overhead of a running network.

use super::{base_config, ring_sizes, ExpOptions, ExperimentResult};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::config::ConfigError;
use ccr_edf::network::RingNetwork;
use ccr_edf::wire::ServiceWireConfig;
use ccr_sim::report::{fmt_f64, fmt_pct, Table};

/// Run E3.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut notes = vec![];

    let mut ta = Table::new(
        "E3a — Equation 2 budget (L = 10 m): t_node, collection, distribution, minimum slot",
        &[
            "n_nodes",
            "services",
            "t_node_ns",
            "collect_us",
            "distrib_us",
            "min_slot_us",
            "min_slot_bytes",
        ],
    );
    for &n in &ring_sizes(opts) {
        for (label, svc) in [
            ("none", ServiceWireConfig::default()),
            ("all", ServiceWireConfig::ALL),
        ] {
            let cfg = base_config(n, 1).services(svc).build_auto_slot().unwrap();
            let model = AnalyticModel::new(&cfg);
            ta.row(&[
                n.to_string(),
                label.to_string(),
                fmt_f64(cfg.t_node().as_ns_f64(), 1),
                fmt_f64(model.collection_time().as_us_f64(), 3),
                fmt_f64(model.distribution_time().as_us_f64(), 3),
                fmt_f64(model.control_phases_time().as_us_f64(), 3),
                model.min_slot_bytes().to_string(),
            ]);
        }
    }

    // ---- feasibility frontier -------------------------------------------
    let mut tb = Table::new(
        "E3b — feasibility frontier: one byte below the minimum is rejected",
        &["n_nodes", "min_bytes", "below_rejected", "at_accepted"],
    );
    for &n in &ring_sizes(opts) {
        let probe = base_config(n, 1).build_auto_slot().unwrap();
        let need = AnalyticModel::new(&probe).min_slot_bytes();
        let below = base_config(n, need - 1).build();
        let at = base_config(n, need).build();
        let below_rejected = matches!(below, Err(ConfigError::SlotTooShort { .. }));
        let at_accepted = at.is_ok();
        assert!(below_rejected && at_accepted, "frontier broken at N={n}");
        tb.row(&[
            n.to_string(),
            need.to_string(),
            below_rejected.to_string(),
            at_accepted.to_string(),
        ]);
    }
    notes.push("Equation 2 frontier verified for every swept N".into());

    // ---- control overhead of a running network ---------------------------
    let mut tc = Table::new(
        "E3c — control-channel usage per slot (measured from runs)",
        &[
            "n_nodes",
            "slot_bytes",
            "control_bits_per_slot",
            "control_vs_data",
        ],
    );
    let slots = opts.slots(20_000);
    for &n in &ring_sizes(opts) {
        let cfg = base_config(n, 4096).build_auto_slot().unwrap();
        let slot_bytes = cfg.slot_bytes;
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.run_slots(slots);
        let m = net.metrics();
        let per_slot = m.control_bits.get() as f64 / m.slots.get() as f64;
        // Control channel is 1 fibre of 8+... compare bit counts directly:
        // data channel moves slot_bytes*8 bits per slot.
        let ratio = per_slot / (slot_bytes as f64 * 8.0);
        tc.row(&[
            n.to_string(),
            slot_bytes.to_string(),
            fmt_f64(per_slot, 0),
            fmt_pct(ratio),
        ]);
    }
    notes.push(
        "control overhead stays a small fraction of the data channel — the \
         paper's 'control and data are overlapped in time' benefit"
            .into(),
    );

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
        let r = run(&ExpOptions::quick(7));
        assert_eq!(r.tables.len(), 3);
        assert!(!r.tables[1].to_csv().contains("false"));
    }
}
