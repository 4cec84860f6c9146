//! E10 — the slot-length trade-off claimed in Section 1: "With less header
//! overhead in the data-packets the slot-length can be shortened, to reduce
//! latency, without sacrificing too much in bandwidth utilization."
//!
//! Sweeps the slot payload from the Equation 2 minimum up to 16 KiB at a
//! fixed *byte* workload and reports latency percentiles, `U_max`, and the
//! fraction of each slot the workload's packets actually fill.

use super::{base_config, ExpOptions, ExperimentResult};
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::network::RingNetwork;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;
use ccr_traffic::PoissonGen;

/// Run E10.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let probe = base_config(n, 1).build_auto_slot().unwrap();
    let min_bytes = probe.min_feasible_slot_bytes();
    let mut sizes: Vec<u32> = vec![min_bytes];
    let mut b = 1024u32;
    while b <= 16_384 {
        if b > min_bytes {
            sizes.push(b);
        }
        b *= 2;
    }
    let seq = SeedSequence::new(opts.seed);
    let sim_ms = if opts.quick { 20u64 } else { 200 };

    let rows = parallel_map(sizes.clone(), opts.threads, |&slot_bytes| {
        let cfg = base_config(n, slot_bytes).build_auto_slot().unwrap();
        let model = AnalyticModel::new(&cfg);
        let slot = cfg.slot_time();
        // Fixed byte-rate workload: ~40 MB/s of best-effort messages,
        // independent of slot size (message size in slots adapts).
        let msg_bytes = 8_192u32;
        let msgs_per_s = 5_000.0;
        let size_slots = msg_bytes.div_ceil(slot_bytes).max(1);
        let mut rng = seq.subsequence("e10", slot_bytes as u64).stream("t", 0);
        let mut gen = PoissonGen::best_effort(n, msgs_per_s);
        gen.size_slots = (size_slots, size_slots);
        gen.deadline = (
            ccr_sim::TimeDelta::from_ms(5),
            ccr_sim::TimeDelta::from_ms(10),
        );
        let arrivals = gen.schedule(
            &mut rng,
            ccr_sim::SimTime::ZERO,
            ccr_sim::TimeDelta::from_ms(sim_ms),
        );
        let mut net = RingNetwork::new_ccr_edf(cfg);
        let count = arrivals.len();
        for (at, msg) in arrivals {
            net.submit_message(at, msg);
        }
        net.run_until(ccr_sim::SimTime::from_ms(sim_ms + 5));
        let m = net.metrics();
        (
            slot_bytes,
            size_slots,
            model.u_max(),
            m.latency_be.mean().unwrap_or(f64::NAN) / 1e6,
            m.latency_be
                .quantile(0.99)
                .map_or(f64::NAN, |v| v as f64 / 1e6),
            slot.as_us_f64(),
            m.delivered.get(),
            count as u64,
        )
    });

    let mut table = Table::new(
        "E10 — slot-length trade-off (N = 16, fixed 40 MB/s byte load, 8 KiB messages)",
        &[
            "slot_bytes",
            "msg_slots",
            "t_slot_us",
            "u_max",
            "lat_mean_us",
            "lat_p99_us",
            "delivered",
            "offered",
        ],
    );
    for (slot_bytes, size_slots, umax, mean, p99, t_us, delivered, offered) in &rows {
        table.row(&[
            slot_bytes.to_string(),
            size_slots.to_string(),
            fmt_f64(*t_us, 2),
            fmt_f64(*umax, 4),
            fmt_f64(*mean, 1),
            fmt_f64(*p99, 1),
            delivered.to_string(),
            offered.to_string(),
        ]);
    }

    // Structural claim: U_max rises monotonically with slot length (the
    // bandwidth side), while the largest slot has worse mean latency than
    // some shorter one (the latency side of the trade-off).
    let umaxes: Vec<f64> = rows.iter().map(|r| r.2).collect();
    assert!(
        umaxes.windows(2).all(|w| w[0] <= w[1] + 1e-12),
        "u_max should rise with slot length"
    );
    let notes = vec![
        "longer slots buy guaranteed utilisation (Eq. 6) but quantise \
         transmissions more coarsely — the paper's latency/utilisation trade-off"
            .into(),
    ];

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_slot_sweep() {
        let r = run(&ExpOptions::quick(10));
        assert_eq!(r.tables.len(), 1);
        assert!(r.tables[0].n_rows() >= 3);
    }
}
