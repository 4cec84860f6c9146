//! E7 — spatial reuse: aggregate throughput above the single-link rate.
//!
//! Section 2: "Several transmissions can be performed simultaneously
//! through spatial bandwidth reuse, thus achieving an aggregated throughput
//! higher than the single-link bit rate." We saturate the ring with
//! non-real-time traffic of varying locality and measure the reuse factor
//! (mean simultaneous transmissions per slot) and aggregate goodput, with
//! and without reuse enabled.

use super::{base_config, ExpOptions, ExperimentResult};
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, SimTime};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;

/// Run E7.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let slots = opts.slots(20_000);
    let seq = SeedSequence::new(opts.seed);
    let localities: Vec<(&str, u16)> = vec![
        ("1 hop", 1),
        ("2 hops", 2),
        ("4 hops", 4),
        ("8 hops", 8),
        ("uniform", n - 1),
    ];

    let cases: Vec<(usize, bool)> = (0..localities.len())
        .flat_map(|i| [(i, true), (i, false)])
        .collect();
    let localities_ref = &localities;
    let rows = parallel_map(cases, opts.threads, |&(i, reuse)| {
        let (label, max_hops) = localities_ref[i];
        let cfg = base_config(n, 2_048)
            .spatial_reuse(reuse)
            .build_auto_slot()
            .unwrap();
        let mut rng = seq
            .subsequence("e7", i as u64)
            .stream("traffic", reuse as u64);
        let mut net = RingNetwork::new_ccr_edf(cfg);
        // Saturate: every node keeps a backlog of one NRT message per slot
        // of the horizon, so the queues never run dry.
        for src in 0..n {
            for _ in 0..slots {
                let hops = rng.gen_range(1..=max_hops);
                let dst = NodeId((src + hops) % n);
                net.submit_message(
                    SimTime::ZERO,
                    Message::non_real_time(
                        NodeId(src),
                        Destination::Unicast(dst),
                        1,
                        SimTime::ZERO,
                    ),
                );
            }
        }
        net.run_slots(slots);
        let m = net.metrics();
        let single_link_gbps = net.config().phys.data_bandwidth_bps() / 1e9;
        (
            label,
            reuse,
            m.reuse_factor(),
            m.goodput_bps() / 1e9,
            single_link_gbps,
            m.busy_fraction(),
        )
    });

    let mut table = Table::new(
        "E7 — spatial reuse under saturation (N = 16): reuse factor and goodput",
        &[
            "locality",
            "reuse",
            "grants_per_slot",
            "goodput_gbps",
            "single_link_gbps",
            "speedup_vs_no_reuse",
        ],
    );
    let mut notes = vec![];
    for (label, _) in localities.iter() {
        let with = rows
            .iter()
            .find(|r| r.0 == *label && r.1)
            .expect("with-reuse row");
        let without = rows
            .iter()
            .find(|r| r.0 == *label && !r.1)
            .expect("no-reuse row");
        for r in [with, without] {
            table.row(&[
                r.0.to_string(),
                r.1.to_string(),
                fmt_f64(r.2, 2),
                fmt_f64(r.3, 2),
                fmt_f64(r.4, 2),
                fmt_f64(r.3 / without.3, 2),
            ]);
        }
    }
    // Structural claims: local traffic with reuse beats the single-link
    // rate; uniform traffic gains less; reuse ≥ no-reuse everywhere.
    let local_with = rows.iter().find(|r| r.0 == "1 hop" && r.1).unwrap();
    assert!(
        local_with.3 > local_with.4,
        "1-hop reuse should beat the single-link rate: {} vs {}",
        local_with.3,
        local_with.4
    );
    notes.push(format!(
        "1-hop locality with reuse: {:.1} grants/slot, {:.1}x the single-link rate",
        local_with.2,
        local_with.3 / local_with.4
    ));

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reuse_beats_single_link_for_local_traffic() {
        let r = run(&ExpOptions::quick(77));
        assert_eq!(r.tables.len(), 1);
        assert!(r.tables[0].n_rows() >= 6);
    }
}
