//! E13 — ablation: the arbitration tie-break rule and fairness.
//!
//! Section 3 fixes the tie-break by fiat: "In the event priority ties the
//! index (known by the master) of the node resolves the tie." With the
//! paper's coarse 15-level priority bands, ties are *common*, and a fixed
//! index rule systematically favours low-numbered nodes. This experiment
//! drives every node with an identical periodic load (maximal tie
//! collisions) and compares per-node latency under the paper's rule vs a
//! rotating tie-break (distance from the current master), reporting an
//! unfairness index (worst node mean / best node mean).

use super::{base_config, ExpOptions, ExperimentResult};
use crate::runner::{expand_periodic, RAW_CONN_BASE};
use ccr_edf::arbitration::{CcrEdfMac, CcrEdfRotatingMac};
use ccr_edf::connection::{ConnectionId, ConnectionSpec};
use ccr_edf::mac::MacProtocol;
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, TimeDelta};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};

/// Build the symmetric all-nodes workload: every node sends a 1-slot
/// message to the node `n/2` hops away with the same period and phase, so
/// every slot's arbitration sees N equal-priority requests.
fn symmetric_specs(n: u16, period: TimeDelta) -> Vec<ConnectionSpec> {
    (0..n)
        .map(|i| {
            ConnectionSpec::unicast(NodeId(i), NodeId((i + n / 2) % n))
                .period(period)
                .size_slots(1)
        })
        .collect()
}

fn run_mac<P: MacProtocol>(mac: P, n: u16, slots: u64) -> (Vec<f64>, f64) {
    let cfg = base_config(n, 2_048).build_auto_slot().unwrap();
    let slot = cfg.slot_time();
    // period: N+4 slots → offered utilisation ≈ N/(N+4) of the slot supply
    // on fully overlapping paths, i.e. sustained contention with ties.
    let period = TimeDelta::from_ps(slot.as_ps() * (n as u64 + 4));
    let horizon = slot * slots;
    let mut net = RingNetwork::with_mac(cfg, mac);
    for (i, spec) in symmetric_specs(n, period).iter().enumerate() {
        for (at, msg) in expand_periodic(spec, i as u64, horizon) {
            net.submit_message(at, msg);
        }
    }
    net.run_slots(slots);
    let m = net.metrics();
    let mut per_node = Vec::with_capacity(n as usize);
    for i in 0..n as u64 {
        let cs = m
            .per_conn
            .get(&ConnectionId(RAW_CONN_BASE + i))
            .expect("every node delivered");
        per_node.push(cs.latency.mean().unwrap_or(f64::NAN) / 1e6);
    }
    (per_node, m.rt_miss_ratio())
}

/// Run E13.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let n = 16u16;
    let slots = opts.slots(100_000);

    let results = parallel_map(vec![0u8, 1], opts.threads, |&which| match which {
        0 => run_mac(CcrEdfMac, n, slots),
        _ => run_mac(CcrEdfRotatingMac, n, slots),
    });
    let (index_lat, index_miss) = &results[0];
    let (rot_lat, rot_miss) = &results[1];

    let mut ta = Table::new(
        "E13a — per-node mean latency (µs) under symmetric tie-heavy load (N = 16)",
        &["node", "index_tiebreak_us", "rotating_tiebreak_us"],
    );
    for i in 0..n as usize {
        ta.row(&[
            i.to_string(),
            fmt_f64(index_lat[i], 2),
            fmt_f64(rot_lat[i], 2),
        ]);
    }

    let spread = |v: &[f64]| {
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    };
    let mut tb = Table::new(
        "E13b — unfairness index (worst node mean / best node mean)",
        &["tie_break", "unfairness", "rt_miss_ratio"],
    );
    tb.row(&[
        "index (paper)".into(),
        fmt_f64(spread(index_lat), 2),
        fmt_f64(*index_miss, 4),
    ]);
    tb.row(&[
        "rotating".into(),
        fmt_f64(spread(rot_lat), 2),
        fmt_f64(*rot_miss, 4),
    ]);

    let notes = vec![format!(
        "index tie-break unfairness {:.2} vs rotating {:.2} — the fixed rule \
         favours low-numbered nodes under tie-heavy symmetric load",
        spread(index_lat),
        spread(rot_lat)
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
    fn quick_fairness() {
        let r = run(&ExpOptions::quick(13));
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].n_rows(), 16);
    }
}
