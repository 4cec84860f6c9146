//! E17 — extension: multi-ring fabric with end-to-end EDF admission.
//!
//! The paper analyses one pipelined ring; `ccr-multiring` bridges several
//! of them into a fabric with end-to-end admission (per-hop deadline
//! decomposition + per-ring utilisation test). This experiment sweeps
//! fabric shape × offered connection count and measures what the composed
//! admission guarantee buys:
//!
//! 1. every *admitted* cross-ring connection meets its end-to-end
//!    deadline (the decomposed per-segment budgets compose);
//! 2. admission saturates gracefully — past the feasibility knee extra
//!    requests are refused, not degraded;
//! 3. bridges never drop and never hold more than one message: a bridge
//!    forwards each message in the slot it arrives, at any offered load.
//!
//! The run asserts 1 and 3.
//!
//! A slot-level JSON-lines trace of ring 0 (the busiest ingress) from the
//! largest fabric is written to `results/e17_ring0_trace.jsonl` (full runs
//! only) via [`crate::trace::TraceRecorder::to_jsonl`].

use super::{write_results, ExpOptions, ExperimentResult};
use crate::trace::TraceRecorder;
use ccr_multiring::prelude::*;
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;

/// One sweep point: fabric shape × offered connections.
struct Point {
    rings: u16,
    nodes: u16,
    offered: usize,
}

fn build_loaded_fabric(point: &Point, seq: &SeedSequence, rep: u64) -> (Fabric, usize, usize) {
    let topo = FabricTopology::chain(point.rings, point.nodes);
    let cfg = FabricConfig::uniform(topo, 2_048, seq.child_seed("fabric", rep)).unwrap();
    let mut fabric = Fabric::new(cfg).unwrap();
    let slot = fabric.segment_envs()[0].slot;
    let mut rng = seq.subsequence("traffic", rep).stream("conns", 0);
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..point.offered {
        // Cross-ring by construction: destination ring differs from source.
        let sr = rng.gen_range(0..point.rings);
        let mut dr = rng.gen_range(0..point.rings - 1);
        if dr >= sr {
            dr += 1;
        }
        let sn = rng.gen_range(0..point.nodes);
        let dn = rng.gen_range(0..point.nodes);
        let period = slot.times(rng.gen_range(150u64..1_200));
        let spec =
            FabricConnectionSpec::unicast(GlobalNodeId::new(sr, sn), GlobalNodeId::new(dr, dn))
                .period(period);
        match fabric.open_connection(spec) {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
    }
    (fabric, admitted, rejected)
}

/// Run E17.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let seq = SeedSequence::new(opts.seed).subsequence("e17", 0);
    let slots = opts.slots(40_000);
    let shapes: &[(u16, u16)] = if opts.quick {
        &[(2, 6), (3, 8)]
    } else {
        &[(2, 8), (3, 8), (4, 16)]
    };
    let loads: &[usize] = if opts.quick { &[6, 40] } else { &[8, 32, 128] };
    let points: Vec<Point> = shapes
        .iter()
        .flat_map(|&(rings, nodes)| {
            loads.iter().map(move |&offered| Point {
                rings,
                nodes,
                offered,
            })
        })
        .collect();

    let rows = parallel_map(points, opts.threads, |point| {
        let (mut fabric, admitted, rejected) = build_loaded_fabric(point, &seq, 0);
        fabric.run_slots(slots);
        let m = fabric.metrics();
        (
            point.rings,
            point.nodes,
            point.offered,
            admitted,
            rejected,
            m.e2e_delivered.get(),
            m.e2e_missed.get(),
            m.e2e_miss_ratio(),
            m.e2e_latency.quantile(0.50).unwrap_or(0) as f64 / 1e3,
            m.e2e_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
            m.forwarded.get(),
            m.bridge_drops.get(),
            m.peak_bridge_occupancy,
        )
    });

    let mut table = Table::new(
        "E17 — multi-ring fabric: e2e EDF admission over bridged CCR-EDF rings",
        &[
            "rings",
            "nodes",
            "offered",
            "admit",
            "reject",
            "e2e_deliv",
            "miss_ratio",
            "p50_us",
            "p99_us",
            "forwards",
            "drops",
            "peak_occ",
        ],
    );
    let mut notes = vec![];
    let mut total_missed = 0;
    for (
        rings,
        nodes,
        offered,
        admitted,
        rejected,
        delivered,
        missed,
        miss,
        p50,
        p99,
        fwd,
        drops,
        occ,
    ) in &rows
    {
        assert_eq!(
            admitted + rejected,
            *offered,
            "every request either admits or rejects"
        );
        assert_eq!(
            *drops, 0,
            "{rings}x{nodes}, {offered} offered: a bridge dropped"
        );
        assert!(
            *occ <= 1,
            "{rings}x{nodes}, {offered} offered: a bridge held {occ} messages"
        );
        total_missed += missed;
        table.row(&[
            rings.to_string(),
            nodes.to_string(),
            offered.to_string(),
            admitted.to_string(),
            rejected.to_string(),
            delivered.to_string(),
            fmt_f64(*miss, 4),
            fmt_f64(*p50, 1),
            fmt_f64(*p99, 1),
            fwd.to_string(),
            drops.to_string(),
            occ.to_string(),
        ]);
    }
    assert_eq!(total_missed, 0, "an admitted set missed an e2e deadline");
    notes.push(format!(
        "{total_missed} end-to-end deadline misses across every admitted set — the \
         composed per-segment guarantee held (per-ring admission + proportional \
         deadline decomposition)"
    ));
    notes.push(
        "no bridge dropped a message or held more than one: a bridge forwards each \
         message in the slot it arrives"
            .to_string(),
    );
    let knee = rows
        .iter()
        .filter(|r| r.4 > 0)
        .map(|r| r.3)
        .min()
        .unwrap_or(0);
    notes.push(format!(
        "admission saturates gracefully: once offered load passes the feasibility \
         knee (~{knee} connections on the smallest saturated shape) extra requests \
         are rejected up front, never admitted-then-missed"
    ));

    // Slot-level JSONL trace of ring 0 on the largest shape (observability
    // artefact; best-effort — a read-only checkout skips it silently).
    let &(rings, nodes) = shapes.last().unwrap();
    let trace_point = Point {
        rings,
        nodes,
        offered: *loads.last().unwrap(),
    };
    let (mut fabric, _, _) = build_loaded_fabric(&trace_point, &seq, 1);
    let mut recorder = TraceRecorder::new(512);
    for _ in 0..opts.slots(2_000).min(2_000) {
        fabric.step_slot();
        fabric.with_ring(RingId(0), |ring| recorder.observe(ring.last_outcome()));
    }
    let jsonl = recorder.to_jsonl();
    assert_eq!(jsonl.lines().count(), recorder.records().count());
    notes.push(format!(
        "ring 0 trace: {} slot records ({} bytes) on the {rings}x{nodes} fabric",
        recorder.records().count(),
        jsonl.len()
    ));
    write_results(opts, &[("e17_ring0_trace.jsonl", &jsonl)], &mut notes);

    ExperimentResult {
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_multiring() {
        let r = run(&ExpOptions::quick(17));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].n_rows(), 4); // 2 shapes × 2 loads
        assert!(r.notes.iter().any(|n| n.contains("deadline misses")));
    }

    #[test]
    fn high_offered_load_rejects_but_never_misses() {
        let seq = SeedSequence::new(99).subsequence("e17-test", 0);
        let point = Point {
            rings: 2,
            nodes: 6,
            offered: 200,
        };
        let (mut fabric, admitted, rejected) = build_loaded_fabric(&point, &seq, 0);
        assert!(rejected > 0, "200 offered connections must saturate");
        assert!(admitted > 0);
        fabric.run_slots(4_000);
        assert_eq!(fabric.metrics().e2e_miss_ratio(), 0.0);
    }
}
