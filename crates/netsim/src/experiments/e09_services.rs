//! E9 — the parallel-processing services: barrier synchronisation, global
//! reduction, short messages, and reliable transmission under injected
//! packet loss.
//!
//! The paper (Sections 1, 7; refs \[8], \[11]) offers these services as
//! intrinsic network features carried by the control channel; their cost is
//! therefore bounded by slots, not by data-channel load. The tables report
//! latency vs ring size and the retransmission behaviour of the reliable
//! service as loss rises.

use super::{base_config, ring_sizes, ExpOptions, ExperimentResult};
use ccr_edf::config::FaultConfig;
use ccr_edf::message::{Destination, Message};
use ccr_edf::network::RingNetwork;
use ccr_edf::services::ReduceOp;
use ccr_edf::wire::ServiceWireConfig;
use ccr_edf::{NodeId, SimTime};
use ccr_sim::parallel::parallel_map;
use ccr_sim::report::{fmt_f64, Table};
use ccr_sim::SeedSequence;

/// Run E9.
pub fn run(opts: &ExpOptions) -> ExperimentResult {
    let mut notes = vec![];

    // ---- barrier / reduction / short-message latency vs N ----------------
    let mut ta = Table::new(
        "E9a — control-channel service latency vs ring size (slots of the local config)",
        &[
            "n_nodes",
            "barriers",
            "barrier_mean_slots",
            "reductions",
            "reduce_ok",
            "short_msgs",
            "short_mean_slots",
        ],
    );
    let reps = if opts.quick { 40 } else { 200 };
    for &n in &ring_sizes(opts) {
        // the bit-level wire check is O(packet bits) per slot; keep it on
        // for small rings only.
        let cfg = base_config(n, 1)
            .services(ServiceWireConfig::ALL)
            .wire_check(n <= 16)
            .build_auto_slot()
            .unwrap();
        let slot_ps = cfg.slot_time().as_ps() as f64;
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.set_reduce_op(ReduceOp::Sum);
        let mut reduce_ok = true;
        for r in 0..reps {
            // staggered barrier entry: one node per slot; the completing
            // slot may be the one right after the last entry
            let mut done = false;
            for i in 0..n {
                net.barrier_enter(NodeId(i));
                done |= net.step_slot().barrier_completed;
            }
            for _ in 0..4 {
                if done {
                    break;
                }
                done = net.step_slot().barrier_completed;
            }
            assert!(done, "barrier stalled at N={n}");

            // global reduction of known values
            for i in 0..n {
                net.reduce_submit(NodeId(i), i as u32 + 1);
            }
            let mut result = None;
            for _ in 0..4 {
                if let Some(v) = net.step_slot().reduce_result {
                    result = Some(v);
                    break;
                }
            }
            let expect: u32 = (1..=n as u32).sum();
            reduce_ok &= result == Some(expect);

            // one short message per round
            let src = NodeId((r % n as u64) as u16);
            let dst = NodeId(((r + 1) % n as u64) as u16);
            if src != dst {
                net.short_send(src, dst, (r & 0xFFFF) as u16);
                net.step_slot();
            }
        }
        let m = net.metrics();
        assert!(reduce_ok, "reduction produced a wrong sum at N={n}");
        ta.row(&[
            n.to_string(),
            m.barriers_completed.get().to_string(),
            fmt_f64(m.barrier_latency.mean().unwrap_or(f64::NAN) / slot_ps, 2),
            m.reductions_completed.get().to_string(),
            reduce_ok.to_string(),
            m.short_delivered.get().to_string(),
            fmt_f64(m.short_latency.mean().unwrap_or(f64::NAN) / slot_ps, 2),
        ]);
    }
    notes.push("barrier and reduction complete within ~1 slot of the last contribution".into());

    // ---- reliable transmission under loss --------------------------------
    let mut tb = Table::new(
        "E9b — reliable transmission under data-packet loss (N = 8, 200 messages x 4 slots)",
        &[
            "loss_prob",
            "delivered",
            "retransmissions",
            "packets_lost",
            "mean_latency_slots",
            "slots_used",
        ],
    );
    let seq = SeedSequence::new(opts.seed);
    let losses = [0.0, 0.01, 0.05, 0.10, 0.20];
    let rows = parallel_map(losses.to_vec(), opts.threads, |&loss| {
        let cfg = base_config(8, 1)
            .services(ServiceWireConfig {
                reliable: true,
                ..Default::default()
            })
            .faults(FaultConfig {
                data_loss_prob: loss,
                ..Default::default()
            })
            .seed(seq.child_seed("e9b", (loss * 1000.0) as u64))
            .build_auto_slot()
            .unwrap();
        let slot_ps = cfg.slot_time().as_ps() as f64;
        let n_msgs = 200u64;
        let mut net = RingNetwork::new_ccr_edf(cfg);
        for i in 0..n_msgs {
            let src = NodeId((i % 8) as u16);
            let dst = NodeId(((i + 3) % 8) as u16);
            net.submit_message(
                SimTime::ZERO,
                Message::non_real_time(src, Destination::Unicast(dst), 4, SimTime::ZERO)
                    .with_reliable(),
            );
        }
        let mut slots_used = 0u64;
        // stop-and-wait costs ~2 slots per packet; give generous headroom
        // that grows with the loss rate.
        let budget = (n_msgs * 4 * 8 * 4) + (loss * 200_000.0) as u64;
        while net.metrics().delivered.get() < n_msgs && slots_used < budget {
            net.step_slot();
            slots_used += 1;
        }
        let m = net.metrics();
        (
            loss,
            m.delivered.get(),
            m.retransmissions.get(),
            m.data_lost.get(),
            m.latency_nrt.mean().unwrap_or(f64::NAN) / slot_ps,
            slots_used,
        )
    });
    for (loss, delivered, retx, lost, lat, used) in rows {
        assert_eq!(
            delivered, 200,
            "reliable service failed to deliver everything at loss {loss}"
        );
        if loss == 0.0 {
            assert_eq!(retx, 0, "spurious retransmissions without loss");
        } else {
            assert!(retx > 0, "loss {loss} but no retransmissions");
        }
        tb.row(&[
            fmt_f64(loss, 2),
            delivered.to_string(),
            retx.to_string(),
            lost.to_string(),
            fmt_f64(lat, 1),
            used.to_string(),
        ]);
    }
    notes.push("all reliable messages delivered at every loss rate".into());

    ExperimentResult {
        tables: vec![ta, tb],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_services() {
        let r = run(&ExpOptions::quick(9));
        assert_eq!(r.tables.len(), 2);
        assert!(r.tables[1].n_rows() == 5);
    }
}
