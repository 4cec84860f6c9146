//! Quickstart: build an 8-node CCR-EDF ring, admit one guaranteed
//! connection, mix in best-effort traffic, and read the metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use ccr_edf_suite::edf::message::{Destination, Message};
use ccr_edf_suite::prelude::*;

fn main() {
    // 1. Configure the ring: 8 nodes, 10 m fibre-ribbon links, 2 KiB slots.
    //    `build_auto_slot` enlarges the slot if Equation 2 needs more room.
    let cfg = NetworkConfig::builder(8)
        .slot_bytes(2048)
        .link_length_m(10.0)
        .build_auto_slot()
        .expect("valid configuration");

    println!("ring            : {} nodes", cfg.n_nodes);
    println!(
        "slot            : {} B = {}",
        cfg.slot_bytes,
        cfg.slot_time()
    );
    let analytic = AnalyticModel::new(&cfg);
    println!("collection phase: {}", analytic.collection_time());

    let mut net = RingNetwork::new_ccr_edf(cfg);
    println!("U_max (Eq. 6)   : {:.4}", analytic.u_max());
    println!("t_latency (Eq.4): {}", analytic.worst_latency());

    // 2. Open a guaranteed logical real-time connection: one slot-sized
    //    message from node 1 to node 5 every 100 µs (admission-controlled).
    let spec = ConnectionSpec::unicast(NodeId(1), NodeId(5))
        .period(TimeDelta::from_us(100))
        .size_slots(1);
    let conn = net.open_connection(spec).expect("admitted");
    println!(
        "admitted conn {:?}: utilisation now {:.4}",
        conn,
        net.admission().admitted_utilisation()
    );

    // 3. Sprinkle some best-effort messages on top.
    for k in 0..50u64 {
        let at = SimTime::from_us(k * 37);
        net.submit_message(
            at,
            Message::best_effort(
                NodeId((k % 8) as u16),
                Destination::Unicast(NodeId(((k + 3) % 8) as u16)),
                1,
                at,
                at + TimeDelta::from_ms(1),
            ),
        );
    }

    // 4. Run 100k slots (~0.5 ms of network time per 200 slots here).
    net.run_slots(100_000);

    // 5. Inspect the outcome.
    let m = net.metrics();
    println!("\n--- after {} slots ({}) ---", m.slots.get(), net.now());
    println!(
        "delivered        : {} (RT {}, BE {})",
        m.delivered.get(),
        m.delivered_rt.get(),
        m.delivered_be.get()
    );
    println!("RT misses        : {}", m.rt_deadline_misses.get());
    println!(
        "RT bound violations (Eq. 3): {}",
        m.rt_bound_violations.get()
    );
    println!(
        "RT latency       : mean {:.2} µs, max {:.2} µs",
        m.latency_rt.mean().unwrap_or(0.0) / 1e6,
        m.latency_rt.max().unwrap_or(0) as f64 / 1e6
    );
    println!(
        "hand-over gap    : mean {:.1} ns (worst case {:.1} ns)",
        m.handover_gap.mean().unwrap_or(0.0) / 1e3,
        analytic.max_handover().as_ns_f64()
    );

    assert_eq!(
        m.rt_deadline_misses.get(),
        0,
        "admitted traffic never misses"
    );
    println!("\nOK: guaranteed traffic met every deadline.");
}
