//! The workloads, and the per-layer counts they share.

pub mod admission;
pub mod fabric;
pub mod gateway;
pub mod synthesis;

use ccr_multiring::prelude::*;

use crate::Rep;

/// Read the ring-slot (`edf.*`), fabric (`multiring.*`) and certifier
/// counters of `fabric` into `rep`, and fold every simulated statistic
/// into its digest.
pub fn fabric_counts(fabric: &Fabric, rep: &mut Rep) {
    let (mut slots, mut idle, mut grants, mut masters, mut misses, mut ff) = (0, 0, 0, 0, 0, 0);
    for r in 0..fabric.topology().n_rings() {
        let m = fabric.ring_metrics(RingId(r));
        slots += m.slots.get();
        idle += m.idle_slots.get();
        grants += m.grants.get();
        masters += m.master_changes.get();
        misses += m.rt_deadline_misses.get();
        ff += fabric.with_ring(RingId(r), |ring| ring.throughput().fast_forwarded);
        // Ring metrics hold a per-connection hash map: digest the ordered
        // fields only.
        for v in [
            m.slots.get(),
            m.idle_slots.get(),
            m.grants.get(),
            m.delivered.get(),
            m.delivered_rt.get(),
            m.delivered_be.get(),
            m.rt_deadline_misses.get(),
            m.be_deadline_misses.get(),
            m.master_changes.get(),
            m.data_bytes.get(),
            m.control_bits.get(),
        ] {
            rep.digest.u64(v);
        }
        rep.digest.debug(&m.latency_rt);
        rep.digest.debug(&m.handover_gap);
    }
    let fm = fabric.metrics();
    rep.digest.debug(fm);
    let slots_f = slots as f64;
    let c = &mut rep.counts;
    c.insert("edf.slots", slots_f);
    c.insert("edf.idle_share", crate::util::ratio(idle as f64, slots_f));
    c.insert(
        "edf.grants_per_slot",
        crate::util::ratio(grants as f64, slots_f),
    );
    c.insert("edf.master_changes", masters as f64);
    c.insert("edf.rt_deadline_misses", misses as f64);
    c.insert("edf.fast_forwarded", ff as f64);
    c.insert("multiring.forwarded", fm.forwarded.get() as f64);
    c.insert(
        "multiring.peak_bridge_occupancy",
        fm.peak_bridge_occupancy as f64,
    );
    c.insert("multiring.bridge_drops", fm.bridge_drops.get() as f64);
    c.insert(
        "multiring.bridge_wait_p99_us_sim",
        fm.bridge_wait.quantile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    c.insert("multiring.e2e_delivered", fm.e2e_delivered.get() as f64);
    c.insert("multiring.e2e_missed", fm.e2e_missed.get() as f64);
    c.insert(
        "calculus.admit_incremental",
        fm.calc_admit_incremental.get() as f64,
    );
    c.insert("calculus.admit_full", fm.calc_admit_full.get() as f64);
}
