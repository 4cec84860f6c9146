//! Values the fabric tests pin a run to.

use ccr_edf::metrics::Metrics;
use ccr_multiring::prelude::*;

/// Largest per-segment latency (ns) of a run, by segment index.
pub fn segment_maxima(m: &FabricMetrics) -> Vec<u64> {
    m.segment_latency
        .iter()
        .map(|h| h.max().unwrap_or(0))
        .collect()
}

/// Every ring's metrics after a run.
pub fn all_ring_metrics(fabric: &Fabric) -> Vec<Metrics> {
    (0..fabric.topology().n_rings())
        .map(|r| fabric.ring_metrics(RingId(r)).clone())
        .collect()
}

/// `[delivered, grants, master changes, data bytes]` of each ring.
pub fn ring_counts(rings: &[Metrics]) -> Vec<[u64; 4]> {
    rings
        .iter()
        .map(|r| {
            [
                r.delivered.get(),
                r.grants.get(),
                r.master_changes.get(),
                r.data_bytes.get(),
            ]
        })
        .collect()
}
