//! End-to-end fabric metrics.
//!
//! Like [`ccr_edf::metrics::Metrics`], [`FabricMetrics`] is purely a
//! function of the simulated schedule — no wall-clock state — so two runs
//! of the same fabric scenario must compare equal with `==`. The
//! determinism tests rely on this to prove fabric runs replay bit for bit.

use ccr_sim::stats::{Counter, Histogram, Series};
use ccr_sim::TimeDelta;

/// Fabric slots per point of the per-ring availability series: each
/// completed window contributes one `(window-end slot, availability)`
/// sample to [`FabricMetrics::ring_availability`].
pub const RING_AVAILABILITY_WINDOW: u64 = 512;

/// Aggregated end-to-end metrics of one fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricMetrics {
    /// Fabric slots executed (every ring advances one slot per fabric slot).
    pub slots: Counter,
    /// Messages delivered at their *final* destination.
    pub e2e_delivered: Counter,
    /// Final deliveries that met the end-to-end deadline.
    pub e2e_met: Counter,
    /// Final deliveries that missed the end-to-end deadline.
    pub e2e_missed: Counter,
    /// Release-at-source → delivery-at-destination latency (ns).
    pub e2e_latency: Histogram,
    /// Messages handed across any bridge (one count per crossing).
    pub forwarded: Counter,
    /// Messages dropped at a full bridge buffer.
    pub bridge_drops: Counter,
    /// Time messages spent queued inside bridge buffers (ns).
    pub bridge_wait: Histogram,
    /// Per-hop latency by segment index along the route (ns): entry into
    /// the segment's ring → delivery at the segment exit. Grown on demand
    /// to the longest route observed.
    pub segment_latency: Vec<Histogram>,
    /// High-water mark across all bridge buffers.
    pub peak_bridge_occupancy: u64,
    /// Bridge stations taken down by fault injection.
    pub bridges_killed: Counter,
    /// Previously killed bridge stations brought back by repair events.
    pub bridges_repaired: Counter,
    /// Queued forwards lost when a dying bridge's buffers were flushed.
    pub fault_dropped_forwards: Counter,
    /// End-to-end connections re-admitted over an alternate bridge path
    /// after a fault invalidated their route.
    pub e2e_rerouted: Counter,
    /// End-to-end connections revoked by a fault with no surviving
    /// alternate route (or whose endpoint died).
    pub e2e_revoked: Counter,
    /// Connections brought back after a repair: revoked specs re-admitted,
    /// plus detoured connections moved back onto their preferred route.
    pub e2e_reclaimed: Counter,
    /// Messages injected by an external producer (gateway datagrams)
    /// through [`Fabric::inject`](crate::engine::Fabric::inject).
    pub external_injected: Counter,
    /// Final deliveries of externally injected connections (surfaced via
    /// [`Fabric::drain_egress`](crate::engine::Fabric::drain_egress)).
    pub external_delivered: Counter,
    /// Best-effort messages injected through
    /// [`Fabric::inject`](crate::engine::Fabric::inject).
    pub be_injected: Counter,
    /// Final deliveries of best-effort connections. Kept out of the
    /// `e2e_*` guaranteed-traffic counters so guaranteed miss ratios are
    /// never diluted by soft-deadline traffic.
    pub be_delivered: Counter,
    /// Best-effort final deliveries inside their (soft) deadline.
    pub be_met: Counter,
    /// Release-at-source → final-delivery latency of best-effort
    /// messages (ns).
    pub be_latency: Histogram,
    /// Best-effort forwards dropped at a full best-effort bridge queue.
    pub be_bridge_drops: Counter,
    /// Calculus certifications served by a warm-started dirty-set solve.
    pub calc_admit_incremental: Counter,
    /// Calculus certifications that ran as a full re-solve (first fill,
    /// forced reference mode, or recovery from a tainted warm start).
    pub calc_admit_full: Counter,
    /// Running sum, over certifications and releases, of the flows each
    /// certifier pass re-derived (its dirty set).
    pub calc_dirty_flows: Counter,
    /// Running sum of the dirty flows each certifier pass iterated; the
    /// rest were only re-priced.
    pub calc_iterated_flows: Counter,
    /// Fabric slots during which at least one ring was in clock-loss
    /// recovery (dead time somewhere in the fabric).
    pub degraded_slots: Counter,
    /// Cumulative recovering (degraded) slots per ring, indexed by ring.
    /// Populated only on fault-tracking runs; grown on first record.
    pub ring_degraded_slots: Vec<Counter>,
    /// Windowed per-ring availability: series `r` holds one point
    /// `(window-end fabric slot, availability within the window)` per
    /// completed [`RING_AVAILABILITY_WINDOW`]-slot window of ring `r`.
    /// Call [`FabricMetrics::flush_ring_health`] at end of run to emit the
    /// final partial window.
    pub ring_availability: Vec<Series>,
    /// Degraded slots inside the currently accumulating window, per ring.
    window_degraded: Vec<u64>,
    /// Health-scanned slots accumulated in the current window.
    window_len: u64,
}

impl Default for FabricMetrics {
    fn default() -> Self {
        FabricMetrics {
            slots: Counter::default(),
            e2e_delivered: Counter::default(),
            e2e_met: Counter::default(),
            e2e_missed: Counter::default(),
            e2e_latency: Histogram::for_latency(),
            forwarded: Counter::default(),
            bridge_drops: Counter::default(),
            bridge_wait: Histogram::for_latency(),
            segment_latency: Vec::new(),
            peak_bridge_occupancy: 0,
            bridges_killed: Counter::default(),
            bridges_repaired: Counter::default(),
            fault_dropped_forwards: Counter::default(),
            e2e_rerouted: Counter::default(),
            e2e_revoked: Counter::default(),
            e2e_reclaimed: Counter::default(),
            external_injected: Counter::default(),
            external_delivered: Counter::default(),
            be_injected: Counter::default(),
            be_delivered: Counter::default(),
            be_met: Counter::default(),
            be_latency: Histogram::for_latency(),
            be_bridge_drops: Counter::default(),
            calc_admit_incremental: Counter::default(),
            calc_admit_full: Counter::default(),
            calc_dirty_flows: Counter::default(),
            calc_iterated_flows: Counter::default(),
            degraded_slots: Counter::default(),
            ring_degraded_slots: Vec::new(),
            ring_availability: Vec::new(),
            window_degraded: Vec::new(),
            window_len: 0,
        }
    }
}

impl FabricMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a final delivery with its end-to-end latency.
    pub fn record_e2e(&mut self, latency: TimeDelta, met_deadline: bool) {
        self.e2e_delivered.incr();
        if met_deadline {
            self.e2e_met.incr();
        } else {
            self.e2e_missed.incr();
        }
        self.e2e_latency.record(latency.as_ps() / 1_000);
    }

    /// Record one segment traversal at hop position `index`.
    pub fn record_segment(&mut self, index: usize, latency: TimeDelta) {
        if self.segment_latency.len() <= index {
            self.grow_segments(index);
        }
        self.segment_latency[index].record(latency.as_ps() / 1_000);
    }

    /// First-contact growth: one histogram per hop position, built the
    /// first time a delivery reaches that depth.
    // ccr-verify: event_path -- runs once per new hop depth (bounded by ring count), not per slot
    fn grow_segments(&mut self, index: usize) {
        while self.segment_latency.len() <= index {
            self.segment_latency.push(Histogram::for_latency());
        }
    }

    /// Record one bridge crossing with its queueing delay.
    pub fn record_forward(&mut self, wait: TimeDelta) {
        self.forwarded.incr();
        self.bridge_wait.record(wait.as_ps() / 1_000);
    }

    /// Record a final delivery of a best-effort connection.
    pub fn record_be(&mut self, latency: TimeDelta, met_deadline: bool) {
        self.be_delivered.incr();
        if met_deadline {
            self.be_met.incr();
        }
        self.be_latency.record(latency.as_ps() / 1_000);
    }

    /// Fraction of final deliveries that missed their e2e deadline.
    pub fn e2e_miss_ratio(&self) -> f64 {
        self.e2e_missed.fraction_of_counter(&self.e2e_delivered)
    }

    /// Fraction of fabric slots in which every ring had a live clock
    /// (1.0 on a fault-free run).
    pub fn availability(&self) -> f64 {
        let total = self.slots.get();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.degraded_slots.get() as f64 / total as f64
    }

    /// Record one health-scanned fabric slot: `recovering[r]` is true when
    /// ring `r` spent the slot in clock-loss recovery. `slot` is the fabric
    /// slot index just executed. Completed windows append one point per
    /// ring to [`FabricMetrics::ring_availability`].
    pub fn record_ring_health(&mut self, slot: u64, recovering: &[bool]) {
        self.grow_rings(recovering.len());
        for (r, &rec) in recovering.iter().enumerate() {
            if rec {
                self.ring_degraded_slots[r].incr();
                self.window_degraded[r] += 1;
            }
        }
        self.window_len += 1;
        if self.window_len >= RING_AVAILABILITY_WINDOW {
            self.emit_window(slot);
        }
    }

    /// Emit the in-progress partial window (if any) as a final series
    /// point. Call once at end of run; recording may continue afterwards.
    pub fn flush_ring_health(&mut self, slot: u64) {
        if self.window_len > 0 {
            self.emit_window(slot);
        }
    }

    // ccr-verify: event_path -- first-contact growth: runs once per new ring, not per slot
    fn grow_rings(&mut self, n: usize) {
        while self.ring_degraded_slots.len() < n {
            let r = self.ring_degraded_slots.len();
            self.ring_degraded_slots.push(Counter::default());
            self.ring_availability.push(Series::new(format!("ring{r}")));
            self.window_degraded.push(0);
        }
    }

    fn emit_window(&mut self, slot: u64) {
        let len = self.window_len as f64;
        for (r, deg) in self.window_degraded.iter_mut().enumerate() {
            let avail = 1.0 - *deg as f64 / len;
            self.ring_availability[r].push(slot as f64, avail);
            *deg = 0;
        }
        self.window_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_accounting() {
        let mut m = FabricMetrics::new();
        m.record_e2e(TimeDelta::from_us(10), true);
        m.record_e2e(TimeDelta::from_us(20), true);
        m.record_e2e(TimeDelta::from_us(90), false);
        assert_eq!(m.e2e_delivered.get(), 3);
        assert_eq!(m.e2e_met.get(), 2);
        assert_eq!(m.e2e_missed.get(), 1);
        assert!((m.e2e_miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.e2e_latency.count(), 3);
    }

    #[test]
    fn segment_histograms_grow_on_demand() {
        let mut m = FabricMetrics::new();
        m.record_segment(2, TimeDelta::from_us(5));
        assert_eq!(m.segment_latency.len(), 3);
        assert_eq!(m.segment_latency[2].count(), 1);
        assert_eq!(m.segment_latency[0].count(), 0);
    }

    #[test]
    fn availability_tracks_degraded_slots() {
        let mut m = FabricMetrics::new();
        assert_eq!(m.availability(), 1.0, "no slots yet counts as available");
        for _ in 0..8 {
            m.slots.incr();
        }
        m.degraded_slots.incr();
        m.degraded_slots.incr();
        assert!((m.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ring_availability_series_windows() {
        let mut m = FabricMetrics::new();
        // Ring 1 degraded for the first quarter of a window, ring 0 clean.
        for slot in 0..RING_AVAILABILITY_WINDOW {
            m.slots.incr();
            let ring1_down = slot < RING_AVAILABILITY_WINDOW / 4;
            m.record_ring_health(slot, &[false, ring1_down]);
        }
        assert_eq!(m.ring_availability.len(), 2);
        assert_eq!(m.ring_availability[0].points(), &[(511.0, 1.0)]);
        assert_eq!(m.ring_availability[1].points(), &[(511.0, 0.75)]);
        assert_eq!(m.ring_degraded_slots[1].get(), RING_AVAILABILITY_WINDOW / 4);
        assert_eq!(m.ring_degraded_slots[0].get(), 0);

        // A partial window only lands once flushed.
        m.slots.incr();
        m.record_ring_health(RING_AVAILABILITY_WINDOW, &[true, false]);
        assert_eq!(m.ring_availability[0].len(), 1);
        m.flush_ring_health(RING_AVAILABILITY_WINDOW);
        assert_eq!(m.ring_availability[0].len(), 2);
        assert_eq!(
            m.ring_availability[0].points()[1],
            (RING_AVAILABILITY_WINDOW as f64, 0.0)
        );
        // Flushing with nothing accumulated is a no-op.
        m.flush_ring_health(RING_AVAILABILITY_WINDOW);
        assert_eq!(m.ring_availability[0].len(), 2);
    }

    #[test]
    fn equality_is_structural() {
        let mut a = FabricMetrics::new();
        let mut b = FabricMetrics::new();
        assert_eq!(a, b);
        a.record_e2e(TimeDelta::from_us(10), true);
        assert_ne!(a, b);
        b.record_e2e(TimeDelta::from_us(10), true);
        assert_eq!(a, b);
    }
}
