//! Metric sinks filled by the slot engine.
//!
//! Everything the experiments report comes from here: latency histograms
//! per traffic class, deadline-miss counters, hand-over gap distributions,
//! spatial-reuse statistics, and per-connection summaries.

use crate::connection::ConnectionId;
use crate::fault::FaultKind;
use crate::message::{Message, TrafficClass};
use ccr_sim::stats::{Counter, Histogram};
use ccr_sim::{SimTime, TimeDelta};
use std::collections::{HashMap, VecDeque};

/// One fault event as experienced by the engine, with its recovery
/// bookkeeping — the per-event observability record the chaos experiments
/// report (time-to-recovery, collateral losses, revocations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEventRecord {
    /// Slot index at which the fault struck.
    pub slot: u64,
    /// What struck (scripted events keep their kind; a stochastic token
    /// loss is recorded as [`FaultKind::LoseToken`], a stochastic control
    /// bit error as [`FaultKind::CorruptCollection`]).
    pub kind: FaultKind,
    /// Slot index at which the network was back in service; `None` while
    /// recovery is still in progress. Instantaneous faults (a corrupted
    /// collection entry, a bypassed non-master node) recover in place and
    /// carry their own slot here.
    pub recovered_at: Option<u64>,
    /// Queued messages lost as a direct consequence (node-failure teardown).
    pub messages_lost: u64,
    /// Connections revoked to restore admission feasibility.
    pub connections_revoked: u32,
}

impl FaultEventRecord {
    /// Slots from impact to restored service, when recovery has completed.
    pub fn time_to_recovery(&self) -> Option<u64> {
        self.recovered_at.map(|r| r.saturating_sub(self.slot))
    }
}

/// Bounded log of fault events. Pre-allocates its full capacity so that
/// recording on the slot path never touches the heap (the oldest record is
/// evicted once the log is full — `evicted()` says how many).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLog {
    events: VecDeque<FaultEventRecord>,
    evicted: u64,
    cap: usize,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog::with_capacity(1024)
    }
}

impl FaultLog {
    /// A log retaining at most `cap` most-recent records.
    pub fn with_capacity(cap: usize) -> Self {
        FaultLog {
            events: VecDeque::with_capacity(cap.max(1)),
            evicted: 0,
            cap: cap.max(1),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn record(&mut self, rec: FaultEventRecord) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(rec);
    }

    /// Close every still-open record: the clock is back as of `slot`.
    pub fn mark_recovered(&mut self, slot: u64) {
        // A closed record can sit between open ones (e.g. an instantaneous
        // collection corruption logged while a token loss was pending), so
        // walk the whole bounded log rather than stopping at the first
        // closed entry.
        for e in self.events.iter_mut().rev() {
            if e.recovered_at.is_none() {
                e.recovered_at = Some(slot);
            }
        }
    }

    /// Add collateral losses to the most recent record.
    #[cfg(test)]
    pub fn add_losses(&mut self, messages_lost: u64, connections_revoked: u32) {
        if let Some(e) = self.events.back_mut() {
            e.messages_lost += messages_lost;
            e.connections_revoked += connections_revoked;
        }
    }

    /// Retained records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FaultEventRecord> {
        self.events.iter()
    }

    /// Records evicted because the log was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Every fault ever recorded (retained + evicted).
    pub fn total(&self) -> u64 {
        self.evicted + self.events.len() as u64
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Largest completed time-to-recovery among retained records, in slots.
    pub fn max_time_to_recovery(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| e.time_to_recovery())
            .max()
    }
}

/// Per-connection delivery statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnStats {
    /// Messages delivered.
    pub delivered: Counter,
    /// Scheduler-level deadline misses (completion after `release + P`).
    pub misses: Counter,
    /// User-level bound violations (completion after
    /// `release + P + t_latency`, Equations 3–4).
    pub bound_violations: Counter,
    /// Sum of delivery latencies (release → last byte at furthest
    /// receiver), ps; `delivered` is the count that divides it.
    pub latency_sum_ps: u64,
}

/// A delivered message with its completion time (drained by applications
/// from the slot outcome).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The delivered message.
    pub msg: Message,
    /// Instant the last byte reached the furthest receiver.
    pub completed: SimTime,
}

impl Delivery {
    /// Release-to-completion latency.
    pub fn latency(&self) -> TimeDelta {
        self.completed.saturating_since(self.msg.released)
    }

    /// Did the delivery meet the message deadline?
    pub fn met_deadline(&self) -> bool {
        self.completed <= self.msg.deadline
    }
}

/// Aggregated metrics of one simulation run.
///
/// `Metrics` is purely a function of the simulated schedule — it contains
/// no wall-clock state — so two runs of the same scenario must compare
/// equal with `==` regardless of how fast they executed. The differential
/// tests rely on this to prove the idle-slot fast-forward path is
/// bit-identical to slot-by-slot execution. The fast-forward count lives in
/// the separate [`ThroughputGauge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Slots executed.
    pub slots: Counter,
    /// Slots with no grant at all.
    pub idle_slots: Counter,
    /// Total granted transmissions.
    pub grants: Counter,
    /// Messages fully delivered.
    pub delivered: Counter,
    /// Deliveries per class (RT, BE, NRT).
    pub delivered_rt: Counter,
    /// Best-effort deliveries.
    pub delivered_be: Counter,
    /// Non-real-time deliveries.
    pub delivered_nrt: Counter,
    /// Real-time deadline misses (completion > deadline).
    pub rt_deadline_misses: Counter,
    /// Real-time user-bound violations (Eq. 3: completion > deadline +
    /// t_latency).
    pub rt_bound_violations: Counter,
    /// Best-effort deadline misses (soft).
    pub be_deadline_misses: Counter,
    /// Latency histogram per class, in picoseconds.
    pub latency_rt: Histogram,
    /// Best-effort latency histogram (ps).
    pub latency_be: Histogram,
    /// Non-real-time latency histogram (ps).
    pub latency_nrt: Histogram,
    /// Hand-over gap durations (ps).
    pub handover_gap: Histogram,
    /// Hand-over hop distances.
    pub handover_hops: Histogram,
    /// Slots on which the master moved.
    pub master_changes: Counter,
    /// Payload bytes delivered to receivers.
    pub data_bytes: Counter,
    /// Control-channel bits spent (collection + distribution).
    pub control_bits: Counter,
    /// Data packets lost to injected faults.
    pub data_lost: Counter,
    /// Subset of `data_lost`: losses hitting *unreliable* traffic, which
    /// nothing retransmits — the packet is simply gone.
    pub data_lost_unreliable: Counter,
    /// Non-reliable messages that completed with at least one lost packet.
    pub messages_corrupted: Counter,
    /// Reliable-service retransmissions.
    pub retransmissions: Counter,
    /// Distribution packets (tokens) lost to injected faults.
    pub tokens_lost: Counter,
    /// Collection entries dropped by control-channel corruption (the
    /// victim's request never reaches arbitration that slot).
    pub control_corrupted: Counter,
    /// Distribution packets corrupted by control-channel bit errors
    /// (handled as token loss; also counted in `tokens_lost`).
    pub distributions_corrupted: Counter,
    /// Nodes failed and optically bypassed.
    pub nodes_failed: Counter,
    /// Previously failed nodes brought back into the ring.
    pub nodes_repaired: Counter,
    /// Connections revoked by degraded-mode admission or node teardown.
    pub connections_revoked: Counter,
    /// Queued messages dropped by fault handling (node-failure teardown).
    pub fault_dropped_messages: Counter,
    /// Slots spent in clock recovery.
    pub recovery_slots: Counter,
    /// Per-fault-event records (bounded; see [`FaultLog`]).
    pub fault_log: FaultLog,
    /// Barrier completions.
    pub barriers_completed: Counter,
    /// Barrier latency (entry of the *last* participant → release), ps.
    pub barrier_latency: Histogram,
    /// Reductions completed.
    pub reductions_completed: Counter,
    /// Short messages delivered.
    pub short_delivered: Counter,
    /// Short-message latency (ps).
    pub short_latency: Histogram,
    /// Per-connection statistics.
    pub per_conn: HashMap<ConnectionId, ConnStats>,
    /// Slots each link spent busy (indexed by link id; sized lazily on
    /// first record).
    pub link_busy_slots: Vec<u64>,
    /// First slot start (for utilisation computation).
    pub started_at: SimTime,
    /// End of the last executed slot (excludes the trailing gap).
    pub ended_at: SimTime,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            slots: Counter::new(),
            idle_slots: Counter::new(),
            grants: Counter::new(),
            delivered: Counter::new(),
            delivered_rt: Counter::new(),
            delivered_be: Counter::new(),
            delivered_nrt: Counter::new(),
            rt_deadline_misses: Counter::new(),
            rt_bound_violations: Counter::new(),
            be_deadline_misses: Counter::new(),
            latency_rt: Histogram::for_latency(),
            latency_be: Histogram::for_latency(),
            latency_nrt: Histogram::for_latency(),
            handover_gap: Histogram::for_latency(),
            handover_hops: Histogram::new(6),
            master_changes: Counter::new(),
            data_bytes: Counter::new(),
            control_bits: Counter::new(),
            data_lost: Counter::new(),
            data_lost_unreliable: Counter::new(),
            messages_corrupted: Counter::new(),
            retransmissions: Counter::new(),
            tokens_lost: Counter::new(),
            control_corrupted: Counter::new(),
            distributions_corrupted: Counter::new(),
            nodes_failed: Counter::new(),
            nodes_repaired: Counter::new(),
            connections_revoked: Counter::new(),
            fault_dropped_messages: Counter::new(),
            recovery_slots: Counter::new(),
            fault_log: FaultLog::default(),
            barriers_completed: Counter::new(),
            barrier_latency: Histogram::for_latency(),
            reductions_completed: Counter::new(),
            short_delivered: Counter::new(),
            short_latency: Histogram::for_latency(),
            per_conn: HashMap::new(),
            link_busy_slots: Vec::new(),
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
        }
    }
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed delivery. `t_latency_bound` is Equation 4's
    /// worst-case protocol latency for the user-level bound check.
    pub fn record_delivery(&mut self, d: &Delivery, t_latency_bound: TimeDelta) {
        self.delivered.incr();
        let lat = d.latency().as_ps();
        match d.msg.class {
            TrafficClass::RealTime => {
                self.delivered_rt.incr();
                self.latency_rt.record(lat);
                let missed = !d.met_deadline();
                if missed {
                    self.rt_deadline_misses.incr();
                }
                let bound_violated = d.msg.deadline != SimTime::MAX
                    && d.completed > d.msg.deadline + t_latency_bound;
                if bound_violated {
                    self.rt_bound_violations.incr();
                }
                if let Some(conn) = d.msg.connection {
                    let cs = self.per_conn.entry(conn).or_default();
                    cs.delivered.incr();
                    cs.latency_sum_ps += lat;
                    if missed {
                        cs.misses.incr();
                    }
                    if bound_violated {
                        cs.bound_violations.incr();
                    }
                }
            }
            TrafficClass::BestEffort => {
                self.delivered_be.incr();
                self.latency_be.record(lat);
                if !d.met_deadline() {
                    self.be_deadline_misses.incr();
                }
            }
            TrafficClass::NonRealTime => {
                self.delivered_nrt.incr();
                self.latency_nrt.record(lat);
            }
        }
    }

    /// Fraction of wall time spent inside slots (vs hand-over gaps) —
    /// the measured counterpart of Equation 6's `U_max` denominator.
    pub fn slot_time_fraction(&self, slot: TimeDelta) -> f64 {
        let total = self.ended_at.saturating_since(self.started_at).as_ps() as f64;
        if total == 0.0 {
            return 0.0;
        }
        (self.slots.get() as f64 * slot.as_ps() as f64) / total
    }

    /// Mean grants per slot (spatial-reuse factor).
    pub fn reuse_factor(&self) -> f64 {
        self.grants.fraction_of_counter(&self.slots)
    }

    /// Fraction of slots that carried at least one transmission.
    pub fn busy_fraction(&self) -> f64 {
        1.0 - self.idle_slots.fraction_of_counter(&self.slots)
    }

    /// Delivered payload bits per second of simulated time.
    pub fn goodput_bps(&self) -> f64 {
        let secs = self
            .ended_at
            .saturating_since(self.started_at)
            .as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.data_bytes.get() as f64 * 8.0 / secs
    }

    /// Record the links one granted transmission occupied this slot.
    pub fn record_links(&mut self, links: ccr_phys::LinkSet, n_links: u16) {
        if self.link_busy_slots.len() < n_links as usize {
            self.link_busy_slots.resize(n_links as usize, 0);
        }
        for l in links.iter() {
            self.link_busy_slots[l.idx()] += 1;
        }
    }

    /// RT deadline-miss ratio.
    pub fn rt_miss_ratio(&self) -> f64 {
        self.rt_deadline_misses
            .fraction_of_counter(&self.delivered_rt)
    }

    /// Availability: fraction of executed slots in which the ring was in
    /// service (not dead time waiting out clock recovery). 1.0 on a
    /// fault-free run.
    pub fn availability(&self) -> f64 {
        1.0 - self.recovery_slots.fraction_of_counter(&self.slots)
    }
}

/// Slot-engine counters that are not a property of the simulated network.
///
/// Kept outside [`Metrics`] so that `Metrics` compares equal with `==`
/// between a run that steps every slot and one that skips idle stretches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputGauge {
    /// Slots that took the O(1) idle path. Deterministic for a fixed
    /// scenario and run pattern, so tests can assert the fast path
    /// actually engaged.
    pub fast_forwarded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Destination;
    use ccr_phys::NodeId;

    fn delivery(class: TrafficClass, released_us: u64, deadline_us: u64, done_us: u64) -> Delivery {
        let mut msg = match class {
            TrafficClass::RealTime => Message::real_time(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                1,
                SimTime::from_us(released_us),
                SimTime::from_us(deadline_us),
                ConnectionId(7),
            ),
            TrafficClass::BestEffort => Message::best_effort(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                1,
                SimTime::from_us(released_us),
                SimTime::from_us(deadline_us),
            ),
            TrafficClass::NonRealTime => Message::non_real_time(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                1,
                SimTime::from_us(released_us),
            ),
        };
        msg.id = crate::message::MessageId(1);
        Delivery {
            msg,
            completed: SimTime::from_us(done_us),
        }
    }

    #[test]
    fn on_time_rt_delivery_counts() {
        let mut m = Metrics::new();
        let d = delivery(TrafficClass::RealTime, 0, 100, 50);
        m.record_delivery(&d, TimeDelta::from_us(10));
        assert_eq!(m.delivered.get(), 1);
        assert_eq!(m.delivered_rt.get(), 1);
        assert_eq!(m.rt_deadline_misses.get(), 0);
        assert_eq!(m.rt_bound_violations.get(), 0);
        let cs = &m.per_conn[&ConnectionId(7)];
        assert_eq!(cs.delivered.get(), 1);
        assert_eq!(cs.misses.get(), 0);
        assert_eq!(m.latency_rt.count(), 1);
        assert_eq!(m.latency_rt.max(), Some(TimeDelta::from_us(50).as_ps()));
    }

    #[test]
    fn late_rt_within_bound_misses_but_no_violation() {
        let mut m = Metrics::new();
        // deadline 100, done 105, bound slack 10 → miss, not violation
        let d = delivery(TrafficClass::RealTime, 0, 100, 105);
        m.record_delivery(&d, TimeDelta::from_us(10));
        assert_eq!(m.rt_deadline_misses.get(), 1);
        assert_eq!(m.rt_bound_violations.get(), 0);
        // done 115 → violation too
        let d = delivery(TrafficClass::RealTime, 0, 100, 115);
        m.record_delivery(&d, TimeDelta::from_us(10));
        assert_eq!(m.rt_deadline_misses.get(), 2);
        assert_eq!(m.rt_bound_violations.get(), 1);
        assert!((m.rt_miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn be_and_nrt_deliveries() {
        let mut m = Metrics::new();
        m.record_delivery(
            &delivery(TrafficClass::BestEffort, 0, 10, 20),
            TimeDelta::ZERO,
        );
        assert_eq!(m.be_deadline_misses.get(), 1);
        m.record_delivery(
            &delivery(TrafficClass::NonRealTime, 0, 0, 30),
            TimeDelta::ZERO,
        );
        assert_eq!(m.delivered_nrt.get(), 1);
        // NRT never misses (deadline = MAX)
        assert_eq!(m.rt_deadline_misses.get(), 0);
        assert_eq!(m.delivered.get(), 2);
    }

    #[test]
    fn utilisation_and_goodput() {
        let mut m = Metrics::new();
        m.started_at = SimTime::ZERO;
        m.ended_at = SimTime::from_us(100);
        m.slots.add(80);
        m.data_bytes.add(1_000);
        // 80 slots of 1 us in 100 us
        assert!((m.slot_time_fraction(TimeDelta::from_us(1)) - 0.8).abs() < 1e-12);
        assert!((m.goodput_bps() - 8.0e7).abs() < 1.0);
        assert_eq!(Metrics::new().goodput_bps(), 0.0);
    }

    #[test]
    fn delivery_helpers() {
        let d = delivery(TrafficClass::RealTime, 10, 100, 60);
        assert_eq!(d.latency(), TimeDelta::from_us(50));
        assert!(d.met_deadline());
        let late = delivery(TrafficClass::RealTime, 10, 20, 60);
        assert!(!late.met_deadline());
    }

    #[test]
    fn busy_fraction() {
        let mut m = Metrics::new();
        m.slots.add(10);
        m.idle_slots.add(4);
        assert!((m.busy_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn availability_tracks_recovery_slots() {
        let mut m = Metrics::new();
        assert_eq!(m.availability(), 1.0, "no slots yet: fully available");
        m.slots.add(100);
        assert_eq!(m.availability(), 1.0);
        m.recovery_slots.add(25);
        assert!((m.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fault_log_records_and_marks_recovery() {
        let mut log = FaultLog::with_capacity(8);
        assert!(log.is_empty());
        log.record(FaultEventRecord {
            slot: 10,
            kind: FaultKind::LoseToken,
            recovered_at: None,
            messages_lost: 0,
            connections_revoked: 0,
        });
        log.record(FaultEventRecord {
            slot: 11,
            kind: FaultKind::CorruptCollection {
                victim: ccr_phys::NodeId(2),
            },
            recovered_at: Some(11), // instantaneous
            messages_lost: 0,
            connections_revoked: 0,
        });
        log.record(FaultEventRecord {
            slot: 12,
            kind: FaultKind::CorruptDistribution,
            recovered_at: None,
            messages_lost: 0,
            connections_revoked: 0,
        });
        log.mark_recovered(15);
        let recs: Vec<_> = log.events().collect();
        assert_eq!(recs[0].recovered_at, Some(15));
        assert_eq!(recs[0].time_to_recovery(), Some(5));
        assert_eq!(recs[1].recovered_at, Some(11));
        assert_eq!(recs[2].time_to_recovery(), Some(3));
        assert_eq!(log.max_time_to_recovery(), Some(5));
        assert_eq!(log.total(), 3);
        assert_eq!(log.evicted(), 0);
    }

    #[test]
    fn fault_log_evicts_oldest_when_full() {
        let mut log = FaultLog::with_capacity(2);
        for slot in 0..5u64 {
            log.record(FaultEventRecord {
                slot,
                kind: FaultKind::LoseToken,
                recovered_at: Some(slot),
                messages_lost: 0,
                connections_revoked: 0,
            });
        }
        assert_eq!(log.total(), 5);
        assert_eq!(log.evicted(), 3);
        let slots: Vec<u64> = log.events().map(|e| e.slot).collect();
        assert_eq!(slots, vec![3, 4]);
    }

    #[test]
    fn fault_log_add_losses_targets_latest() {
        let mut log = FaultLog::default();
        log.record(FaultEventRecord {
            slot: 1,
            kind: FaultKind::FailNode(ccr_phys::NodeId(3)),
            recovered_at: Some(1),
            messages_lost: 0,
            connections_revoked: 0,
        });
        log.add_losses(4, 2);
        let e = log.events().next().unwrap();
        assert_eq!(e.messages_lost, 4);
        assert_eq!(e.connections_revoked, 2);
    }

    #[test]
    fn metrics_equality_ignores_wall_clock() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.slots.add(5);
        b.slots.add(5);
        assert_eq!(a, b);
        b.idle_slots.incr();
        assert_ne!(a, b);
    }
}
