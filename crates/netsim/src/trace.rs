//! Slot-level trace recording — an observability aid for debugging
//! protocol behaviour and for producing Figure 6/7-style timelines.
//!
//! Feed every [`SlotOutcome`] to a [`TraceRecorder`]; it keeps a bounded
//! ring of per-slot records and renders them as a timeline table or CSV.

use ccr_edf::network::SlotOutcome;
use ccr_edf::{NodeId, SimTime, TimeDelta};
use ccr_gateway::GatewayMetrics;
use ccr_sim::report::Table;
use std::collections::VecDeque;

/// One slot's condensed trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Slot start.
    pub start: SimTime,
    /// Master (clock generator) of the slot.
    pub master: NodeId,
    /// Transmissions in the data phase.
    pub grants: usize,
    /// Messages completed this slot.
    pub deliveries: usize,
    /// Next master (hand-over target).
    pub next_master: NodeId,
    /// Hand-over hop distance.
    pub handover_hops: u16,
    /// Hand-over gap.
    pub gap: TimeDelta,
    /// Slot was clock-recovery dead time.
    pub recovering: bool,
    /// The slot's token (distribution packet) was lost or corrupted —
    /// recovery starts after this slot.
    pub token_lost: bool,
    /// Collection entries dropped by the control-channel CRC this slot.
    pub corrupt_entries: u16,
    /// Unreliable-class messages lost to data-phase errors this slot.
    pub unreliable_lost: u32,
    /// A barrier completed.
    pub barrier: bool,
    /// A reduction completed.
    pub reduce: bool,
}

impl SlotRecord {
    /// Condense a slot outcome.
    pub fn from_outcome(out: &SlotOutcome) -> Self {
        SlotRecord {
            slot: out.slot_index,
            start: out.slot_start,
            master: out.master,
            grants: out.grant_count,
            deliveries: out.deliveries.len(),
            next_master: out.next_master,
            handover_hops: out.handover_hops,
            gap: out.gap,
            recovering: out.recovering,
            token_lost: out.token_lost,
            corrupt_entries: out.corrupt_entries,
            unreliable_lost: out.unreliable_lost,
            barrier: out.barrier_completed,
            reduce: out.reduce_result.is_some(),
        }
    }
}

/// A bounded recorder of recent slot records.
#[derive(Debug)]
pub struct TraceRecorder {
    records: VecDeque<SlotRecord>,
    capacity: usize,
    observed: u64,
}

impl TraceRecorder {
    /// Keep at most `capacity` most recent slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity trace");
        TraceRecorder {
            records: VecDeque::with_capacity(capacity),
            capacity,
            observed: 0,
        }
    }

    /// Record one slot.
    pub fn observe(&mut self, out: &SlotOutcome) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(SlotRecord::from_outcome(out));
        self.observed += 1;
    }

    /// Total slots observed (including evicted ones).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SlotRecord> {
        self.records.iter()
    }

    /// Slots in which the master moved.
    #[cfg(test)]
    pub fn handovers(&self) -> impl Iterator<Item = &SlotRecord> {
        self.records.iter().filter(|r| r.handover_hops > 0)
    }

    /// Render the retained trace as [JSON Lines](https://jsonlines.org/):
    /// one self-describing JSON object per slot, oldest first, `\n`
    /// separated with a trailing newline. Hand-rolled (the workspace has no
    /// external dependencies); every field is a number or boolean so no
    /// string escaping is needed. Times are picoseconds.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 160);
        for r in &self.records {
            out.push_str(&format!(
                concat!(
                    "{{\"slot\":{},\"start_ps\":{},\"master\":{},\"grants\":{},",
                    "\"deliveries\":{},\"next_master\":{},\"handover_hops\":{},",
                    "\"gap_ps\":{},\"recovering\":{},\"token_lost\":{},",
                    "\"corrupt_entries\":{},\"unreliable_lost\":{},",
                    "\"barrier\":{},\"reduce\":{}}}\n"
                ),
                r.slot,
                r.start.as_ps(),
                r.master.0,
                r.grants,
                r.deliveries,
                r.next_master.0,
                r.handover_hops,
                r.gap.as_ps(),
                r.recovering,
                r.token_lost,
                r.corrupt_entries,
                r.unreliable_lost,
                r.barrier,
                r.reduce,
            ));
        }
        out
    }

    /// Render the retained trace as a timeline table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "slot trace (last {} of {} slots)",
                self.records.len(),
                self.observed
            ),
            &[
                "slot", "start", "master", "grants", "deliv", "next", "hops", "gap", "flags",
            ],
        );
        for r in &self.records {
            let mut flags = String::new();
            if r.recovering {
                flags.push('R');
            }
            if r.token_lost {
                flags.push('T');
            }
            if r.corrupt_entries > 0 {
                flags.push('C');
            }
            if r.unreliable_lost > 0 {
                flags.push('L');
            }
            if r.barrier {
                flags.push('B');
            }
            if r.reduce {
                flags.push('Σ');
            }
            t.row(&[
                r.slot.to_string(),
                r.start.to_string(),
                r.master.to_string(),
                r.grants.to_string(),
                r.deliveries.to_string(),
                r.next_master.to_string(),
                r.handover_hops.to_string(),
                r.gap.to_string(),
                flags,
            ]);
        }
        t.render()
    }
}

/// One sampling window of gateway activity: the per-window *deltas* of
/// the gateway-wide counters, so a flat-line row means an idle window and
/// a `shed` burst is visible at the window it happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayRecord {
    /// Fabric slot index at the end of the window.
    pub slot: u64,
    /// Frames offered to ingress during the window.
    pub frames_in: u64,
    /// Datagrams injected into the fabric during the window.
    pub injected: u64,
    /// Datagrams shed by pacing during the window.
    pub shed: u64,
    /// `Nack` control frames sent back to clients during the window.
    pub nacks: u64,
    /// `Backoff` advisories sent back to clients during the window.
    pub backoffs: u64,
    /// End-to-end deliveries handed to egress during the window.
    pub delivered: u64,
    /// Deliveries that missed their link's deadline during the window.
    pub deadline_missed: u64,
}

/// A bounded recorder of recent gateway activity windows — the gateway
/// counterpart of [`TraceRecorder`]. Feed it the cumulative
/// [`GatewayMetrics`] at each sampling point; it differences consecutive
/// snapshots into per-window [`GatewayRecord`]s.
#[derive(Debug)]
pub struct GatewayTraceRecorder {
    records: VecDeque<GatewayRecord>,
    capacity: usize,
    observed: u64,
    last: GatewayRecord,
}

impl GatewayTraceRecorder {
    /// Keep at most `capacity` most recent windows.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity gateway trace");
        GatewayTraceRecorder {
            records: VecDeque::with_capacity(capacity),
            capacity,
            observed: 0,
            last: GatewayRecord {
                slot: 0,
                frames_in: 0,
                injected: 0,
                shed: 0,
                nacks: 0,
                backoffs: 0,
                delivered: 0,
                deadline_missed: 0,
            },
        }
    }

    /// Record one window ending at fabric slot `slot`, given the
    /// gateway's cumulative counters at that instant.
    pub fn observe(&mut self, slot: u64, m: &GatewayMetrics) {
        let cum = GatewayRecord {
            slot,
            frames_in: m.frames_in.get(),
            injected: m.injected.get(),
            shed: m.shed.get(),
            nacks: m.nacks_sent.get(),
            backoffs: m.backoffs_sent.get(),
            delivered: m.delivered.get(),
            deadline_missed: m.deadline_missed.get(),
        };
        let delta = GatewayRecord {
            slot,
            frames_in: cum.frames_in - self.last.frames_in,
            injected: cum.injected - self.last.injected,
            shed: cum.shed - self.last.shed,
            nacks: cum.nacks - self.last.nacks,
            backoffs: cum.backoffs - self.last.backoffs,
            delivered: cum.delivered - self.last.delivered,
            deadline_missed: cum.deadline_missed - self.last.deadline_missed,
        };
        self.last = cum;
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(delta);
        self.observed += 1;
    }

    /// Total windows observed (including evicted ones).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The retained windows, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &GatewayRecord> {
        self.records.iter()
    }

    /// The retained windows as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "gateway trace (last {} of {} windows)",
                self.records.len(),
                self.observed
            ),
            &[
                "slot",
                "in",
                "injected",
                "shed",
                "nack",
                "backoff",
                "delivered",
                "missed",
            ],
        );
        for r in &self.records {
            t.row(&[
                r.slot.to_string(),
                r.frames_in.to_string(),
                r.injected.to_string(),
                r.shed.to_string(),
                r.nacks.to_string(),
                r.backoffs.to_string(),
                r.delivered.to_string(),
                r.deadline_missed.to_string(),
            ]);
        }
        t
    }

    /// Render the retained windows as a timeline table.
    pub fn render(&self) -> String {
        self.table().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_edf::config::NetworkConfig;
    use ccr_edf::message::{Destination, Message};
    use ccr_edf::network::RingNetwork;

    fn traced_run(slots: u64, cap: usize) -> TraceRecorder {
        let cfg = NetworkConfig::builder(5)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(2), Destination::Unicast(NodeId(4)), 2, SimTime::ZERO),
        );
        let mut tr = TraceRecorder::new(cap);
        for _ in 0..slots {
            tr.observe(net.step_slot());
        }
        tr
    }

    #[test]
    fn records_every_slot_up_to_capacity() {
        let tr = traced_run(10, 100);
        assert_eq!(tr.observed(), 10);
        assert_eq!(tr.records().count(), 10);
        // slot indices contiguous
        let idx: Vec<u64> = tr.records().map(|r| r.slot).collect();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let tr = traced_run(50, 8);
        assert_eq!(tr.observed(), 50);
        let idx: Vec<u64> = tr.records().map(|r| r.slot).collect();
        assert_eq!(idx, (42..50).collect::<Vec<_>>());
    }

    #[test]
    fn handover_filter_and_render() {
        let tr = traced_run(6, 16);
        // slot 0 hands over 0→2 (the submitted message's source)
        let h: Vec<&SlotRecord> = tr.handovers().collect();
        assert!(!h.is_empty());
        assert_eq!(h[0].next_master, NodeId(2));
        let txt = tr.render();
        assert!(txt.contains("slot trace"));
        assert!(txt.contains("n2"));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = TraceRecorder::new(0);
    }

    #[test]
    fn jsonl_export_is_one_valid_object_per_slot() {
        let tr = traced_run(12, 8);
        let txt = tr.to_jsonl();
        assert!(txt.ends_with('\n'));
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 8, "one line per retained record");
        for (line, rec) in lines.iter().zip(tr.records()) {
            assert!(line.starts_with('{') && line.ends_with('}'));
            // braces balance and all fields present with the right values
            assert_eq!(line.matches('{').count(), 1);
            assert!(line.contains(&format!("\"slot\":{}", rec.slot)));
            assert!(line.contains(&format!("\"start_ps\":{}", rec.start.as_ps())));
            assert!(line.contains(&format!("\"master\":{}", rec.master.0)));
            assert!(line.contains(&format!("\"gap_ps\":{}", rec.gap.as_ps())));
            assert!(line.contains("\"recovering\":false"));
            assert!(line.contains("\"token_lost\":false"));
            assert!(line.contains("\"corrupt_entries\":0"));
            assert!(line.contains("\"unreliable_lost\":0"));
        }
        // eviction respected: first line is slot 4
        assert!(lines[0].contains("\"slot\":4,"));
    }

    #[test]
    fn fault_slots_carry_their_flags_into_the_trace() {
        use ccr_edf::config::FaultConfig;
        use ccr_edf::fault::{FaultKind, FaultScript};

        let cfg = NetworkConfig::builder(5)
            .slot_bytes(2048)
            .faults(FaultConfig {
                recovery_timeout_slots: 3,
                ..Default::default()
            })
            .fault_script(
                FaultScript::new()
                    .at(2, FaultKind::CorruptCollection { victim: NodeId(1) })
                    .at(4, FaultKind::LoseToken),
            )
            .build_auto_slot()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        let mut tr = TraceRecorder::new(16);
        for _ in 0..10 {
            tr.observe(net.step_slot());
        }
        let recs: Vec<&SlotRecord> = tr.records().collect();
        assert_eq!(recs[2].corrupt_entries, 1);
        assert!(recs[4].token_lost);
        assert!(recs[5].recovering, "recovery dead time follows the loss");
        let txt = tr.render();
        assert!(txt.contains('T') && txt.contains('C') && txt.contains('R'));
        let jsonl = tr.to_jsonl();
        assert!(jsonl.contains("\"token_lost\":true"));
        assert!(jsonl.contains("\"corrupt_entries\":1"));
    }

    #[test]
    fn gateway_recorder_differences_cumulative_counters() {
        let mut m = GatewayMetrics::default();
        let mut tr = GatewayTraceRecorder::new(2);

        m.frames_in.incr();
        m.injected.incr();
        tr.observe(100, &m);

        m.frames_in.incr();
        m.frames_in.incr();
        m.shed.incr();
        m.nacks_sent.incr();
        m.backoffs_sent.incr();
        tr.observe(200, &m);

        m.delivered.incr();
        m.deadline_missed.incr();
        tr.observe(300, &m);

        // Capacity 2: window ending at slot 100 was evicted.
        let recs: Vec<&GatewayRecord> = tr.records().collect();
        assert_eq!(tr.observed(), 3);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].slot, 200);
        assert_eq!(recs[0].frames_in, 2, "delta, not cumulative");
        assert_eq!(recs[0].shed, 1);
        assert_eq!(recs[0].nacks, 1);
        assert_eq!(recs[0].backoffs, 1);
        assert_eq!(recs[0].injected, 0);
        assert_eq!(recs[1].slot, 300);
        assert_eq!(recs[1].delivered, 1);
        assert_eq!(recs[1].deadline_missed, 1);

        assert!(tr.render().contains("gateway trace"));
    }
}
