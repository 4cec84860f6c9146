//! Per-node transmission queues.
//!
//! Each node keeps one queue per traffic class. Real-time and best-effort
//! queues are deadline-ordered (EDF); the non-real-time queue is FIFO.
//! Local precedence follows Section 3: "best effort messages will only be
//! requested … if there is no logical real-time connection message queued.
//! The same applies to non real-time messages."
//!
//! A message of `e` slots stays queued until all `e` data packets have been
//! granted and sent; progress is tracked per message. Because the grant for
//! slot *k+1* answers the request made during slot *k*, the network pins the
//! requested message by its [`QueueKey`] — class, deadline and arrival
//! sequence — which names the message's class queue and its place in that
//! queue's order, so finding it again is one binary search and no
//! per-message index has to be kept in step with the queues.
//!
//! Each class queue is a `Vec<QueuedMessage>` kept sorted by (deadline,
//! arrival sequence), with inserts and removals by binary search. Unlike a
//! `BTreeMap` — which allocates tree nodes on every insert — the vectors
//! retain their capacity across the queue/dequeue cycles of steady-state
//! operation, so a warmed-up network enqueues and dequeues without touching
//! the heap.

use crate::message::{Message, TrafficClass};
use ccr_sim::SimTime;

/// Where a queued message sits: its class queue, then its place in that
/// queue's (deadline, arrival sequence) order. Unique per node and fixed
/// while the message stays queued — the handle a node pins when it
/// requests, and the one every later lookup takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueKey {
    class: TrafficClass,
    deadline: SimTime,
    seq: u64,
}

/// A queued message with its transmission progress.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedMessage {
    /// The message.
    pub msg: Message,
    /// Data packets already (successfully) sent.
    pub sent_slots: u32,
    /// Packets lost to fault injection (non-reliable messages only; a
    /// message with any lost packet is counted corrupted, not delivered).
    pub lost_slots: u32,
    /// Reliable service: sequence number assigned to the in-flight packet
    /// (kept across retransmissions), `None` when no packet is in flight.
    pub current_seq: Option<u8>,
    /// Reliable service: slot index at which the in-flight packet was sent,
    /// `None` when no packet awaits acknowledgement.
    pub awaiting_ack_since: Option<u64>,
    key: QueueKey,
}

impl QueuedMessage {
    /// Remaining packets to send. Saturating: a stray extra ack after the
    /// last packet must read as "0 left", not a debug-mode panic mid-slot.
    pub fn remaining(&self) -> u32 {
        self.msg.size_slots.saturating_sub(self.sent_slots)
    }

    /// This message's queue key.
    pub fn key(&self) -> QueueKey {
        self.key
    }
}

/// Outcome of accounting one sent packet.
#[derive(Debug, PartialEq)]
pub enum SentOutcome {
    /// More packets remain.
    Progress,
    /// That was the last packet; the message has left the queue (returned
    /// with its full bookkeeping, e.g. lost-packet count).
    Finished(QueuedMessage),
}

/// One deadline-sorted class queue.
#[derive(Debug, Default)]
struct ClassQueue {
    entries: Vec<QueuedMessage>,
}

impl ClassQueue {
    /// Position of `key`, or the insertion point keeping `entries` sorted.
    /// Orders are unique (the arrival sequence is), so `Ok` is an exact
    /// hit.
    fn search(&self, key: QueueKey) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|m| (m.key.deadline, m.key.seq).cmp(&(key.deadline, key.seq)))
    }
}

/// The three class queues of one node.
#[derive(Debug, Default)]
pub struct NodeQueues {
    rt: ClassQueue,
    be: ClassQueue,
    nrt: ClassQueue,
    next_seq: u64,
}

impl NodeQueues {
    /// Empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    fn queue(&self, class: TrafficClass) -> &ClassQueue {
        match class {
            TrafficClass::RealTime => &self.rt,
            TrafficClass::BestEffort => &self.be,
            TrafficClass::NonRealTime => &self.nrt,
        }
    }

    fn queue_mut(&mut self, class: TrafficClass) -> &mut ClassQueue {
        match class {
            TrafficClass::RealTime => &mut self.rt,
            TrafficClass::BestEffort => &mut self.be,
            TrafficClass::NonRealTime => &mut self.nrt,
        }
    }

    /// Enqueue a message (id must already be assigned), returning its key.
    pub fn push(&mut self, msg: Message) -> QueueKey {
        debug_assert_ne!(msg.id, Message::UNASSIGNED, "unassigned message id");
        let key = QueueKey {
            class: msg.class,
            deadline: msg.deadline,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let q = self.queue_mut(key.class);
        let pos = q.search(key).unwrap_err();
        q.entries.insert(
            pos,
            QueuedMessage {
                msg,
                sent_slots: 0,
                lost_slots: 0,
                current_seq: None,
                awaiting_ack_since: None,
                key,
            },
        );
        key
    }

    /// The message the node would request next: earliest deadline in the
    /// highest non-empty class, skipping messages stalled on an
    /// acknowledgement.
    pub fn head(&self) -> Option<&QueuedMessage> {
        [&self.rt, &self.be, &self.nrt]
            .into_iter()
            .find_map(|q| q.entries.iter().find(|m| m.awaiting_ack_since.is_none()))
    }

    /// Look up a queued message by key.
    pub fn get(&self, key: QueueKey) -> Option<&QueuedMessage> {
        let q = self.queue(key.class);
        q.search(key).ok().map(|i| &q.entries[i])
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: QueueKey) -> Option<&mut QueuedMessage> {
        let q = self.queue_mut(key.class);
        q.search(key).ok().map(|i| &mut q.entries[i])
    }

    /// Account one successfully sent packet of the message at `key`;
    /// removes the message when complete.
    ///
    /// # Panics
    /// Panics if `key` is not queued.
    pub fn record_sent_slot(&mut self, key: QueueKey) -> SentOutcome {
        let q = self.queue_mut(key.class);
        let i = q.search(key).expect("record_sent_slot: unknown message");
        let qm = &mut q.entries[i];
        qm.sent_slots += 1;
        qm.awaiting_ack_since = None;
        if qm.remaining() == 0 {
            SentOutcome::Finished(q.entries.remove(i))
        } else {
            SentOutcome::Progress
        }
    }

    /// Remove a message outright (e.g. connection torn down), returning it.
    pub fn remove(&mut self, key: QueueKey) -> Option<Message> {
        let q = self.queue_mut(key.class);
        q.search(key).ok().map(|i| q.entries.remove(i).msg)
    }

    /// Drop everything (node failed and is bypassed), returning how many
    /// messages were discarded. Capacity is retained.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.rt.entries.clear();
        self.be.entries.clear();
        self.nrt.entries.clear();
        dropped
    }

    /// Queue depth across all classes.
    pub fn len(&self) -> usize {
        self.rt.entries.len() + self.be.entries.len() + self.nrt.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue depth of one class.
    #[cfg(test)]
    pub fn class_len(&self, class: TrafficClass) -> usize {
        self.queue(class).entries.len()
    }

    /// Iterate all queued messages (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedMessage> {
        self.rt
            .entries
            .iter()
            .chain(self.be.entries.iter())
            .chain(self.nrt.entries.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Destination, MessageId};
    use ccr_phys::NodeId;

    fn msg(id: u64, class: TrafficClass, deadline_us: u64, size: u32) -> Message {
        let mut m = match class {
            TrafficClass::RealTime => Message::real_time(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                size,
                SimTime::ZERO,
                SimTime::from_us(deadline_us),
                crate::connection::ConnectionId(0),
            ),
            TrafficClass::BestEffort => Message::best_effort(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                size,
                SimTime::ZERO,
                SimTime::from_us(deadline_us),
            ),
            TrafficClass::NonRealTime => Message::non_real_time(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                size,
                SimTime::ZERO,
            ),
        };
        m.id = MessageId(id);
        m
    }

    #[test]
    fn head_prefers_rt_over_be_over_nrt() {
        let mut q = NodeQueues::new();
        q.push(msg(1, TrafficClass::NonRealTime, 0, 1));
        assert_eq!(q.head().unwrap().msg.id, MessageId(1));
        q.push(msg(2, TrafficClass::BestEffort, 10_000, 1));
        assert_eq!(q.head().unwrap().msg.id, MessageId(2));
        q.push(msg(3, TrafficClass::RealTime, 99_999, 1));
        // RT wins even with the latest deadline
        assert_eq!(q.head().unwrap().msg.id, MessageId(3));
    }

    #[test]
    fn edf_order_within_class() {
        let mut q = NodeQueues::new();
        q.push(msg(1, TrafficClass::RealTime, 300, 1));
        let k2 = q.push(msg(2, TrafficClass::RealTime, 100, 1));
        q.push(msg(3, TrafficClass::RealTime, 200, 1));
        assert_eq!(q.head().unwrap().msg.id, MessageId(2));
        match q.record_sent_slot(k2) {
            SentOutcome::Finished(qm) => {
                assert_eq!(qm.msg.id, MessageId(2));
                assert_eq!(qm.sent_slots, 1);
                assert_eq!(qm.lost_slots, 0);
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert_eq!(q.head().unwrap().msg.id, MessageId(3));
    }

    #[test]
    fn equal_deadlines_fifo() {
        let mut q = NodeQueues::new();
        q.push(msg(10, TrafficClass::BestEffort, 500, 1));
        q.push(msg(11, TrafficClass::BestEffort, 500, 1));
        assert_eq!(q.head().unwrap().msg.id, MessageId(10));
    }

    #[test]
    fn multi_slot_message_progress() {
        let mut q = NodeQueues::new();
        let k7 = q.push(msg(7, TrafficClass::RealTime, 100, 3));
        assert_eq!(q.record_sent_slot(k7), SentOutcome::Progress);
        assert_eq!(q.get(k7).unwrap().remaining(), 2);
        assert_eq!(q.record_sent_slot(k7), SentOutcome::Progress);
        match q.record_sent_slot(k7) {
            SentOutcome::Finished(qm) => assert_eq!(qm.msg.id, MessageId(7)),
            other => panic!("expected Finished, got {other:?}"),
        }
        assert!(q.is_empty());
        assert!(q.get(k7).is_none());
    }

    #[test]
    fn remove_by_id() {
        let mut q = NodeQueues::new();
        let k1 = q.push(msg(1, TrafficClass::RealTime, 100, 1));
        q.push(msg(2, TrafficClass::BestEffort, 100, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.remove(k1).unwrap().id, MessageId(1));
        assert_eq!(q.len(), 1);
        assert!(q.remove(k1).is_none());
        assert_eq!(q.class_len(TrafficClass::BestEffort), 1);
        assert_eq!(q.class_len(TrafficClass::RealTime), 0);
    }

    #[test]
    fn awaiting_ack_skipped_by_head() {
        let mut q = NodeQueues::new();
        let k1 = q.push(msg(1, TrafficClass::RealTime, 100, 2));
        q.push(msg(2, TrafficClass::RealTime, 200, 1));
        q.get_mut(k1).unwrap().awaiting_ack_since = Some(5);
        // head skips the stalled message
        assert_eq!(q.head().unwrap().msg.id, MessageId(2));
        q.get_mut(k1).unwrap().awaiting_ack_since = None;
        assert_eq!(q.head().unwrap().msg.id, MessageId(1));
    }

    #[test]
    fn iter_covers_all_classes() {
        let mut q = NodeQueues::new();
        q.push(msg(1, TrafficClass::RealTime, 100, 1));
        q.push(msg(2, TrafficClass::BestEffort, 100, 1));
        q.push(msg(3, TrafficClass::NonRealTime, 0, 1));
        assert_eq!(q.iter().count(), 3);
    }

    #[test]
    fn clear_drops_everything_and_reports_count() {
        let mut q = NodeQueues::new();
        let k1 = q.push(msg(1, TrafficClass::RealTime, 100, 1));
        q.push(msg(2, TrafficClass::BestEffort, 100, 1));
        q.push(msg(3, TrafficClass::NonRealTime, 0, 2));
        assert_eq!(q.clear(), 3);
        assert!(q.is_empty());
        assert!(q.get(k1).is_none());
        assert_eq!(q.clear(), 0);
        // Queues stay usable after a clear.
        q.push(msg(4, TrafficClass::RealTime, 50, 1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn record_unknown_id_panics() {
        let mut q = NodeQueues::new();
        let elsewhere = NodeQueues::new().push(msg(99, TrafficClass::RealTime, 100, 1));
        q.record_sent_slot(elsewhere);
    }
}
