//! Bridge forwarding: bounded, EDF-ordered per-egress-ring queues and the
//! per-hop deadline decomposition rule.
//!
//! A bridge station removes a message from its ingress ring exactly like a
//! normal receiver, then re-queues it for its egress ring. The queue is
//! **EDF-ordered** — the pending forward with the earliest absolute
//! deadline is injected first, with a fabric-wide arrival sequence number
//! as a deterministic tie-break — and **bounded**: a full buffer evicts the
//! message with the latest deadline rather than growing without limit, so
//! bridge memory is a first-class admission resource (checked by
//! [`crate::admission`]).
//!
//! Deadline decomposition follows the proportional rule: an end-to-end
//! deadline `D` is split over the route's segments in proportion to each
//! segment ring's slot time (a proxy for the time the message actually
//! needs on that ring), with the integer remainder pushed onto the
//! earliest segments so the budgets always sum to exactly `D`.

use ccr_edf::message::Message;
use ccr_sim::{SimTime, TimeDelta};

/// Static per-bridge-direction configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Maximum messages buffered per direction.
    pub capacity: usize,
    /// Maximum messages injected into the egress ring per fabric slot.
    pub forward_per_slot: u32,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            capacity: 64,
            forward_per_slot: 1,
        }
    }
}

/// A message awaiting injection into its next ring.
#[derive(Debug, Clone)]
pub struct PendingForward {
    /// The message, already rewritten for the egress segment (source,
    /// destination, deadline, and the egress ring connection, which names
    /// the end-to-end connection and segment it belongs to).
    pub msg: Message,
    /// When the bridge received it from the ingress ring.
    pub enqueued: SimTime,
    /// Fabric-wide arrival sequence number — the deterministic EDF
    /// tie-break for equal deadlines.
    pub seq: u64,
    /// End-to-end latency accumulated over the previous segments.
    pub accumulated: TimeDelta,
}

impl PendingForward {
    fn key(&self) -> (SimTime, u64) {
        (self.msg.deadline, self.seq)
    }
}

/// One bounded EDF-ordered forwarding queue (one direction of one bridge).
#[derive(Debug, Default)]
pub struct BridgeQueue {
    items: Vec<PendingForward>,
    /// Messages dropped by the overflow policy since construction.
    pub drops: u64,
    /// High-water mark of the buffer occupancy.
    pub peak_occupancy: usize,
}

impl BridgeQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offer a forward. A full buffer evicts the queued message with the
    /// *latest* absolute deadline if it is later than the arrival's
    /// (EDF-consistent: the most-likely-to-miss message pays), and drops the
    /// arrival when the arrival itself has the latest deadline. Returns the
    /// dropped message, if any.
    pub fn push(&mut self, fwd: PendingForward, cfg: &BridgeConfig) -> Option<PendingForward> {
        let dropped = if self.items.len() >= cfg.capacity {
            // index of the latest-deadline resident (ties: newest seq
            // loses — it had the least head start).
            let worst = self
                .items
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.key())
                .map(|(i, _)| i)
                .expect("capacity > 0 implies non-empty at overflow");
            self.drops += 1;
            if self.items[worst].key() > fwd.key() {
                Some(self.items.swap_remove(worst))
            } else {
                return Some(fwd);
            }
        } else {
            None
        };
        self.items.push(fwd);
        self.peak_occupancy = self.peak_occupancy.max(self.items.len());
        dropped
    }

    /// Remove and return the earliest-deadline forward (ties broken by
    /// arrival sequence), or `None` when empty.
    pub fn pop_earliest(&mut self) -> Option<PendingForward> {
        let best = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.key())
            .map(|(i, _)| i)?;
        Some(self.items.swap_remove(best))
    }

    /// Peek the earliest deadline without removing.
    #[cfg(test)]
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.items.iter().map(|p| p.msg.deadline).min()
    }
}

/// Split an end-to-end relative deadline over `weights.len()` segments,
/// proportionally to `weights`, such that the budgets sum to exactly
/// `e2e`. The integer remainder of the division lands on the earliest
/// segments (one extra picosecond each), which keeps the rule exact and
/// deterministic.
///
/// Returns `None` when there are no segments or every weight is zero.
pub fn decompose_deadline(e2e: TimeDelta, weights: &[u64]) -> Option<Vec<TimeDelta>> {
    if weights.is_empty() {
        return None;
    }
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        return None;
    }
    let d = e2e.as_ps() as u128;
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|&w| ((d * w as u128) / total) as u64)
        .collect();
    let assigned: u128 = budgets.iter().map(|&b| b as u128).sum();
    let mut remainder = (d - assigned) as u64;
    for b in budgets.iter_mut() {
        if remainder == 0 {
            break;
        }
        *b += 1;
        remainder -= 1;
    }
    Some(budgets.into_iter().map(TimeDelta::from_ps).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_edf::connection::ConnectionId;
    use ccr_edf::message::Destination;
    use ccr_phys::NodeId;

    fn fwd(deadline_us: u64, seq: u64) -> PendingForward {
        PendingForward {
            msg: Message::real_time(
                NodeId(0),
                Destination::Unicast(NodeId(1)),
                1,
                SimTime::ZERO,
                SimTime::from_us(deadline_us),
                ConnectionId(seq),
            ),
            enqueued: SimTime::ZERO,
            seq,
            accumulated: TimeDelta::ZERO,
        }
    }

    #[test]
    fn pops_in_edf_order_with_seq_tiebreak() {
        let cfg = BridgeConfig::default();
        let mut q = BridgeQueue::new();
        assert!(q.push(fwd(30, 0), &cfg).is_none());
        assert!(q.push(fwd(10, 1), &cfg).is_none());
        assert!(q.push(fwd(10, 2), &cfg).is_none());
        assert!(q.push(fwd(20, 3), &cfg).is_none());
        assert_eq!(q.earliest_deadline(), Some(SimTime::from_us(10)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_earliest().map(|p| p.seq)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn overflow_evicts_latest_deadline() {
        let cfg = BridgeConfig {
            capacity: 2,
            ..Default::default()
        };
        let mut q = BridgeQueue::new();
        q.push(fwd(10, 0), &cfg);
        q.push(fwd(50, 1), &cfg);
        // earlier than the worst resident → resident 1 (d=50) is evicted
        let dropped = q.push(fwd(20, 2), &cfg).unwrap();
        assert_eq!(dropped.seq, 1);
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 2);
        // later than everything → the arrival itself is dropped
        let dropped = q.push(fwd(99, 3), &cfg).unwrap();
        assert_eq!(dropped.seq, 3);
        assert_eq!(q.drops, 2);
        assert_eq!(q.peak_occupancy, 2);
    }

    #[test]
    fn decomposition_sums_exactly() {
        let d = TimeDelta::from_ps(1_000_003);
        let parts = decompose_deadline(d, &[3, 3, 1]).unwrap();
        let sum: u64 = parts.iter().map(|p| p.as_ps()).sum();
        assert_eq!(sum, d.as_ps(), "budgets must sum to the e2e deadline");
        // proportionality: the weight-3 segments get ~3× the weight-1 one
        assert!(parts[0] >= parts[2]);
        let ratio = parts[0].as_ps() as f64 / parts[2].as_ps() as f64;
        assert!((ratio - 3.0).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn decomposition_equal_weights_near_even() {
        let d = TimeDelta::from_us(100);
        let parts = decompose_deadline(d, &[1, 1, 1]).unwrap();
        let sum: u64 = parts.iter().map(|p| p.as_ps()).sum();
        assert_eq!(sum, d.as_ps());
        let max = parts.iter().max().unwrap().as_ps();
        let min = parts.iter().min().unwrap().as_ps();
        assert!(max - min <= 1, "remainder spread is at most 1 ps per part");
    }

    #[test]
    fn decomposition_degenerate_inputs() {
        assert!(decompose_deadline(TimeDelta::from_us(1), &[]).is_none());
        assert!(decompose_deadline(TimeDelta::from_us(1), &[0, 0]).is_none());
        let single = decompose_deadline(TimeDelta::from_us(7), &[5]).unwrap();
        assert_eq!(single, vec![TimeDelta::from_us(7)]);
    }
}
