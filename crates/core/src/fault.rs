//! Clock/token-loss recovery (Section 8, "future work", implemented as an
//! extension) and the deterministic fault-injection script.
//!
//! The paper assumes the token (clock + distribution packet) is never lost
//! and sketches the fix: "using a time out and a designated node that
//! always will start could solve this". We implement exactly that sketch:
//! when a distribution packet is lost, no node learns the next master, the
//! clock stays silent, and after a fixed timeout the designated restart
//! node (node 0) assumes the master role and restarts arbitration with an
//! empty slot. Because node 0 itself can fail, the engine resolves the
//! designated node against the set of live nodes with
//! [`elect_restart_node`] — the nearest live successor downstream of the
//! designated node restarts the clock instead of deadlocking.
//!
//! On top of the stochastic knobs in [`crate::config::FaultConfig`], a
//! [`FaultScript`] carries a slot-indexed schedule of discrete fault
//! events (token loss, node failure, control-channel bit errors). The
//! script composes with the stochastic knobs and is replayed bit-for-bit:
//! the same seed + the same script always yields identical
//! [`crate::metrics::Metrics`].

use ccr_phys::NodeId;
use ccr_sim::rng::DetRng;

/// State machine for clock-loss recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockRecovery {
    /// Normal operation.
    #[default]
    Healthy,
    /// Token lost; counting timeout slots until the restart node takes
    /// over.
    Recovering {
        /// Slots of silence remaining before the restart node acts.
        remaining: u32,
    },
}

/// The node designated to restart the clock after a loss.
pub const RESTART_NODE: NodeId = NodeId(0);

impl ClockRecovery {
    /// Signal that this slot's distribution packet was lost; recovery
    /// starts with the configured timeout.
    ///
    /// A loss reported while already `Recovering` does **not** restart the
    /// timeout: the restart node's silence timer has been running since the
    /// first loss, so the shorter remaining count is kept. (During recovery
    /// no distribution packet is sent at all, but callers may re-report a
    /// loss — e.g. a fabric layer observing the same dead ring twice.)
    pub fn token_lost(&mut self, timeout_slots: u32) {
        let remaining = match *self {
            ClockRecovery::Healthy => timeout_slots,
            ClockRecovery::Recovering { remaining } => remaining.min(timeout_slots),
        };
        *self = ClockRecovery::Recovering { remaining };
    }

    /// Advance one slot. Returns `Some(RESTART_NODE)` when the timeout has
    /// elapsed and the restart node takes the master role.
    pub fn tick(&mut self) -> Option<NodeId> {
        match self {
            ClockRecovery::Healthy => None,
            ClockRecovery::Recovering { remaining } => {
                if *remaining <= 1 {
                    *self = ClockRecovery::Healthy;
                    Some(RESTART_NODE)
                } else {
                    *remaining -= 1;
                    None
                }
            }
        }
    }

    /// True while recovering (slots are dead time).
    pub fn recovering(&self) -> bool {
        matches!(self, ClockRecovery::Recovering { .. })
    }
}

/// Resolve the designated restart node against the set of live nodes.
///
/// Scans downstream (ring order) from `designated` and returns the first
/// node for which `alive` holds; with every node alive this is `designated`
/// itself, so healthy rings behave exactly as before. Returns `None` only
/// when no node is alive at all (a dead ring cannot restart its clock).
pub fn elect_restart_node(
    designated: NodeId,
    n_nodes: u16,
    mut alive: impl FnMut(NodeId) -> bool,
) -> Option<NodeId> {
    for off in 0..n_nodes {
        let cand = NodeId((designated.0 + off) % n_nodes);
        if alive(cand) {
            return Some(cand);
        }
    }
    None
}

/// One discrete fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// This slot's distribution packet never arrives: every node times out
    /// exactly as if the stochastic token-loss draw had fired.
    LoseToken,
    /// The node fails and is optically bypassed: it stops requesting and
    /// transmitting, its queued messages are dropped and its connections
    /// torn down (admitted capacity released). If it held the clock, the
    /// loss triggers recovery.
    FailNode(NodeId),
    /// Bit error in the control channel hits this node's collection entry;
    /// with CRC enabled the master drops the request for the slot.
    CorruptCollection {
        /// Whose collection entry takes the bit error.
        victim: NodeId,
    },
    /// Bit error hits the distribution packet; the CRC fails at every node,
    /// which is indistinguishable from token loss and handled as one.
    CorruptDistribution,
}

/// A fault scheduled for a specific slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Slot index (engine slot counter) at which the fault fires.
    pub slot: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, slot-indexed schedule of fault events.
///
/// Events are kept sorted by slot; the engine consumes them with an
/// allocation-free cursor, so a script adds nothing to the hot path beyond
/// one index comparison per slot. Scripts compose with the stochastic
/// knobs in [`crate::config::FaultConfig`]: both can be active at once and
/// the combined run is still bit-for-bit replayable from the seed + script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule `kind` at `slot`. Keeps events sorted by slot;
    /// events sharing a slot fire in insertion order.
    pub fn at(mut self, slot: u64, kind: FaultKind) -> Self {
        self.push(slot, kind);
        self
    }

    /// Schedule `kind` at `slot` (non-builder form).
    pub fn push(&mut self, slot: u64, kind: FaultKind) {
        let at = self.events.partition_point(|e| e.slot <= slot);
        self.events.insert(at, FaultEvent { slot, kind });
    }

    /// The scheduled events, sorted by slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when any event can silence the clock (token loss, distribution
    /// corruption, or a node failure that may hit the master) — used by
    /// config validation to require a usable recovery timeout.
    pub fn has_clock_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::LoseToken | FaultKind::CorruptDistribution | FaultKind::FailNode(_)
            )
        })
    }

    /// Generate a seeded chaos script: `n_events` non-fatal faults (token
    /// losses, collection and distribution bit errors) spread uniformly
    /// over `(0, horizon_slots)`. Node failures are deliberately excluded —
    /// they are one-shot topology changes the caller should place
    /// explicitly. Same arguments ⇒ same script.
    pub fn chaos(seed: u64, horizon_slots: u64, n_nodes: u16, n_events: usize) -> Self {
        let mut rng = DetRng::new(seed ^ 0xC4A0_5C41);
        let mut script = Self::new();
        for _ in 0..n_events {
            let slot = rng.gen_range(1..horizon_slots.max(3));
            let kind = match rng.gen_range(0u32..3) {
                0 => FaultKind::LoseToken,
                1 => FaultKind::CorruptCollection {
                    victim: NodeId(rng.gen_range(0..n_nodes.max(1))),
                },
                _ => FaultKind::CorruptDistribution,
            };
            script.push(slot, kind);
        }
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_ticks_do_nothing() {
        let mut r = ClockRecovery::default();
        assert!(!r.recovering());
        assert_eq!(r.tick(), None);
        assert_eq!(r, ClockRecovery::Healthy);
    }

    #[test]
    fn recovery_counts_down_then_restarts() {
        let mut r = ClockRecovery::default();
        r.token_lost(3);
        assert!(r.recovering());
        assert_eq!(r.tick(), None); // 2 left
        assert_eq!(r.tick(), None); // 1 left
        assert_eq!(r.tick(), Some(RESTART_NODE));
        assert!(!r.recovering());
    }

    #[test]
    fn timeout_one_restarts_next_tick() {
        let mut r = ClockRecovery::default();
        r.token_lost(1);
        assert_eq!(r.tick(), Some(RESTART_NODE));
    }

    #[test]
    fn timeout_zero_acts_like_one() {
        let mut r = ClockRecovery::default();
        r.token_lost(0);
        assert_eq!(r.tick(), Some(RESTART_NODE));
    }

    #[test]
    fn repeated_loss_keeps_shorter_remaining() {
        let mut r = ClockRecovery::default();
        r.token_lost(2);
        assert_eq!(r.tick(), None); // 1 left
        r.token_lost(2); // lost again mid-recovery: keep the 1, not 2
        assert_eq!(r.tick(), Some(RESTART_NODE));
        assert!(!r.recovering());
    }

    #[test]
    fn mid_recovery_loss_with_shorter_timeout_tightens() {
        let mut r = ClockRecovery::default();
        r.token_lost(10);
        assert_eq!(r.tick(), None); // 9 left
        r.token_lost(1); // a tighter timeout wins
        assert_eq!(r.tick(), Some(RESTART_NODE));
    }

    #[test]
    fn election_prefers_designated_when_alive() {
        let got = elect_restart_node(NodeId(0), 5, |_| true);
        assert_eq!(got, Some(NodeId(0)));
    }

    #[test]
    fn election_skips_dead_nodes_downstream_with_wraparound() {
        // Designated node 3 dead, node 4 dead ⇒ wraps to node 0.
        let dead = [NodeId(3), NodeId(4)];
        let got = elect_restart_node(NodeId(3), 5, |n| !dead.contains(&n));
        assert_eq!(got, Some(NodeId(0)));
        // Node 0 dead ⇒ nearest live successor is node 1.
        let got = elect_restart_node(NodeId(0), 5, |n| n != NodeId(0));
        assert_eq!(got, Some(NodeId(1)));
    }

    #[test]
    fn election_fails_only_on_a_fully_dead_ring() {
        assert_eq!(elect_restart_node(NodeId(2), 4, |_| false), None);
    }

    #[test]
    fn script_keeps_events_sorted_and_stable() {
        let s = FaultScript::new()
            .at(10, FaultKind::LoseToken)
            .at(3, FaultKind::CorruptDistribution)
            .at(10, FaultKind::FailNode(NodeId(1)))
            .at(7, FaultKind::CorruptCollection { victim: NodeId(2) });
        let slots: Vec<u64> = s.events().iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![3, 7, 10, 10]);
        // Same-slot events keep insertion order.
        assert_eq!(s.events()[2].kind, FaultKind::LoseToken);
        assert_eq!(s.events()[3].kind, FaultKind::FailNode(NodeId(1)));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.has_clock_faults());
    }

    #[test]
    fn collection_only_script_has_no_clock_faults() {
        let s = FaultScript::new().at(5, FaultKind::CorruptCollection { victim: NodeId(0) });
        assert!(!s.has_clock_faults());
        assert!(FaultScript::new()
            .at(1, FaultKind::FailNode(NodeId(3)))
            .has_clock_faults());
    }

    #[test]
    fn chaos_script_is_reproducible_and_bounded() {
        let a = FaultScript::chaos(42, 1_000, 8, 25);
        let b = FaultScript::chaos(42, 1_000, 8, 25);
        assert_eq!(a, b, "same seed ⇒ same script");
        assert_eq!(a.len(), 25);
        assert!(a.events().iter().all(|e| e.slot >= 1 && e.slot < 1_000));
        assert!(a
            .events()
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::FailNode(_))));
        let c = FaultScript::chaos(43, 1_000, 8, 25);
        assert_ne!(a, c, "different seed ⇒ different script");
    }
}
