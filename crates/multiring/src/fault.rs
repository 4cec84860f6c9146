//! Fabric-level fault scripting.
//!
//! A [`FabricFaultScript`] extends the single-ring
//! [`ccr_edf::fault::FaultScript`] across the fabric: every ring-local
//! fault kind can be aimed at a specific ring, and a fabric-only kind —
//! [`FabricFaultKind::KillBridge`] — takes down a bridge station. Because
//! the engine steps every ring in lockstep (fabric slot *k* is ring slot
//! *k* on every ring), ring-local events distribute losslessly into the
//! per-ring scripts at build time; only bridge kills and repairs need a
//! fabric-level cursor, applied at the top of the step before any ring
//! moves.

use crate::topology::RingId;
use ccr_edf::fault::{FaultKind, FaultScript};

/// One discrete fabric-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFaultKind {
    /// A ring-local fault (token loss, node failure, control-channel bit
    /// error) on one specific ring.
    Ring {
        /// The ring the fault lands on.
        ring: RingId,
        /// What happens there.
        fault: FaultKind,
    },
    /// The bridge station dies: both of its forwarding queues are flushed
    /// (queued messages lost), its port nodes are failed on their rings,
    /// and every end-to-end connection routed across it is re-admitted
    /// over an alternate bridge path when one exists — revoked otherwise.
    KillBridge {
        /// Index into the topology's bridge list.
        bridge: usize,
    },
    /// The bridge station comes back: its dead flag clears, its port nodes
    /// are repaired on their rings (unless another dead bridge still shares
    /// the port), the health scan sees the rings whole again, and the
    /// engine deterministically reclaims connections that were revoked or
    /// detoured while it was down.
    RepairBridge {
        /// Index into the topology's bridge list.
        bridge: usize,
    },
}

/// What a scheduled bridge event does, as reported by
/// [`FabricFaultScript::bridge_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeEventKind {
    /// Take the bridge down.
    Kill,
    /// Bring the bridge back.
    Repair,
}

/// A fabric fault scheduled for a specific fabric slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricFaultEvent {
    /// Fabric slot index at which the fault fires.
    pub slot: u64,
    /// What happens.
    pub kind: FabricFaultKind,
}

/// A deterministic, slot-indexed schedule of fabric fault events.
///
/// Like the ring-level script, events are kept sorted by slot and the same
/// script always replays bit-for-bit: the differential tests assert that
/// one seed + one script yields `==` metrics on every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricFaultScript {
    events: Vec<FabricFaultEvent>,
}

impl FabricFaultScript {
    /// An empty script (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule a ring-local `fault` on `ring` at `slot`.
    pub fn ring_at(mut self, slot: u64, ring: RingId, fault: FaultKind) -> Self {
        self.push(slot, FabricFaultKind::Ring { ring, fault });
        self
    }

    /// Builder: schedule a bridge kill at `slot`.
    pub fn kill_bridge_at(mut self, slot: u64, bridge: usize) -> Self {
        self.push(slot, FabricFaultKind::KillBridge { bridge });
        self
    }

    /// Builder: schedule a bridge repair at `slot`.
    pub fn repair_bridge_at(mut self, slot: u64, bridge: usize) -> Self {
        self.push(slot, FabricFaultKind::RepairBridge { bridge });
        self
    }

    /// Schedule `kind` at `slot` (non-builder form). Keeps events sorted by
    /// slot; events sharing a slot fire in insertion order.
    pub fn push(&mut self, slot: u64, kind: FabricFaultKind) {
        let at = self.events.partition_point(|e| e.slot <= slot);
        self.events.insert(at, FabricFaultEvent { slot, kind });
    }

    /// The scheduled events, sorted by slot.
    pub fn events(&self) -> &[FabricFaultEvent] {
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

    /// Extract the ring-local sub-script for `ring` (fabric slot indices
    /// carry over unchanged — the lockstep engine keeps every ring's slot
    /// counter equal to the fabric's).
    pub fn ring_script(&self, ring: RingId) -> FaultScript {
        let mut s = FaultScript::new();
        for e in &self.events {
            if let FabricFaultKind::Ring { ring: r, fault } = e.kind {
                if r == ring {
                    s.push(e.slot, fault);
                }
            }
        }
        s
    }

    /// Every scheduled bridge event (kills *and* repairs) as
    /// `(slot, bridge index, kind)`, sorted by slot with same-slot events in
    /// insertion order — the cursor the engine drains in its serial phase.
    pub fn bridge_events(&self) -> Vec<(u64, usize, BridgeEventKind)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FabricFaultKind::KillBridge { bridge } => {
                    Some((e.slot, bridge, BridgeEventKind::Kill))
                }
                FabricFaultKind::RepairBridge { bridge } => {
                    Some((e.slot, bridge, BridgeEventKind::Repair))
                }
                FabricFaultKind::Ring { .. } => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_phys::NodeId;

    #[test]
    fn script_sorts_and_splits_per_ring() {
        let s = FabricFaultScript::new()
            .ring_at(20, RingId(1), FaultKind::LoseToken)
            .kill_bridge_at(5, 0)
            .ring_at(10, RingId(0), FaultKind::FailNode(NodeId(2)))
            .ring_at(10, RingId(1), FaultKind::CorruptDistribution);
        let slots: Vec<u64> = s.events().iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![5, 10, 10, 20]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());

        let r0 = s.ring_script(RingId(0));
        assert_eq!(r0.len(), 1);
        assert_eq!(r0.events()[0].kind, FaultKind::FailNode(NodeId(2)));
        let r1 = s.ring_script(RingId(1));
        assert_eq!(r1.len(), 2);
        assert_eq!(r1.events()[0].slot, 10);
        assert_eq!(s.ring_script(RingId(7)).len(), 0);

        assert_eq!(s.bridge_events(), vec![(5, 0, BridgeEventKind::Kill)]);
    }

    #[test]
    fn bridge_events_interleave_kills_and_repairs() {
        let s = FabricFaultScript::new()
            .kill_bridge_at(5, 0)
            .repair_bridge_at(50, 0)
            .kill_bridge_at(80, 1);
        assert_eq!(
            s.bridge_events(),
            vec![
                (5, 0, BridgeEventKind::Kill),
                (50, 0, BridgeEventKind::Repair),
                (80, 1, BridgeEventKind::Kill),
            ]
        );
    }

    #[test]
    fn empty_script_distributes_to_nothing() {
        let s = FabricFaultScript::new();
        assert!(s.is_empty());
        assert!(s.ring_script(RingId(0)).is_empty());
        assert!(s.bridge_events().is_empty());
    }
}
