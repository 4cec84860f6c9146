//! Messages, destinations and traffic classes.
//!
//! A *message* is the unit the user hands to the network: it occupies an
//! integral number of slots (`size_slots`, the `e` of Equation 5) and is
//! transported as that many data packets to a single destination, a
//! multicast group, or the whole ring (Section 1: "single destination,
//! multicast and broadcast transmission").

use crate::connection::ConnectionId;
use crate::wire::NodeSet;
use ccr_phys::{NodeId, RingTopology};
use ccr_sim::SimTime;

/// The three user-traffic classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Messages of an admitted logical real-time connection (levels 17–31).
    RealTime,
    /// Soft-deadline best-effort traffic (levels 2–16).
    BestEffort,
    /// Deadline-less bulk traffic (level 1).
    NonRealTime,
}

impl TrafficClass {
    /// Stable short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::RealTime => "RT",
            TrafficClass::BestEffort => "BE",
            TrafficClass::NonRealTime => "NRT",
        }
    }
}

/// Unique message identity (assigned by the network on submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

/// Where a message is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// One receiver.
    Unicast(NodeId),
    /// A set of receivers (a ring holds at most 64 nodes, so a bitmask
    /// holds any group); the occupied segment runs to the furthest one.
    Multicast(NodeSet),
    /// Every other node (an N−1 hop segment).
    Broadcast,
}

impl Destination {
    /// The receivers of this destination on ring `topo`, from sender `src`.
    pub fn receivers(&self, topo: RingTopology, src: NodeId) -> Vec<NodeId> {
        match self {
            Destination::Unicast(d) => vec![*d],
            Destination::Multicast(ds) => ds.iter().collect(),
            Destination::Broadcast => topo.broadcast_dests(src),
        }
    }

    /// The receivers as a bitmask — the allocation-free counterpart of
    /// [`Destination::receivers`], used on the per-slot hot path.
    pub fn dest_set(&self, topo: RingTopology, src: NodeId) -> NodeSet {
        match self {
            Destination::Unicast(d) => NodeSet::single(*d),
            Destination::Multicast(ds) => *ds,
            Destination::Broadcast => {
                let n = topo.n_nodes();
                let all = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
                NodeSet(all & !(1u64 << src.0))
            }
        }
    }

    /// Number of downstream hops to the furthest receiver.
    pub fn span_hops(&self, topo: RingTopology, src: NodeId) -> u16 {
        match self {
            Destination::Unicast(d) => topo.hops(src, *d),
            Destination::Multicast(ds) => ds.iter().map(|d| topo.hops(src, d)).max().unwrap_or(0),
            Destination::Broadcast => topo.n_nodes() - 1,
        }
    }

    /// Validate against a topology and source: receivers must exist, differ
    /// from the source, and multicast sets must be non-empty.
    // ccr-verify: event_path -- allocates only when rejecting a malformed destination
    pub fn validate(&self, topo: RingTopology, src: NodeId) -> Result<(), String> {
        let check = |d: NodeId| -> Result<(), String> {
            if d.0 >= topo.n_nodes() {
                Err(format!(
                    "destination {d} outside ring of {}",
                    topo.n_nodes()
                ))
            } else if d == src {
                Err(format!("destination {d} equals source"))
            } else {
                Ok(())
            }
        };
        match self {
            Destination::Unicast(d) => check(*d),
            Destination::Multicast(ds) if ds.is_empty() => Err("empty multicast set".to_string()),
            Destination::Multicast(ds) => ds.iter().try_for_each(check),
            Destination::Broadcast => Ok(()),
        }
    }
}

/// A message queued for transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Identity (set by the network; `MessageId(u64::MAX)` until submitted).
    pub id: MessageId,
    /// Sending node.
    pub src: NodeId,
    /// Receiver(s).
    pub dest: Destination,
    /// Traffic class.
    pub class: TrafficClass,
    /// Size in slots (`e` of Equation 5); each slot carries one data packet.
    pub size_slots: u32,
    /// Release instant (when the message became available to send).
    pub released: SimTime,
    /// Absolute deadline. `SimTime::MAX` for non-real-time traffic.
    pub deadline: SimTime,
    /// The logical real-time connection this message belongs to, if any.
    pub connection: Option<ConnectionId>,
    /// Use the reliable-transmission service (acknowledgement +
    /// retransmission; unicast only). Requires the network's reliable
    /// service to be enabled.
    pub reliable: bool,
}

impl Message {
    /// A not-yet-submitted id placeholder.
    pub const UNASSIGNED: MessageId = MessageId(u64::MAX);

    /// Build a best-effort message.
    pub fn best_effort(
        src: NodeId,
        dest: Destination,
        size_slots: u32,
        released: SimTime,
        deadline: SimTime,
    ) -> Self {
        Message {
            id: Self::UNASSIGNED,
            src,
            dest,
            class: TrafficClass::BestEffort,
            size_slots,
            released,
            deadline,
            connection: None,
            reliable: false,
        }
    }

    /// Build a non-real-time message (no deadline).
    pub fn non_real_time(
        src: NodeId,
        dest: Destination,
        size_slots: u32,
        released: SimTime,
    ) -> Self {
        Message {
            id: Self::UNASSIGNED,
            src,
            dest,
            class: TrafficClass::NonRealTime,
            size_slots,
            released,
            deadline: SimTime::MAX,
            connection: None,
            reliable: false,
        }
    }

    /// Build a real-time message belonging to connection `conn`.
    pub fn real_time(
        src: NodeId,
        dest: Destination,
        size_slots: u32,
        released: SimTime,
        deadline: SimTime,
        conn: ConnectionId,
    ) -> Self {
        Message {
            id: Self::UNASSIGNED,
            src,
            dest,
            class: TrafficClass::RealTime,
            size_slots,
            released,
            deadline,
            connection: Some(conn),
            reliable: false,
        }
    }

    /// Request reliable (acknowledged) transmission for this message.
    pub fn with_reliable(mut self) -> Self {
        self.reliable = true;
        self
    }

    /// Remaining whole slots of laxity at instant `now`, given nominal slot
    /// length `slot` in picoseconds. Zero when the deadline has passed.
    pub fn laxity_slots(&self, now: SimTime, slot_ps: u64) -> u64 {
        if self.deadline == SimTime::MAX {
            return u64::MAX;
        }
        self.deadline.saturating_since(now).as_ps() / slot_ps
    }

    /// Sanity-check the message against a topology.
    // ccr-verify: event_path -- allocates only when rejecting a malformed message
    pub fn validate(&self, topo: RingTopology) -> Result<(), String> {
        if self.src.0 >= topo.n_nodes() {
            return Err(format!("source {} outside ring", self.src));
        }
        if self.size_slots == 0 {
            return Err("zero-size message".to_string());
        }
        if self.reliable && !matches!(self.dest, Destination::Unicast(_)) {
            return Err("reliable transmission is unicast-only".to_string());
        }
        self.dest.validate(topo, self.src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_sim::TimeDelta;

    fn topo() -> RingTopology {
        RingTopology::new(6)
    }

    fn set(ids: &[u16]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn destination_receivers() {
        let t = topo();
        assert_eq!(
            Destination::Unicast(NodeId(3)).receivers(t, NodeId(1)),
            vec![NodeId(3)]
        );
        assert_eq!(Destination::Broadcast.receivers(t, NodeId(0)).len(), 5);
        let mc = Destination::Multicast(set(&[2, 4]));
        assert_eq!(mc.receivers(t, NodeId(0)).len(), 2);
    }

    #[test]
    fn span_hops_covers_furthest() {
        let t = topo();
        assert_eq!(Destination::Unicast(NodeId(3)).span_hops(t, NodeId(1)), 2);
        assert_eq!(
            Destination::Multicast(set(&[1, 5])).span_hops(t, NodeId(4)),
            3
        );
        assert_eq!(Destination::Broadcast.span_hops(t, NodeId(2)), 5);
    }

    #[test]
    fn validation_rejects_bad_destinations() {
        let t = topo();
        assert!(Destination::Unicast(NodeId(9))
            .validate(t, NodeId(0))
            .is_err());
        assert!(Destination::Unicast(NodeId(0))
            .validate(t, NodeId(0))
            .is_err());
        assert!(Destination::Broadcast.validate(t, NodeId(0)).is_ok());
        assert!(Destination::Unicast(NodeId(5))
            .validate(t, NodeId(0))
            .is_ok());
        assert!(Destination::Multicast(set(&[1, 5]))
            .validate(t, NodeId(0))
            .is_ok());
    }

    #[test]
    fn multicast_validation_rejects_an_empty_set() {
        assert!(Destination::Multicast(NodeSet::EMPTY)
            .validate(topo(), NodeId(0))
            .is_err());
    }

    #[test]
    fn multicast_validation_rejects_a_set_holding_the_source() {
        assert!(Destination::Multicast(set(&[1, 0]))
            .validate(topo(), NodeId(0))
            .is_err());
    }

    #[test]
    fn multicast_validation_rejects_members_beyond_the_ring() {
        // Ring of 6: node 6 is the first id past the end, 63 the last bit.
        for beyond in [6u16, 63] {
            assert!(Destination::Multicast(set(&[2, beyond]))
                .validate(topo(), NodeId(0))
                .is_err());
        }
    }

    #[test]
    fn message_validation() {
        let t = topo();
        let mut m =
            Message::non_real_time(NodeId(0), Destination::Unicast(NodeId(1)), 1, SimTime::ZERO);
        assert!(m.validate(t).is_ok());
        m.size_slots = 0;
        assert!(m.validate(t).is_err());
        let bad_src = Message::non_real_time(
            NodeId(99),
            Destination::Unicast(NodeId(1)),
            1,
            SimTime::ZERO,
        );
        assert!(bad_src.validate(t).is_err());
    }

    #[test]
    fn laxity_in_slots() {
        let slot = TimeDelta::from_us(1).as_ps();
        let m = Message::best_effort(
            NodeId(0),
            Destination::Unicast(NodeId(1)),
            1,
            SimTime::ZERO,
            SimTime::from_us(10),
        );
        assert_eq!(m.laxity_slots(SimTime::ZERO, slot), 10);
        assert_eq!(m.laxity_slots(SimTime::from_us(9), slot), 1);
        // deadline passed → laxity 0
        assert_eq!(m.laxity_slots(SimTime::from_us(11), slot), 0);
        // NRT has unbounded laxity
        let nrt = Message::non_real_time(NodeId(0), Destination::Broadcast, 1, SimTime::ZERO);
        assert_eq!(nrt.laxity_slots(SimTime::from_ms(5), slot), u64::MAX);
    }

    #[test]
    fn class_labels() {
        assert_eq!(TrafficClass::RealTime.label(), "RT");
        assert_eq!(TrafficClass::BestEffort.label(), "BE");
        assert_eq!(TrafficClass::NonRealTime.label(), "NRT");
    }
}
