//! Per-node protocol state: queues, the pinned request, and service state.

use crate::mac::Desire;
use crate::message::TrafficClass;
use crate::priority::{MapperKind, Priority};
use crate::queues::{NodeQueues, QueueKey};
use crate::services::NodeServiceState;
use crate::wire::NodeSet;
use ccr_phys::{NodeId, RingTopology};
use ccr_sim::SimTime;

/// One ring node as seen by the slot engine.
#[derive(Debug)]
pub struct Node {
    /// This node's identity.
    pub id: NodeId,
    /// Its transmission queues.
    pub queues: NodeQueues,
    /// The queue key of the message pinned by the most recent request —
    /// the one that will be transmitted if the grant arrives (arbitration
    /// answers one slot later, so the node must remember what it asked
    /// for).
    pub requested: Option<QueueKey>,
    /// Service-layer state (barrier, reduction, short messages, acks).
    pub services: NodeServiceState,
    /// False once the node has failed and been optically bypassed: it no
    /// longer requests, transmits, or sources traffic (light passes
    /// through its 2×2 switch untouched).
    pub alive: bool,
}

impl Node {
    /// A fresh node.
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            queues: NodeQueues::new(),
            requested: None,
            services: NodeServiceState::default(),
            alive: true,
        }
    }

    /// Compute this node's transmission desire at `now`: its local head
    /// message mapped to a wire priority, links and destination set
    /// (Section 3). Returns `None` when every queue is empty (or all
    /// messages are stalled awaiting acknowledgements).
    pub fn desire(
        &self,
        now: SimTime,
        slot_ps: u64,
        topo: RingTopology,
        mapper: MapperKind,
    ) -> Option<(Desire, QueueKey)> {
        let head = self.queues.head()?;
        let m = &head.msg;
        let laxity = m.laxity_slots(now, slot_ps);
        let priority = match m.class {
            TrafficClass::RealTime => mapper.real_time(laxity),
            TrafficClass::BestEffort => mapper.best_effort(laxity),
            TrafficClass::NonRealTime => Priority::NON_REAL_TIME,
        };
        let hops = m.dest.span_hops(topo, m.src);
        debug_assert!(hops > 0, "message with zero span");
        let links = topo.segment_hops(m.src, hops);
        let dests: NodeSet = m.dest.dest_set(topo, m.src);
        Some((
            Desire {
                priority,
                links,
                dests,
            },
            head.key(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::ConnectionId;
    use crate::message::{Destination, Message, MessageId};
    use ccr_sim::TimeDelta;

    fn node_with(msgs: Vec<Message>) -> Node {
        let mut n = Node::new(NodeId(0));
        for (i, mut m) in msgs.into_iter().enumerate() {
            m.id = MessageId(i as u64);
            n.queues.push(m);
        }
        n
    }

    fn slot_ps() -> u64 {
        TimeDelta::from_us(1).as_ps()
    }

    #[test]
    fn empty_node_has_no_desire() {
        let n = Node::new(NodeId(2));
        assert!(n
            .desire(
                SimTime::ZERO,
                slot_ps(),
                RingTopology::new(4),
                MapperKind::Logarithmic
            )
            .is_none());
    }

    #[test]
    fn desire_maps_rt_laxity() {
        let topo = RingTopology::new(8);
        let n = node_with(vec![Message::real_time(
            NodeId(0),
            Destination::Unicast(NodeId(3)),
            1,
            SimTime::ZERO,
            SimTime::from_us(2), // laxity 2 slots at t=0
            ConnectionId(0),
        )]);
        let (d, key) = n
            .desire(SimTime::ZERO, slot_ps(), topo, MapperKind::Logarithmic)
            .unwrap();
        assert_eq!(n.queues.get(key).unwrap().msg.id, MessageId(0));
        // laxity 2 → band offset 1 → level 30
        assert_eq!(d.priority, Priority::new(30));
        assert_eq!(d.links, topo.segment(NodeId(0), NodeId(3)));
        assert!(d.dests.contains(NodeId(3)));
        assert_eq!(d.dests.len(), 1);
    }

    #[test]
    fn desire_priority_rises_as_deadline_nears() {
        let topo = RingTopology::new(4);
        let n = node_with(vec![Message::real_time(
            NodeId(0),
            Destination::Unicast(NodeId(1)),
            1,
            SimTime::ZERO,
            SimTime::from_us(100),
            ConnectionId(0),
        )]);
        let early = n
            .desire(SimTime::ZERO, slot_ps(), topo, MapperKind::Logarithmic)
            .unwrap()
            .0
            .priority;
        let late = n
            .desire(
                SimTime::from_us(99),
                slot_ps(),
                topo,
                MapperKind::Logarithmic,
            )
            .unwrap()
            .0
            .priority;
        assert!(late > early);
        assert_eq!(late, Priority::new(30)); // laxity 1 → offset ⌊log2 2⌋ = 1
    }

    #[test]
    fn nrt_desire_is_level_one() {
        let topo = RingTopology::new(4);
        let n = node_with(vec![Message::non_real_time(
            NodeId(0),
            Destination::Broadcast,
            2,
            SimTime::ZERO,
        )]);
        let (d, _) = n
            .desire(SimTime::ZERO, slot_ps(), topo, MapperKind::Logarithmic)
            .unwrap();
        assert_eq!(d.priority, Priority::NON_REAL_TIME);
        assert_eq!(d.links.len(), 3); // broadcast spans N-1 links
        assert_eq!(d.dests.len(), 3);
    }

    #[test]
    fn be_desire_maps_into_be_band() {
        let topo = RingTopology::new(4);
        let n = node_with(vec![Message::best_effort(
            NodeId(0),
            Destination::Unicast(NodeId(2)),
            1,
            SimTime::ZERO,
            SimTime::from_us(1),
        )]);
        let (d, _) = n
            .desire(SimTime::ZERO, slot_ps(), topo, MapperKind::Logarithmic)
            .unwrap();
        assert_eq!(d.priority.class(), Some(TrafficClass::BestEffort));
    }
}
