//! Logical real-time connections (Sections 5–6).
//!
//! A *logical real-time connection* is a guaranteed periodic message
//! stream: every `period` a message of `size_slots` slots is released,
//! with relative deadline equal to the period (the paper's assumption in
//! Section 5). Connections are subject to admission control before any of
//! their traffic is scheduled, and may be added and removed at runtime.

use crate::message::Destination;
#[cfg(test)]
use crate::wire::NodeSet;
use ccr_phys::{NodeId, RingTopology};
use ccr_sim::{SimTime, TimeDelta};

/// Identity of an admitted logical real-time connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u64);

/// The parameters a user supplies when requesting a connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiver(s).
    pub dest: Destination,
    /// Message period (Section 5; also the relative deadline unless
    /// [`ConnectionSpec::rel_deadline`] constrains it).
    pub period: TimeDelta,
    /// Message size in slots (`e` of Equation 5).
    pub size_slots: u32,
    /// Release phase of the first message relative to activation.
    pub phase: TimeDelta,
    /// Optional constrained relative deadline `D ≤ P` (extension beyond the
    /// paper, which assumes `D = P`; `None` keeps the paper's assumption).
    /// Constrained-deadline connections require the demand-bound admission
    /// policy ([`crate::admission::AdmissionPolicy::DemandBound`]) for a
    /// sound guarantee.
    pub rel_deadline: Option<TimeDelta>,
}

impl ConnectionSpec {
    /// Start a unicast spec with 1-slot messages, period to be filled in.
    pub fn unicast(src: NodeId, dest: NodeId) -> Self {
        ConnectionSpec {
            src,
            dest: Destination::Unicast(dest),
            period: TimeDelta::from_ms(1),
            size_slots: 1,
            phase: TimeDelta::ZERO,
            rel_deadline: None,
        }
    }

    /// Start a multicast spec.
    #[cfg(test)]
    pub fn multicast(src: NodeId, dests: NodeSet) -> Self {
        ConnectionSpec {
            src,
            dest: Destination::Multicast(dests),
            period: TimeDelta::from_ms(1),
            size_slots: 1,
            phase: TimeDelta::ZERO,
            rel_deadline: None,
        }
    }

    /// Start a broadcast spec.
    #[cfg(test)]
    pub fn broadcast(src: NodeId) -> Self {
        ConnectionSpec {
            src,
            dest: Destination::Broadcast,
            period: TimeDelta::from_ms(1),
            size_slots: 1,
            phase: TimeDelta::ZERO,
            rel_deadline: None,
        }
    }

    /// Set the period (= relative deadline).
    pub fn period(mut self, period: TimeDelta) -> Self {
        self.period = period;
        self
    }

    /// Set the message size in slots.
    pub fn size_slots(mut self, e: u32) -> Self {
        self.size_slots = e;
        self
    }

    /// Set the initial release phase.
    pub fn phase(mut self, phase: TimeDelta) -> Self {
        self.phase = phase;
        self
    }

    /// Constrain the relative deadline to `d` (must satisfy `0 < d ≤ P`).
    pub fn deadline(mut self, d: TimeDelta) -> Self {
        self.rel_deadline = Some(d);
        self
    }

    /// The effective relative deadline: `rel_deadline` or the period.
    pub fn effective_deadline(&self) -> TimeDelta {
        self.rel_deadline.unwrap_or(self.period)
    }

    /// Utilisation `e · t_slot / P` of this connection (Equation 5 term).
    pub fn utilisation(&self, slot: TimeDelta) -> f64 {
        (self.size_slots as f64 * slot.as_ps() as f64) / self.period.as_ps() as f64
    }

    /// Validate the spec against a topology.
    // ccr-verify: event_path -- spec validation runs at admission time, not per slot
    pub fn validate(&self, topo: RingTopology) -> Result<(), String> {
        if self.src.0 >= topo.n_nodes() {
            return Err(format!("source {} outside ring", self.src));
        }
        if self.size_slots == 0 {
            return Err("zero-size connection".into());
        }
        if self.period.is_zero() {
            return Err("zero period".into());
        }
        if let Some(d) = self.rel_deadline {
            if d.is_zero() || d > self.period {
                return Err(format!(
                    "relative deadline {d} outside (0, period {}]",
                    self.period
                ));
            }
        }
        self.dest.validate(topo, self.src)
    }
}

/// An admitted, active connection with its release bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Identity assigned at admission.
    pub id: ConnectionId,
    /// The admitted parameters.
    pub spec: ConnectionSpec,
    /// Instant the connection was activated.
    pub activated: SimTime,
    /// Number of messages released so far.
    pub released_count: u64,
}

impl Connection {
    /// Create an active connection starting at `activated`.
    pub fn new(id: ConnectionId, spec: ConnectionSpec, activated: SimTime) -> Self {
        Connection {
            id,
            spec,
            activated,
            released_count: 0,
        }
    }

    /// Release instant of the next message.
    pub fn next_release(&self) -> SimTime {
        self.activated + self.spec.phase + self.spec.period * self.released_count
    }

    /// Absolute deadline of the message released at `release`.
    pub fn deadline_for(&self, release: SimTime) -> SimTime {
        release + self.spec.effective_deadline()
    }

    /// Advance the release counter (after releasing one message).
    pub fn mark_released(&mut self) {
        self.released_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let s = ConnectionSpec::unicast(NodeId(1), NodeId(4))
            .period(TimeDelta::from_us(250))
            .size_slots(3)
            .phase(TimeDelta::from_us(10));
        assert_eq!(s.period, TimeDelta::from_us(250));
        assert_eq!(s.size_slots, 3);
        assert_eq!(s.phase, TimeDelta::from_us(10));
    }

    #[test]
    fn utilisation_is_e_tslot_over_p() {
        let s = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_us(100))
            .size_slots(2);
        let u = s.utilisation(TimeDelta::from_us(10));
        assert!((u - 0.2).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let t = RingTopology::new(4);
        let ok = ConnectionSpec::unicast(NodeId(0), NodeId(2));
        assert!(ok.validate(t).is_ok());
        assert!(ok.clone().size_slots(0).validate(t).is_err());
        assert!(ok.clone().period(TimeDelta::ZERO).validate(t).is_err());
        assert!(ConnectionSpec::unicast(NodeId(0), NodeId(0))
            .validate(t)
            .is_err());
        assert!(ConnectionSpec::unicast(NodeId(7), NodeId(0))
            .validate(t)
            .is_err());
        assert!(ConnectionSpec::multicast(NodeId(0), NodeSet::EMPTY)
            .validate(t)
            .is_err());
        assert!(ConnectionSpec::broadcast(NodeId(3)).validate(t).is_ok());
    }

    #[test]
    fn constrained_deadline_validation() {
        let t = RingTopology::new(4);
        let base = ConnectionSpec::unicast(NodeId(0), NodeId(2)).period(TimeDelta::from_us(100));
        assert!(base
            .clone()
            .deadline(TimeDelta::from_us(50))
            .validate(t)
            .is_ok());
        assert!(base
            .clone()
            .deadline(TimeDelta::from_us(100))
            .validate(t)
            .is_ok());
        assert!(base
            .clone()
            .deadline(TimeDelta::from_us(101))
            .validate(t)
            .is_err());
        assert!(base.clone().deadline(TimeDelta::ZERO).validate(t).is_err());
        assert_eq!(base.effective_deadline(), TimeDelta::from_us(100));
        assert_eq!(
            base.deadline(TimeDelta::from_us(30)).effective_deadline(),
            TimeDelta::from_us(30)
        );
    }

    #[test]
    fn constrained_deadline_flows_into_messages() {
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_us(100))
            .deadline(TimeDelta::from_us(40));
        let c = Connection::new(ConnectionId(1), spec, SimTime::ZERO);
        let rel = c.next_release();
        assert_eq!(c.deadline_for(rel), rel + TimeDelta::from_us(40));
    }

    #[test]
    fn release_schedule_is_periodic() {
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(TimeDelta::from_us(100))
            .phase(TimeDelta::from_us(7));
        let mut c = Connection::new(ConnectionId(1), spec, SimTime::from_us(1_000));
        assert_eq!(c.next_release(), SimTime::from_us(1_007));
        c.mark_released();
        assert_eq!(c.next_release(), SimTime::from_us(1_107));
        c.mark_released();
        assert_eq!(c.next_release(), SimTime::from_us(1_207));
        let rel = c.next_release();
        assert_eq!(c.deadline_for(rel), SimTime::from_us(1_307));
    }
}
