//! In-network admission control (Section 6, experiment E8).
//!
//! The paper: "A specific node in the system is designated to solely handle
//! new logical real-time connections … Communication with this node is
//! handled with the best effort traffic user service."
//!
//! This module implements that application layer on top of the simulated
//! network: a requesting node sends a best-effort message to the designated
//! admission node; the admission node runs the Equation 5/6 test and sends
//! a best-effort response back; on acceptance the requester activates the
//! connection. Message *payloads* (the specs) are carried out-of-band in an
//! id-keyed map — the simulator does not model payload bytes, only their
//! slot occupancy — which is behaviour-preserving because the decision
//! latency comes from the two best-effort round-trip messages, which are
//! fully simulated.

use ccr_edf::admission::AdmissionController;
use ccr_edf::analysis::AnalyticModel;
use ccr_edf::connection::{ConnectionId, ConnectionSpec};
use ccr_edf::mac::MacProtocol;
use ccr_edf::message::{Destination, Message, MessageId};
use ccr_edf::metrics::Delivery;
use ccr_edf::network::RingNetwork;
use ccr_edf::{NodeId, SimTime, TimeDelta};
use ccr_sim::stats::{Counter, Histogram};
use std::collections::HashMap;

/// Relative deadline given to admission-protocol best-effort messages.
const CONTROL_DEADLINE: TimeDelta = TimeDelta(2_000_000_000); // 2 ms

#[derive(Debug, Clone)]
enum AppPayload {
    Request {
        spec: ConnectionSpec,
        requester: NodeId,
        requested_at: SimTime,
    },
    Response {
        spec: ConnectionSpec,
        accept: bool,
        requested_at: SimTime,
    },
}

/// Statistics of the admission application.
#[derive(Debug)]
pub struct AdmissionAppStats {
    /// Requests issued.
    pub requested: Counter,
    /// Requests accepted (connection activated).
    pub accepted: Counter,
    /// Requests rejected.
    pub rejected: Counter,
    /// Request → activation latency (ps).
    pub decision_latency: Histogram,
}

impl AdmissionAppStats {
    fn new() -> Self {
        AdmissionAppStats {
            requested: Counter::new(),
            accepted: Counter::new(),
            rejected: Counter::new(),
            decision_latency: Histogram::for_latency(),
        }
    }
}

/// The distributed admission-control application.
#[derive(Debug)]
pub struct AdmissionApp {
    admission_node: NodeId,
    controller: AdmissionController,
    payloads: HashMap<MessageId, AppPayload>,
    /// Statistics.
    pub stats: AdmissionAppStats,
    /// Ids of connections activated through this app.
    pub activated: Vec<ConnectionId>,
}

impl AdmissionApp {
    /// Create the app with its own mirror of the admission state (the
    /// designated node's view).
    pub fn new(admission_node: NodeId, model: AnalyticModel, topo: ccr_phys::RingTopology) -> Self {
        AdmissionApp {
            admission_node,
            controller: AdmissionController::new(model, topo),
            payloads: HashMap::new(),
            stats: AdmissionAppStats::new(),
            activated: Vec::new(),
        }
    }

    /// Convenience constructor from a network.
    pub fn for_network<P: MacProtocol>(net: &RingNetwork<P>) -> Self {
        Self::new(NodeId(0), net.analytic().clone(), net.config().topology())
    }

    /// Issue a connection request from `requester`. The request travels as
    /// a best-effort message unless the requester *is* the admission node,
    /// in which case it is decided locally (still activating next slot).
    pub fn request<P: MacProtocol>(
        &mut self,
        net: &mut RingNetwork<P>,
        requester: NodeId,
        spec: ConnectionSpec,
    ) {
        self.stats.requested.incr();
        let now = net.now();
        if requester == self.admission_node {
            self.decide_and_respond(net, spec, requester, now, true);
            return;
        }
        let msg = Message::best_effort(
            requester,
            Destination::Unicast(self.admission_node),
            1,
            now,
            now + CONTROL_DEADLINE,
        );
        let id = net.submit_message(now, msg);
        self.payloads.insert(
            id,
            AppPayload::Request {
                spec,
                requester,
                requested_at: now,
            },
        );
    }

    /// Decide a spec at the admission node; if remote, send the response
    /// message, else finish locally.
    fn decide_and_respond<P: MacProtocol>(
        &mut self,
        net: &mut RingNetwork<P>,
        spec: ConnectionSpec,
        requester: NodeId,
        requested_at: SimTime,
        local: bool,
    ) {
        let accept = self.controller.admit(&spec).is_ok();
        if local {
            self.finish(net, spec, accept, requested_at);
            return;
        }
        let now = net.now();
        let msg = Message::best_effort(
            self.admission_node,
            Destination::Unicast(requester),
            1,
            now,
            now + CONTROL_DEADLINE,
        );
        let id = net.submit_message(now, msg);
        self.payloads.insert(
            id,
            AppPayload::Response {
                spec,
                accept,
                requested_at,
            },
        );
    }

    /// Complete a decided request at the requester.
    fn finish<P: MacProtocol>(
        &mut self,
        net: &mut RingNetwork<P>,
        spec: ConnectionSpec,
        accept: bool,
        requested_at: SimTime,
    ) {
        let now = net.now();
        self.stats
            .decision_latency
            .record(now.saturating_since(requested_at).as_ps());
        if accept {
            // The network's own controller runs the same test on the same
            // admitted set, so this cannot fail.
            let id = net
                .open_connection(spec)
                .expect("mirror admission must agree");
            self.activated.push(id);
            self.stats.accepted.incr();
        } else {
            self.stats.rejected.incr();
        }
    }

    /// Process the deliveries of one slot (clone them out of the outcome
    /// first). Call after every `step_slot`.
    pub fn process_deliveries<P: MacProtocol>(
        &mut self,
        net: &mut RingNetwork<P>,
        deliveries: &[Delivery],
    ) {
        for d in deliveries {
            let Some(payload) = self.payloads.remove(&d.msg.id) else {
                continue;
            };
            match payload {
                AppPayload::Request {
                    spec,
                    requester,
                    requested_at,
                } => self.decide_and_respond(net, spec, requester, requested_at, false),
                AppPayload::Response {
                    spec,
                    accept,
                    requested_at,
                } => self.finish(net, spec, accept, requested_at),
            }
        }
    }

    /// The mirror controller's admitted utilisation.
    pub fn admitted_utilisation(&self) -> f64 {
        self.controller.admitted_utilisation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_edf::config::NetworkConfig;

    fn net() -> RingNetwork {
        let cfg = NetworkConfig::builder(8)
            .slot_bytes(1024)
            .build_auto_slot()
            .unwrap();
        RingNetwork::new_ccr_edf(cfg)
    }

    fn drive(net: &mut RingNetwork, app: &mut AdmissionApp, slots: u64) {
        for _ in 0..slots {
            let deliveries = net.step_slot().deliveries.clone();
            app.process_deliveries(net, &deliveries);
        }
    }

    #[test]
    fn remote_request_round_trip_activates_connection() {
        let mut n = net();
        let mut app = AdmissionApp::for_network(&n);
        let spec = ConnectionSpec::unicast(NodeId(3), NodeId(5))
            .period(TimeDelta::from_us(100))
            .size_slots(1);
        app.request(&mut n, NodeId(3), spec);
        drive(&mut n, &mut app, 200);
        assert_eq!(app.stats.accepted.get(), 1);
        assert_eq!(app.stats.rejected.get(), 0);
        assert_eq!(app.activated.len(), 1);
        // decision took at least two slots (request + response)
        let lat = app.stats.decision_latency.min().unwrap();
        assert!(lat >= 2 * n.config().slot_time().as_ps());
        // and traffic then flows
        drive(&mut n, &mut app, 2_000);
        assert!(n.metrics().delivered_rt.get() > 10);
        assert_eq!(n.metrics().rt_deadline_misses.get(), 0);
    }

    #[test]
    fn local_request_decided_immediately() {
        let mut n = net();
        let mut app = AdmissionApp::for_network(&n);
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(4))
            .period(TimeDelta::from_us(100))
            .size_slots(1);
        app.request(&mut n, NodeId(0), spec);
        assert_eq!(app.stats.accepted.get(), 1);
        assert_eq!(app.stats.decision_latency.max(), Some(0));
    }

    #[test]
    fn overload_rejected_via_protocol() {
        let mut n = net();
        let mut app = AdmissionApp::for_network(&n);
        let slot = n.config().slot_time();
        // u_max ≈ 0.88 at N = 8: two hogs of u = 0.40 fit, the third must
        // be rejected
        let hog = |src: u16, dst: u16| {
            ConnectionSpec::unicast(NodeId(src), NodeId(dst))
                .period(TimeDelta::from_ps((slot.as_ps() as f64 / 0.40) as u64))
                .size_slots(1)
        };
        app.request(&mut n, NodeId(1), hog(1, 2));
        app.request(&mut n, NodeId(3), hog(3, 4));
        app.request(&mut n, NodeId(5), hog(5, 6));
        drive(&mut n, &mut app, 500);
        assert_eq!(app.stats.accepted.get(), 2);
        assert_eq!(app.stats.rejected.get(), 1);
        assert!(app.admitted_utilisation() <= n.analytic().u_max());
    }
}
