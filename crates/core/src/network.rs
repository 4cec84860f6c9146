//! The slot engine: a discrete-event simulation of the ring at packet/phase
//! granularity, generic over the MAC protocol.
//!
//! ## Slot anatomy (Figures 3, 6, 7)
//!
//! Slot *k* runs from `slot_start` for `t_slot`. During it:
//!
//! 1. **Data phase** — the transmissions granted by the arbitration that ran
//!    during slot *k−1* proceed; a packet's last byte reaches the furthest
//!    receiver at `slot_start + t_slot + hops·t_prop` (byte-level
//!    cut-through).
//! 2. **Collection phase** — the master launches the request packet at slot
//!    start; it reaches ring position *p* (p hops downstream) at
//!    `slot_start + p·(t_node + t_link)`, at which instant that node
//!    inspects its queues and appends its request. Releases that happen
//!    after the packet has passed a node miss this slot's arbitration —
//!    the engine honours this by draining the release queue *per node
//!    decision time*.
//! 3. **Arbitration + distribution** — the master sorts/grants and sends
//!    the distribution packet so that every node has it by slot end
//!    (configuration validation guarantees the phases fit, Equation 2).
//! 4. **Hand-over** — the clock stops; the next master (under CCR-EDF, the
//!    highest-priority requester) restarts it after the hand-over gap
//!    `P·L·D` (Equation 1). Under CC-FPR the next master is simply the
//!    downstream neighbour and the gap is constant.
//!
//! The engine is protocol-agnostic: both `ccr-edf`'s [`CcrEdfMac`] and the
//! `cc-fpr` baseline drive identical machinery, so protocol comparisons
//! (experiment E6) differ *only* in MAC decisions.

use crate::admission::{AdmissionController, AdmissionError};
use crate::analysis::AnalyticModel;
use crate::arbitration::CcrEdfMac;
use crate::config::NetworkConfig;
use crate::connection::{Connection, ConnectionId, ConnectionSpec};
use crate::fault::{elect_restart_node, ClockRecovery, FaultKind};
use crate::mac::{ArbScratch, MacProtocol, SlotPlan};
use crate::message::{Destination, Message, MessageId};
use crate::metrics::{Delivery, FaultEventRecord, Metrics, ThroughputGauge};
use crate::node::Node;
use crate::queues::{QueueKey, SentOutcome};
use crate::services::short_msg::ShortDelivery;
use crate::services::{barrier, reduce, ReduceOp, RELIABLE_TIMEOUT_SLOTS};
use crate::wire::{self, AckWire, CollectionPacket, DistributionPacket, NodeSet, Request};
use ccr_phys::{LinkSet, NodeId, RingTopology};
use ccr_sim::rng::DetRng;
use ccr_sim::{EventQueue, SimTime, TimeDelta};

/// A release queued for the future.
#[derive(Debug)]
enum ReleaseEvent {
    /// A one-shot message submission.
    Msg(Box<Message>),
    /// The next periodic release of connection `id`, which sits at
    /// `entry` of the connection slab. Ids are never reused, so a release
    /// whose entry has since been freed (or refilled) reads as absent.
    Conn { entry: usize, id: ConnectionId },
}

/// Everything observable about one executed slot (buffers are reused across
/// slots; clone what you need to keep).
#[derive(Debug, Default)]
pub struct SlotOutcome {
    /// Index of the executed slot (0-based).
    pub slot_index: u64,
    /// Slot start instant.
    pub slot_start: SimTime,
    /// Slot end instant (start + t_slot; the gap follows).
    pub slot_end: SimTime,
    /// Master (clock generator) of this slot.
    pub master: NodeId,
    /// Number of transmissions that proceeded in the data phase.
    pub grant_count: usize,
    /// Messages fully delivered this slot.
    pub deliveries: Vec<Delivery>,
    /// Short messages delivered by this slot's distribution packet.
    pub short_deliveries: Vec<ShortDelivery>,
    /// Did a barrier complete this slot?
    pub barrier_completed: bool,
    /// Reduction result published this slot, if any.
    pub reduce_result: Option<u32>,
    /// Master of the next slot (the hand-over target).
    pub next_master: NodeId,
    /// Hop distance of the hand-over (0 = master keeps the clock).
    pub handover_hops: u16,
    /// Hand-over gap duration.
    pub gap: TimeDelta,
    /// True when this slot was dead time due to clock-loss recovery.
    pub recovering: bool,
    /// Did the slot end in clock loss (token lost, or a distribution
    /// packet corrupted beyond use)? The next slots are recovery dead time.
    pub token_lost: bool,
    /// Collection entries dropped this slot by control-channel corruption.
    pub corrupt_entries: u16,
    /// Unreliable data-phase packets lost this slot (no retransmission
    /// covers them — the receiver sees a corrupted message).
    pub unreliable_lost: u32,
}

/// The simulated ring network.
///
/// Generic over the MAC protocol `P`; see [`RingNetwork::new_ccr_edf`] for
/// the paper's protocol and the `cc-fpr` crate for the baseline.
#[derive(Debug)]
pub struct RingNetwork<P: MacProtocol = CcrEdfMac> {
    cfg: NetworkConfig,
    topo: RingTopology,
    model: AnalyticModel,
    mac: P,
    nodes: Vec<Node>,
    master: NodeId,
    slot_index: u64,
    slot_start: SimTime,
    /// Grants for the *current* slot, decided during the previous one.
    plan: SlotPlan,
    releases: EventQueue<ReleaseEvent>,
    /// Opened connections, in a slab whose free entries are reused.
    connections: Vec<Option<Connection>>,
    /// The nodes whose queues hold at least one message, kept in step with
    /// every queue change so the idle guard and the collection phase pay
    /// only for occupied nodes. A node outside the set has nothing pinned
    /// (`requested` is `None`).
    occupied: NodeSet,
    admission: AdmissionController,
    recovery: ClockRecovery,
    /// Cursor into `cfg.fault_script` (slot-ordered; never rewinds).
    script_cursor: usize,
    /// Transient scripted-fault state for the slot being executed.
    scripted_token_loss: bool,
    scripted_dist_corrupt: bool,
    scripted_corrupt_victims: NodeSet,
    reduce_op: ReduceOp,
    metrics: Metrics,
    throughput: ThroughputGauge,
    rng: DetRng,
    next_msg_id: u64,
    outcome: SlotOutcome,
    /// Acks produced during this slot's data phase; eligible to ride the
    /// *next* slot's collection (the data arrives after the collection
    /// packet has passed the receiver).
    staged_acks: Vec<(NodeId, AckWire)>,
    // Reusable scratch buffers: steady-state `step_slot` writes into these
    // instead of allocating, so a warmed-up engine runs allocation-free.
    /// The plan being decided this slot (swapped with `plan` at slot end —
    /// double buffering instead of a fresh `SlotPlan` per slot).
    next_plan: SlotPlan,
    /// Collection-phase requests, indexed by absolute node id.
    requests: Vec<Request>,
    /// Arbitration working memory handed to [`MacProtocol::arbitrate_into`].
    arb_scratch: ArbScratch,
    /// Distribution-packet buffer refilled each slot.
    dist_scratch: DistributionPacket,
    /// Drain buffer swapped with `staged_acks` at slot start.
    staged_scratch: Vec<(NodeId, AckWire)>,
    /// Reused buffer for expired stop-and-wait acks in `scan_ack_timeouts`.
    ack_expired_scratch: Vec<(u8, QueueKey)>,
    // cached derived quantities
    t_slot: TimeDelta,
    t_node: TimeDelta,
    /// Per-link propagation delay (heterogeneous-aware), indexed by link.
    link_props: Vec<TimeDelta>,
    slot_ps: u64,
    collection_bits: u32,
    distribution_bits: u32,
    worst_latency: TimeDelta,
}

impl RingNetwork<CcrEdfMac> {
    /// Build a CCR-EDF network from a validated configuration.
    pub fn new_ccr_edf(cfg: NetworkConfig) -> Self {
        Self::with_mac(cfg, CcrEdfMac)
    }
}

impl<P: MacProtocol> RingNetwork<P> {
    /// Build a network running an arbitrary MAC protocol.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate (construct it via the builder).
    pub fn with_mac(cfg: NetworkConfig, mac: P) -> Self {
        cfg.validate().expect("invalid NetworkConfig");
        let topo = cfg.topology();
        let model = AnalyticModel::new(&cfg);
        let nodes = topo.nodes().map(Node::new).collect();
        let admission = AdmissionController::with_policy(model, topo, cfg.admission_policy);
        let rng = DetRng::new(cfg.seed ^ 0x5EED_CAFE);
        let t_slot = cfg.slot_time();
        let t_node = cfg.t_node();
        let link_props: Vec<TimeDelta> = topo.links().map(|l| cfg.link_prop_of(l)).collect();
        let collection_bits = wire::collection_bits(cfg.n_nodes, cfg.services);
        let distribution_bits = wire::distribution_bits(cfg.n_nodes, cfg.services);
        let worst_latency = model.worst_latency();
        RingNetwork {
            topo,
            model,
            mac,
            nodes,
            master: NodeId(0),
            slot_index: 0,
            slot_start: SimTime::ZERO,
            plan: SlotPlan::idle(NodeId(0)),
            releases: EventQueue::new(),
            connections: Vec::new(),
            occupied: NodeSet::EMPTY,
            admission,
            recovery: ClockRecovery::default(),
            script_cursor: 0,
            scripted_token_loss: false,
            scripted_dist_corrupt: false,
            scripted_corrupt_victims: NodeSet::EMPTY,
            reduce_op: ReduceOp::default(),
            metrics: Metrics::new(),
            throughput: ThroughputGauge::default(),
            rng,
            next_msg_id: 0,
            outcome: SlotOutcome::default(),
            staged_acks: Vec::new(),
            next_plan: SlotPlan::idle(NodeId(0)),
            requests: Vec::new(),
            arb_scratch: ArbScratch::default(),
            dist_scratch: DistributionPacket::default(),
            staged_scratch: Vec::new(),
            ack_expired_scratch: Vec::new(),
            t_slot,
            t_node,
            link_props,
            slot_ps: t_slot.as_ps(),
            collection_bits,
            distribution_bits,
            worst_latency,
            cfg,
        }
    }

    /// Propagation over `hops` consecutive links starting at `from`'s
    /// egress (heterogeneous-aware).
    #[inline]
    fn seg_prop(&self, from: NodeId, hops: u16) -> TimeDelta {
        let n = self.cfg.n_nodes;
        let mut acc = TimeDelta::ZERO;
        for k in 0..hops {
            acc += self.link_props[((from.0 + k) % n) as usize];
        }
        acc
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configuration this network runs.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The analytic model (Equations 1–6) for this configuration.
    pub fn analytic(&self) -> &AnalyticModel {
        &self.model
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Slot-engine counters kept outside [`Metrics`]: how many slots took
    /// the O(1) idle path ([`ThroughputGauge::fast_forwarded`]).
    pub fn throughput(&self) -> ThroughputGauge {
        self.throughput
    }

    /// Current master node.
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Name of the MAC protocol in charge ("ccr-edf", "cc-fpr", …).
    pub fn mac_name(&self) -> &'static str {
        self.mac.name()
    }

    /// Start instant of the next slot — "now" from an application's view.
    pub fn now(&self) -> SimTime {
        self.slot_start
    }

    /// Slots executed so far.
    pub fn slot_index(&self) -> u64 {
        self.slot_index
    }

    /// The admission controller (read access).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Total messages currently queued across all nodes.
    pub fn queued_messages(&self) -> usize {
        self.nodes.iter().map(|n| n.queues.len()).sum()
    }

    /// Is `node` still alive (not failed and optically bypassed)?
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.nodes[node.idx()].alive
    }

    /// Number of live (non-bypassed) nodes.
    pub fn live_nodes(&self) -> u16 {
        self.nodes.iter().filter(|n| n.alive).count() as u16
    }

    /// Set the global-reduction operator (default [`ReduceOp::Sum`]).
    pub fn set_reduce_op(&mut self, op: ReduceOp) {
        self.reduce_op = op;
    }

    // ------------------------------------------------------------------
    // Traffic injection
    // ------------------------------------------------------------------

    /// Submit a message for release at `at` (≥ [`RingNetwork::now`]).
    /// Returns the assigned message id.
    ///
    /// Real-time messages submitted here bypass admission control — that is
    /// deliberate, so experiments can drive the network beyond `U_max`;
    /// guaranteed traffic should use [`RingNetwork::open_connection`].
    ///
    /// # Panics
    /// Panics if the message fails validation against the topology.
    pub fn submit_message(&mut self, at: SimTime, mut msg: Message) -> MessageId {
        msg.validate(self.topo).expect("invalid message");
        if msg.reliable {
            assert!(
                self.cfg.services.reliable,
                "reliable message submitted but the reliable service is disabled"
            );
        }
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        msg.id = id;
        msg.released = at;
        // ccr-verify: allow(alloc-in-hot-path) -- one box per submitted message, owned by the release queue
        self.releases.schedule(at, ReleaseEvent::Msg(Box::new(msg)));
        id
    }

    /// Open a logical real-time connection through admission control
    /// (Section 6). On success the connection is active from the next slot.
    pub fn open_connection(
        &mut self,
        spec: ConnectionSpec,
    ) -> Result<ConnectionId, AdmissionError> {
        let id = self.admission.admit(&spec)?;
        let conn = Connection::new(id, spec, self.now());
        let first = conn.next_release();
        let entry = match self.connections.iter().position(Option::is_none) {
            Some(free) => {
                self.connections[free] = Some(conn);
                free
            }
            None => {
                self.connections.push(Some(conn));
                self.connections.len() - 1
            }
        };
        self.releases
            .schedule(first, ReleaseEvent::Conn { entry, id });
        Ok(id)
    }

    /// Reserve guaranteed capacity for a connection whose messages are
    /// injected externally — e.g. forwarded into this ring by a bridge node
    /// of a multi-ring fabric — instead of being released by this network's
    /// periodic machinery.
    ///
    /// Runs exactly the admission test of [`RingNetwork::open_connection`]
    /// (so the utilisation/DBF guarantee covers the forwarded traffic), but
    /// schedules no releases. Submit the traffic with
    /// [`RingNetwork::submit_message`], tagging each message with the
    /// returned id so per-connection metrics accumulate. Tear down with
    /// [`RingNetwork::close_connection`].
    pub fn reserve_connection(
        &mut self,
        spec: ConnectionSpec,
    ) -> Result<ConnectionId, AdmissionError> {
        self.admission.admit(&spec)
    }

    /// Register a best-effort connection: an id for metrics/teardown, no
    /// admission test and no reserved capacity — its traffic (submitted
    /// via [`RingNetwork::submit_message`] as best-effort messages) rides
    /// slots the guaranteed set leaves idle, always at lower priority
    /// than real-time traffic. Tear down with
    /// [`RingNetwork::close_connection`].
    pub fn reserve_best_effort(
        &mut self,
        spec: ConnectionSpec,
    ) -> Result<ConnectionId, AdmissionError> {
        self.admission.register_best_effort(&spec)
    }

    /// Tear down a connection (opened *or* reserved), releasing its
    /// utilisation. Messages already queued drain normally. Returns `false`
    /// for unknown ids.
    pub fn close_connection(&mut self, id: ConnectionId) -> bool {
        self.forget_connection(id);
        self.admission.remove(id)
    }

    /// Free the slab entry of connection `id`, if it was opened (a
    /// control-path scan; its pending release then reads as absent).
    fn forget_connection(&mut self, id: ConnectionId) {
        if let Some(entry) = self
            .connections
            .iter_mut()
            .find(|c| c.as_ref().is_some_and(|c| c.id == id))
        {
            *entry = None;
        }
    }

    // ------------------------------------------------------------------
    // Services API
    // ------------------------------------------------------------------

    /// Enter the barrier on behalf of `node`.
    ///
    /// # Panics
    /// Panics unless the barrier service is enabled in the configuration.
    pub fn barrier_enter(&mut self, node: NodeId) {
        assert!(self.cfg.services.barrier, "barrier service disabled");
        let now = self.now();
        self.nodes[node.idx()].services.barrier.enter(now);
    }

    /// Submit `value` to the global reduction on behalf of `node`.
    pub fn reduce_submit(&mut self, node: NodeId, value: u32) {
        assert!(self.cfg.services.reduction, "reduction service disabled");
        let now = self.now();
        self.nodes[node.idx()].services.reduce.submit(value, now);
    }

    /// Queue a short message from `src` to `dest`.
    pub fn short_send(&mut self, src: NodeId, dest: NodeId, payload: u16) {
        assert!(
            self.cfg.services.short_msg,
            "short-message service disabled"
        );
        assert_ne!(src, dest, "short message to self");
        let now = self.now();
        self.nodes[src.idx()]
            .services
            .short_out
            .send(dest, payload, now);
    }

    // ------------------------------------------------------------------
    // Fault injection & self-healing
    // ------------------------------------------------------------------

    /// Fail `node`, engaging its optical bypass: the node stops requesting
    /// and transmitting, its queued messages are lost, and every admitted
    /// connection that sources at or unicasts into it is torn down
    /// (releasing capacity). The admissible utilisation bound is then
    /// scaled to the surviving node fraction and the admitted set
    /// re-validated, shedding latest-deadline-first until it fits again
    /// (degraded-mode admission).
    ///
    /// Failing the current master is a clock loss: its pending grants are
    /// void, recovery dead time begins, and the restart election picks the
    /// nearest live successor of the designated restart node.
    ///
    /// Returns `false` when the node was already down.
    pub fn fail_node(&mut self, node: NodeId) -> bool {
        assert!(node.0 < self.cfg.n_nodes, "node out of range");
        if !self.nodes[node.idx()].alive {
            return false;
        }
        let slot = self.slot_index;
        let nd = &mut self.nodes[node.idx()];
        nd.alive = false;
        nd.requested = None;
        let dropped = nd.queues.clear() as u64;
        self.occupied.remove(node);
        self.metrics.nodes_failed.incr();
        self.metrics.fault_dropped_messages.add(dropped);

        // Tear down connections that can no longer flow, then shed load
        // until the admitted set fits under the degraded bound.
        let mut revoked = self.admission.connections_touching(node);
        for id in &revoked {
            self.close_connection(*id);
        }
        let live = self.nodes.iter().filter(|n| n.alive).count();
        self.admission
            .set_capacity_factor(live as f64 / self.cfg.n_nodes as f64);
        let shed = self.admission.revalidate();
        for &id in &shed {
            self.forget_connection(id); // admission entry already released
        }
        revoked.extend_from_slice(&shed);
        self.metrics.connections_revoked.add(revoked.len() as u64);

        // A dead master cannot generate the slot clock.
        let is_master = node == self.master;
        if is_master {
            self.metrics.tokens_lost.incr();
            self.recovery
                .token_lost(self.cfg.faults.recovery_timeout_slots);
            let master = self.master;
            self.plan.reset_idle(master);
        }
        self.metrics.fault_log.record(FaultEventRecord {
            slot,
            kind: FaultKind::FailNode(node),
            // The bypass itself is instantaneous; a master death only
            // heals once recovery elects a live successor.
            recovered_at: if is_master { None } else { Some(slot) },
            messages_lost: dropped,
            connections_revoked: revoked.len() as u32,
        });
        true
    }

    /// Bring a previously failed node back into the ring: the optical
    /// bypass is removed and the node rejoins arbitration with empty
    /// queues, and the admissible utilisation bound is scaled back up to
    /// the new live fraction. Repair only ever *adds* capacity, so the
    /// admitted set stays valid and nothing is revoked. A repaired
    /// ex-master rejoins as an ordinary station — clock mastership stays
    /// wherever the recovery election left it.
    ///
    /// Returns `false` when the node was not down.
    pub fn repair_node(&mut self, node: NodeId) -> bool {
        assert!(node.0 < self.cfg.n_nodes, "node out of range");
        if self.nodes[node.idx()].alive {
            return false;
        }
        let nd = &mut self.nodes[node.idx()];
        nd.alive = true;
        nd.requested = None;
        self.metrics.nodes_repaired.incr();
        let live = self.nodes.iter().filter(|n| n.alive).count();
        self.admission
            .set_capacity_factor(live as f64 / self.cfg.n_nodes as f64);
        true
    }

    /// Apply every scripted fault event scheduled at or before the current
    /// slot. Transient events (token loss, control corruption) landing on
    /// a slot that is already recovery dead time are no-ops — there is no
    /// token to lose and no control packet to corrupt.
    fn apply_scripted_faults(&mut self) {
        while self.script_cursor < self.cfg.fault_script.len() {
            let ev = self.cfg.fault_script.events()[self.script_cursor];
            if ev.slot > self.slot_index {
                break;
            }
            self.script_cursor += 1;
            match ev.kind {
                FaultKind::LoseToken => self.scripted_token_loss = true,
                FaultKind::CorruptDistribution => self.scripted_dist_corrupt = true,
                FaultKind::CorruptCollection { victim } => {
                    self.scripted_corrupt_victims.insert(victim);
                }
                FaultKind::FailNode(node) => {
                    self.fail_node(node);
                }
            }
        }
    }

    /// Drop `victim`'s collection entry for the current slot: the master's
    /// CRC check failed, so the node's request and its service piggybacks
    /// simply vanish from this round of arbitration. Link bookings made by
    /// nodes downstream of the victim stand — on the real wire corruption
    /// is only detected at the master, after every node has appended.
    fn corrupt_collection_entry(&mut self, victim: NodeId) {
        self.requests[victim.idx()] = Request::IDLE;
        self.nodes[victim.idx()].requested = None;
        self.metrics.control_corrupted.incr();
        self.outcome.corrupt_entries += 1;
        self.metrics.fault_log.record(FaultEventRecord {
            slot: self.slot_index,
            kind: FaultKind::CorruptCollection { victim },
            recovered_at: Some(self.slot_index), // lasts exactly one slot
            messages_lost: 0,
            connections_revoked: 0,
        });
    }

    // ------------------------------------------------------------------
    // The slot loop
    // ------------------------------------------------------------------

    /// Run `k` slots, fast-forwarding through provably idle stretches.
    pub fn run_slots(&mut self, k: u64) {
        let target = self.slot_index + k;
        while self.slot_index < target {
            let remaining = target - self.slot_index;
            if self.fast_forward_idle(remaining) == 0 {
                self.step_slot();
            }
        }
    }

    /// Run until simulated time reaches at least `t`, fast-forwarding
    /// through provably idle stretches.
    pub fn run_until(&mut self, t: SimTime) {
        while self.slot_start < t {
            // The number of idle slots stepping would take to reach `t`
            // (idle slots have a zero hand-over gap, so each advances time
            // by exactly `t_slot`).
            let remaining_ps = t.saturating_since(self.slot_start).as_ps();
            let want = remaining_ps.div_ceil(self.slot_ps).max(1);
            if self.fast_forward_idle(want) == 0 {
                self.step_slot();
            }
        }
    }

    /// Advance up to `max_slots` slots in O(1) when the network is provably
    /// idle, updating metrics exactly as `max_slots` calls to
    /// [`RingNetwork::step_slot`] would have. Returns the number of slots
    /// skipped (0 when any activity — queued traffic, pending service
    /// state, staged grants, fault injection, a rotating-master protocol,
    /// or an imminent release — forces slot-by-slot execution).
    ///
    /// The skipped stretch is safe because an idle CCR-EDF slot is a pure
    /// no-op: no grants execute, every node stays silent (so the master and
    /// the hand-over gap of zero are unchanged), the fault RNG draws
    /// nothing (`token_loss_prob` must be exactly 0.0 — the draw is
    /// probability-gated), and no release becomes visible before the last
    /// skipped slot ends.
    fn fast_forward_idle(&mut self, max_slots: u64) -> u64 {
        debug_assert_eq!(
            self.occupied,
            self.scan_occupied(),
            "occupancy set out of step with the queues"
        );
        if max_slots == 0 {
            return 0;
        }
        // Engine-state guards: any of these makes the next slot non-trivial.
        if self.cfg.faults.token_loss_prob != 0.0
            || self.cfg.faults.control_error_prob != 0.0
            || self.script_cursor < self.cfg.fault_script.len()
            || self.recovery.recovering()
            || !self.plan.grants.is_empty()
            || self.plan.next_master != self.master
            || !self.staged_acks.is_empty()
            || self.mac.fixed_rotation(self.master, self.topo).is_some()
        {
            return 0;
        }
        // Node-state guards: queued messages (the occupancy set), or
        // pending service traffic — which only a ring with a control-channel
        // service configured can hold, since every service entry point
        // asserts that its service is on.
        if !self.occupied.is_empty() {
            return 0;
        }
        if self.cfg.services.any_service()
            && self.nodes.iter().any(|nd| {
                nd.services.barrier.waiting()
                    || nd.services.reduce.operand().is_some()
                    || nd.services.short_out.peek().is_some()
                    || !nd.services.acks_out.is_empty()
            })
        {
            return 0;
        }
        // How many whole slots fit before the next release becomes visible?
        // A release at T is first seen by a slot whose decision times can
        // reach it, i.e. the first slot that *ends* at or after T; slots
        // ending strictly before T are unaffected (all collection decision
        // times precede the slot end).
        let k = match self.releases.peek_time() {
            None => max_slots,
            Some(t) => {
                let avail = t.saturating_since(self.slot_start).as_ps();
                if avail <= self.slot_ps {
                    return 0;
                }
                ((avail - 1) / self.slot_ps).min(max_slots)
            }
        };
        if k == 0 {
            return 0;
        }

        // Bulk metric updates, bit-identical to k idle step_slot calls.
        let t0 = self.slot_start;
        if self.metrics.slots.get() == 0 {
            self.metrics.started_at = t0;
        }
        self.metrics.slots.add(k);
        self.metrics.idle_slots.add(k);
        // Welford running stats have no closed-form bulk update that is
        // bit-identical to k sequential samples — loop (cheap: one branch
        // and a handful of flops per slot, no heap).
        for _ in 0..k {
            self.metrics.grants_per_slot.record(0.0);
        }
        self.metrics
            .control_bits
            .add(k * (self.collection_bits as u64 + self.distribution_bits as u64));
        self.metrics.handover_gap.record_n(0, k);
        self.metrics.handover_hops.record_n(0, k);

        // Outcome mirrors the last skipped slot.
        let last_start = t0 + self.t_slot * (k - 1);
        let last_end = last_start + self.t_slot;
        self.outcome.slot_index = self.slot_index + k - 1;
        self.outcome.slot_start = last_start;
        self.outcome.slot_end = last_end;
        self.outcome.master = self.master;
        self.outcome.grant_count = 0;
        self.outcome.deliveries.clear();
        self.outcome.short_deliveries.clear();
        self.outcome.barrier_completed = false;
        self.outcome.reduce_result = None;
        self.outcome.next_master = self.master;
        self.outcome.handover_hops = 0;
        self.outcome.gap = TimeDelta::ZERO;
        self.outcome.recovering = false;
        self.outcome.token_lost = false;
        self.outcome.corrupt_entries = 0;
        self.outcome.unreliable_lost = 0;

        self.metrics.ended_at = last_end;
        self.slot_start = last_end; // idle hand-over gap is zero
        self.slot_index += k;
        self.throughput.fast_forwarded += k;
        k
    }

    /// The nodes holding queued messages, found by scanning every queue:
    /// the reference the occupancy set is checked against.
    fn scan_occupied(&self) -> NodeSet {
        let mut set = NodeSet::EMPTY;
        for nd in self.nodes.iter().filter(|nd| !nd.queues.is_empty()) {
            set.insert(nd.id);
        }
        set
    }

    /// The outcome of the most recently executed (or fast-forwarded) slot.
    pub fn last_outcome(&self) -> &SlotOutcome {
        &self.outcome
    }

    /// Execute one slot and return what happened. The returned reference's
    /// buffers are reused by the next call.
    pub fn step_slot(&mut self) -> &SlotOutcome {
        let t0 = self.slot_start;
        let slot_end = t0 + self.t_slot;
        if self.metrics.slots.get() == 0 {
            self.metrics.started_at = t0;
        }

        self.outcome.slot_index = self.slot_index;
        self.outcome.slot_start = t0;
        self.outcome.slot_end = slot_end;
        self.outcome.master = self.master;
        self.outcome.deliveries.clear();
        self.outcome.short_deliveries.clear();
        self.outcome.barrier_completed = false;
        self.outcome.reduce_result = None;
        self.outcome.recovering = false;
        self.outcome.token_lost = false;
        self.outcome.corrupt_entries = 0;
        self.outcome.unreliable_lost = 0;

        // Scripted faults land at the start of their slot: a node that
        // dies at slot k is already bypassed for slot k's collection.
        self.scripted_token_loss = false;
        self.scripted_dist_corrupt = false;
        self.scripted_corrupt_victims = NodeSet::EMPTY;
        self.apply_scripted_faults();

        if self.recovery.recovering() {
            return self.recovery_slot(slot_end);
        }

        // Acks staged during the *previous* slot's data phase become
        // available to ride this slot's requests (the data packet reaches
        // its receiver only around the previous slot's end — after that
        // slot's collection packet had already passed it). Swapping with the
        // scratch vector keeps both buffers' capacity alive.
        std::mem::swap(&mut self.staged_acks, &mut self.staged_scratch);
        for (node, ack) in self.staged_scratch.drain(..) {
            self.nodes[node.idx()].services.acks_out.push_back(ack);
        }

        // ---- 1. data phase (grants decided last slot) -------------------
        // A grant issued to a node that has since died is void — the
        // bypassed node transmits nothing.
        let granted = self
            .plan
            .grants
            .iter()
            .filter(|g| self.nodes[g.node.idx()].alive)
            .count();
        self.outcome.grant_count = granted;
        self.metrics.slots.incr();
        self.metrics.grants.add(granted as u64);
        self.metrics.grants_per_slot.record(granted as f64);
        if granted == 0 {
            self.metrics.idle_slots.incr();
        }
        for i in 0..self.plan.grants.len() {
            let g = self.plan.grants[i];
            if !self.nodes[g.node.idx()].alive {
                continue;
            }
            self.metrics.record_links(g.links, self.cfg.n_nodes);
            self.transmit(g.node, slot_end);
        }

        // ---- 2. collection phase ----------------------------------------
        // Every position is walked in ring order, so releases drain at each
        // node's decision time. A node outside the occupancy set can only
        // append an idle request (the MAC contract of `make_request`) and
        // has nothing pinned, so unless a control-channel service needs its
        // fields its entry stays the IDLE the buffer is reset to.
        let n = self.cfg.n_nodes;
        let svc = self.cfg.services;
        let services_on = svc.any_service();
        let next_hint = self.mac.fixed_rotation(self.master, self.topo);
        let mut booked = LinkSet::EMPTY;
        self.requests.clear();
        self.requests.resize(n as usize, Request::IDLE);
        let mut hop_delay = TimeDelta::ZERO; // accumulated per-link propagation
        for pos in 0..n {
            // The node `pos` hops downstream of the master.
            let raw = self.master.0 + pos;
            let nid = NodeId(if raw >= n { raw - n } else { raw });
            let decision_time = t0 + self.t_node * pos as u64 + hop_delay;
            hop_delay += self.link_props[nid.idx()];
            if self
                .releases
                .peek_time()
                .is_some_and(|t| t <= decision_time)
            {
                self.drain_releases(decision_time);
            }
            let occupied = self.occupied.contains(nid);
            if !occupied && !services_on || !self.nodes[nid.idx()].alive {
                continue; // nothing to append, or bypassed: entry stays IDLE
            }
            let mut req = Request::IDLE;
            let mut pinned = None;
            if occupied {
                let desire = self.nodes[nid.idx()].desire(
                    decision_time,
                    self.slot_ps,
                    self.topo,
                    self.cfg.mapper,
                );
                req = self.mac.make_request(
                    nid,
                    desire.map(|(d, _)| d),
                    booked,
                    next_hint,
                    self.topo,
                );
                if req.wants_tx() {
                    pinned = desire.map(|(_, key)| key);
                    booked = booked.union(req.links);
                }
            }
            let node = &mut self.nodes[nid.idx()];
            node.requested = pinned;
            // Attach service fields.
            if svc.barrier {
                req.barrier = node.services.barrier.waiting();
            }
            if svc.reduction {
                req.reduce = node.services.reduce.operand();
            }
            if svc.short_msg {
                req.short_msg = node.services.short_out.peek();
            }
            if svc.reliable {
                req.ack = node.services.acks_out.front().copied();
            }
            self.requests[nid.idx()] = req;
        }
        self.metrics.control_bits.add(self.collection_bits as u64);

        // Control-channel corruption: a collection entry whose CRC check
        // fails at the master is dropped for this slot. Stochastic errors
        // pick a uniform victim; scripted events name theirs.
        if self.cfg.faults.control_error_prob > 0.0
            && self.rng.gen_f64() < self.cfg.faults.control_error_prob
        {
            let victim = NodeId(self.rng.gen_range(0..n));
            self.corrupt_collection_entry(victim);
        }
        if !self.scripted_corrupt_victims.is_empty() {
            for victim in self.scripted_corrupt_victims.iter() {
                if victim.0 < n {
                    self.corrupt_collection_entry(victim);
                }
            }
        }

        if self.cfg.wire_check {
            let pkt = CollectionPacket {
                // wire order is ring order from the master
                requests: (0..n)
                    .map(|p| self.requests[self.topo.downstream(self.master, p).idx()])
                    // ccr-verify: allow(alloc-in-hot-path) -- wire_check is a debug validation mode, off in performance runs
                    .collect(),
            };
            let bytes = pkt.encode(n, self.cfg.services);
            let back = CollectionPacket::decode(&bytes, n, self.cfg.services)
                .expect("collection packet must decode");
            assert_eq!(back, pkt, "collection wire round-trip");
        }

        // ---- 3. arbitration ---------------------------------------------
        self.mac.arbitrate_into(
            &self.requests,
            self.master,
            self.topo,
            self.cfg.spatial_reuse,
            &mut self.arb_scratch,
            &mut self.next_plan,
        );

        // ---- 4. distribution + token-loss fault ---------------------------
        self.metrics.control_bits.add(self.distribution_bits as u64);
        let token_lost = self.scripted_token_loss
            || (self.cfg.faults.token_loss_prob > 0.0
                && self.rng.gen_f64() < self.cfg.faults.token_loss_prob);
        if token_lost || self.scripted_dist_corrupt {
            if token_lost {
                self.metrics.tokens_lost.incr();
            } else {
                // The packet went out but arrived garbled everywhere (CRC
                // failure at every node): no node learns the grants or the
                // next master — operationally identical to token loss.
                self.metrics.distributions_corrupted.incr();
            }
            self.metrics.fault_log.record(FaultEventRecord {
                slot: self.slot_index,
                kind: if token_lost {
                    FaultKind::LoseToken
                } else {
                    FaultKind::CorruptDistribution
                },
                recovered_at: None, // closed when recovery restarts the clock
                messages_lost: 0,
                connections_revoked: 0,
            });
            self.outcome.token_lost = true;
            self.recovery
                .token_lost(self.cfg.faults.recovery_timeout_slots);
            // Nobody learns the grants or the next master: next slot is
            // dead time, clock restart handled by the recovery machine.
            let master = self.master;
            self.plan.reset_idle(master);
            self.finish_slot(slot_end, master);
            return &self.outcome;
        }

        self.fill_distribution();
        if self.cfg.wire_check {
            let bytes = self.dist_scratch.encode(n, self.cfg.services);
            let back = DistributionPacket::decode(&bytes, n, self.cfg.services)
                .expect("distribution packet must decode");
            assert_eq!(back, self.dist_scratch, "distribution wire round-trip");
        }
        // Move the packet out for the duration of the borrow-heavy
        // processing, then put it back so its buffers are reused.
        let dist = std::mem::take(&mut self.dist_scratch);
        self.process_distribution(&dist, slot_end);
        self.dist_scratch = dist;

        // ---- 5. reliable time-outs ----------------------------------------
        if self.cfg.services.reliable {
            self.scan_ack_timeouts();
        }

        // ---- 6. hand-over --------------------------------------------------
        std::mem::swap(&mut self.plan, &mut self.next_plan);
        let next_master = self.plan.next_master;
        self.finish_slot(slot_end, next_master);
        &self.outcome
    }

    /// One dead slot during clock-loss recovery.
    fn recovery_slot(&mut self, slot_end: SimTime) -> &SlotOutcome {
        self.metrics.slots.incr();
        self.metrics.idle_slots.incr();
        self.metrics.recovery_slots.incr();
        self.metrics.grants_per_slot.record(0.0);
        self.outcome.recovering = true;
        self.outcome.grant_count = 0;
        self.drain_releases(slot_end);
        if let Some(designated) = self.recovery.tick() {
            // The designated restart node may itself be dead — the nearest
            // live downstream successor restarts the clock instead of the
            // ring deadlocking on a bypassed node.
            let n = self.cfg.n_nodes;
            if let Some(live) = elect_restart_node(designated, n, |id| self.nodes[id.idx()].alive) {
                self.master = live;
            }
            self.metrics.fault_log.mark_recovered(self.slot_index);
        }
        let master = self.master;
        self.plan.reset_idle(master);
        self.finish_slot(slot_end, master);
        &self.outcome
    }

    /// Book-keeping common to every slot end: hand-over accounting and the
    /// advance to the next slot start.
    fn finish_slot(&mut self, slot_end: SimTime, next_master: NodeId) {
        let hops = self.topo.hops(self.master, next_master);
        let gap = self.seg_prop(self.master, hops);
        self.metrics.handover_gap.record(gap.as_ps());
        self.metrics.handover_hops.record(hops as u64);
        if hops > 0 {
            self.metrics.master_changes.incr();
        }
        self.outcome.next_master = next_master;
        self.outcome.handover_hops = hops;
        self.outcome.gap = gap;
        self.master = next_master;
        self.metrics.ended_at = slot_end;
        self.slot_start = slot_end + gap;
        self.slot_index += 1;
    }

    /// Execute one granted transmission in the data phase of the current
    /// slot.
    fn transmit(&mut self, sender: NodeId, slot_end: SimTime) {
        let Some(key) = self.nodes[sender.idx()].requested else {
            debug_assert!(false, "grant without a pinned request at {sender}");
            return;
        };
        let lost = self.cfg.faults.data_loss_prob > 0.0
            && self.rng.gen_f64() < self.cfg.faults.data_loss_prob;

        let (reliable, span_hops, dest_node) = {
            let qm = self.nodes[sender.idx()]
                .queues
                .get(key)
                .expect("pinned message vanished");
            let span = qm.msg.dest.span_hops(self.topo, sender);
            let dest = match qm.msg.dest {
                Destination::Unicast(d) => Some(d),
                _ => None,
            };
            (qm.msg.reliable, span, dest)
        };
        let arrival = slot_end + self.seg_prop(sender, span_hops);

        self.metrics.data_bytes.add(self.cfg.slot_bytes as u64);

        if reliable {
            self.transmit_reliable(
                sender,
                key,
                dest_node.expect("reliable is unicast"),
                arrival,
                lost,
            );
            return;
        }

        if lost {
            self.metrics.data_lost.incr();
            self.metrics.data_lost_unreliable.incr();
            self.outcome.unreliable_lost += 1;
            let qm = self.nodes[sender.idx()]
                .queues
                .get_mut(key)
                .expect("pinned message vanished");
            qm.lost_slots += 1;
        }
        match self.nodes[sender.idx()].queues.record_sent_slot(key) {
            SentOutcome::Progress => {}
            SentOutcome::Finished(qm) => {
                self.note_finished(sender);
                if qm.lost_slots > 0 {
                    // Corrupted: the receiver missed at least one packet and
                    // no reliable service is covering this message.
                    self.metrics.messages_corrupted.incr();
                } else {
                    let d = Delivery {
                        msg: qm.msg,
                        completed: arrival,
                    };
                    self.metrics.record_delivery(&d, self.worst_latency);
                    self.outcome.deliveries.push(d);
                }
            }
        }
    }

    /// Stop-and-wait reliable transmission of one packet.
    fn transmit_reliable(
        &mut self,
        sender: NodeId,
        key: QueueKey,
        dest: NodeId,
        arrival: SimTime,
        lost: bool,
    ) {
        let slot_idx = self.slot_index;
        // Assign (or reuse, on retransmission) the packet's sequence number.
        let seq = {
            let node = &mut self.nodes[sender.idx()];
            let qm = node.queues.get_mut(key).expect("pinned message vanished");
            let seq = match qm.current_seq {
                Some(s) => {
                    self.metrics.retransmissions.incr();
                    s
                }
                None => {
                    let s = node.services.next_seq;
                    node.services.next_seq = node.services.next_seq.wrapping_add(1);
                    qm.current_seq = Some(s);
                    s
                }
            };
            qm.awaiting_ack_since = Some(slot_idx);
            node.services.awaiting.insert(seq, key);
            seq
        };

        if lost {
            self.metrics.data_lost.incr();
            return; // receiver saw nothing; sender will time out.
        }

        // Receiver side: duplicate filter, delivery recording, ack staging.
        let fresh = self.nodes[dest.idx()].services.receiver.accept(sender, seq);
        self.staged_acks.push((dest, AckWire { src: sender, seq }));
        if !fresh {
            return;
        }
        // Was this the final packet of the message?
        let (is_final, msg) = {
            let qm = self.nodes[sender.idx()]
                .queues
                .get(key)
                .expect("pinned message vanished");
            (qm.sent_slots + 1 == qm.msg.size_slots, qm.msg)
        };
        if is_final {
            let d = Delivery {
                msg,
                completed: arrival,
            };
            self.metrics.record_delivery(&d, self.worst_latency);
            self.outcome.deliveries.push(d);
            self.nodes[dest.idx()].services.receiver.reset(sender);
        }
    }

    /// A message of `node` just left its queue: once nothing else is
    /// queued there, the node leaves the occupancy set with nothing pinned.
    fn note_finished(&mut self, node: NodeId) {
        let nd = &mut self.nodes[node.idx()];
        if nd.queues.is_empty() {
            nd.requested = None;
            self.occupied.remove(node);
        }
    }

    /// Refill the distribution-packet scratch buffer from this slot's
    /// requests and the freshly arbitrated plan (`next_plan`), reusing the
    /// echo vectors' capacity.
    fn fill_distribution(&mut self) {
        let n = self.cfg.n_nodes as usize;
        // ccr-verify: allow(alloc-in-hot-path) -- collects into the u64-bitmask NodeSet: FromIterator sets bits, no heap
        self.dist_scratch.grants = self.next_plan.grants.iter().map(|g| g.node).collect();
        self.dist_scratch.hp_node = self.next_plan.hp_node.unwrap_or(self.next_plan.next_master);
        self.dist_scratch.barrier_done =
            self.cfg.services.barrier && barrier::barrier_complete(&self.requests);
        self.dist_scratch.reduce_result = if self.cfg.services.reduction {
            reduce::reduce_complete(&self.requests, self.reduce_op)
        } else {
            None
        };
        self.dist_scratch.short_msgs.clear();
        if self.cfg.services.short_msg {
            self.dist_scratch
                .short_msgs
                .extend(self.requests.iter().map(|r| r.short_msg));
        } else {
            self.dist_scratch.short_msgs.resize(n, None);
        }
        self.dist_scratch.acks.clear();
        if self.cfg.services.reliable {
            self.dist_scratch
                .acks
                .extend(self.requests.iter().map(|r| r.ack));
        } else {
            self.dist_scratch.acks.resize(n, None);
        }
    }

    /// Apply the distribution packet's service payloads at every node
    /// (everyone has the packet by `slot_end`).
    fn process_distribution(&mut self, dist: &DistributionPacket, slot_end: SimTime) {
        // Barrier release.
        if dist.barrier_done {
            let mut last_entry = SimTime::ZERO;
            let mut any = false;
            for node in &mut self.nodes {
                if let Some(entered) = node.services.barrier.on_distribution(true) {
                    last_entry = last_entry.max(entered);
                    any = true;
                }
            }
            if any {
                self.metrics.barriers_completed.incr();
                self.metrics
                    .barrier_latency
                    .record(slot_end.saturating_since(last_entry).as_ps());
                self.outcome.barrier_completed = true;
            }
        }
        // Reduction result.
        if let Some(result) = dist.reduce_result {
            for node in &mut self.nodes {
                node.services.reduce.on_distribution(Some(result));
            }
            self.metrics.reductions_completed.incr();
            self.outcome.reduce_result = Some(result);
        }
        // Short-message delivery: sender pops its outbox, receiver records.
        for (src_idx, sm) in dist.short_msgs.iter().enumerate() {
            let Some(sm) = sm else { continue };
            let (popped, sent) = {
                let sender = &mut self.nodes[src_idx];
                let (popped, sent_at) = sender
                    .services
                    .short_out
                    .pop()
                    .expect("short message echoed but outbox empty");
                debug_assert_eq!(popped, *sm);
                (popped, sent_at)
            };
            let delivery = ShortDelivery {
                src: NodeId(src_idx as u16),
                dest: popped.dest,
                payload: popped.payload,
                sent,
                delivered: slot_end,
            };
            self.metrics.short_delivered.incr();
            self.metrics
                .short_latency
                .record(slot_end.saturating_since(sent).as_ps());
            self.outcome.short_deliveries.push(delivery);
        }
        // Acknowledgements: the ack rode the requester's packet; the sender
        // of the original data observes it here.
        for (requester_idx, ack) in dist.acks.iter().enumerate() {
            let Some(ack) = ack else { continue };
            // The requester consumed its queued ack.
            self.nodes[requester_idx].services.acks_out.pop_front();
            let sender = ack.src;
            let Some(key) = self.nodes[sender.idx()].services.awaiting.remove(&ack.seq) else {
                continue; // stale ack (e.g. duplicate after timeout)
            };
            let sender_node = &mut self.nodes[sender.idx()];
            if let Some(qm) = sender_node.queues.get_mut(key) {
                qm.current_seq = None;
                // The delivery was recorded receiver-side at packet arrival,
                // so a finished message only leaves the queue here.
                if let SentOutcome::Finished(_) = sender_node.queues.record_sent_slot(key) {
                    self.note_finished(sender);
                }
            }
        }
    }

    /// Expire stop-and-wait packets that waited too long for their ack,
    /// making them eligible for retransmission.
    fn scan_ack_timeouts(&mut self) {
        let slot_idx = self.slot_index;
        // Buffer first to avoid borrowing queues while mutating the map;
        // the buffer lives on the engine so its capacity is reused.
        let mut expired = std::mem::take(&mut self.ack_expired_scratch);
        for node in &mut self.nodes {
            expired.clear();
            expired.extend(
                node.services
                    .awaiting
                    .iter()
                    .filter(|(_, &key)| {
                        node.queues
                            .get(key)
                            .and_then(|qm| qm.awaiting_ack_since)
                            .is_some_and(|since| {
                                slot_idx.saturating_sub(since) >= RELIABLE_TIMEOUT_SLOTS
                            })
                    })
                    .map(|(&seq, &key)| (seq, key)),
            );
            for &(seq, key) in &expired {
                node.services.awaiting.remove(&seq);
                if let Some(qm) = node.queues.get_mut(key) {
                    qm.awaiting_ack_since = None; // re-eligible; seq kept.
                }
            }
        }
        self.ack_expired_scratch = expired;
    }

    /// Pop every pending release up to `until`, materialising messages into
    /// node queues and rescheduling periodic connections.
    fn drain_releases(&mut self, until: SimTime) {
        while let Some((at, ev)) = self.releases.pop_until(until) {
            match ev {
                ReleaseEvent::Msg(msg) => {
                    if self.nodes[msg.src.idx()].alive {
                        self.nodes[msg.src.idx()].queues.push(*msg);
                        self.occupied.insert(msg.src);
                    } else {
                        // Source died before release: the message is lost.
                        self.metrics.fault_dropped_messages.incr();
                    }
                }
                ReleaseEvent::Conn { entry, id } => {
                    let Some(conn) = self.connections[entry].as_mut().filter(|c| c.id == id) else {
                        continue; // closed since scheduling
                    };
                    let release = conn.next_release();
                    debug_assert_eq!(release, at);
                    let deadline = conn.deadline_for(release);
                    let mut msg = Message::real_time(
                        conn.spec.src,
                        conn.spec.dest,
                        conn.spec.size_slots,
                        release,
                        deadline,
                        id,
                    );
                    conn.mark_released();
                    let next = conn.next_release();
                    let src = conn.spec.src;
                    msg.id = MessageId(self.next_msg_id);
                    self.next_msg_id += 1;
                    self.nodes[src.idx()].queues.push(msg);
                    self.occupied.insert(src);
                    self.releases
                        .schedule(next, ReleaseEvent::Conn { entry, id });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Destination;
    use crate::wire::ServiceWireConfig;

    fn net(n: u16) -> RingNetwork {
        let cfg = NetworkConfig::builder(n)
            .slot_bytes(1024)
            .wire_check(true)
            .build()
            .unwrap();
        RingNetwork::new_ccr_edf(cfg)
    }

    #[test]
    fn idle_network_ticks_without_traffic() {
        let mut net = net(4);
        net.run_slots(100);
        let m = net.metrics();
        assert_eq!(m.slots.get(), 100);
        assert_eq!(m.idle_slots.get(), 100);
        assert_eq!(m.delivered.get(), 0);
        // master never moves when idle → gap always zero
        assert_eq!(m.master_changes.get(), 0);
        assert_eq!(m.handover_gap.max(), Some(0));
        // time advanced by exactly 100 slots
        assert_eq!(net.now(), SimTime::ZERO + net.config().slot_time() * 100);
    }

    #[test]
    fn single_message_delivered_with_two_slot_pipeline() {
        let mut net = net(4);
        let id = net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(1), Destination::Unicast(NodeId(3)), 1, SimTime::ZERO),
        );
        // slot 0: request rides collection; slot 1: data flies.
        let out0 = net.step_slot();
        assert_eq!(out0.deliveries.len(), 0);
        assert_eq!(out0.next_master, NodeId(1), "requester becomes master");
        let t_slot = net.config().slot_time();
        let prop = net.config().phys.link_prop();
        let out1 = net.step_slot();
        assert_eq!(out1.deliveries.len(), 1);
        let d = &out1.deliveries[0];
        assert_eq!(d.msg.id, id);
        // completion: two slots, one 1-hop hand-over gap (0→1), then the
        // packet's own 2 hops of propagation
        assert_eq!(d.completed, SimTime::ZERO + t_slot * 2 + prop * 3);
    }

    #[test]
    fn multi_slot_message_takes_e_slots() {
        let mut net = net(4);
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(0), Destination::Unicast(NodeId(1)), 3, SimTime::ZERO),
        );
        let mut delivered_at_slot = None;
        for s in 0..10 {
            if !net.step_slot().deliveries.is_empty() {
                delivered_at_slot = Some(s);
                break;
            }
        }
        // request in slot 0, data in slots 1,2,3 → delivery during slot 3
        assert_eq!(delivered_at_slot, Some(3));
        assert_eq!(net.metrics().grants.get(), 3);
    }

    #[test]
    fn periodic_connection_flows_and_meets_deadlines() {
        let mut net = net(8);
        let spec = ConnectionSpec::unicast(NodeId(2), NodeId(6))
            .period(TimeDelta::from_us(50))
            .size_slots(1);
        net.open_connection(spec).unwrap();
        net.run_slots(20_000);
        let m = net.metrics();
        assert!(
            m.delivered_rt.get() > 900,
            "delivered {}",
            m.delivered_rt.get()
        );
        assert_eq!(m.rt_deadline_misses.get(), 0);
        assert_eq!(m.rt_bound_violations.get(), 0);
    }

    #[test]
    fn overload_rejected_by_admission() {
        let mut net = net(4);
        // one connection needing ~every slot
        let slot = net.config().slot_time();
        let hog = ConnectionSpec::unicast(NodeId(0), NodeId(1))
            .period(slot * 1)
            .size_slots(1);
        assert!(net.open_connection(hog).is_err(), "u = 1 > u_max");
    }

    #[test]
    fn closed_connection_stops_releasing() {
        let mut net = net(4);
        let spec = ConnectionSpec::unicast(NodeId(0), NodeId(2))
            .period(TimeDelta::from_us(30))
            .size_slots(1);
        let id = net.open_connection(spec).unwrap();
        net.run_slots(200);
        let before = net.metrics().delivered_rt.get();
        assert!(before > 0);
        assert!(net.close_connection(id));
        assert!(!net.close_connection(id));
        net.run_slots(200);
        let after = net.metrics().delivered_rt.get();
        // at most one message was already in flight
        assert!(after <= before + 2, "kept flowing: {before} → {after}");
    }

    #[test]
    fn edf_order_across_nodes() {
        // Two RT messages at different nodes; the later-submitted one has
        // the earlier deadline and must be delivered first.
        let mut net = net(6);
        let relaxed = Message {
            id: Message::UNASSIGNED,
            src: NodeId(1),
            dest: Destination::Unicast(NodeId(2)),
            class: crate::message::TrafficClass::RealTime,
            size_slots: 1,
            released: SimTime::ZERO,
            deadline: SimTime::from_us(500),
            connection: None,
            reliable: false,
        };
        let urgent = Message {
            deadline: SimTime::from_us(20),
            src: NodeId(3),
            dest: Destination::Unicast(NodeId(4)),
            ..relaxed
        };
        let id_relaxed = net.submit_message(SimTime::ZERO, relaxed);
        let id_urgent = net.submit_message(SimTime::ZERO, urgent);
        let mut order = vec![];
        for _ in 0..6 {
            let out = net.step_slot();
            order.extend(out.deliveries.iter().map(|d| d.msg.id));
        }
        assert_eq!(order, vec![id_urgent, id_relaxed]);
    }

    #[test]
    fn spatial_reuse_delivers_disjoint_transmissions_together() {
        let mut net = net(6);
        // disjoint segments: 0→2 and 3→5
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(0), Destination::Unicast(NodeId(2)), 1, SimTime::ZERO),
        );
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(3), Destination::Unicast(NodeId(5)), 1, SimTime::ZERO),
        );
        net.step_slot();
        let out = net.step_slot();
        assert_eq!(out.grant_count, 2);
        assert_eq!(out.deliveries.len(), 2);
    }

    #[test]
    fn no_reuse_serialises_them() {
        let cfg = NetworkConfig::builder(6)
            .slot_bytes(1024)
            .spatial_reuse(false)
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(0), Destination::Unicast(NodeId(2)), 1, SimTime::ZERO),
        );
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(3), Destination::Unicast(NodeId(5)), 1, SimTime::ZERO),
        );
        net.run_slots(4);
        assert_eq!(net.metrics().delivered.get(), 2);
        assert!(net.metrics().grants_per_slot.max().unwrap() <= 1.0);
    }

    #[test]
    fn broadcast_reaches_all() {
        let mut net = net(5);
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(2), Destination::Broadcast, 1, SimTime::ZERO),
        );
        net.run_slots(3);
        assert_eq!(net.metrics().delivered.get(), 1);
    }

    #[test]
    fn handover_gap_matches_equation1() {
        let mut net = net(8);
        // message from node 5: master moves 0 → 5 = 5 hops
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(5), Destination::Unicast(NodeId(6)), 1, SimTime::ZERO),
        );
        let expected = net.config().timing().handover_time(5);
        let out = net.step_slot();
        assert_eq!(out.handover_hops, 5);
        assert_eq!(out.gap, expected);
    }

    #[test]
    fn barrier_completes_when_all_enter() {
        let cfg = NetworkConfig::builder(4)
            .slot_bytes(1024)
            .services(ServiceWireConfig {
                barrier: true,
                ..Default::default()
            })
            .wire_check(true)
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        for i in 0..3 {
            net.barrier_enter(NodeId(i));
        }
        net.run_slots(5);
        assert_eq!(
            net.metrics().barriers_completed.get(),
            0,
            "one node missing"
        );
        net.barrier_enter(NodeId(3));
        let out = net.step_slot();
        assert!(out.barrier_completed);
        assert_eq!(net.metrics().barriers_completed.get(), 1);
    }

    #[test]
    fn reduction_sums_all_contributions() {
        let cfg = NetworkConfig::builder(4)
            .slot_bytes(1024)
            .services(ServiceWireConfig {
                reduction: true,
                ..Default::default()
            })
            .wire_check(true)
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        for i in 0..4u16 {
            net.reduce_submit(NodeId(i), (i as u32 + 1) * 10);
        }
        let out = net.step_slot();
        assert_eq!(out.reduce_result, Some(100));
        assert_eq!(net.metrics().reductions_completed.get(), 1);
    }

    #[test]
    fn short_messages_delivered_next_distribution() {
        let cfg = NetworkConfig::builder(4)
            .slot_bytes(1024)
            .services(ServiceWireConfig {
                short_msg: true,
                ..Default::default()
            })
            .wire_check(true)
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.short_send(NodeId(1), NodeId(3), 0xCAFE);
        let out = net.step_slot();
        assert_eq!(out.short_deliveries.len(), 1);
        let sd = out.short_deliveries[0];
        assert_eq!(
            (sd.src, sd.dest, sd.payload),
            (NodeId(1), NodeId(3), 0xCAFE)
        );
        assert_eq!(net.metrics().short_delivered.get(), 1);
    }

    #[test]
    fn scripted_token_loss_matches_stochastic_semantics() {
        use crate::fault::{FaultKind, FaultScript};
        let cfg = NetworkConfig::builder(6)
            .slot_bytes(1024)
            .fault_script(FaultScript::new().at(5, FaultKind::LoseToken))
            .faults(crate::config::FaultConfig {
                recovery_timeout_slots: 4,
                ..Default::default()
            })
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        let spec = ConnectionSpec::unicast(NodeId(1), NodeId(4))
            .period(TimeDelta::from_us(20))
            .size_slots(1);
        net.open_connection(spec).unwrap();
        net.run_slots(200);
        let m = net.metrics();
        assert_eq!(m.tokens_lost.get(), 1);
        // default recovery timeout applies, then traffic resumes
        assert_eq!(
            m.recovery_slots.get(),
            net.config().faults.recovery_timeout_slots as u64
        );
        assert!(m.delivered_rt.get() > 0);
        let rec = m.fault_log.events().next().unwrap();
        assert_eq!(rec.slot, 5);
        assert!(rec.time_to_recovery().is_some());
    }

    #[test]
    fn scripted_distribution_corruption_acts_as_token_loss() {
        use crate::fault::{FaultKind, FaultScript};
        let cfg = NetworkConfig::builder(4)
            .slot_bytes(1024)
            .fault_script(FaultScript::new().at(3, FaultKind::CorruptDistribution))
            .faults(crate::config::FaultConfig {
                recovery_timeout_slots: 4,
                ..Default::default()
            })
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.run_slots(50);
        let m = net.metrics();
        assert_eq!(m.distributions_corrupted.get(), 1);
        assert_eq!(m.tokens_lost.get(), 0);
        assert_eq!(
            m.recovery_slots.get(),
            net.config().faults.recovery_timeout_slots as u64
        );
        assert!(m.availability() < 1.0);
    }

    #[test]
    fn corrupted_collection_entry_drops_the_request() {
        use crate::fault::{FaultKind, FaultScript};
        // Victim requests in slot 0; its entry is corrupted, so the grant
        // never happens and the message goes out one slot late.
        let cfg = NetworkConfig::builder(4)
            .slot_bytes(1024)
            .fault_script(
                FaultScript::new().at(0, FaultKind::CorruptCollection { victim: NodeId(1) }),
            )
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.submit_message(
            SimTime::ZERO,
            Message::non_real_time(NodeId(1), Destination::Unicast(NodeId(3)), 1, SimTime::ZERO),
        );
        let out0 = net.step_slot();
        assert_eq!(out0.corrupt_entries, 1);
        assert_eq!(out0.next_master, NodeId(0), "dropped request wins nothing");
        let out1 = net.step_slot();
        assert!(out1.deliveries.is_empty(), "grant was suppressed");
        net.run_slots(3);
        assert_eq!(net.metrics().delivered.get(), 1, "retried next slot");
        assert_eq!(net.metrics().control_corrupted.get(), 1);
    }

    #[test]
    fn failed_node_is_bypassed_and_capacity_shed() {
        let mut net = net(8);
        let victim_conn = ConnectionSpec::unicast(NodeId(2), NodeId(6))
            .period(TimeDelta::from_us(50))
            .size_slots(1);
        let other_conn = ConnectionSpec::unicast(NodeId(1), NodeId(5))
            .period(TimeDelta::from_us(50))
            .size_slots(1);
        net.open_connection(victim_conn).unwrap();
        net.open_connection(other_conn).unwrap();
        net.run_slots(100);
        assert!(net.fail_node(NodeId(2)));
        assert!(!net.fail_node(NodeId(2)), "already down");
        assert!(!net.node_alive(NodeId(2)));
        assert_eq!(net.live_nodes(), 7);
        assert_eq!(net.admission().admitted_count(), 1);
        assert!((net.admission().capacity_factor() - 7.0 / 8.0).abs() < 1e-12);
        let before = net.metrics().delivered_rt.get();
        net.run_slots(1_000);
        let m = net.metrics();
        assert!(m.delivered_rt.get() > before, "survivor keeps flowing");
        assert_eq!(m.rt_deadline_misses.get(), 0);
        assert_eq!(m.nodes_failed.get(), 1);
        assert!(m.connections_revoked.get() >= 1);
    }

    #[test]
    fn repaired_node_restores_capacity_and_carries_traffic_again() {
        let mut net = net(8);
        net.run_slots(20);
        assert!(net.fail_node(NodeId(2)));
        assert!(!net.repair_node(NodeId(3)), "live node needs no repair");
        assert!(net.repair_node(NodeId(2)));
        assert!(!net.repair_node(NodeId(2)), "already repaired");
        assert!(net.node_alive(NodeId(2)));
        assert_eq!(net.live_nodes(), 8);
        assert!((net.admission().capacity_factor() - 1.0).abs() < 1e-12);
        assert_eq!(net.metrics().nodes_repaired.get(), 1);
        // The repaired node admits and carries fresh traffic.
        net.open_connection(
            ConnectionSpec::unicast(NodeId(2), NodeId(6))
                .period(TimeDelta::from_us(50))
                .size_slots(1),
        )
        .unwrap();
        net.run_slots(500);
        assert!(net.metrics().delivered_rt.get() > 0);
        assert_eq!(net.metrics().rt_deadline_misses.get(), 0);
    }

    #[test]
    fn killing_node_zero_elects_live_restart_successor() {
        use crate::fault::{FaultKind, FaultScript};
        // Node 0 is the designated restart node; killing it while it is
        // master must not wedge recovery on a dead node.
        let cfg = NetworkConfig::builder(5)
            .slot_bytes(1024)
            .fault_script(FaultScript::new().at(10, FaultKind::FailNode(NodeId(0))))
            .faults(crate::config::FaultConfig {
                recovery_timeout_slots: 4,
                ..Default::default()
            })
            .build()
            .unwrap();
        let mut net = RingNetwork::new_ccr_edf(cfg);
        net.run_slots(8);
        assert_eq!(net.master(), NodeId(0), "idle ring: master still node 0");
        net.run_slots(50);
        assert_eq!(net.master(), NodeId(1), "nearest live successor restarts");
        // The healed ring still moves traffic.
        let at = net.now();
        net.submit_message(
            at,
            Message::non_real_time(NodeId(2), Destination::Unicast(NodeId(4)), 1, at),
        );
        net.run_slots(5);
        assert_eq!(net.metrics().delivered.get(), 1);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut net = net(8);
            let spec = ConnectionSpec::unicast(NodeId(1), NodeId(5))
                .period(TimeDelta::from_us(40))
                .size_slots(2);
            net.open_connection(spec).unwrap();
            net.run_slots(5_000);
            (
                net.metrics().delivered.get(),
                net.metrics().handover_gap.mean(),
                net.now(),
            )
        };
        assert_eq!(run(), run());
    }
}
