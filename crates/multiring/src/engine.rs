//! The fabric engine: lockstep per-ring stepping with deterministic
//! inter-ring bridge exchange.
//!
//! One *fabric slot* advances every ring by exactly one MAC slot. The step
//! has three phases, all on the calling thread:
//!
//! 1. **Ring phase** — every ring advances one slot through
//!    [`ccr_edf::network::RingNetwork::run_slots`]`(1)` in ring-index order:
//!    a provably idle ring takes the O(1) idle path, any other ring
//!    executes `step_slot`, and both leave the same outcome, clock and
//!    metrics, which are all the later phases read. Most ring slots of a
//!    lightly loaded fabric are idle, so most of its ring phase takes the
//!    idle path. Rings share no state within a slot (bridge traffic only
//!    moves *between* slots), and every ring steps before any delivery is
//!    handled, because a bridge hand-off is stamped with its egress ring's
//!    post-step clock. A stepped ring slot simulates in about 0.2–2 µs and
//!    an idle one in far less, both well under a thread hand-off, so the
//!    rings are stepped in place; the
//!    parallelism that pays runs whole fabrics side by side (see
//!    DESIGN.md §8).
//! 2. **Exchange phase** — each ring's deliveries are read in place from
//!    its last slot outcome, in ring-index then delivery order. A delivery
//!    at a bridge port whose connection has further segments is handed
//!    off to that bridge direction, carrying its end-to-end bookkeeping
//!    with it; a delivery at its final destination closes the end-to-end
//!    record.
//! 3. **Injection phase** — every hand-off of the slot is submitted into
//!    its egress ring, in bridge-direction order.
//!
//! A bridge direction never holds more than one message, and never past
//! its slot. CCR-EDF grants only link-disjoint transmissions, and a
//! transmission to a node uses the link into it, so a bridge port receives
//! at most one message per slot; the injection phase forwards it in the
//! slot it arrived. A bridge therefore needs no queue, no buffer to
//! reserve at admission and no drop policy.
//!
//! ## Clocks
//!
//! Rings are synchronised by fabric slot *count*, not by simulated time:
//! each ring's clock advances by its own slot-plus-handover-gap sequence,
//! so ring-local clocks drift apart by sub-slot amounts per slot. The
//! engine therefore never compares instants from different rings. All
//! end-to-end quantities are sums of single-ring differences: a segment's
//! latency runs from the message's entry timestamp (release, or bridge
//! hand-off, both on the segment's own clock) to its delivery, and the
//! end-to-end latency is the sum of segment latencies. The e2e deadline
//! check compares that relative sum against the connection's relative e2e
//! deadline.

use crate::admission::{
    plan_connection, ConnectionPlan, FabricAdmissionError, FabricConnectionId,
    FabricConnectionSpec, SegmentEnv,
};
use crate::calculus::{CalculusAdmission, CalculusReport};
use crate::fault::{BridgeEventKind, FabricFaultKind, FabricFaultScript};
use crate::metrics::FabricMetrics;
use crate::topology::{CycleBound, FabricTopology, GlobalNodeId, RingId};
use ccr_edf::config::{ConfigError, NetworkConfig};
use ccr_edf::connection::ConnectionId;
use ccr_edf::message::{Destination, Message};
use ccr_edf::metrics::{Delivery, Metrics};
use ccr_edf::network::RingNetwork;
use ccr_edf::NodeId;
use ccr_sim::{SimTime, TimeDelta};
use std::collections::VecDeque;

/// Why a fabric could not be constructed.
#[derive(Debug)]
pub enum FabricBuildError {
    /// `ring_configs.len()` does not match the topology's ring count.
    RingCountMismatch {
        /// Rings in the topology.
        expected: u16,
        /// Configurations supplied.
        got: usize,
    },
    /// A ring's configured node count differs from the topology.
    RingSizeMismatch {
        /// The offending ring.
        ring: RingId,
        /// Node count per the topology.
        expected: u16,
        /// Node count per the configuration.
        got: u16,
    },
    /// A ring's slot time differs from ring 0's. Lockstep stepping keeps
    /// cross-ring skew sub-slot only when nominal slot times agree.
    UnequalSlotTimes {
        /// The offending ring.
        ring: RingId,
    },
    /// A per-ring configuration failed validation.
    Config(ConfigError),
    /// The fault script targets a bridge index outside the topology.
    UnknownBridge {
        /// The offending bridge index.
        bridge: usize,
    },
    /// The fault script aims a ring-local fault at a ring outside the
    /// topology.
    UnknownRing {
        /// The offending ring.
        ring: RingId,
    },
    /// The network-calculus certifier was requested but a ring's timing
    /// environment is degenerate (zero slot-plus-handover time).
    DegenerateTiming,
}

impl std::fmt::Display for FabricBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricBuildError::RingCountMismatch { expected, got } => {
                write!(
                    f,
                    "topology has {expected} rings but {got} configs supplied"
                )
            }
            FabricBuildError::RingSizeMismatch {
                ring,
                expected,
                got,
            } => write!(
                f,
                "ring {ring}: topology says {expected} nodes, config says {got}"
            ),
            FabricBuildError::UnequalSlotTimes { ring } => {
                write!(
                    f,
                    "ring {ring}: slot time differs from ring 0 (lockstep requires equal slots)"
                )
            }
            FabricBuildError::Config(e) => write!(f, "ring config invalid: {e}"),
            FabricBuildError::UnknownBridge { bridge } => {
                write!(f, "fault script targets unknown bridge #{bridge}")
            }
            FabricBuildError::UnknownRing { ring } => {
                write!(f, "fault script targets unknown ring {ring}")
            }
            FabricBuildError::DegenerateTiming => {
                write!(
                    f,
                    "calculus certifier requested but a ring has a degenerate slot time"
                )
            }
        }
    }
}

impl std::error::Error for FabricBuildError {}

impl From<ConfigError> for FabricBuildError {
    fn from(e: ConfigError) -> Self {
        FabricBuildError::Config(e)
    }
}

/// Complete configuration of a fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// The validated topology.
    pub topology: FabricTopology,
    /// One ring configuration per topology ring, in ring-id order.
    pub ring_configs: Vec<NetworkConfig>,
    /// Scripted fabric-level fault injection. Ring-local events are
    /// distributed into the per-ring fault scripts at build time (lockstep
    /// keeps ring slot counters equal to the fabric's); bridge kills and
    /// repairs are applied by the engine itself. Empty by default.
    pub fault_script: FabricFaultScript,
    /// Force the network-calculus certifier on even for acyclic fabrics
    /// (it is always on when the topology was built with
    /// [`CycleBound::Calculus`]). Every admission then carries a certified
    /// end-to-end delay bound, readable via [`Fabric::e2e_bound`].
    pub calculus: bool,
    /// Force every calculus certification to run as a full re-solve
    /// instead of a warm-started dirty-set solve. Slow — this is the
    /// bit-exact reference mode the incremental differential suite
    /// compares against, not a production knob.
    pub calculus_force_full: bool,
}

impl FabricConfig {
    /// Uniform fabric: every ring gets the same slot size and a seed
    /// derived from `seed` and its ring id.
    pub fn uniform(
        topology: FabricTopology,
        slot_bytes: u32,
        seed: u64,
    ) -> Result<Self, FabricBuildError> {
        let mut ring_configs = Vec::with_capacity(topology.n_rings() as usize);
        for r in 0..topology.n_rings() {
            let cfg = NetworkConfig::builder(topology.ring_size(RingId(r)))
                .slot_bytes(slot_bytes)
                .seed(
                    seed.wrapping_add(r as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
                .build_auto_slot()?;
            ring_configs.push(cfg);
        }
        Ok(FabricConfig {
            topology,
            ring_configs,
            fault_script: FabricFaultScript::default(),
            calculus: false,
            calculus_force_full: false,
        })
    }

    /// Install a fabric fault script.
    pub fn fault_script(mut self, s: FabricFaultScript) -> Self {
        self.fault_script = s;
        self
    }

    /// Turn the network-calculus certifier on for every admission (it is
    /// on regardless when the topology allows cycles with
    /// [`CycleBound::Calculus`]).
    pub fn calculus(mut self, on: bool) -> Self {
        self.calculus = on;
        self
    }

    /// Run every calculus certification as a full re-solve (differential
    /// reference mode; see [`FabricConfig::calculus_force_full`]).
    pub fn calculus_force_full(mut self, on: bool) -> Self {
        self.calculus_force_full = on;
        self
    }
}

/// How a connection's traffic enters the fabric and which guarantees it
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnClass {
    /// Ring-generated periodic traffic with full guarantees
    /// ([`Fabric::open_connection`]).
    Periodic,
    /// Externally injected guaranteed traffic
    /// ([`Fabric::open_external_connections`]): every segment reserved,
    /// messages enter via [`Fabric::inject`], same admission gate as
    /// periodic traffic.
    External,
    /// Externally injected best-effort traffic
    /// ([`Fabric::open_best_effort`]): placed on a route but never
    /// admitted or certified — it rides ring slots the guaranteed set
    /// leaves idle, and a bridge forwards it in the slot it arrives like
    /// any other message, so it can never displace a guaranteed message
    /// anywhere in the fabric.
    BestEffort,
}

impl ConnClass {
    /// Classes whose traffic enters via [`Fabric::inject`] and leaves via
    /// [`Fabric::drain_egress`].
    fn is_injected(self) -> bool {
        matches!(self, ConnClass::External | ConnClass::BestEffort)
    }
}

/// An admitted end-to-end connection: everything the fabric holds for it,
/// dropped in one piece when it closes.
#[derive(Debug)]
struct ActiveConnection {
    fid: FabricConnectionId,
    plan: ConnectionPlan,
    /// Per-segment ring-level connection ids (opened on segment 0,
    /// reserved on the rest).
    ring_conns: Vec<ConnectionId>,
    /// How traffic enters and which guarantees it carries.
    class: ConnClass,
    /// Final deliveries so far — the egress sequence number source.
    delivered: u64,
    /// Messages forwarded onto each segment and not yet delivered there,
    /// one FIFO per segment (segment 0's stays empty: its messages carry
    /// their release time).
    inflight: Vec<VecDeque<Inflight>>,
    /// Largest observed e2e latency (final deliveries).
    observed_max: Option<TimeDelta>,
}

impl ActiveConnection {
    /// The message this connection sends on segment `seg_idx`, entering
    /// it at `now` on that segment's ring clock: a real-time message, or a
    /// best-effort one tagged with its connection.
    fn message(&self, seg_idx: usize, now: SimTime) -> Message {
        let seg = &self.plan.segments[seg_idx];
        let (from, to) = (seg.segment.from, seg.segment.to);
        let size = seg.spec.size_slots;
        let deadline = now.saturating_add(seg.spec.effective_deadline());
        let conn = self.ring_conns[seg_idx];
        if self.class == ConnClass::BestEffort {
            let mut m = Message::best_effort(from, Destination::Unicast(to), size, now, deadline);
            m.connection = Some(conn);
            m
        } else {
            Message::real_time(from, Destination::Unicast(to), size, now, deadline, conn)
        }
    }
}

/// A final delivery of an externally injected (gateway) connection,
/// surfaced through [`Fabric::drain_egress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressDelivery {
    /// The owning end-to-end connection.
    pub fid: FabricConnectionId,
    /// Per-connection delivery sequence number, starting at 0. Successive
    /// messages of one connection keep FIFO order end to end (see
    /// `Inflight`), so this matches the injection order exactly.
    pub seq: u64,
    /// End-to-end latency accumulated across every segment.
    pub latency: TimeDelta,
    /// Did the delivery meet the connection's e2e deadline?
    pub met_deadline: bool,
    /// Remaining deadline budget (zero when missed). All deliveries
    /// drained together completed in the same fabric slot, so ascending
    /// slack is exactly earliest-absolute-deadline-first.
    pub slack: TimeDelta,
}

/// Why the fault machinery revoked a connection instead of rerouting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeReason {
    /// The source or destination node is dead — no admission can help.
    EndpointDead,
    /// No bridge path avoiding the dead hardware exists.
    NoRoute,
    /// A route exists but the admission gate (EDF utilisation or the
    /// calculus fixed point) refused it.
    AdmissionRefused,
}

impl std::fmt::Display for RevokeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RevokeReason::EndpointDead => write!(f, "endpoint dead"),
            RevokeReason::NoRoute => write!(f, "no surviving route"),
            RevokeReason::AdmissionRefused => write!(f, "re-admission refused"),
        }
    }
}

/// A fault- or repair-driven change to an open connection's route,
/// surfaced through [`Fabric::drain_connection_events`] so external
/// holders of a [`FabricConnectionId`] (the gateway) can follow it.
///
/// Rerouting and reclamation *re-admit* the spec under the id it was
/// opened with, which every event names. Events are recorded in the order
/// they happened; the buffer is bounded by fault events, not by slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEvent {
    /// Closed and re-admitted over an alternate (or restored) route.
    /// Messages in flight at the switch were dropped; deliveries restart
    /// at sequence 0.
    Rerouted {
        /// The connection.
        fid: FabricConnectionId,
    },
    /// Revoked: the spec is queued for reclaim (its owner may still close
    /// it) and carries no traffic until a reclaim names it again.
    Revoked {
        /// The connection.
        fid: FabricConnectionId,
        /// Why no reroute was possible.
        reason: RevokeReason,
    },
    /// Re-admitted on its preferred route after a revocation or a detour
    /// (bridge repair or freed capacity); deliveries restart at sequence 0.
    Reclaimed {
        /// The connection.
        fid: FabricConnectionId,
    },
}

/// Why [`Fabric::inject`] refused an externally produced message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// No such connection: never opened, closed, or revoked by a fault.
    UnknownConnection,
    /// The connection was opened with periodic releases
    /// ([`Fabric::open_connection`]) — its traffic is generated by the
    /// ring, not injected.
    NotExternal,
    /// The source node is currently dead; the message has no way in.
    SourceDown,
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::UnknownConnection => write!(f, "unknown or revoked connection"),
            InjectError::NotExternal => write!(f, "connection is not externally injected"),
            InjectError::SourceDown => write!(f, "source node is down"),
        }
    }
}

/// A message in flight on segment `seg_idx` of a connection, awaiting its
/// delivery record. FIFO per (connection, segment): successive messages of
/// one connection carry strictly increasing deadlines, so EDF preserves
/// their order on every ring.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    /// Segment-entry timestamp on the segment ring's clock (the bridge
    /// hand-off instant).
    entered: SimTime,
    accumulated: TimeDelta,
}

/// A delivery handed to a bridge for its connection's next segment, held
/// from the exchange phase to the injection phase of the same fabric slot.
/// Nothing opens or closes a connection in between, so `entry` still
/// names its owner when the injection phase reads it.
#[derive(Debug, Clone, Copy)]
struct PendingForward {
    /// Slab entry of the owning connection.
    entry: usize,
    /// The segment the message enters.
    seg_idx: usize,
    /// End-to-end latency accumulated over the previous segments.
    accumulated: TimeDelta,
}

/// A multi-ring CCR-EDF fabric.
pub struct Fabric {
    topo: FabricTopology,
    rings: Vec<RingNetwork>,
    envs: Vec<SegmentEnv>,
    /// The message each bridge direction received this slot, by direction
    /// (`2·b` carries a→b traffic, `2·b + 1` b→a). All `None` between
    /// slots: the injection phase empties it.
    handoff: Vec<Option<PendingForward>>,
    /// Admitted connections, in a slab whose free entries are reused.
    conns: Vec<Option<ActiveConnection>>,
    /// Slab entry of each connection, indexed by its [`FabricConnectionId`]
    /// (never reused; kept by re-admissions); `None` while revoked or closed.
    by_fid: Vec<Option<usize>>,
    /// Per ring, indexed by that ring's dense [`ConnectionId`]: the slab
    /// entry and segment index of the fabric connection the ring
    /// connection carries. `None` for ring ids the fabric does not own.
    by_ring_conn: Vec<Vec<Option<(usize, usize)>>>,
    metrics: FabricMetrics,
    /// The id the next opened connection gets.
    next_fid: u64,
    /// Per-ring recovering flags filled by the health scan each slot.
    health_scratch: Vec<bool>,
    /// End-to-end certifier: present when the topology allows cycles with
    /// [`CycleBound::Calculus`] or [`FabricConfig::calculus`] opted in.
    calculus: Option<CalculusAdmission>,
    /// Final deliveries of external connections since the last
    /// [`Fabric::drain_egress`], in deterministic delivery order.
    egress_buf: Vec<EgressDelivery>,
    // --- fault state ---------------------------------------------------
    /// Per-bridge death flags (indexed by bridge index).
    dead_bridges: Vec<bool>,
    /// Scripted `(slot, bridge, kill/repair)` events, sorted by slot.
    bridge_events: Vec<(u64, usize, BridgeEventKind)>,
    event_cursor: usize,
    /// Specs revoked by faults (with their connection class and id), in
    /// revocation order — the reclaim queue a bridge repair retries
    /// deterministically.
    revoked_specs: Vec<(FabricConnectionSpec, ConnClass, FabricConnectionId)>,
    /// Reroutes, revocations and reclaims since the last
    /// [`Fabric::drain_connection_events`], in event order.
    conn_events: Vec<ConnectionEvent>,
    /// True while at least one surviving connection sits on a detour the
    /// last reclaim pass could not move back (its preferred route was
    /// refused for capacity). Together with `revoked_specs`, this is what
    /// arms the freed-capacity reclaim a `close_connection` triggers.
    detour_pending: bool,
    /// True when any fault source exists (stochastic knobs, scripts, or a
    /// manual `fail_node`/`kill_bridge` call) — gates the per-slot health
    /// scan so fault-free fabrics pay nothing for it.
    track_faults: bool,
    /// Fabric-side mirror of each ring's per-node liveness, used to detect
    /// deaths that happen *inside* a ring (scripted `FailNode` events).
    ring_alive: Vec<Vec<bool>>,
}

impl Fabric {
    /// Build a fabric from a validated configuration.
    pub fn new(cfg: FabricConfig) -> Result<Self, FabricBuildError> {
        let n_rings = cfg.topology.n_rings();
        if cfg.ring_configs.len() != n_rings as usize {
            return Err(FabricBuildError::RingCountMismatch {
                expected: n_rings,
                got: cfg.ring_configs.len(),
            });
        }
        // Distribute the fabric script's ring-local events into the
        // per-ring scripts (lockstep ⇒ fabric slot index = ring slot
        // index), then validate the *merged* configs — a merged script
        // with clock faults still needs a usable recovery timeout.
        let mut ring_cfgs: Vec<NetworkConfig> = cfg.ring_configs.clone();
        for (r, rc) in ring_cfgs.iter_mut().enumerate() {
            let extra = cfg.fault_script.ring_script(RingId(r as u16));
            for e in extra.events() {
                rc.fault_script.push(e.slot, e.kind);
            }
        }
        for (r, rc) in ring_cfgs.iter().enumerate() {
            rc.validate()?;
            let expected = cfg.topology.ring_size(RingId(r as u16));
            if rc.n_nodes != expected {
                return Err(FabricBuildError::RingSizeMismatch {
                    ring: RingId(r as u16),
                    expected,
                    got: rc.n_nodes,
                });
            }
            if rc.slot_time() != ring_cfgs[0].slot_time() {
                return Err(FabricBuildError::UnequalSlotTimes {
                    ring: RingId(r as u16),
                });
            }
        }
        let bridge_events = cfg.fault_script.bridge_events();
        if let Some(&(_, b, _)) = bridge_events
            .iter()
            .find(|&&(_, b, _)| b >= cfg.topology.bridges().len())
        {
            return Err(FabricBuildError::UnknownBridge { bridge: b });
        }
        if let Some(ring) = cfg.fault_script.events().iter().find_map(|e| match e.kind {
            FabricFaultKind::Ring { ring, .. } if ring.0 >= n_rings => Some(ring),
            _ => None,
        }) {
            return Err(FabricBuildError::UnknownRing { ring });
        }
        let track_faults = !bridge_events.is_empty()
            || ring_cfgs.iter().any(|rc| {
                rc.faults.token_loss_prob > 0.0
                    || rc.faults.control_error_prob > 0.0
                    || !rc.fault_script.is_empty()
            });
        let ring_alive: Vec<Vec<bool>> = ring_cfgs
            .iter()
            .map(|rc| vec![true; rc.n_nodes as usize])
            .collect();
        let rings: Vec<RingNetwork> = ring_cfgs
            .iter()
            .map(|rc| RingNetwork::new_ccr_edf(rc.clone()))
            .collect();
        let envs: Vec<SegmentEnv> = rings
            .iter()
            .map(|r| SegmentEnv::new(r.analytic()))
            .collect();
        let n_bridges = cfg.topology.bridges().len();
        let want_calculus =
            cfg.calculus || cfg.topology.cycle_bound() == Some(CycleBound::Calculus);
        let calculus = if want_calculus {
            // Never silently drop the certifier a cyclic topology relies
            // on: degenerate timing (impossible for validated configs) is
            // a build failure, not a disabled gate.
            let mut calc = CalculusAdmission::new(&envs, &cfg.topology.queue_egress())
                .ok_or(FabricBuildError::DegenerateTiming)?;
            calc.set_force_full(cfg.calculus_force_full);
            Some(calc)
        } else {
            None
        };
        Ok(Fabric {
            handoff: vec![None; cfg.topology.n_queues()],
            topo: cfg.topology,
            rings,
            envs,
            conns: Vec::new(),
            by_fid: Vec::new(),
            by_ring_conn: vec![Vec::new(); n_rings as usize],
            metrics: FabricMetrics::new(),
            next_fid: 1,
            health_scratch: Vec::new(),
            calculus,
            dead_bridges: vec![false; n_bridges],
            bridge_events,
            event_cursor: 0,
            revoked_specs: Vec::new(),
            conn_events: Vec::new(),
            egress_buf: Vec::new(),
            detour_pending: false,
            track_faults,
            ring_alive,
        })
    }

    /// The fabric topology.
    pub fn topology(&self) -> &FabricTopology {
        &self.topo
    }

    /// End-to-end metrics.
    pub fn metrics(&self) -> &FabricMetrics {
        &self.metrics
    }

    /// Emit the in-progress per-ring availability window as a final series
    /// point (end-of-run bookkeeping for fault-tracking runs; a no-op when
    /// nothing is accumulated). See [`FabricMetrics::ring_availability`].
    pub fn flush_health_series(&mut self) {
        let last = self.metrics.slots.get().saturating_sub(1);
        self.metrics.flush_ring_health(last);
    }

    /// Ring `r`'s metrics.
    pub fn ring_metrics(&self, r: RingId) -> &Metrics {
        self.rings[r.0 as usize].metrics()
    }

    /// Per-ring timing environments (indexed by ring id).
    pub fn segment_envs(&self) -> &[SegmentEnv] {
        &self.envs
    }

    /// The fabric clock: start of the current slot on ring 0. Every ring
    /// runs in lockstep, so this is the canonical fabric time external
    /// producers (gateways) should stamp injections with.
    pub fn now(&self) -> SimTime {
        self.rings[0].now()
    }

    /// Inspect ring `r` (e.g. to read [`RingNetwork::last_outcome`] for
    /// slot tracing between fabric steps).
    pub fn with_ring<T>(&self, r: RingId, f: impl FnOnce(&RingNetwork) -> T) -> T {
        f(&self.rings[r.0 as usize])
    }

    /// Number of admitted end-to-end connections.
    pub fn active_connections(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// The slab entry of open connection `fid`.
    fn entry_of(&self, fid: FabricConnectionId) -> Option<usize> {
        self.by_fid.get(fid.0 as usize).copied().flatten()
    }

    /// Open connection `fid`.
    fn conn(&self, fid: FabricConnectionId) -> Option<&ActiveConnection> {
        self.entry_of(fid).and_then(|e| self.conns[e].as_ref())
    }

    /// Plan `spec` around the bridges that are dead right now — the one
    /// planning call behind every admission, re-route and reclaim.
    fn plan(&self, spec: &FabricConnectionSpec) -> Result<ConnectionPlan, FabricAdmissionError> {
        plan_connection(&self.topo, spec, &self.envs, &self.dead_bridges)
    }

    /// Plan every spec, then admit the batch as `class` under fresh ids,
    /// all-or-nothing.
    fn open(
        &mut self,
        specs: &[FabricConnectionSpec],
        class: ConnClass,
    ) -> Result<Vec<FabricConnectionId>, FabricAdmissionError> {
        let plans = specs
            .iter()
            .map(|spec| self.plan(spec))
            .collect::<Result<Vec<_>, _>>()?;
        let fids: Vec<FabricConnectionId> = (self.next_fid..self.next_fid + plans.len() as u64)
            .map(FabricConnectionId)
            .collect();
        self.admit_plans(&fids, plans, class)?;
        self.next_fid += fids.len() as u64;
        Ok(fids)
    }

    /// Admit an end-to-end connection: plan the per-segment decomposition,
    /// certify it when the certifier is armed, then admit every segment on
    /// its ring — opening the source segment (periodic releases) and
    /// reserving capacity on the downstream ones. All-or-nothing: a
    /// rejection at any hop rolls the earlier hops back.
    pub fn open_connection(
        &mut self,
        spec: FabricConnectionSpec,
    ) -> Result<FabricConnectionId, FabricAdmissionError> {
        self.open(std::slice::from_ref(&spec), ConnClass::Periodic)
            .map(|fids| fids[0])
    }

    /// Admit an end-to-end connection whose messages are produced
    /// *outside* the fabric — by a gateway pacing real datagrams in via
    /// [`Fabric::inject`]. Admission is identical to
    /// [`Fabric::open_connection`] (deadline decomposition, calculus
    /// certification, per-ring tests), but every segment is only
    /// *reserved*: the source ring schedules no periodic releases, so the
    /// connection carries exactly the traffic injected into it.
    pub fn open_external_connection(
        &mut self,
        spec: FabricConnectionSpec,
    ) -> Result<FabricConnectionId, FabricAdmissionError> {
        self.open(std::slice::from_ref(&spec), ConnClass::External)
            .map(|fids| fids[0])
    }

    /// Batch form of [`Fabric::open_external_connection`] — all-or-nothing
    /// like [`Fabric::open_connections`], one calculus fixed point for the
    /// whole batch.
    pub fn open_external_connections(
        &mut self,
        specs: &[FabricConnectionSpec],
    ) -> Result<Vec<FabricConnectionId>, FabricAdmissionError> {
        self.open(specs, ConnClass::External)
    }

    /// Open a best-effort connection: the route is planned and every
    /// segment is *reserved* (registered with ring admission for
    /// integrity, but holding **no** utilisation and **no** calculus
    /// certificate). Traffic enters via [`Fabric::inject`] exactly like
    /// an external connection, but rides strictly leftover capacity: ring
    /// slots the EDF scheduler leaves idle. A bridge forwards every message
    /// in the slot it arrives, so best-effort load can never displace or
    /// delay a certified flow there either.
    pub fn open_best_effort(
        &mut self,
        spec: FabricConnectionSpec,
    ) -> Result<FabricConnectionId, FabricAdmissionError> {
        self.open(std::slice::from_ref(&spec), ConnClass::BestEffort)
            .map(|fids| fids[0])
    }

    /// Admit a batch of end-to-end connections atomically: every spec is
    /// planned, then the whole batch is certified by **one** warm-started
    /// calculus pass and admitted segment by segment — either all of them
    /// open (ids returned in spec order) or the fabric is exactly as
    /// before the call. Batching amortises the certification fixed point,
    /// which is what makes bulk admission ~an order of magnitude cheaper
    /// than a loop of [`Fabric::open_connection`] calls at scale.
    pub fn open_connections(
        &mut self,
        specs: &[FabricConnectionSpec],
    ) -> Result<Vec<FabricConnectionId>, FabricAdmissionError> {
        self.open(specs, ConnClass::Periodic)
    }

    /// Re-admit connection `fid` on an already-planned route (reconcile
    /// and reclaim). `true` when the route was admitted.
    fn readmit(&mut self, fid: FabricConnectionId, plan: ConnectionPlan, class: ConnClass) -> bool {
        self.admit_plans(&[fid], vec![plan], class).is_ok()
    }

    /// Admit a batch of planned connections under `fids` (one per plan),
    /// all-or-nothing. External batches reserve every segment (no periodic
    /// releases anywhere); periodic ones open segment 0 for periodic
    /// generation. Best-effort batches bypass the guaranteed machinery
    /// entirely: no calculus certification — segments are registered with
    /// the rings only so routing stays consistent.
    fn admit_plans(
        &mut self,
        fids: &[FabricConnectionId],
        plans: Vec<ConnectionPlan>,
        class: ConnClass,
    ) -> Result<(), FabricAdmissionError> {
        // End-to-end certification (always on for cyclic fabrics): one
        // warm-started fixed-point pass certifies the whole batch against
        // the resident set, refusing it unless every flow — resident and
        // candidate — keeps a certified bound within its deadline. The
        // solver undoes a refusal itself, so no ring was touched yet and
        // there is nothing to undo. The certification stays revocable
        // until the rings accept.
        let mut certified = None;
        if class != ConnClass::BestEffort {
            if let Some(calc) = self.calculus.as_mut() {
                let batch: Vec<(FabricConnectionId, &ConnectionPlan)> =
                    fids.iter().copied().zip(plans.iter()).collect();
                let cert = calc
                    .certify(&batch)
                    .map_err(FabricAdmissionError::Calculus)?;
                let report = cert.report();
                if report.full {
                    self.metrics.calc_admit_full.incr();
                } else {
                    self.metrics.calc_admit_incremental.incr();
                }
                count_calc_pass(&mut self.metrics, report);
                certified = Some(cert);
            }
        }
        // Per-ring admission with whole-batch rollback (certification
        // included: dropping a certified batch the rings refuse undoes it
        // exactly). `opened` holds the batch's ring connections in
        // admission order, plan by plan.
        let mut opened: Vec<(usize, ConnectionId)> =
            Vec::with_capacity(plans.iter().map(|p| p.segments.len()).sum());
        for plan in &plans {
            let first = opened.len();
            for (i, seg) in plan.segments.iter().enumerate() {
                let r = seg.segment.ring.0 as usize;
                let ring = &mut self.rings[r];
                let res = if class == ConnClass::BestEffort {
                    ring.reserve_best_effort(seg.spec.clone())
                } else if i == 0 && class == ConnClass::Periodic {
                    ring.open_connection(seg.spec.clone())
                } else {
                    ring.reserve_connection(seg.spec.clone())
                };
                match res {
                    Ok(id) => opened.push((r, id)),
                    Err(error) => {
                        // Unwind this plan, then the earlier ones: ring
                        // utilisation is an f64 running sum.
                        for &(r, id) in opened[first..].iter().chain(&opened[..first]) {
                            self.rings[r].close_connection(id);
                        }
                        drop(certified);
                        return Err(FabricAdmissionError::SegmentRejected { segment: i, error });
                    }
                }
            }
        }
        if let Some(cert) = certified {
            cert.commit();
        }
        // Bookkeeping — the batch is in.
        let mut opened = opened.into_iter().map(|(_, id)| id);
        for (&fid, plan) in fids.iter().zip(plans) {
            let ring_conns: Vec<ConnectionId> = opened.by_ref().take(plan.segments.len()).collect();
            let entry = match self.conns.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            for (i, (&rc, seg)) in ring_conns.iter().zip(plan.segments.iter()).enumerate() {
                let table = &mut self.by_ring_conn[seg.segment.ring.0 as usize];
                set_entry(table, rc.0 as usize, (entry, i));
            }
            set_entry(&mut self.by_fid, fid.0 as usize, entry);
            let inflight = plan.segments.iter().map(|_| VecDeque::new()).collect();
            self.conns[entry] = Some(ActiveConnection {
                fid,
                plan,
                ring_conns,
                class,
                delivered: 0,
                inflight,
                observed_max: None,
            });
        }
        Ok(())
    }

    /// Tear down an end-to-end connection, releasing every ring's capacity
    /// and its certificate. A revoked connection only leaves the reclaim
    /// queue. Returns `false` for unknown ids.
    ///
    /// On fault-tracking fabrics, freed capacity is immediately offered to
    /// connections a fault left revoked or detoured: the same two-pass
    /// deterministic reclaim that runs after a bridge repair runs here,
    /// whenever there is anything to reclaim.
    pub fn close_connection(&mut self, fid: FabricConnectionId) -> bool {
        if self.close_connection_impl(fid) {
            if self.track_faults && (!self.revoked_specs.is_empty() || self.detour_pending) {
                self.reclaim_connections();
            }
            return true;
        }
        let revoked = self.revoked_specs.iter().position(|&(_, _, r)| r == fid);
        revoked.map(|i| self.revoked_specs.remove(i)).is_some()
    }

    /// The teardown itself, with no reclaim trigger — what internal
    /// callers (reclaim, reconcile) use to avoid re-entering reclaim.
    fn close_connection_impl(&mut self, fid: FabricConnectionId) -> bool {
        let Some(entry) = self.by_fid.get_mut(fid.0 as usize).and_then(Option::take) else {
            return false;
        };
        let active = self.conns[entry].take().expect("by_fid names live entries");
        for (&rc, seg) in active.ring_conns.iter().zip(active.plan.segments.iter()) {
            let ring = seg.segment.ring.0 as usize;
            self.rings[ring].close_connection(rc);
            self.by_ring_conn[ring][rc.0 as usize] = None;
        }
        if active.class != ConnClass::BestEffort {
            if let Some(calc) = self.calculus.as_mut() {
                count_calc_pass(&mut self.metrics, calc.remove(fid));
            }
        }
        true
    }

    /// The certified end-to-end delay bound of connection `fid`, when the
    /// network-calculus certifier is active (cyclic topologies built with
    /// [`CycleBound::Calculus`], or [`FabricConfig::calculus`] opt-in).
    /// Refreshed on every admission — it always reflects the current set.
    pub fn e2e_bound(&self, fid: FabricConnectionId) -> Option<TimeDelta> {
        self.calculus.as_ref().and_then(|c| c.bound(fid))
    }

    /// Largest end-to-end latency observed so far for connection `fid`
    /// (final deliveries only). `None` before its first delivery.
    pub fn observed_e2e_max(&self, fid: FabricConnectionId) -> Option<TimeDelta> {
        self.conn(fid).and_then(|a| a.observed_max)
    }

    /// Inject one externally produced message (e.g. a gateway datagram)
    /// into connection `fid`, released at the source ring's next slot
    /// boundary. The connection must have been opened with
    /// [`Fabric::open_external_connections`]; the message inherits the
    /// connection's size and decomposed per-segment deadlines, so it rides
    /// the same EDF machinery (and the same calculus certificate) as
    /// periodic traffic. Returns the release timestamp on the source
    /// ring's clock.
    ///
    /// The caller is responsible for pacing: injecting faster than the
    /// admitted period consumes more than the certified arrival curve and
    /// voids the bound (the gateway's token buckets enforce this).
    pub fn inject(&mut self, fid: FabricConnectionId) -> Result<SimTime, InjectError> {
        let Some(entry) = self.entry_of(fid) else {
            return Err(InjectError::UnknownConnection);
        };
        let active = self.conns[entry]
            .as_ref()
            .expect("by_fid names live entries");
        if !active.class.is_injected() {
            return Err(InjectError::NotExternal);
        }
        if !self.node_alive(active.plan.spec.src) {
            return Err(InjectError::SourceDown);
        }
        let ring = &mut self.rings[active.plan.segments[0].segment.ring.0 as usize];
        let now = ring.now();
        ring.submit_message(now, active.message(0, now));
        if active.class == ConnClass::BestEffort {
            self.metrics.be_injected.incr();
        } else {
            self.metrics.external_injected.incr();
        }
        Ok(now)
    }

    /// Drain final deliveries of externally injected connections
    /// accumulated since the last call, appending them to `out` in
    /// deterministic order (completion slot, then ring index, then
    /// delivery order). Within one fabric slot, sorting the drained batch
    /// by ascending [`EgressDelivery::slack`] yields EDF egress order.
    pub fn drain_egress(&mut self, out: &mut Vec<EgressDelivery>) {
        out.append(&mut self.egress_buf);
    }

    /// Are connection lifecycle events pending? Inlined so a per-slot
    /// caller pays one load on the (overwhelmingly common) idle path.
    #[inline]
    pub fn has_connection_events(&self) -> bool {
        !self.conn_events.is_empty()
    }

    /// Drain connection lifecycle events (reroutes, revocations,
    /// reclaims) accumulated by the fault/repair passes since the last
    /// call, appending them to `out` in emission order. Each names the id
    /// the connection was opened with, which reroutes and reclaims keep.
    /// An edge layer follows it to learn that messages in flight were
    /// lost, or that a revoked id refuses [`Fabric::inject`] until a
    /// reclaim names it again.
    pub fn drain_connection_events(&mut self, out: &mut Vec<ConnectionEvent>) {
        out.append(&mut self.conn_events);
    }

    /// Is the network-calculus certifier active on this fabric?
    pub fn calculus_enabled(&self) -> bool {
        self.calculus.is_some()
    }

    // --- fault injection & self-healing --------------------------------

    /// Is bridge `b` still forwarding?
    #[cfg(test)]
    pub fn bridge_alive(&self, b: usize) -> bool {
        b < self.dead_bridges.len() && !self.dead_bridges[b]
    }

    /// Is the node at `g` still alive on its ring?
    pub fn node_alive(&self, g: GlobalNodeId) -> bool {
        self.ring_alive
            .get(g.ring.0 as usize)
            .and_then(|r| r.get(g.node.0 as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Kill a bridge station mid-run: its port nodes are failed on their
    /// rings, and every end-to-end connection routed across it is
    /// re-admitted over an alternate bridge path when one exists — revoked
    /// otherwise. Returns `false` for an unknown or already-dead bridge.
    pub fn kill_bridge(&mut self, bridge: usize) -> bool {
        self.track_faults = true;
        let killed = self.kill_bridge_impl(bridge);
        if killed {
            self.reconcile_connections();
        }
        killed
    }

    /// Fail one fabric node: it is optically bypassed on its ring, any
    /// bridge it serves as a port for dies with it, and the affected
    /// end-to-end connections are rerouted or revoked. Returns `false` for
    /// unknown or already-dead nodes.
    pub fn fail_node(&mut self, g: GlobalNodeId) -> bool {
        if !self.node_alive(g) {
            return false;
        }
        self.track_faults = true;
        self.node_down(g);
        self.reconcile_connections();
        true
    }

    fn kill_bridge_impl(&mut self, bridge: usize) -> bool {
        if bridge >= self.dead_bridges.len() || self.dead_bridges[bridge] {
            return false;
        }
        self.dead_bridges[bridge] = true;
        self.metrics.bridges_killed.incr();
        // The bridge is one physical station with a port on each ring:
        // both ports die with it (which may cascade into further bridges
        // sharing those nodes).
        let br = self.topo.bridges()[bridge];
        self.node_down(br.a);
        self.node_down(br.b);
        true
    }

    /// Mark `g` dead fabric-side, bypass it on its ring, and cascade into
    /// any bridge it was a port of. Idempotent.
    // ccr-verify: event_path -- runs once per node death, not per slot
    fn node_down(&mut self, g: GlobalNodeId) {
        let (r, n) = (g.ring.0 as usize, g.node.0 as usize);
        if !self.ring_alive[r][n] {
            return;
        }
        self.ring_alive[r][n] = false;
        self.rings[r].fail_node(g.node);
        let cascade: Vec<usize> = self
            .topo
            .bridges()
            .iter()
            .enumerate()
            .filter(|&(bi, br)| !self.dead_bridges[bi] && (br.a == g || br.b == g))
            .map(|(bi, _)| bi)
            .collect();
        for bi in cascade {
            self.kill_bridge_impl(bi);
        }
    }

    /// Degraded-mode re-validation of the admitted end-to-end set: any
    /// connection that crosses a dead bridge, or whose ring sub-connection
    /// was shed by a ring's own degraded-mode admission, is torn down and
    /// re-admitted over an alternate route when its endpoints are alive
    /// and a route exists — revoked otherwise. Deterministic: broken
    /// connections are processed in id order.
    // ccr-verify: event_path -- re-admission runs once per bridge/node fault, not per slot
    fn reconcile_connections(&mut self) {
        let mut broken: Vec<FabricConnectionId> = self
            .conns
            .iter()
            .flatten()
            .filter(|a| {
                a.plan.bridges().any(|b| self.dead_bridges[b])
                    || a.ring_conns
                        .iter()
                        .zip(a.plan.segments.iter())
                        .any(|(&rc, seg)| {
                            !self.rings[seg.segment.ring.0 as usize]
                                .admission()
                                .is_admitted(rc)
                        })
            })
            .map(|a| a.fid)
            .collect();
        broken.sort_unstable();
        for fid in broken {
            let (spec, class) = {
                let active = self.conn(fid).expect("broken connections are open");
                (active.plan.spec.clone(), active.class)
            };
            self.close_connection_impl(fid);
            let endpoints_alive = self.node_alive(spec.src) && self.node_alive(spec.dst);
            let rerouted = if endpoints_alive {
                self.plan(&spec)
                    .map_err(|_| RevokeReason::NoRoute)
                    .and_then(|plan| {
                        self.readmit(fid, plan, class)
                            .then_some(())
                            .ok_or(RevokeReason::AdmissionRefused)
                    })
            } else {
                Err(RevokeReason::EndpointDead)
            };
            match rerouted {
                Ok(()) => {
                    self.metrics.e2e_rerouted.incr();
                    self.conn_events.push(ConnectionEvent::Rerouted { fid });
                }
                Err(reason) => {
                    self.metrics.e2e_revoked.incr();
                    self.conn_events
                        .push(ConnectionEvent::Revoked { fid, reason });
                    self.revoked_specs.push((spec, class, fid));
                }
            }
        }
    }

    /// Repair a previously killed bridge: its dead flag clears, its port
    /// nodes come back on their rings (unless another dead bridge still
    /// holds a port down), the health scan sees the rings whole again, and
    /// the fabric deterministically reclaims connections lost or detoured
    /// while it was down. Returns `false` for unknown or live bridges.
    pub fn repair_bridge(&mut self, bridge: usize) -> bool {
        self.track_faults = true;
        let repaired = self.repair_bridge_impl(bridge);
        if repaired {
            self.reclaim_connections();
        }
        repaired
    }

    fn repair_bridge_impl(&mut self, bridge: usize) -> bool {
        if bridge >= self.dead_bridges.len() || !self.dead_bridges[bridge] {
            return false;
        }
        self.dead_bridges[bridge] = false;
        self.metrics.bridges_repaired.incr();
        let br = self.topo.bridges()[bridge];
        self.node_up(br.a);
        self.node_up(br.b);
        true
    }

    /// Bring `g` back fabric-side and on its ring — unless another dead
    /// bridge still claims it as a port. Idempotent.
    fn node_up(&mut self, g: GlobalNodeId) {
        let (r, n) = (g.ring.0 as usize, g.node.0 as usize);
        if self.ring_alive[r][n] {
            return;
        }
        let held_down = self
            .topo
            .bridges()
            .iter()
            .enumerate()
            .any(|(bi, br)| self.dead_bridges[bi] && (br.a == g || br.b == g));
        if held_down {
            return;
        }
        if self.rings[r].repair_node(g.node) {
            self.ring_alive[r][n] = true;
        }
    }

    /// Post-repair reclamation, deterministic in two passes:
    ///
    /// 1. Specs revoked by earlier faults are retried in revocation order
    ///    (endpoints must be back; admission runs the full gate, calculus
    ///    included). Failures stay queued for the next repair.
    /// 2. Surviving connections whose current route differs from the
    ///    planner's preference (they were detoured around the dead bridge,
    ///    or re-planning now finds a shorter path) are moved back, in
    ///    connection-id order, falling back to their detour when the
    ///    preferred route is refused — and revoked only if even the detour
    ///    can no longer be re-admitted.
    // ccr-verify: event_path -- reclamation runs once per bridge repair, not per slot
    fn reclaim_connections(&mut self) {
        self.detour_pending = false;
        let stash = std::mem::take(&mut self.revoked_specs);
        for (spec, class, fid) in stash {
            let reclaimed = self.node_alive(spec.src)
                && self.node_alive(spec.dst)
                && self
                    .plan(&spec)
                    .ok()
                    .is_some_and(|plan| self.readmit(fid, plan, class));
            if reclaimed {
                self.metrics.e2e_reclaimed.incr();
                self.conn_events.push(ConnectionEvent::Reclaimed { fid });
            } else {
                self.revoked_specs.push((spec, class, fid));
            }
        }
        let mut fids: Vec<FabricConnectionId> =
            self.conns.iter().flatten().map(|a| a.fid).collect();
        fids.sort_unstable();
        for fid in fids {
            let active = self
                .conn(fid)
                .expect("listed connections stay open until their turn");
            let Ok(preferred) = self.plan(&active.plan.spec) else {
                continue;
            };
            if preferred.bridges().eq(active.plan.bridges()) {
                continue;
            }
            let (old_plan, class) = (active.plan.clone(), active.class);
            let spec = old_plan.spec.clone();
            self.close_connection_impl(fid);
            if self.readmit(fid, preferred, class) {
                self.metrics.e2e_reclaimed.incr();
                self.conn_events.push(ConnectionEvent::Reclaimed { fid });
            } else if self.readmit(fid, old_plan, class) {
                // Still detoured: remember so the next freed capacity
                // (any `close_connection`) re-runs this pass.
                self.detour_pending = true;
                self.conn_events.push(ConnectionEvent::Rerouted { fid });
            } else {
                self.metrics.e2e_revoked.incr();
                self.conn_events.push(ConnectionEvent::Revoked {
                    fid,
                    reason: RevokeReason::AdmissionRefused,
                });
                self.revoked_specs.push((spec, class, fid));
            }
        }
    }

    /// Post-ring-phase health scan (fault runs only): count degraded
    /// slots and pick up node deaths that happened *inside* a ring this
    /// slot (scripted `FailNode` events), cascading them into bridge
    /// deaths and e2e re-admission.
    fn scan_ring_health(&mut self) {
        let mut degraded = false;
        // Empty Vec: only pushes (and so only allocates) on rare death
        // events; the every-slot bookkeeping reuses health_scratch.
        // ccr-verify: allow(alloc-in-hot-path) -- empty Vec, allocates only on a death event
        let mut deaths: Vec<GlobalNodeId> = Vec::new();
        self.health_scratch.clear();
        for (r, ring) in self.rings.iter().enumerate() {
            let recovering = ring.last_outcome().recovering;
            self.health_scratch.push(recovering);
            if recovering {
                degraded = true;
            }
            let alive = &self.ring_alive[r];
            if (ring.live_nodes() as usize) < alive.iter().filter(|&&a| a).count() {
                for (n, &was_alive) in alive.iter().enumerate() {
                    if was_alive && !ring.node_alive(NodeId(n as u16)) {
                        deaths.push(GlobalNodeId::new(r as u16, n as u16));
                    }
                }
            }
        }
        if degraded {
            self.metrics.degraded_slots.incr();
        }
        self.metrics
            .record_ring_health(self.metrics.slots.get(), &self.health_scratch);
        if !deaths.is_empty() {
            for g in deaths {
                self.node_down(g);
            }
            self.reconcile_connections();
        }
    }

    /// Execute one fabric slot (every ring advances one MAC slot).
    pub fn step_slot(&mut self) {
        // Phase 0 — scripted bridge kills and repairs land at the slot
        // boundary, before any ring steps.
        let slot = self.metrics.slots.get();
        while self.event_cursor < self.bridge_events.len()
            && self.bridge_events[self.event_cursor].0 <= slot
        {
            let (_, b, kind) = self.bridge_events[self.event_cursor];
            self.event_cursor += 1;
            match kind {
                BridgeEventKind::Kill => self.kill_bridge(b),
                BridgeEventKind::Repair => self.repair_bridge(b),
            };
        }
        // Phase 1 — every ring advances one slot, in index order, before
        // any delivery is handled: a bridge hand-off is stamped with its
        // egress ring's post-step clock.
        for ring in &mut self.rings {
            ring.run_slots(1);
        }

        // Phase 1.5 — health scan, fault runs only.
        if self.track_faults {
            self.scan_ring_health();
        }

        // Phase 2 — exchange: ring-index order, then delivery order. The
        // rings are set aside for the scan so each one's delivery list is
        // read in place while the fabric's bookkeeping changes.
        let rings = std::mem::take(&mut self.rings);
        for (r, ring) in rings.iter().enumerate() {
            for d in &ring.last_outcome().deliveries {
                self.handle_delivery(r, d);
            }
        }
        self.rings = rings;

        // Phase 3 — injection, bridge-direction order: every hand-off of
        // this slot enters its egress ring, so no bridge holds a message
        // past its slot.
        for qi in 0..self.handoff.len() {
            if let Some(pf) = self.handoff[qi].take() {
                self.submit_forward(pf);
            }
        }
        self.metrics.slots.incr();
    }

    /// Run `k` fabric slots.
    pub fn run_slots(&mut self, k: u64) {
        for _ in 0..k {
            self.step_slot();
        }
    }

    /// Submit one hand-off into its egress ring, entering it at that
    /// ring's post-step clock — the instant the exchange phase handed it
    /// off, so a forward never waits at the bridge.
    fn submit_forward(&mut self, pf: PendingForward) {
        let active = self.conns[pf.entry]
            .as_mut()
            .expect("a forward's owner stays open through its slot");
        let ring = &mut self.rings[active.plan.segments[pf.seg_idx].segment.ring.0 as usize];
        let now = ring.now();
        ring.submit_message(now, active.message(pf.seg_idx, now));
        active.inflight[pf.seg_idx].push_back(Inflight {
            entered: now,
            accumulated: pf.accumulated,
        });
        self.metrics.record_forward();
    }

    /// The slab entry and segment index owning ring connection `conn` on
    /// ring `ring`. Ring ids are never reused: a retired one names nothing.
    fn ring_conn_owner(&self, ring: usize, conn: Option<ConnectionId>) -> Option<(usize, usize)> {
        *self.by_ring_conn[ring].get(conn?.0 as usize)?
    }

    /// Route one delivery of ring `ring`: close its end-to-end record or
    /// hand it off to the next bridge.
    fn handle_delivery(&mut self, ring: usize, d: &Delivery) {
        let Some((entry, seg_idx)) = self.ring_conn_owner(ring, d.msg.connection) else {
            return;
        };
        let active = self.conns[entry]
            .as_mut()
            .expect("by_ring_conn names live entries");
        let fid = active.fid;
        let (entered, accumulated) = if seg_idx == 0 {
            (d.msg.released, TimeDelta::ZERO)
        } else {
            // FIFO matching — see `Inflight`.
            let Some(rec) = active.inflight[seg_idx].pop_front() else {
                return; // no record awaits it: a stray delivery
            };
            (rec.entered, rec.accumulated)
        };
        let seg_latency = d.completed.saturating_since(entered);
        let total = accumulated + seg_latency;
        self.metrics.record_segment(seg_idx, seg_latency);
        let class = active.class;
        let Some(qi) = active.plan.segments[seg_idx].segment.queue else {
            // Final segment: close the end-to-end record.
            let e2e_deadline = active.plan.spec.e2e_deadline;
            let met = total <= e2e_deadline;
            if class == ConnClass::BestEffort {
                // Best-effort stays out of e2e_* so guaranteed hit/miss
                // ratios and observed-vs-bound checks are never diluted by
                // uncertified traffic.
                self.metrics.record_be(total, met);
            } else {
                self.metrics.record_e2e(total, met);
                active.observed_max = active.observed_max.max(Some(total));
            }
            if class.is_injected() {
                let seq = active.delivered;
                active.delivered += 1;
                if class == ConnClass::External {
                    self.metrics.external_delivered.incr();
                }
                self.egress_buf.push(EgressDelivery {
                    fid,
                    seq,
                    latency: total,
                    met_deadline: met,
                    slack: e2e_deadline.saturating_sub(total),
                });
            }
            return;
        };
        // Hand off to the bridge; the injection phase of this slot
        // forwards it.
        if class != ConnClass::BestEffort {
            self.metrics.peak_bridge_occupancy = 1;
        }
        let displaced = self.handoff[qi].replace(PendingForward {
            entry,
            seg_idx: seg_idx + 1,
            accumulated: total,
        });
        debug_assert!(
            displaced.is_none(),
            "bridge direction {qi} received two messages in one slot"
        );
        if let Some(lost) = displaced {
            let lost_class = self.conns[lost.entry].as_ref().map(|a| a.class);
            if lost_class == Some(ConnClass::BestEffort) {
                self.metrics.be_bridge_drops.incr();
            } else {
                self.metrics.bridge_drops.incr();
            }
        }
    }
}

/// Fill index `at` of a dense id-indexed table, growing it with `None`s
/// as far as needed.
fn set_entry<T: Copy>(table: &mut Vec<Option<T>>, at: usize, value: T) {
    if table.len() <= at {
        table.resize(at + 1, None);
    }
    table[at] = Some(value);
}

/// Add one certifier pass to the work-saved running sums.
fn count_calc_pass(metrics: &mut FabricMetrics, report: CalculusReport) {
    metrics.calc_dirty_flows.add(report.dirty_flows as u64);
    metrics
        .calc_iterated_flows
        .add(report.iterated_flows as u64);
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("rings", &self.rings.len())
            .field("bridges", &self.topo.bridges().len())
            .field("connections", &self.active_connections())
            .field("slots", &self.metrics.slots.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GlobalNodeId;

    #[test]
    fn uniform_config_builds() {
        let topo = FabricTopology::chain(3, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        assert_eq!(cfg.ring_configs.len(), 3);
        let fabric = Fabric::new(cfg).unwrap();
        assert_eq!(fabric.topology().n_rings(), 3);
        assert_eq!(fabric.handoff.len(), 4); // 2 bridges × 2 directions
    }

    #[test]
    fn mismatched_ring_configs_rejected() {
        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        cfg.ring_configs.pop();
        assert!(matches!(
            Fabric::new(cfg),
            Err(FabricBuildError::RingCountMismatch {
                expected: 2,
                got: 1
            })
        ));

        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        cfg.ring_configs[1] = NetworkConfig::builder(9)
            .slot_bytes(2048)
            .build_auto_slot()
            .unwrap();
        assert!(matches!(
            Fabric::new(cfg),
            Err(FabricBuildError::RingSizeMismatch { .. })
        ));
    }

    #[test]
    fn killing_a_chain_bridge_revokes_crossing_connections() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let crossing = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        let local = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(0, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        fabric.run_slots(50);
        assert!(fabric.kill_bridge(0));
        assert!(!fabric.bridge_alive(0));
        assert!(!fabric.kill_bridge(0), "second kill is a no-op");
        // A chain has no alternate path: the crossing connection is
        // revoked, the same-ring one rides out the fault.
        assert_eq!(fabric.metrics().bridges_killed.get(), 1);
        assert_eq!(fabric.metrics().e2e_revoked.get(), 1);
        assert_eq!(fabric.metrics().e2e_rerouted.get(), 0);
        assert!(fabric.conn(crossing).is_none());
        assert!(fabric.conn(local).is_some());
        // The bridge station's port nodes died with it.
        assert!(!fabric.node_alive(GlobalNodeId::new(0, 5)));
        assert!(!fabric.node_alive(GlobalNodeId::new(1, 0)));
        // New admissions across the cut are refused as unroutable.
        let err = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 2))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            FabricAdmissionError::Topology(crate::topology::TopologyError::NoRoute(..))
        ));
        // The degraded fabric keeps running.
        let before = fabric.metrics().e2e_delivered.get();
        fabric.run_slots(4_000);
        assert!(fabric.metrics().e2e_delivered.get() > before);
    }

    #[test]
    fn cyclic_fabric_reroutes_around_a_dead_bridge() {
        // Triangle: 0—1 (bridge 0), 1—2 (bridge 1), 2—0 (bridge 2).
        let mut b = FabricTopology::builder();
        for _ in 0..3 {
            b.ring(6);
        }
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
        b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
        b.allow_cycles_with(CycleBound::Unbounded);
        let topo = b.build().unwrap();
        let cfg = FabricConfig::uniform(topo, 2048, 11)
            .unwrap()
            .calculus(true);
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        fabric.run_slots(100);
        let delivered_before = fabric.metrics().e2e_delivered.get();
        assert!(delivered_before > 0, "traffic flows before the fault");
        assert!(fabric.observed_e2e_max(fid).is_some());
        assert!(fabric.kill_bridge(0));
        // The connection came back over the detour through ring 2, under
        // the id it was opened with.
        assert_eq!(fabric.metrics().e2e_rerouted.get(), 1);
        assert_eq!(fabric.metrics().e2e_revoked.get(), 0);
        assert_eq!(fabric.active_connections(), 1);
        let mut events = Vec::new();
        fabric.drain_connection_events(&mut events);
        assert_eq!(events, [ConnectionEvent::Rerouted { fid }]);
        let active = fabric.conn(fid).expect("the id survives the reroute");
        assert_eq!(active.plan.segments.len(), 3, "detour crosses two bridges");
        assert_eq!(
            active.plan.bridges().collect::<Vec<_>>(),
            vec![2, 1],
            "detour avoids the dead bridge"
        );
        assert_resolves(&mut fabric, fid);
        assert_eq!(
            fabric.observed_e2e_max(fid),
            None,
            "the detour has delivered nothing yet"
        );
        // End-to-end traffic resumes on the alternate route.
        fabric.run_slots(600);
        assert!(fabric.metrics().e2e_delivered.get() > delivered_before);
        assert!(fabric.observed_e2e_max(fid).is_some());
    }

    /// `fid` names an open connection: the certifier bounds it, and
    /// `inject` knows it (a periodic connection refuses injection as
    /// `NotExternal`, a closed or revoked one as `UnknownConnection`).
    fn assert_resolves(fabric: &mut Fabric, fid: FabricConnectionId) {
        assert!(fabric.e2e_bound(fid).is_some(), "{fid:?} has no bound");
        assert_eq!(fabric.inject(fid), Err(InjectError::NotExternal));
    }

    /// Triangle of three rings: 0—1 (bridge 0), 1—2 (bridge 1), 2—0
    /// (bridge 2) — genuinely cyclic.
    fn triangle(ring_size: u16, bound: CycleBound) -> FabricTopology {
        let mut b = FabricTopology::builder();
        for _ in 0..3 {
            b.ring(ring_size);
        }
        b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
        b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
        b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
        b.allow_cycles_with(bound);
        b.build().unwrap()
    }

    #[test]
    fn cyclic_triangle_admits_with_certified_finite_bound() {
        // The seed behaviour: a cyclic triangle is rejected outright at
        // topology build unless the builder opts in. With the Calculus
        // bound the fabric now admits connections *with a certificate*.
        {
            let mut b = FabricTopology::builder();
            for _ in 0..3 {
                b.ring(8);
            }
            b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
            b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
            b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
            assert!(b.build().is_err(), "seed rejects the cyclic triangle");
        }
        let topo = triangle(8, CycleBound::Calculus);
        let cfg = FabricConfig::uniform(topo, 2048, 3).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        assert!(fabric.calculus_enabled());
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        let bound = fabric.e2e_bound(fid).expect("admission certified a bound");
        assert!(bound > TimeDelta::ZERO && bound <= TimeDelta::from_ms(5));
        // The certificate is honoured by the simulated fabric.
        fabric.run_slots(3_000);
        let observed = fabric.observed_e2e_max(fid).expect("traffic flowed");
        assert!(
            observed <= bound,
            "observed {observed} exceeds certified bound {bound}"
        );
    }

    #[test]
    fn calculus_verdicts_replay_pinned_bounds() {
        let run = || {
            let topo = triangle(8, CycleBound::Calculus);
            let cfg = FabricConfig::uniform(topo, 2048, 3).unwrap();
            let mut fabric = Fabric::new(cfg).unwrap();
            let mut bounds = Vec::new();
            for (src, dst) in [
                (GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3)),
                (GlobalNodeId::new(1, 4), GlobalNodeId::new(2, 3)),
                (GlobalNodeId::new(2, 4), GlobalNodeId::new(0, 3)),
            ] {
                let fid = fabric
                    .open_connection(
                        FabricConnectionSpec::unicast(src, dst).period(TimeDelta::from_ms(5)),
                    )
                    .unwrap();
                fabric.run_slots(50);
                bounds.push(fabric.e2e_bound(fid).unwrap().as_ps());
            }
            bounds
        };
        let bounds = run();
        assert_eq!(bounds, run(), "certified bounds replay bit for bit");
        assert_eq!(
            bounds,
            [43_089_156, 48_612_369, 54_112_024],
            "certified bounds moved"
        );
    }

    #[test]
    fn repaired_bridge_reclaims_revoked_connections() {
        // Chain: killing the only bridge revokes the crossing connection;
        // repairing it brings the connection back deterministically.
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap().calculus(true);
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        fabric.run_slots(50);
        assert!(fabric.kill_bridge(0));
        assert_eq!(fabric.metrics().e2e_revoked.get(), 1);
        assert_eq!(fabric.active_connections(), 0);
        // Revoked: the id carries nothing and holds no certificate.
        assert_eq!(fabric.e2e_bound(fid), None);
        assert_eq!(fabric.inject(fid), Err(InjectError::UnknownConnection));
        assert!(!fabric.repair_bridge(3), "unknown bridge");
        assert!(fabric.repair_bridge(0));
        assert!(!fabric.repair_bridge(0), "second repair is a no-op");
        assert!(fabric.bridge_alive(0));
        // Port nodes are back on their rings.
        assert!(fabric.node_alive(GlobalNodeId::new(0, 5)));
        assert!(fabric.node_alive(GlobalNodeId::new(1, 0)));
        assert_eq!(fabric.metrics().bridges_repaired.get(), 1);
        assert_eq!(fabric.metrics().e2e_reclaimed.get(), 1);
        assert_eq!(fabric.active_connections(), 1);
        let mut events = Vec::new();
        fabric.drain_connection_events(&mut events);
        assert_eq!(
            events,
            [
                ConnectionEvent::Revoked {
                    fid,
                    reason: RevokeReason::NoRoute
                },
                ConnectionEvent::Reclaimed { fid }
            ]
        );
        assert!(fabric.conn(fid).is_some(), "the id survives the reclaim");
        assert_resolves(&mut fabric, fid);
        // Traffic flows end-to-end again, under the same id.
        let before = fabric.metrics().e2e_delivered.get();
        fabric.run_slots(2_000);
        assert!(fabric.metrics().e2e_delivered.get() > before);
        assert!(fabric.observed_e2e_max(fid).is_some());
    }

    #[test]
    fn closing_a_revoked_connection_keeps_the_repair_from_reclaiming_it() {
        let topo = FabricTopology::chain(2, 8);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        assert!(fabric.kill_bridge(0));
        assert_eq!(fabric.active_connections(), 0);
        assert!(fabric.close_connection(fid), "a revoked id can be closed");
        assert!(!fabric.close_connection(fid), "but only once");
        assert!(fabric.repair_bridge(0));
        // The owner gave the connection up: the repair brings nothing back.
        assert_eq!(fabric.active_connections(), 0);
        assert_eq!(fabric.metrics().e2e_reclaimed.get(), 0);
        let mut events = Vec::new();
        fabric.drain_connection_events(&mut events);
        assert_eq!(
            events,
            [ConnectionEvent::Revoked {
                fid,
                reason: RevokeReason::NoRoute
            }]
        );
        assert_eq!(fabric.inject(fid), Err(InjectError::UnknownConnection));
    }

    #[test]
    fn repaired_bridge_moves_detoured_connections_back() {
        // Cyclic triangle with the Unbounded escape hatch: kill bridge 0 so
        // the connection detours via ring 2, then repair it — the reclaim
        // pass moves the connection back onto its one-bridge route.
        let topo = triangle(6, CycleBound::Unbounded);
        let cfg = FabricConfig::uniform(topo, 2048, 11)
            .unwrap()
            .calculus(true);
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        fabric.run_slots(50);
        assert!(fabric.kill_bridge(0));
        assert_eq!(fabric.metrics().e2e_rerouted.get(), 1);
        let route = |f: &Fabric| f.conn(fid).unwrap().plan.bridges().collect::<Vec<_>>();
        assert_eq!(route(&fabric), vec![2, 1]);
        assert!(fabric.repair_bridge(0));
        assert_eq!(fabric.metrics().e2e_reclaimed.get(), 1);
        assert_eq!(route(&fabric), vec![0], "back on the direct route");
        let mut events = Vec::new();
        fabric.drain_connection_events(&mut events);
        assert_eq!(
            events,
            [
                ConnectionEvent::Rerouted { fid },
                ConnectionEvent::Reclaimed { fid }
            ]
        );
        assert_resolves(&mut fabric, fid);
        fabric.run_slots(600);
        assert!(fabric.observed_e2e_max(fid).is_some());
    }

    #[test]
    fn scripted_repair_fires_at_its_slot() {
        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        for rc in &mut cfg.ring_configs {
            rc.faults.recovery_timeout_slots = 4;
        }
        let cfg = cfg.fault_script(
            FabricFaultScript::new()
                .kill_bridge_at(20, 0)
                .repair_bridge_at(60, 0),
        );
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        fabric.run_slots(30);
        assert!(!fabric.bridge_alive(0));
        assert!(fabric.conn(fid).is_none());
        fabric.run_slots(40);
        assert!(fabric.bridge_alive(0), "repair landed");
        assert_eq!(fabric.metrics().bridges_repaired.get(), 1);
        assert_eq!(fabric.metrics().e2e_reclaimed.get(), 1);
        assert_eq!(fabric.active_connections(), 1);
        let before = fabric.metrics().e2e_delivered.get();
        fabric.run_slots(3_000);
        assert!(fabric.metrics().e2e_delivered.get() > before);
    }

    #[test]
    fn script_targeting_unknown_repair_bridge_rejected_at_build() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7)
            .unwrap()
            .fault_script(FabricFaultScript::new().repair_bridge_at(5, 9));
        assert!(matches!(
            Fabric::new(cfg),
            Err(FabricBuildError::UnknownBridge { bridge: 9 })
        ));
    }

    #[test]
    fn scripted_node_death_inside_a_ring_is_picked_up_by_the_fabric() {
        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        for rc in &mut cfg.ring_configs {
            rc.faults.recovery_timeout_slots = 4;
        }
        let cfg = cfg.fault_script(FabricFaultScript::new().ring_at(
            10,
            RingId(0),
            ccr_edf::fault::FaultKind::FailNode(ccr_phys::NodeId(1)),
        ));
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        fabric.run_slots(30);
        assert!(!fabric.node_alive(GlobalNodeId::new(0, 1)));
        assert!(fabric.conn(fid).is_none());
        // The source died, so there is nothing to reroute.
        assert_eq!(fabric.metrics().e2e_revoked.get(), 1);
        assert_eq!(fabric.metrics().e2e_rerouted.get(), 0);
        // A non-port node death leaves the bridge standing.
        assert!(fabric.bridge_alive(0));
    }

    #[test]
    fn scripted_bridge_kill_fires_at_its_slot() {
        let topo = FabricTopology::chain(2, 6);
        let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        for rc in &mut cfg.ring_configs {
            rc.faults.recovery_timeout_slots = 4;
        }
        let cfg = cfg.fault_script(FabricFaultScript::new().kill_bridge_at(20, 0));
        let mut fabric = Fabric::new(cfg).unwrap();
        fabric.run_slots(20);
        assert!(fabric.bridge_alive(0), "kill not due yet");
        fabric.step_slot();
        assert!(!fabric.bridge_alive(0), "kill landed at its slot");
        assert_eq!(fabric.metrics().bridges_killed.get(), 1);
    }

    #[test]
    fn script_targeting_unknown_bridge_rejected_at_build() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7)
            .unwrap()
            .fault_script(FabricFaultScript::new().kill_bridge_at(5, 9));
        assert!(matches!(
            Fabric::new(cfg),
            Err(FabricBuildError::UnknownBridge { bridge: 9 })
        ));
    }

    #[test]
    fn script_targeting_unknown_ring_or_node_rejected_at_build() {
        let build = |script: FabricFaultScript| {
            let topo = FabricTopology::chain(2, 6);
            let mut cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
            for rc in &mut cfg.ring_configs {
                rc.faults.recovery_timeout_slots = 4;
            }
            Fabric::new(cfg.fault_script(script))
        };
        let lose_token = ccr_edf::fault::FaultKind::LoseToken;
        assert!(matches!(
            build(FabricFaultScript::new().ring_at(5, RingId(2), lose_token)),
            Err(FabricBuildError::UnknownRing { ring: RingId(2) })
        ));
        // Node indices are checked on the merged per-ring scripts.
        let fail = ccr_edf::fault::FaultKind::FailNode(NodeId(6));
        assert!(matches!(
            build(FabricFaultScript::new().ring_at(5, RingId(1), fail)),
            Err(FabricBuildError::Config(ConfigError::FaultNodeOutOfRange {
                slot: 5,
                node: NodeId(6)
            }))
        ));
        assert!(build(FabricFaultScript::new().ring_at(5, RingId(1), lose_token)).is_ok());
    }

    /// Step until connection `fid`'s first message has crossed its route's
    /// first bridge and rides segment 1's ring.
    fn step_until_it_rides_segment_1(fabric: &mut Fabric, fid: FabricConnectionId) {
        let mut waited = 0;
        while fabric.conn(fid).unwrap().inflight[1].is_empty() {
            fabric.step_slot();
            waited += 1;
            assert!(waited < 200, "the message never crossed the bridge");
        }
    }

    /// A connection closed between slots while its message rides the
    /// egress ring: the message is still delivered there, but no record
    /// awaits it.
    #[test]
    fn closing_a_connection_while_its_forward_is_queued_leaves_no_record() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let period = fabric.segment_envs()[0].slot.times(400);
        let spec = |src: u16| {
            FabricConnectionSpec::unicast(GlobalNodeId::new(0, src), GlobalNodeId::new(1, src + 1))
                .period(period)
        };
        let specs: Vec<FabricConnectionSpec> = (1..4).map(spec).collect();
        let fids = fabric.open_connections(&specs).unwrap();
        let victim = fids[1];
        step_until_it_rides_segment_1(&mut fabric, victim);
        assert!(fabric.close_connection(victim));
        // One release per period each: every first message crosses and
        // lands before the second ones are released.
        fabric.run_slots(100);
        assert_eq!(fabric.metrics().forwarded.get(), 3);
        assert_eq!(
            fabric.ring_metrics(RingId(1)).delivered_rt.get(),
            3,
            "the closed connection's message still rode ring 1"
        );
        assert_eq!(fabric.metrics().e2e_delivered.get(), 2);
        assert_eq!(fabric.observed_e2e_max(victim), None);
        for fid in [fids[0], fids[2]] {
            assert!(fabric.observed_e2e_max(fid).is_some());
        }
        assert!(fabric
            .conns
            .iter()
            .flatten()
            .all(|a| a.inflight.iter().all(VecDeque::is_empty)));
        // A connection opened afterwards on the same route delivers.
        let fresh = fabric.open_connection(spec(2)).unwrap();
        fabric.run_slots(800);
        assert!(fabric.observed_e2e_max(fresh).is_some());
        assert_eq!(
            fabric.metrics().e2e_delivered.get(),
            fabric.metrics().e2e_met.get()
        );
    }

    /// A connection rerouted while its message rides the middle ring of
    /// its old route: the message leaves no record on the new route.
    #[test]
    fn rerouting_a_connection_while_its_forward_is_queued_attaches_nothing_to_the_new_route() {
        // Four rings in a cycle, bridge r joining node 5 of ring r to node
        // 0 of ring r + 1: ring 0 reaches ring 2 over two bridges either
        // way round.
        let mut b = FabricTopology::builder();
        for _ in 0..4 {
            b.ring(6);
        }
        for r in 0..4u16 {
            b.bridge(GlobalNodeId::new(r, 5), GlobalNodeId::new((r + 1) % 4, 0));
        }
        b.allow_cycles_with(CycleBound::Unbounded);
        let cfg = FabricConfig::uniform(b.build().unwrap(), 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        // One message per 400 slots: at most one is ever in flight.
        let period = fabric.segment_envs()[0].slot.times(400);
        let fid = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(2, 3))
                    .period(period),
            )
            .unwrap();
        let route: Vec<usize> = fabric.conn(fid).unwrap().plan.bridges().collect();
        assert_eq!(route.len(), 2);
        // Kill the route's second bridge while the first message rides
        // the middle ring: the connection is rerouted the other way round.
        step_until_it_rides_segment_1(&mut fabric, fid);
        assert!(fabric.kill_bridge(route[1]));
        let mut events = Vec::new();
        fabric.drain_connection_events(&mut events);
        assert_eq!(events, [ConnectionEvent::Rerouted { fid }]);
        let detour: Vec<usize> = fabric.conn(fid).unwrap().plan.bridges().collect();
        assert!(detour.iter().all(|b| !route.contains(b)), "{detour:?}");
        // When the rerouted connection's first message completes, nothing
        // may be left waiting on the new route.
        assert_eq!(fabric.metrics().e2e_delivered.get(), 0);
        let mut waited = 0;
        while fabric.metrics().e2e_delivered.get() == 0 {
            fabric.step_slot();
            waited += 1;
            assert!(waited < 800, "the rerouted connection never delivered");
        }
        assert_eq!(
            fabric.metrics().forwarded.get(),
            3,
            "one crossing on the old route, two on the new"
        );
        let active = fabric.conn(fid).unwrap();
        assert!(
            active.inflight.iter().all(VecDeque::is_empty),
            "the old route's message left a record on the new route"
        );
        assert_eq!(fabric.metrics().e2e_met.get(), 1);
        assert!(fabric.observed_e2e_max(fid).is_some());
    }

    #[test]
    fn rollback_on_segment_rejection() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        // Saturate ring 1 locally (utilisation-wise) so the second segment
        // of a cross-ring connection is refused: open 0.05-utilisation
        // connections until one bounces, leaving headroom < 0.05.
        let slot = fabric.segment_envs()[1].slot;
        let period = slot.times(20);
        while fabric.rings[1]
            .open_connection(
                ccr_edf::connection::ConnectionSpec::unicast(
                    ccr_phys::NodeId(2),
                    ccr_phys::NodeId(4),
                )
                .period(period)
                .size_slots(1),
            )
            .is_ok()
        {}
        let before = fabric.rings[0].admission().admitted_count();
        let err = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 2))
                    .period(period),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                FabricAdmissionError::SegmentRejected { segment: 1, .. }
            ),
            "unexpected: {err:?}"
        );
        let after = fabric.rings[0].admission().admitted_count();
        assert_eq!(before, after, "ring 0's admission rolled back");
        assert_eq!(fabric.active_connections(), 0);
    }

    #[test]
    fn ring_refusal_of_a_certified_batch_restores_every_certificate() {
        // The certifier accepts the candidate, then ring 1 — saturated
        // behind the certifier's back — refuses its second segment. The
        // pending certification is dropped, so every resident keeps its
        // bound bit for bit.
        let topo = triangle(8, CycleBound::Calculus);
        let cfg = FabricConfig::uniform(topo, 2048, 3).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let residents: Vec<FabricConnectionId> = [
            (GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3)),
            (GlobalNodeId::new(1, 4), GlobalNodeId::new(2, 3)),
            (GlobalNodeId::new(2, 4), GlobalNodeId::new(0, 3)),
        ]
        .into_iter()
        .map(|(src, dst)| {
            fabric
                .open_connection(
                    FabricConnectionSpec::unicast(src, dst).period(TimeDelta::from_ms(5)),
                )
                .unwrap()
        })
        .collect();
        let bounds = |f: &Fabric| {
            residents
                .iter()
                .map(|&r| f.e2e_bound(r))
                .collect::<Vec<_>>()
        };
        let certified = |f: &Fabric| f.calculus.as_ref().unwrap().certified_flows();
        let (before, certified_before) = (bounds(&fabric), certified(&fabric));
        let period = fabric.segment_envs()[1].slot.times(200);
        while fabric.rings[1]
            .open_connection(
                ccr_edf::connection::ConnectionSpec::unicast(
                    ccr_phys::NodeId(2),
                    ccr_phys::NodeId(5),
                )
                .period(period)
                .size_slots(1),
            )
            .is_ok()
        {}
        let err = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 3), GlobalNodeId::new(1, 2))
                    .period(period),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                FabricAdmissionError::SegmentRejected { segment: 1, .. }
            ),
            "unexpected: {err:?}"
        );
        assert_eq!(
            fabric.metrics().calc_admit_incremental.get(),
            4,
            "certified"
        );
        assert_eq!(bounds(&fabric), before, "resident certificates restored");
        assert_eq!(certified(&fabric), certified_before);
        assert_eq!(fabric.active_connections(), residents.len());
    }

    #[test]
    fn external_connection_carries_only_injected_traffic() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_external_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        // Reserved everywhere: slots pass, nothing is generated.
        fabric.run_slots(500);
        assert_eq!(fabric.metrics().e2e_delivered.get(), 0);
        // Injected messages ride the reserved connection end to end, FIFO.
        for _ in 0..4 {
            fabric.inject(fid).unwrap();
            fabric.run_slots(200);
        }
        let mut out = Vec::new();
        fabric.drain_egress(&mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|d| d.fid == fid && d.met_deadline));
        assert_eq!(
            out.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(fabric.metrics().external_injected.get(), 4);
        assert_eq!(fabric.metrics().external_delivered.get(), 4);
        assert_eq!(fabric.metrics().e2e_delivered.get(), 4);
        // The drain is a move: a second call yields nothing new.
        fabric.drain_egress(&mut out);
        assert_eq!(out.len(), 4);
        // Misuse is typed, not silent.
        let periodic = fabric
            .open_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(0, 4))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        assert!(matches!(
            fabric.inject(periodic),
            Err(InjectError::NotExternal)
        ));
        fabric.close_connection(fid);
        assert!(matches!(
            fabric.inject(fid),
            Err(InjectError::UnknownConnection)
        ));
    }

    #[test]
    fn injected_traffic_respects_the_calculus_certificate() {
        let topo = triangle(8, CycleBound::Calculus);
        let cfg = FabricConfig::uniform(topo, 2048, 3).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_external_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        let bound = fabric.e2e_bound(fid).expect("certified");
        // Inject at the admitted period: every delivery stays within the
        // certified end-to-end bound.
        let period_slots = TimeDelta::from_ms(5).as_ps() / fabric.segment_envs()[0].slot.as_ps();
        for _ in 0..6 {
            fabric.inject(fid).unwrap();
            fabric.run_slots(period_slots.max(1));
        }
        let observed = fabric.observed_e2e_max(fid).expect("traffic flowed");
        assert!(
            observed <= bound,
            "observed {observed} exceeds certified bound {bound}"
        );
    }

    #[test]
    fn best_effort_rides_leftover_capacity_end_to_end() {
        let topo = FabricTopology::chain(2, 6);
        let cfg = FabricConfig::uniform(topo, 2048, 7).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let fid = fabric
            .open_best_effort(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 1), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(2)),
            )
            .unwrap();
        // Placed, not certified: nothing periodic is generated and no
        // calculus bound exists for it.
        assert!(fabric.e2e_bound(fid).is_none());
        fabric.run_slots(200);
        assert_eq!(fabric.metrics().be_delivered.get(), 0);
        // Injected messages cross the bridge like any other.
        for _ in 0..4 {
            fabric.inject(fid).unwrap();
            fabric.run_slots(200);
        }
        let mut out = Vec::new();
        fabric.drain_egress(&mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|d| d.fid == fid));
        assert_eq!(
            out.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(fabric.metrics().be_injected.get(), 4);
        assert_eq!(fabric.metrics().be_delivered.get(), 4);
        // The guaranteed ledgers never see best-effort traffic.
        assert_eq!(fabric.metrics().e2e_delivered.get(), 0);
        assert_eq!(fabric.metrics().external_delivered.get(), 0);
        assert!(fabric.observed_e2e_max(fid).is_none());
        // Teardown releases the route like any other class.
        assert!(fabric.close_connection(fid));
        assert!(matches!(
            fabric.inject(fid),
            Err(InjectError::UnknownConnection)
        ));
    }

    #[test]
    fn best_effort_floods_never_induce_a_guaranteed_miss() {
        let topo = triangle(8, CycleBound::Calculus);
        let cfg = FabricConfig::uniform(topo, 2048, 3).unwrap();
        let mut fabric = Fabric::new(cfg).unwrap();
        let rt = fabric
            .open_external_connection(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 2), GlobalNodeId::new(1, 3))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        let bound = fabric.e2e_bound(rt).expect("certified");
        // Same source ring, same bridge direction — maximal contention
        // for the guaranteed flow's slots and bridge direction.
        let be = fabric
            .open_best_effort(
                FabricConnectionSpec::unicast(GlobalNodeId::new(0, 4), GlobalNodeId::new(1, 5))
                    .period(TimeDelta::from_ms(5)),
            )
            .unwrap();
        let period_slots =
            (TimeDelta::from_ms(5).as_ps() / fabric.segment_envs()[0].slot.as_ps()).max(1);
        // Flood best-effort every slot — far beyond any certified
        // envelope — while the guaranteed flow paces at its period.
        for _ in 0..6 {
            fabric.inject(rt).unwrap();
            for _ in 0..period_slots {
                fabric.inject(be).unwrap();
                fabric.run_slots(1);
            }
        }
        fabric.run_slots(2 * period_slots);
        let observed = fabric
            .observed_e2e_max(rt)
            .expect("guaranteed traffic flowed");
        assert!(
            observed <= bound,
            "best-effort flood pushed guaranteed flow to {observed}, past its certified {bound}"
        );
        assert_eq!(
            fabric.metrics().e2e_delivered.get(),
            fabric.metrics().e2e_met.get(),
            "a guaranteed delivery missed its deadline under best-effort load"
        );
        assert_eq!(fabric.metrics().bridge_drops.get(), 0);
        assert!(fabric.metrics().be_delivered.get() > 0);
    }

    /// A random fabric for the hand-off invariant: a chain of two to four
    /// rings, or a certified triangle (cyclic), with scripted bridge
    /// kills and repairs.
    fn random_fabric(rng: &mut ccr_sim::rng::DetRng, cyclic: bool) -> Fabric {
        let topo = if cyclic {
            triangle(8, CycleBound::Calculus)
        } else {
            FabricTopology::chain(rng.gen_range(2..=4u16), 8)
        };
        let n_bridges = topo.bridges().len();
        let mut script = FabricFaultScript::new();
        for _ in 0..2 {
            let (b, at) = (rng.gen_range(0..n_bridges), rng.gen_range(100..2_000u64));
            script = script
                .kill_bridge_at(at, b)
                .repair_bridge_at(at + rng.gen_range(20..200u64), b);
        }
        let cfg = FabricConfig::uniform(topo, 2048, rng.next_u64())
            .unwrap()
            .fault_script(script);
        Fabric::new(cfg).unwrap()
    }

    #[test]
    fn no_bridge_direction_holds_a_message_past_its_slot() {
        let mut rng = ccr_sim::rng::DetRng::new(0x4A4D_0FF5);
        let (mut forwarded, mut be_delivered, mut external_delivered) = (0, 0, 0);
        for case in 0..16 {
            let mut fabric = random_fabric(&mut rng, case % 2 == 1);
            let slot = fabric.segment_envs()[0].slot;
            let n_rings = fabric.topology().n_rings();
            let mut injected = Vec::new();
            let mut open = Vec::new();
            for _ in 0..12 {
                let (sr, dr) = (rng.gen_range(0..n_rings), rng.gen_range(0..n_rings));
                let spec = FabricConnectionSpec::unicast(
                    GlobalNodeId::new(sr, rng.gen_range(1..7u16)),
                    GlobalNodeId::new(dr, rng.gen_range(1..7u16)),
                )
                .period(slot.times(rng.gen_range(60..400u64)));
                let opened = match rng.gen_range(0..3u32) {
                    0 => fabric.open_connection(spec),
                    1 => fabric.open_external_connection(spec),
                    _ => fabric.open_best_effort(spec),
                };
                if let Ok(fid) = opened {
                    open.push(fid);
                    if fabric.conn(fid).unwrap().class.is_injected() {
                        injected.push(fid);
                    }
                }
            }
            for _ in 0..3_000 {
                for &fid in &injected {
                    if rng.gen_bool(0.02) {
                        let _ = fabric.inject(fid);
                    }
                }
                if !open.is_empty() && rng.gen_bool(0.003) {
                    let fid = open.swap_remove(rng.gen_range(0..open.len()));
                    assert!(fabric.close_connection(fid));
                    injected.retain(|&f| f != fid);
                }
                fabric.step_slot();
                assert!(fabric.handoff.iter().all(Option::is_none));
                let m = fabric.metrics();
                assert_eq!(m.bridge_drops.get() + m.be_bridge_drops.get(), 0);
            }
            let m = fabric.metrics();
            assert_eq!(m.fault_dropped_forwards.get(), 0);
            assert!(m.bridges_killed.get() > 0);
            forwarded += m.forwarded.get();
            be_delivered += m.be_delivered.get();
            external_delivered += m.external_delivered.get();
        }
        // The sweep crossed bridges with every class of traffic.
        assert!(forwarded > 0 && be_delivered > 0 && external_delivered > 0);
    }
}
