//! The gateway engine: admission, ingress pacing, deadline-ordered
//! egress, and the edge-survivability loop — all in sim time, all
//! deterministic.
//!
//! A [`Gateway`] owns the runtime state of every admitted virtual link.
//! It is driven by a *backend* (loopback or UDP) that feeds it decoded
//! wall-world datagrams and a sim timestamp; everything the gateway does
//! with them — token pacing, port queues, fabric injection, egress
//! ordering, flow control — is a pure function of (config, injection
//! schedule), which is what the replay differential tests pin down.
//!
//! Overload story: *admission* guarantees each link's envelope fits the
//! fabric (EDF utilisation + calculus fixed point, via
//! [`Fabric::open_external_connections`]); *pacing* guarantees no link
//! exceeds the envelope it was admitted for. A client pushing faster
//! than its admitted rate is answered per link policy — [`Shed`] drops
//! and counts, [`Defer`] parks in the port's bounded queue — and never
//! disturbs other links' certified bounds. Every drop is also *told to
//! the client*: the gateway queues [`ControlFrame`]s (`Shed`, `Nack`,
//! `Backoff`) that backends transmit, so a well-behaved client can slow
//! down instead of guessing.
//!
//! Survivability story: once per slot the backend calls
//! [`Gateway::reconcile`], which follows the fabric's
//! [`ConnectionEvent`] stream. A link keeps the connection id it was
//! admitted under for its whole life, because the fabric re-admits a
//! rerouted or reclaimed connection under the same id; the events only
//! move the link along its health ladder — a rerouted link drops to
//! [`LinkHealth::Degraded`], a revoked link answers `Nack` until the
//! fabric's reclaim pass re-admits it, and a reclaimed link climbs back
//! to [`LinkHealth::Up`]. Links can also be added and removed at runtime
//! through the same incremental admission gate ([`Gateway::add_link`] /
//! [`Gateway::remove_link`]).
//!
//! [`Shed`]: crate::config::OverloadPolicy::Shed
//! [`Defer`]: crate::config::OverloadPolicy::Defer
//! [`ConnectionEvent`]: ccr_multiring::ConnectionEvent

use std::collections::{BTreeMap, HashMap};

use ccr_multiring::admission::{FabricAdmissionError, FabricConnectionId};
use ccr_multiring::engine::{ConnectionEvent, EgressDelivery, Fabric};
use ccr_sim::stats::Counter;
use ccr_sim::{SimTime, TimeDelta};

use crate::config::{ConfigError, GatewayConfig, OverloadPolicy, PortSemantics, VirtualLink};
use crate::link::{LinkHealth, LinkMetrics, LinkState};
use crate::wire::{Header, PacketKind, WireError};

/// Gateway-wide counters (per-link detail lives in [`LinkMetrics`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewayMetrics {
    /// Frames offered to ingress, well-formed or not.
    pub frames_in: Counter,
    /// Frames rejected by the wire decoder (truncated, bad CRC, …).
    pub decode_errors: Counter,
    /// Well-formed frames naming a link this gateway does not serve.
    pub unknown_link: Counter,
    /// Well-formed non-`Data` frames (probes, spoofed deliveries) — noted
    /// and ignored, never injected.
    pub non_data_frames: Counter,
    /// Datagrams injected into the fabric, all links.
    pub injected: Counter,
    /// Datagrams shed by pacing, all links.
    pub shed: Counter,
    /// Deferred datagrams expired past their deadline, all links.
    pub expired: Counter,
    /// `Nack` control frames queued, all links.
    pub nacks_sent: Counter,
    /// `Backoff` advisories queued, all links.
    pub backoffs_sent: Counter,
    /// Link reroute events applied by [`Gateway::reconcile`].
    pub links_rerouted: Counter,
    /// Link revocations applied by [`Gateway::reconcile`].
    pub links_revoked: Counter,
    /// Link reclaims applied by [`Gateway::reconcile`].
    pub links_reclaimed: Counter,
    /// End-to-end deliveries handed to egress, all links.
    pub delivered: Counter,
    /// Deliveries that missed their link's e2e deadline, all links.
    pub deadline_missed: Counter,
}

/// One rejected virtual link, reported — never silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedLink {
    /// The link that did not fit.
    pub id: u16,
    /// Why admission refused it.
    pub error: FabricAdmissionError,
}

/// Why a runtime link change was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkChangeError {
    /// A link with this wire id is already served.
    DuplicateId {
        /// The contested id.
        id: u16,
    },
    /// The link's own fields are inconsistent — the same checks
    /// [`GatewayConfig::new`] runs. The fabric was not touched.
    Invalid(ConfigError),
    /// The fabric's admission gate refused the new link.
    Refused(FabricAdmissionError),
}

impl std::fmt::Display for LinkChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkChangeError::DuplicateId { id } => write!(f, "link id {id} already served"),
            LinkChangeError::Invalid(e) => write!(f, "invalid {e}"),
            LinkChangeError::Refused(e) => write!(f, "admission refused: {e}"),
        }
    }
}

/// The outcome of opening a [`GatewayConfig`] against a fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// Links now carried by the fabric, in config order.
    pub admitted: Vec<u16>,
    /// Links the admission gate refused, with the reason.
    pub rejected: Vec<RejectedLink>,
    /// Whether the whole config was admitted as one batch (single
    /// calculus fixed point). `false` means the batch was refused and
    /// links were re-tried one by one.
    pub batched: bool,
}

/// What ingress did with one offered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngressOutcome {
    /// Injected into the fabric immediately.
    Injected {
        /// The link it rode.
        link: u16,
    },
    /// Parked in the link's port queue awaiting a token.
    Deferred {
        /// The link it waits on.
        link: u16,
    },
    /// Sampling port: replaced a staler datagram already waiting.
    Overwrote {
        /// The link whose waiting value was refreshed.
        link: u16,
    },
    /// Dropped by the link's overload policy.
    Shed {
        /// The link that shed it.
        link: u16,
    },
    /// Refused outright (revoked link or contract violation): a `Nack`
    /// was queued — retrying without a change is pointless.
    Nacked {
        /// The link that refused it.
        link: u16,
    },
    /// The wire decoder refused the frame.
    Malformed(WireError),
    /// Well-formed, but no such link is served here.
    UnknownLink {
        /// The id the frame named.
        link: u16,
    },
    /// Well-formed non-`Data` frame; noted and ignored.
    Ignored {
        /// The frame's kind.
        kind: PacketKind,
    },
}

/// One gateway → client control frame awaiting transmission: a `Shed`
/// notice, a `Nack` refusal, or a `Backoff` advisory. Payload-free; the
/// header's `seq` echoes the triggering datagram and `budget_us` carries
/// the advised quiet time on `Backoff` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlFrame {
    /// The virtual link this control concerns.
    pub link: u16,
    /// `Shed`, `Nack`, or `Backoff`.
    pub kind: PacketKind,
    /// Sequence of the datagram that triggered it.
    pub seq: u32,
    /// `Backoff`: advised quiet µs. Otherwise 0.
    pub budget_us: u32,
}

impl ControlFrame {
    /// Encode as a payload-free wire frame into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        Header {
            kind: self.kind,
            link: self.link,
            seq: self.seq,
            len: 0,
            budget_us: self.budget_us,
        }
        .encode_into(&[], out);
    }
}

/// One end-to-end delivery leaving the gateway, payload re-attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgressFrame {
    /// The virtual link delivered on.
    pub link: u16,
    /// Per-link delivery sequence (cross-checked against the fabric's
    /// per-connection count).
    pub seq: u64,
    /// The datagram bytes, exactly as ingressed.
    pub payload: Vec<u8>,
    /// End-to-end sim latency, injection to final delivery.
    pub latency: TimeDelta,
    /// Within the link's end-to-end deadline?
    pub met_deadline: bool,
    /// Sampling ports: within the validity window. Queuing ports: always
    /// `true`.
    pub fresh: bool,
    /// Remaining deadline budget (zero when missed).
    pub slack: TimeDelta,
}

impl EgressFrame {
    /// Encode as a `Deliver` wire frame into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        Header {
            kind: PacketKind::Deliver,
            link: self.link,
            // Egress sequence wraps at the wire's u32 like ingress does.
            seq: self.seq as u32,
            len: 0, // overridden by encode_into
            budget_us: (self.slack.as_ps() / 1_000_000).min(u32::MAX as u64) as u32,
        }
        .encode_into(&self.payload, out);
    }
}

/// The gateway: every admitted link's pacing and correlation state.
#[derive(Debug)]
pub struct Gateway {
    /// Admitted links, in config order (the deterministic pacing order).
    links: Vec<LinkState>,
    /// Wire id → index into `links`.
    by_id: BTreeMap<u16, usize>,
    /// Fabric connection → index into `links`. A link's connection id is
    /// fixed at admission, so only adding and removing links edit this.
    by_fid: HashMap<FabricConnectionId, usize>,
    metrics: GatewayMetrics,
    /// Control frames queued for the backend to transmit.
    control: Vec<ControlFrame>,
    /// Scratch for draining fabric egress without per-slot allocation.
    egress_scratch: Vec<EgressDelivery>,
    /// Scratch for draining fabric connection events.
    event_scratch: Vec<ConnectionEvent>,
}

impl Gateway {
    /// Admit `cfg`'s links into `fabric` and build the gateway.
    ///
    /// The whole config is first offered as **one batch** (one calculus
    /// fixed point via [`Fabric::open_external_connections`]); if the
    /// batch as a whole is refused, links are re-tried one by one so
    /// every admissible link still comes up, and every refused link is
    /// reported in the [`AdmissionReport`] — never silently dropped.
    pub fn open(cfg: &GatewayConfig, fabric: &mut Fabric) -> (Gateway, AdmissionReport) {
        let now = fabric.now();
        let specs: Vec<_> = cfg
            .links
            .iter()
            .map(|l| {
                let slot_bytes = fabric.with_ring(l.src.ring, |r| r.config().slot_bytes);
                l.spec(slot_bytes)
            })
            .collect();
        let mut links = Vec::new();
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        let batched = match fabric.open_external_connections(&specs) {
            Ok(fids) => {
                for (l, fid) in cfg.links.iter().zip(fids) {
                    admitted.push(l.id);
                    links.push(LinkState::new(l.clone(), fid, now));
                }
                true
            }
            Err(_) => {
                // The batch did not fit as a whole: fall back to
                // per-link admission so partial configs still serve.
                for (l, spec) in cfg.links.iter().zip(&specs) {
                    match fabric.open_external_connection(spec.clone()) {
                        Ok(fid) => {
                            admitted.push(l.id);
                            links.push(LinkState::new(l.clone(), fid, now));
                        }
                        Err(error) => rejected.push(RejectedLink { id: l.id, error }),
                    }
                }
                false
            }
        };
        let by_id = links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.cfg.id, i))
            .collect();
        let by_fid = links.iter().enumerate().map(|(i, l)| (l.fid, i)).collect();
        (
            Gateway {
                links,
                by_id,
                by_fid,
                metrics: GatewayMetrics::default(),
                control: Vec::new(),
                egress_scratch: Vec::new(),
                event_scratch: Vec::new(),
            },
            AdmissionReport {
                admitted,
                rejected,
                batched,
            },
        )
    }

    /// Queue a control frame and keep the tallies in step.
    fn push_control(&mut self, idx: usize, kind: PacketKind, seq: u32, budget_us: u32) {
        let link = &mut self.links[idx];
        match kind {
            PacketKind::Nack => {
                link.metrics.nacks.incr();
                self.metrics.nacks_sent.incr();
            }
            PacketKind::Backoff => {
                link.metrics.backoffs.incr();
                self.metrics.backoffs_sent.incr();
            }
            _ => {}
        }
        self.control.push(ControlFrame {
            link: link.cfg.id,
            kind,
            seq,
            budget_us,
        });
    }

    /// Record an overload event on link `idx`: queue the `Shed` notice
    /// and, when the flow-control window allows, a `Backoff` advisory.
    fn overload(&mut self, idx: usize, now: SimTime, seq: u32) {
        self.push_control(idx, PacketKind::Shed, seq, 0);
        let link = &mut self.links[idx];
        let base = link.cfg.period;
        if let Some(quiet) = link.flow.on_overload(now, base) {
            let quiet_us = (quiet.as_ps() / 1_000_000).min(u32::MAX as u64) as u32;
            self.push_control(idx, PacketKind::Backoff, seq, quiet_us);
        }
    }

    /// Offer one raw frame to ingress at sim time `now`.
    ///
    /// Decode errors, unknown links, and non-data frames are counted and
    /// reported, never panicked on — a hostile peer must not take the
    /// pacer down. A decoded datagram is injected if its link has a
    /// token, otherwise handled per the link's port + overload policy.
    /// Datagrams that can never be carried (revoked link, oversize)
    /// are answered with a `Nack` instead of a `Shed`.
    pub fn ingress(&mut self, now: SimTime, frame: &[u8], fabric: &mut Fabric) -> IngressOutcome {
        self.metrics.frames_in.incr();
        let (header, payload) = match Header::decode(frame) {
            Ok(ok) => ok,
            Err(e) => {
                self.metrics.decode_errors.incr();
                return IngressOutcome::Malformed(e);
            }
        };
        if header.kind != PacketKind::Data {
            self.metrics.non_data_frames.incr();
            return IngressOutcome::Ignored { kind: header.kind };
        }
        let Some(&idx) = self.by_id.get(&header.link) else {
            self.metrics.unknown_link.incr();
            return IngressOutcome::UnknownLink { link: header.link };
        };
        let link = &mut self.links[idx];
        link.metrics.ingress_frames.incr();
        let id = link.cfg.id;
        if link.revoked() {
            // No path until the reclaim pass re-admits the link.
            self.push_control(idx, PacketKind::Nack, header.seq, 0);
            return IngressOutcome::Nacked { link: id };
        }
        if payload.len() > link.cfg.mtu as usize {
            // Oversize violates the admitted slot budget: refuse,
            // whatever the policy — injecting it would void the
            // certificate, and resending it unchanged can never work.
            self.push_control(idx, PacketKind::Nack, header.seq, 0);
            return IngressOutcome::Nacked { link: id };
        }
        if link.bucket.try_take(now) {
            return match fabric.inject(link.fid) {
                Ok(_) => {
                    link.in_flight.push_back(payload.to_vec());
                    link.metrics.injected.incr();
                    link.flow.on_accept(now);
                    self.metrics.injected.incr();
                    IngressOutcome::Injected { link: id }
                }
                Err(_) => {
                    // Connection torn down by a fault this very slot
                    // (reconcile tells the link next slot): the datagram
                    // has no path; count it against the link.
                    link.metrics.shed.incr();
                    self.metrics.shed.incr();
                    self.overload(idx, now, header.seq);
                    IngressOutcome::Shed { link: id }
                }
            };
        }
        match link.cfg.policy {
            OverloadPolicy::Shed => {
                link.metrics.shed.incr();
                self.metrics.shed.incr();
                self.overload(idx, now, header.seq);
                IngressOutcome::Shed { link: id }
            }
            OverloadPolicy::Defer => {
                if link.waiting.len() < link.waiting_cap() {
                    link.waiting.push_back((now, payload.to_vec()));
                    link.metrics.deferred.incr();
                    IngressOutcome::Deferred { link: id }
                } else if matches!(link.cfg.port, PortSemantics::Sampling { .. }) {
                    // Sampling: the newest value wins the single slot.
                    link.waiting.clear();
                    link.waiting.push_back((now, payload.to_vec()));
                    link.metrics.overwritten.incr();
                    IngressOutcome::Overwrote { link: id }
                } else {
                    link.metrics.shed.incr();
                    self.metrics.shed.incr();
                    self.overload(idx, now, header.seq);
                    IngressOutcome::Shed { link: id }
                }
            }
        }
    }

    /// Pacing tick: called once per fabric slot (before
    /// [`Fabric::step_slot`]) to move deferred datagrams into the fabric
    /// as their tokens mature. Links are served in config order —
    /// deterministic, and fair because each link can only consume its
    /// own tokens. Deferred datagrams that out-waited the link's
    /// deadline are expired first — injecting them could only produce a
    /// guaranteed-late delivery.
    pub fn pace(&mut self, now: SimTime, fabric: &mut Fabric) {
        for idx in 0..self.links.len() {
            let link = &mut self.links[idx];
            // Expire from the front: the waiting queue is in arrival
            // order, so the first fresh entry ends the scan.
            let timeout = link.defer_timeout();
            let mut expired = 0u64;
            while let Some((stamp, _)) = link.waiting.front() {
                if now.saturating_since(*stamp) <= timeout {
                    break;
                }
                link.waiting.pop_front();
                expired += 1;
            }
            if expired > 0 {
                let link = &mut self.links[idx];
                link.metrics.expired.add(expired);
                self.metrics.expired.add(expired);
            }
            let link = &mut self.links[idx];
            let mut shed = 0u64;
            while !link.waiting.is_empty() && link.bucket.try_take(now) {
                match fabric.inject(link.fid) {
                    Ok(_) => {
                        let (_, payload) = link.waiting.pop_front().expect("non-empty queue");
                        link.in_flight.push_back(payload);
                        link.metrics.injected.incr();
                        self.metrics.injected.incr();
                    }
                    Err(_) => {
                        // Revoked mid-flight: drain the queue as shed.
                        shed = link.waiting.len() as u64;
                        link.waiting.clear();
                        link.metrics.shed.add(shed);
                        self.metrics.shed.add(shed);
                    }
                }
            }
            if shed > 0 {
                self.overload(idx, now, 0);
            }
        }
    }

    /// Follow the fabric's connection-event stream: walk each named link
    /// along the health ladder and abandon in-transit payloads whose
    /// route died. Backends call this once per slot, before ingress; the
    /// no-event slot (every slot without a fault or repair) costs one
    /// inlined emptiness check so the hot loop stays unperturbed.
    #[inline]
    pub fn reconcile(&mut self, fabric: &mut Fabric) {
        if !fabric.has_connection_events() {
            return;
        }
        self.reconcile_events(fabric);
    }

    /// The event path of [`Gateway::reconcile`], kept out of line so its
    /// codegen never widens a backend's per-slot loop.
    #[cold]
    fn reconcile_events(&mut self, fabric: &mut Fabric) {
        self.event_scratch.clear();
        fabric.drain_connection_events(&mut self.event_scratch);
        for ev in &self.event_scratch {
            let (ConnectionEvent::Rerouted { fid }
            | ConnectionEvent::Revoked { fid, .. }
            | ConnectionEvent::Reclaimed { fid }) = *ev;
            let Some(&idx) = self.by_fid.get(&fid) else {
                continue; // a removed link, or not a gateway connection
            };
            // Every event closed the connection first: the payloads in
            // flight on its old route died with it, and a re-admitted
            // connection counts its deliveries from 0 again.
            let link = &mut self.links[idx];
            link.metrics.lost_in_flight.add(link.in_flight.len() as u64);
            link.in_flight.clear();
            link.egress_seq = 0;
            match *ev {
                ConnectionEvent::Rerouted { .. } => {
                    let reroutes = match link.health {
                        LinkHealth::Degraded { reroutes } => reroutes + 1,
                        _ => 1,
                    };
                    link.health = LinkHealth::Degraded { reroutes };
                    link.metrics.reroutes.incr();
                    self.metrics.links_rerouted.incr();
                }
                ConnectionEvent::Revoked { reason, .. } => {
                    link.waiting.clear();
                    link.health = LinkHealth::Revoked { reason };
                    link.metrics.revocations.incr();
                    self.metrics.links_revoked.incr();
                }
                ConnectionEvent::Reclaimed { .. } => {
                    link.health = LinkHealth::Up;
                    link.metrics.reclaims.incr();
                    self.metrics.links_reclaimed.incr();
                }
            }
        }
    }

    /// Admit one more link at runtime through the same incremental
    /// admission gate (EDF + calculus) the boot config passed. The link is
    /// checked like a [`GatewayConfig`] link before the fabric sees it.
    pub fn add_link(
        &mut self,
        cfg: VirtualLink,
        fabric: &mut Fabric,
    ) -> Result<(), LinkChangeError> {
        if self.by_id.contains_key(&cfg.id) {
            return Err(LinkChangeError::DuplicateId { id: cfg.id });
        }
        cfg.validate().map_err(LinkChangeError::Invalid)?;
        let slot_bytes = fabric.with_ring(cfg.src.ring, |r| r.config().slot_bytes);
        let spec = cfg.spec(slot_bytes);
        let fid = fabric
            .open_external_connection(spec)
            .map_err(LinkChangeError::Refused)?;
        let idx = self.links.len();
        self.by_id.insert(cfg.id, idx);
        self.by_fid.insert(fid, idx);
        self.links.push(LinkState::new(cfg, fid, fabric.now()));
        Ok(())
    }

    /// Remove a served link at runtime, closing its fabric connection
    /// whether it is carried or revoked (freed capacity immediately
    /// triggers the fabric's reclaim pass for detoured or revoked peers,
    /// and a revoked link's spec leaves the reclaim queue). Returns
    /// `false` for unknown ids.
    pub fn remove_link(&mut self, id: u16, fabric: &mut Fabric) -> bool {
        let Some(&idx) = self.by_id.get(&id) else {
            return false;
        };
        let link = self.links.remove(idx);
        fabric.close_connection(link.fid);
        // Indices above `idx` shifted down: rebuild both maps.
        self.by_id.clear();
        self.by_fid.clear();
        for (i, l) in self.links.iter().enumerate() {
            self.by_id.insert(l.cfg.id, i);
            self.by_fid.insert(l.fid, i);
        }
        true
    }

    /// Drain the queued control frames (`Shed`/`Nack`/`Backoff`) for the
    /// backend to transmit, in emission order.
    pub fn drain_control(&mut self, out: &mut Vec<ControlFrame>) {
        out.append(&mut self.control);
    }

    /// Collect end-to-end deliveries from the fabric, re-attach payloads,
    /// and append them to `out` in **deadline order** (ascending slack =
    /// earliest absolute deadline first within the drained slot window;
    /// ties broken by connection then sequence, so the order is total and
    /// deterministic).
    pub fn poll_egress(&mut self, fabric: &mut Fabric, out: &mut Vec<EgressFrame>) {
        self.egress_scratch.clear();
        fabric.drain_egress(&mut self.egress_scratch);
        self.egress_scratch
            .sort_by_key(|d| (d.slack, d.fid.0, d.seq));
        for i in 0..self.egress_scratch.len() {
            let d = self.egress_scratch[i];
            let Some(&idx) = self.by_fid.get(&d.fid) else {
                continue; // a non-gateway external connection, if any
            };
            let link = &mut self.links[idx];
            debug_assert_eq!(d.seq, link.egress_seq, "fabric FIFO matches link FIFO");
            let Some(payload) = link.in_flight.pop_front() else {
                continue; // stray delivery of a re-opened link
            };
            link.egress_seq += 1;
            let fresh = match link.cfg.port {
                PortSemantics::Sampling { validity } => d.latency <= validity,
                PortSemantics::Queuing { .. } => true,
            };
            link.metrics.delivered.incr();
            self.metrics.delivered.incr();
            if d.met_deadline {
                link.metrics.deadline_met.incr();
            } else {
                link.metrics.deadline_missed.incr();
                self.metrics.deadline_missed.incr();
            }
            if !fresh {
                link.metrics.stale.incr();
            }
            out.push(EgressFrame {
                link: link.cfg.id,
                seq: d.seq,
                payload,
                latency: d.latency,
                met_deadline: d.met_deadline,
                fresh,
                slack: d.slack,
            });
        }
    }

    /// Gateway-wide counters.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// Per-link counters, by wire id.
    pub fn link_metrics(&self, id: u16) -> Option<&LinkMetrics> {
        self.by_id.get(&id).map(|&i| &self.links[i].metrics)
    }

    /// A link's position on the degradation ladder, by wire id.
    pub fn link_health(&self, id: u16) -> Option<LinkHealth> {
        self.by_id.get(&id).map(|&i| self.links[i].health)
    }
}
