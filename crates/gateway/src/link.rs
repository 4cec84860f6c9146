//! Per-link runtime state: the pacing bucket, the port queues, the
//! payload FIFO that correlates fabric deliveries back to datagram
//! bytes, and the edge-survivability machinery — flow-control backoff
//! and the link health ladder.
//!
//! The fabric's DES carries no payloads — messages are sized in slots,
//! not bytes. The gateway therefore keeps each injected datagram's bytes
//! in a per-link FIFO and matches them to deliveries by order: the ring
//! guarantees per-connection FIFO delivery (successive messages of one
//! connection carry strictly increasing deadlines, so EDF never reorders
//! them), and [`EgressDelivery::seq`](ccr_multiring::EgressDelivery::seq)
//! makes the pairing checkable at run time rather than assumed.
//!
//! Survivability additions:
//!
//! - [`FlowControl`] turns overload streaks into `Backoff` advisories
//!   with exponentially growing quiet windows (capped), one advisory per
//!   window so a misbehaving client cannot provoke an advisory flood.
//! - [`LinkHealth`] is the degradation ladder a link walks as the fabric
//!   underneath it fails and heals: `Up` → `Degraded` (detoured, still
//!   certified) → `Revoked` (typed reason, no path) → back to `Up` when
//!   the reclaim pass restores the preferred route.

use std::collections::VecDeque;

use ccr_multiring::admission::FabricConnectionId;
use ccr_multiring::engine::RevokeReason;
use ccr_sim::stats::Counter;
use ccr_sim::{SimTime, TimeDelta};

use crate::bucket::TokenBucket;
use crate::config::{PortSemantics, VirtualLink};

/// Per-link counters, comparable with `==` across runs like every other
/// metrics block in the workspace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkMetrics {
    /// Well-formed `Data` frames addressed to this link.
    pub ingress_frames: Counter,
    /// Datagrams injected into the fabric.
    pub injected: Counter,
    /// Datagrams dropped by the overload policy (token and queue both
    /// exhausted, or `Shed` policy with no token).
    pub shed: Counter,
    /// Datagrams parked in the port queue waiting for a token.
    pub deferred: Counter,
    /// Sampling ports only: queued datagrams replaced by a fresher one.
    pub overwritten: Counter,
    /// Deferred datagrams dropped because they out-waited the link's
    /// deadline — injecting them could only produce a late delivery.
    pub expired: Counter,
    /// `Nack` control frames emitted for this link.
    pub nacks: Counter,
    /// `Backoff` advisories emitted for this link.
    pub backoffs: Counter,
    /// In-flight payloads abandoned when the underlying connection was
    /// torn down by a fault (rerouted or revoked mid-flight).
    pub lost_in_flight: Counter,
    /// Times this link's connection was rerouted onto a detour.
    pub reroutes: Counter,
    /// Times this link was revoked outright.
    pub revocations: Counter,
    /// Times the reclaim pass restored this link's preferred route.
    pub reclaims: Counter,
    /// End-to-end deliveries handed to egress.
    pub delivered: Counter,
    /// Deliveries that met the link's end-to-end deadline.
    pub deadline_met: Counter,
    /// Deliveries that missed it.
    pub deadline_missed: Counter,
    /// Sampling ports only: deliveries older than the validity window.
    pub stale: Counter,
}

/// Where a link stands on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkHealth {
    /// Carried on its preferred route.
    Up,
    /// Carried on a detour after a fault — still certified, but the
    /// route is not the planner's first choice.
    Degraded {
        /// Reroutes survived since the link was last fully up.
        reroutes: u32,
    },
    /// No admissible route; ingress answers `Nack` until the reclaim
    /// pass re-admits the link.
    Revoked {
        /// Why the fabric gave up on the connection.
        reason: RevokeReason,
    },
}

/// Exponential-backoff flow control for one link.
///
/// Overload events (sheds, expiries) build a *streak*; when a streak
/// event lands outside the current quiet window, one `Backoff` advisory
/// is emitted carrying `base × 2^min(streak-1, MAX_EXP)` of quiet time,
/// and the window opens. Further overload inside the window stays
/// silent (the advice is already out). A successful injection outside
/// the window clears the streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowControl {
    /// Consecutive overload events (monotone within a streak).
    strikes: u32,
    /// End of the currently advised quiet window.
    quiet_until: SimTime,
}

impl FlowControl {
    /// Largest exponent of the backoff doubling (caps the advisory at
    /// `base << MAX_EXP`).
    pub const MAX_EXP: u32 = 6;

    /// A machine with no strikes and no open window.
    pub fn new() -> Self {
        FlowControl {
            strikes: 0,
            quiet_until: SimTime::ZERO,
        }
    }

    /// Record one overload event at `now`. Returns the quiet span to
    /// advertise when a fresh `Backoff` advisory is due, `None` while
    /// the previous advisory's window is still open.
    pub fn on_overload(&mut self, now: SimTime, base: TimeDelta) -> Option<TimeDelta> {
        self.strikes = self.strikes.saturating_add(1);
        if now < self.quiet_until {
            return None;
        }
        let exp = (self.strikes - 1).min(Self::MAX_EXP);
        let quiet = TimeDelta::from_ps(base.as_ps().saturating_mul(1 << exp));
        self.quiet_until = now.checked_add(quiet).unwrap_or(SimTime::MAX);
        Some(quiet)
    }

    /// Record a successful injection at `now`: outside the quiet window
    /// this ends the streak (the client is behaving again).
    pub fn on_accept(&mut self, now: SimTime) {
        if now >= self.quiet_until {
            self.strikes = 0;
        }
    }

    /// Overload events in the current streak.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// End of the last advised quiet window.
    pub fn quiet_until(&self) -> SimTime {
        self.quiet_until
    }
}

impl Default for FlowControl {
    fn default() -> Self {
        Self::new()
    }
}

/// One admitted virtual link at run time.
#[derive(Debug)]
pub struct LinkState {
    /// The admitted configuration.
    pub cfg: VirtualLink,
    /// The fabric connection carrying this link, fixed at admission: the
    /// fabric re-admits a rerouted or reclaimed connection under the same
    /// id, and every [`ConnectionEvent`](ccr_multiring::ConnectionEvent)
    /// names it.
    pub fid: FabricConnectionId,
    /// The ingress pacer.
    pub bucket: TokenBucket,
    /// Datagrams waiting for a token, stamped with their arrival time so
    /// the pacer can expire entries that out-waited the link's deadline
    /// (bounded: queuing depth, or exactly one for sampling ports).
    pub waiting: VecDeque<(SimTime, Vec<u8>)>,
    /// Payload bytes of datagrams already injected, awaiting delivery.
    pub in_flight: VecDeque<Vec<u8>>,
    /// Egress frames produced for this link so far (wire `seq` source,
    /// cross-checked against the fabric's per-connection sequence).
    pub egress_seq: u64,
    /// Flow-control backoff state.
    pub flow: FlowControl,
    /// Degradation-ladder position.
    pub health: LinkHealth,
    /// This link's counters.
    pub metrics: LinkMetrics,
}

impl LinkState {
    /// Fresh state for an admitted link.
    pub fn new(cfg: VirtualLink, fid: FabricConnectionId, now: SimTime) -> Self {
        let bucket = TokenBucket::new(cfg.burst, cfg.period, now);
        LinkState {
            cfg,
            fid,
            bucket,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
            egress_seq: 0,
            flow: FlowControl::new(),
            health: LinkHealth::Up,
            metrics: LinkMetrics::default(),
        }
    }

    /// Capacity of the waiting queue under this link's port semantics.
    pub fn waiting_cap(&self) -> usize {
        match self.cfg.port {
            PortSemantics::Sampling { .. } => 1,
            PortSemantics::Queuing { depth } => depth,
        }
    }

    /// How long a deferred datagram may wait before expiring. A healthy
    /// pacer drains a full queue in `waiting_cap` periods (one token per
    /// period), so anything waiting longer than `(waiting_cap + 1)`
    /// periods is stuck behind a revoked connection or a blackout, not
    /// behind ordinary pacing — keeping it could only produce a
    /// hopelessly stale injection.
    pub fn defer_timeout(&self) -> TimeDelta {
        TimeDelta::from_ps(
            self.cfg
                .period
                .as_ps()
                .saturating_mul(self.waiting_cap() as u64 + 1),
        )
    }

    /// Is ingress traffic for this link currently serviceable?
    pub fn revoked(&self) -> bool {
        matches!(self.health, LinkHealth::Revoked { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: TimeDelta = TimeDelta::from_us(100);

    #[test]
    fn backoff_doubles_per_streak_and_caps() {
        let mut fc = FlowControl::new();
        let mut spans = Vec::new();
        // Each overload lands after the previous window closed, so every
        // strike produces an advisory and the streak keeps building.
        for _ in 0..10 {
            let now = fc.quiet_until(); // first window boundary slot
            let quiet = fc.on_overload(now, BASE).expect("window closed");
            spans.push(quiet.as_ps() / BASE.as_ps());
        }
        assert_eq!(spans, vec![1, 2, 4, 8, 16, 32, 64, 64, 64, 64]);
    }

    #[test]
    fn one_advisory_per_quiet_window() {
        let mut fc = FlowControl::new();
        assert!(fc.on_overload(SimTime::ZERO, BASE).is_some());
        // Storm inside the window: silent, but strikes keep counting.
        for _ in 0..5 {
            assert_eq!(fc.on_overload(SimTime::from_us(10), BASE), None);
        }
        assert_eq!(fc.strikes(), 6);
        // First overload past the window: a bigger advisory.
        let later = fc.quiet_until();
        let quiet = fc.on_overload(later, BASE).unwrap();
        assert_eq!(quiet.as_ps() / BASE.as_ps(), 64, "2^min(7-1, 6)");
    }

    #[test]
    fn acceptance_outside_the_window_clears_the_streak() {
        let mut fc = FlowControl::new();
        fc.on_overload(SimTime::ZERO, BASE);
        fc.on_accept(SimTime::from_us(1)); // inside the window: no effect
        assert_eq!(fc.strikes(), 1);
        fc.on_accept(fc.quiet_until());
        assert_eq!(fc.strikes(), 0);
        // The next overload starts a fresh streak at the base span.
        let quiet = fc.on_overload(fc.quiet_until(), BASE).unwrap();
        assert_eq!(quiet, BASE);
    }
}
