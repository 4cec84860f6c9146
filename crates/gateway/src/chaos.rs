//! Deterministic wire chaos: loss, duplication, reordering, bit
//! corruption, and burst blackouts applied to ingress frames before the
//! gateway sees them.
//!
//! The fabric already has a chaos story ([`ccr_edf::fault::FaultScript`]
//! corrupts the ring's control channel); this module gives the *edge*
//! the same treatment. A [`WireChaos`] sits between the loopback
//! backend's arrival schedule and [`Gateway::ingress`], mangling frames
//! exactly the way a lossy wire would — but from a [`DetRng`] and a
//! slot-indexed [`ChaosScript`], so a chaotic run is still a pure
//! function of `(config, schedule, chaos seed, script)` and replays
//! bit-identically.
//! The differential suites hold it to that.
//!
//! Per offered frame the RNG draws one decision per impairment in a
//! fixed order (loss, duplication, reorder, corruption), so the draw
//! stream — and therefore every later frame's fate — depends only on
//! the offered sequence, never on which branches fired. Blackout
//! windows consume no randomness at all: a scripted outage must not
//! shift the fate of traffic after the repair.
//!
//! Corrupted frames get exactly one bit flipped somewhere in the frame;
//! the gateway's CRC-16 trailer (or the magic/length checks) rejects
//! them as counted [`WireError`]s, which is the point — chaos must land
//! in the error budget, never in delivered payloads.
//!
//! [`Gateway::ingress`]: crate::gateway::Gateway::ingress
//! [`WireError`]: crate::wire::WireError
//! [`DetRng`]: ccr_sim::rng::DetRng

use ccr_sim::rng::DetRng;
use ccr_sim::stats::Counter;

/// Per-impairment probabilities of the chaos layer. All default to 0 —
/// a default config passes every frame through untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the per-frame decision stream.
    pub seed: u64,
    /// P(frame silently dropped).
    pub loss: f64,
    /// P(frame delivered twice in the same slot).
    pub duplicate: f64,
    /// P(frame delayed by 1..=`max_delay_slots` slots instead of
    /// arriving now) — the reordering impairment.
    pub reorder: f64,
    /// P(one bit of the frame flipped).
    pub corrupt: f64,
    /// Largest reorder delay in slots (ignored while `reorder` is 0).
    pub max_delay_slots: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            max_delay_slots: 4,
        }
    }
}

impl ChaosConfig {
    /// A config with every impairment at probability `p` and the given
    /// seed — the usual soak-test shape.
    pub fn uniform(seed: u64, p: f64) -> Self {
        ChaosConfig {
            seed,
            loss: p,
            duplicate: p,
            reorder: p,
            corrupt: p,
            max_delay_slots: 4,
        }
    }
}

/// A slot-indexed schedule of burst blackouts: half-open windows
/// `[start, start + len)` of fabric slots during which every offered
/// frame is swallowed (and counted) — a cable pull, not a lossy wire.
///
/// Kept sorted by start slot, mirroring [`ccr_edf::fault::FaultScript`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosScript {
    /// `(start, len)` windows, sorted by start.
    windows: Vec<(u64, u64)>,
}

impl ChaosScript {
    /// An empty script (no blackouts).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: black out `len` slots starting at `start`.
    pub fn blackout(mut self, start: u64, len: u64) -> Self {
        let at = self.windows.partition_point(|&(s, _)| s <= start);
        self.windows.insert(at, (start, len));
        self
    }

    /// The scheduled windows, sorted by start slot.
    pub fn windows(&self) -> &[(u64, u64)] {
        &self.windows
    }

    /// Is `slot` inside any blackout window?
    pub fn blacked_out(&self, slot: u64) -> bool {
        // Windows may overlap, so scan every window starting at or
        // before `slot`; scripts are small (a handful of outages).
        self.windows
            .iter()
            .take_while(|&&(s, _)| s <= slot)
            .any(|&(s, len)| slot < s.saturating_add(len))
    }

    /// Generate a seeded script of `n_windows` blackouts of up to
    /// `max_len` slots each, spread over `(0, horizon_slots)`. Same
    /// arguments ⇒ same script, like [`FaultScript::chaos`].
    ///
    /// [`FaultScript::chaos`]: ccr_edf::fault::FaultScript::chaos
    pub fn chaos(seed: u64, horizon_slots: u64, n_windows: usize, max_len: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xB1AC_0075);
        let mut script = Self::new();
        for _ in 0..n_windows {
            let start = rng.gen_range(1..horizon_slots.max(3));
            let len = rng.gen_range(1..=max_len.max(1));
            script = script.blackout(start, len);
        }
        script
    }
}

/// What the chaos layer did to the frames it was offered. `==`-comparable
/// across runs like every metrics block in the workspace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosMetrics {
    /// Frames offered to the layer.
    pub offered: Counter,
    /// Frames swallowed by a blackout window.
    pub blacked_out: Counter,
    /// Frames dropped by the loss draw.
    pub dropped: Counter,
    /// Frames delivered twice.
    pub duplicated: Counter,
    /// Frames delayed into a later slot.
    pub delayed: Counter,
    /// Frames with a bit flipped.
    pub corrupted: Counter,
}

/// The wire-chaos state machine: per-frame impairment draws plus the
/// buffer of delayed (reordered) frames awaiting their due slot.
#[derive(Debug, Clone)]
pub struct WireChaos {
    cfg: ChaosConfig,
    script: ChaosScript,
    rng: DetRng,
    /// Delayed frames as `(due_slot, admission_seq, bytes)`, kept sorted
    /// so release order is total and deterministic.
    delayed: Vec<(u64, u64, Vec<u8>)>,
    seq: u64,
    metrics: ChaosMetrics,
}

impl WireChaos {
    /// A chaos layer with the given impairment config and blackout
    /// script.
    pub fn new(cfg: ChaosConfig, script: ChaosScript) -> Self {
        WireChaos {
            rng: DetRng::new(cfg.seed ^ 0x51DE_C4A0),
            cfg,
            script,
            delayed: Vec::new(),
            seq: 0,
            metrics: ChaosMetrics::default(),
        }
    }

    /// What the layer has done so far.
    pub fn metrics(&self) -> &ChaosMetrics {
        &self.metrics
    }

    /// Frames currently held for later delivery.
    #[cfg(test)]
    pub fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// Offer one frame arriving at `slot`; whatever survives for
    /// *immediate* delivery is appended to `out` (zero, one, or two
    /// copies). Delayed frames surface through
    /// [`WireChaos::release_due`] on a later slot.
    pub fn offer(&mut self, slot: u64, frame: &[u8], out: &mut Vec<Vec<u8>>) {
        self.metrics.offered.incr();
        if self.script.blacked_out(slot) {
            // Scripted outage: no RNG consumed (see module docs).
            self.metrics.blacked_out.incr();
            return;
        }
        // Fixed draw order per frame: loss, duplicate, reorder, corrupt.
        let lose = self.rng.gen_bool(self.cfg.loss);
        let dup = self.rng.gen_bool(self.cfg.duplicate);
        let delay = self.rng.gen_bool(self.cfg.reorder);
        let corrupt = self.rng.gen_bool(self.cfg.corrupt);
        if lose {
            self.metrics.dropped.incr();
            return;
        }
        let mut bytes = frame.to_vec();
        if corrupt && !bytes.is_empty() {
            let bit = self.rng.gen_range(0..bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.metrics.corrupted.incr();
        }
        if delay {
            let by = self.rng.gen_range(1..=self.cfg.max_delay_slots.max(1));
            self.metrics.delayed.incr();
            let due = slot.saturating_add(by);
            let key = (due, self.seq);
            let at = self.delayed.partition_point(|&(d, s, _)| (d, s) <= key);
            self.delayed.insert(at, (due, self.seq, bytes));
            self.seq += 1;
            return;
        }
        if dup {
            self.metrics.duplicated.incr();
            out.push(bytes.clone());
        }
        out.push(bytes);
    }

    /// Release every delayed frame due at or before `slot` into `out`,
    /// oldest due slot first (ties by offer order). Call once per slot
    /// *before* offering that slot's fresh arrivals, so reordered
    /// traffic stays older-first.
    pub fn release_due(&mut self, slot: u64, out: &mut Vec<Vec<u8>>) {
        let n = self.delayed.partition_point(|&(due, _, _)| due <= slot);
        for (_, _, bytes) in self.delayed.drain(..n) {
            out.push(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Header, PacketKind};

    fn frame(link: u16, seq: u32) -> Vec<u8> {
        Header {
            kind: PacketKind::Data,
            link,
            seq,
            len: 0,
            budget_us: 0,
        }
        .encode(b"payload")
    }

    #[test]
    fn zero_probability_chaos_is_a_passthrough() {
        let mut ch = WireChaos::new(ChaosConfig::default(), ChaosScript::new());
        let mut out = Vec::new();
        for s in 0..50 {
            ch.release_due(s, &mut out);
            ch.offer(s, &frame(1, s as u32), &mut out);
        }
        assert_eq!(out.len(), 50);
        assert_eq!(ch.metrics().offered.get(), 50);
        assert_eq!(ch.metrics().dropped.get(), 0);
        assert_eq!(ch.pending_delayed(), 0);
    }

    #[test]
    fn blackout_swallows_without_consuming_randomness() {
        let script = ChaosScript::new().blackout(10, 5);
        assert!(!script.blacked_out(9));
        assert!(script.blacked_out(10));
        assert!(script.blacked_out(14));
        assert!(!script.blacked_out(15));
        // Two runs that differ only in blacked-out traffic mangle the
        // surviving frames identically.
        let cfg = ChaosConfig::uniform(7, 0.3);
        let mut a = WireChaos::new(cfg, script.clone());
        let mut b = WireChaos::new(cfg, ChaosScript::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for s in 0..30u64 {
            if script.blacked_out(s) {
                a.offer(s, &frame(1, s as u32), &mut out_a); // swallowed
            } else {
                a.offer(s, &frame(1, s as u32), &mut out_a);
                b.offer(s, &frame(1, s as u32), &mut out_b);
            }
        }
        assert_eq!(a.metrics().blacked_out.get(), 5);
        // Frames outside the windows met the same RNG stream.
        let survivors_a: Vec<_> = out_a.iter().collect();
        let survivors_b: Vec<_> = out_b.iter().collect();
        assert_eq!(survivors_a, survivors_b);
    }

    #[test]
    fn replay_is_bit_identical() {
        let cfg = ChaosConfig::uniform(99, 0.25);
        let script = ChaosScript::chaos(5, 200, 3, 6);
        let run = |mut ch: WireChaos| {
            let mut out = Vec::new();
            for s in 0..200u64 {
                ch.release_due(s, &mut out);
                ch.offer(s, &frame(2, s as u32), &mut out);
            }
            (out, ch.metrics().clone())
        };
        let (out_a, m_a) = run(WireChaos::new(cfg, script.clone()));
        let (out_b, m_b) = run(WireChaos::new(cfg, script));
        assert_eq!(out_a, out_b, "same seed+script ⇒ same bytes");
        assert_eq!(m_a, m_b);
        assert!(m_a.dropped.get() > 0, "chaos at p=0.25 actually fires");
    }

    #[test]
    fn delayed_frames_release_in_due_order() {
        let cfg = ChaosConfig {
            seed: 3,
            reorder: 1.0, // every frame is delayed
            max_delay_slots: 3,
            ..ChaosConfig::default()
        };
        let mut ch = WireChaos::new(cfg, ChaosScript::new());
        let mut out = Vec::new();
        for s in 0..5u64 {
            ch.offer(s, &frame(1, s as u32), &mut out);
        }
        assert!(out.is_empty(), "everything was delayed");
        assert_eq!(ch.pending_delayed(), 5);
        let mut released = Vec::new();
        for s in 0..20u64 {
            ch.release_due(s, &mut released);
        }
        assert_eq!(released.len(), 5, "nothing is lost to reordering");
        assert_eq!(ch.pending_delayed(), 0);
        // Each released frame decodes: reordering never corrupts.
        for f in &released {
            Header::decode(f).expect("delayed frames stay intact");
        }
    }

    #[test]
    fn corruption_is_rejected_by_the_wire_crc() {
        let cfg = ChaosConfig {
            seed: 11,
            corrupt: 1.0,
            ..ChaosConfig::default()
        };
        let mut ch = WireChaos::new(cfg, ChaosScript::new());
        let mut out = Vec::new();
        for s in 0..64u64 {
            ch.offer(s, &frame(1, s as u32), &mut out);
        }
        assert_eq!(ch.metrics().corrupted.get(), 64);
        let rejected = out.iter().filter(|f| Header::decode(f).is_err()).count();
        // A single flipped bit must be caught by magic/version/CRC/length
        // checks except in the payload, where it changes bytes silently —
        // but never panics. Most flips land in a guarded region.
        assert!(rejected > 0, "bit flips trip the decoder");
        for f in &out {
            let _ = Header::decode(f); // must never panic
        }
    }

    #[test]
    fn scripted_chaos_is_reproducible() {
        let a = ChaosScript::chaos(42, 1_000, 4, 10);
        let b = ChaosScript::chaos(42, 1_000, 4, 10);
        assert_eq!(a, b);
        assert_eq!(a.windows().len(), 4);
        assert_ne!(a, ChaosScript::chaos(43, 1_000, 4, 10));
    }
}
