//! The sim-time ↔ wall-time bridge.
//!
//! The DES core is a pure function of its inputs; wall time only exists
//! at the very edge, in this module and the UDP backend. A [`WallClock`]
//! pins a wall-clock epoch to fabric slot 0 and converts monotonic
//! elapsed time into a *slot index* — the only unit the deterministic
//! core accepts. Datagrams arriving mid-slot are quantised to the slot
//! boundary they will be injected at, exactly like the loopback
//! backend's slot-indexed schedule, so a recorded UDP session replays
//! bit-identically through [`LoopbackBackend`].
//!
//! [`LoopbackBackend`]: crate::loopback::LoopbackBackend
//!
//! Everything here is intentionally outside the workspace determinism
//! sweep (see `ccr-verify`'s `det_exempt` list): `Instant::now` and
//! `sleep` are its whole point.

use std::time::{Duration, Instant};

use ccr_sim::TimeDelta;

/// A wall-clock epoch mapped onto the fabric's slot grid.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
    slot: Duration,
}

impl WallClock {
    /// A clock whose slot 0 starts now, with one fabric slot lasting
    /// `slot` of sim time scaled by `dilation` (a dilation of 1000 runs
    /// the wall edge 1000× slower than the simulated fibre — useful
    /// because a µs-scale MAC slot is far below scheduler granularity).
    ///
    /// # Panics
    /// `slot` and `dilation` must be non-zero.
    pub fn new(slot: TimeDelta, dilation: u64) -> Self {
        assert!(slot > TimeDelta::ZERO, "wall clock needs a slot length");
        assert!(dilation > 0, "dilation must be at least 1");
        let nanos = (slot.as_ps() / 1_000).max(1) * dilation;
        WallClock {
            epoch: Instant::now(),
            slot: Duration::from_nanos(nanos),
        }
    }

    /// The slot index the wall clock is currently inside.
    pub fn slot_now(&self) -> u64 {
        let elapsed = self.epoch.elapsed();
        (elapsed.as_nanos() / self.slot.as_nanos().max(1)) as u64
    }

    /// Sleep until the start of slot `s` (no-op if already past it).
    /// Returns the *lateness*: how far past the slot boundary the wall
    /// clock stands once this call returns — scheduler wake-up jitter
    /// when we slept, accumulated drift when the driver is behind. The
    /// UDP backend aggregates these into its jitter statistics.
    pub fn sleep_until_slot(&self, s: u64) -> Duration {
        let target = Duration::from_nanos((self.slot.as_nanos() as u64).saturating_mul(s));
        let elapsed = self.epoch.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
        self.epoch.elapsed().saturating_sub(target)
    }
}

/// Wall-clock pacing jitter over one run: how late the driver crossed
/// each slot boundary, in nanoseconds. Built by the UDP backend from
/// [`WallClock::sleep_until_slot`] lateness samples; an idle, dilated
/// edge should hold p99 well under one wall slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitterStats {
    /// Lateness samples aggregated (= slots driven).
    pub samples: u64,
    /// Median lateness in ns.
    pub p50_ns: u64,
    /// 99th-percentile lateness in ns.
    pub p99_ns: u64,
    /// Worst lateness in ns.
    pub max_ns: u64,
}

impl JitterStats {
    /// Aggregate raw lateness samples (ns). Sorts in place; the empty
    /// set yields all zeros.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return JitterStats::default();
        }
        samples.sort_unstable();
        let pick = |q_num: u64, q_den: u64| {
            let rank = ((samples.len() as u64 - 1) * q_num) / q_den;
            samples[rank as usize]
        };
        JitterStats {
            samples: samples.len() as u64,
            p50_ns: pick(1, 2),
            p99_ns: pick(99, 100),
            max_ns: samples[samples.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_advance_with_wall_time() {
        // A generous slot keeps this robust on loaded CI machines.
        let clock = WallClock::new(TimeDelta::from_us(1), 2_000); // 2 ms wall
        let s0 = clock.slot_now();
        let late = clock.sleep_until_slot(s0 + 2);
        assert!(clock.slot_now() >= s0 + 2);
        // Lateness is bounded by how long the whole test may stall, but
        // it is always a real measurement, not a sentinel.
        assert!(late < Duration::from_secs(10));
    }

    #[test]
    fn jitter_stats_pick_the_right_ranks() {
        let mut s: Vec<u64> = (1..=100).rev().collect(); // 100..1 reversed
        let j = JitterStats::from_samples(&mut s);
        assert_eq!(j.samples, 100);
        assert_eq!(j.p50_ns, 50, "rank 49 of 1..=100 sorted");
        assert_eq!(j.p99_ns, 99);
        assert_eq!(j.max_ns, 100);
        assert_eq!(JitterStats::from_samples(&mut []), JitterStats::default());
    }
}
