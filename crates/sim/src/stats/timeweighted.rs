//! Time-weighted averages of piecewise-constant signals.
//!
//! Used for metrics like "mean queue depth" or "link busy fraction", where a
//! value holds over an interval of simulated time rather than occurring at a
//! point.

use crate::time::SimTime;

/// Integrates a piecewise-constant signal over simulated time.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the value is
/// assumed to hold from that instant until the next change (or until
/// [`TimeWeighted::mean_until`] is read).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A fresh integrator; the signal starts when `set` is first called.
    pub fn new() -> Self {
        TimeWeighted {
            start: SimTime::ZERO,
            last_t: SimTime::ZERO,
            last_v: 0.0,
            integral: 0.0,
            max: f64::NEG_INFINITY,
            started: false,
        }
    }

    /// Declare the signal value `v` from instant `t` onward.
    ///
    /// # Panics
    /// Panics in debug builds if `t` precedes the previous change.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if self.started {
            debug_assert!(t >= self.last_t, "time went backwards");
            let dt = t.since(self.last_t).as_ps() as f64;
            self.integral += self.last_v * dt;
        } else {
            self.start = t;
            self.started = true;
        }
        self.last_t = t;
        self.last_v = v;
        self.max = self.max.max(v);
    }

    /// Add `delta` to the current signal value at instant `t`
    /// (convenience for gauge-style metrics such as queue depth).
    pub fn adjust(&mut self, t: SimTime, delta: f64) {
        let v = if self.started { self.last_v } else { 0.0 };
        self.set(t, v + delta);
    }

    /// Current (most recently set) value of the signal.
    pub fn current(&self) -> f64 {
        if self.started {
            self.last_v
        } else {
            0.0
        }
    }

    /// Largest value the signal has taken.
    pub fn max(&self) -> Option<f64> {
        self.started.then_some(self.max)
    }

    /// Time-weighted mean over `[first set, until]`.
    ///
    /// Returns `None` if the signal never changed or the window is empty.
    pub fn mean_until(&self, until: SimTime) -> Option<f64> {
        if !self.started || until <= self.start {
            return None;
        }
        debug_assert!(until >= self.last_t);
        let tail = until.since(self.last_t).as_ps() as f64;
        let total = until.since(self.start).as_ps() as f64;
        Some((self.integral + self.last_v * tail) / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_mean_is_value() {
        let mut w = TimeWeighted::new();
        w.set(SimTime::from_ns(10), 3.0);
        assert_eq!(w.mean_until(SimTime::from_ns(20)), Some(3.0));
    }

    #[test]
    fn step_signal_weights_by_duration() {
        let mut w = TimeWeighted::new();
        w.set(SimTime::from_ns(0), 1.0); // 1.0 for 10 ns
        w.set(SimTime::from_ns(10), 5.0); // 5.0 for 30 ns
        let m = w.mean_until(SimTime::from_ns(40)).unwrap();
        assert!((m - 4.0).abs() < 1e-12, "mean {m}");
        assert_eq!(w.max(), Some(5.0));
        assert_eq!(w.current(), 5.0);
    }

    #[test]
    fn adjust_acts_as_gauge() {
        let mut w = TimeWeighted::new();
        w.adjust(SimTime::from_ns(0), 2.0); // depth 2
        w.adjust(SimTime::from_ns(5), 1.0); // depth 3
        w.adjust(SimTime::from_ns(10), -3.0); // depth 0
        let m = w.mean_until(SimTime::from_ns(20)).unwrap();
        // (2*5 + 3*5 + 0*10)/20 = 25/20
        assert!((m - 1.25).abs() < 1e-12);
    }

    #[test]
    fn unstarted_signal_has_no_stats() {
        let w = TimeWeighted::new();
        assert_eq!(w.mean_until(SimTime::from_ns(100)), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.current(), 0.0);
    }

    #[test]
    fn empty_window_is_none() {
        let mut w = TimeWeighted::new();
        w.set(SimTime::from_ns(10), 1.0);
        assert_eq!(w.mean_until(SimTime::from_ns(10)), None);
    }

    #[test]
    fn repeated_set_at_same_instant_takes_last() {
        let mut w = TimeWeighted::new();
        w.set(SimTime::from_ns(0), 1.0);
        w.set(SimTime::from_ns(0), 9.0);
        assert_eq!(w.mean_until(SimTime::from_ns(10)), Some(9.0));
    }
}
