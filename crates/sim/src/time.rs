//! Simulation time at picosecond resolution.
//!
//! The CCR-EDF physical layer deals in quantities that differ by many orders
//! of magnitude — 2.5 ns bit times, 5 ns/m propagation delays, millisecond
//! message periods — so time is kept as an exact integer count of
//! picoseconds. A `u64` of picoseconds covers ~213 days of simulated time,
//! far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant on the simulation clock, in picoseconds since t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A non-negative span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a picosecond count.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from a nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from a microsecond count.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from a millisecond count.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Span from an earlier instant to this one.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> TimeDelta {
        debug_assert!(earlier <= self, "since() with a later instant");
        TimeDelta(self.0 - earlier.0)
    }

    /// Saturating difference: zero when `earlier` is after `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a span.
    #[inline]
    pub fn checked_add(self, d: TimeDelta) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a span: clamps to [`SimTime::MAX`]. An
    /// absolute deadline past the end of representable time reads as
    /// "effectively unbounded", which is the safe direction — it can only
    /// make admission stricter elsewhere, never fake an early deadline.
    #[inline]
    pub fn saturating_add(self, d: TimeDelta) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl TimeDelta {
    /// The empty span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable span.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        TimeDelta(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        TimeDelta(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        TimeDelta(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        TimeDelta(ms * PS_PER_MS)
    }

    /// Construct from fractional nanoseconds, rounding to the nearest ps.
    #[inline]
    #[cfg(test)]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0 && ns.is_finite());
        TimeDelta((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Checked construction from a fractional picosecond count: the one
    /// sanctioned `f64 → TimeDelta` conversion. Rejects NaN, infinities,
    /// negative values and values beyond `u64::MAX` picoseconds instead of
    /// letting an `as u64` cast silently wrap them to garbage.
    #[inline]
    pub fn try_from_ps_f64(ps: f64) -> Result<Self, TimeFromF64Error> {
        if ps.is_nan() {
            return Err(TimeFromF64Error::NaN);
        }
        if ps.is_infinite() {
            return Err(TimeFromF64Error::Infinite);
        }
        if ps < 0.0 {
            return Err(TimeFromF64Error::Negative(ps));
        }
        let rounded = ps.round();
        // u64::MAX as f64 rounds up to 2^64, which would wrap; compare
        // against the exactly-representable 2^64 instead.
        if rounded >= u64::MAX as f64 {
            return Err(TimeFromF64Error::Overflow(ps));
        }
        Ok(TimeDelta(rounded as u64))
    }

    /// Saturating construction from fractional picoseconds: negative (and
    /// NaN) inputs clamp to zero, values beyond the representable range
    /// clamp to [`TimeDelta::MAX`]. Use [`TimeDelta::try_from_ps_f64`]
    /// when the caller can report an error instead of clamping.
    #[inline]
    pub fn from_ps_f64_saturating(ps: f64) -> Self {
        match Self::try_from_ps_f64(ps) {
            Ok(d) => d,
            Err(TimeFromF64Error::Overflow(_) | TimeFromF64Error::Infinite) if ps > 0.0 => {
                TimeDelta::MAX
            }
            Err(_) => TimeDelta::ZERO,
        }
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Integer division of one span by another: how many whole `other`
    /// spans fit into `self`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    #[cfg(test)]
    pub fn div_delta(self, other: TimeDelta) -> u64 {
        self.0 / other.0
    }

    /// Ratio of this span to another as `f64`.
    #[inline]
    pub fn ratio(self, other: TimeDelta) -> f64 {
        self.0 as f64 / other.0 as f64
    }

    /// Multiply by an integer count.
    #[inline]
    pub const fn times(self, n: u64) -> TimeDelta {
        TimeDelta(self.0 * n)
    }
}

/// Why an `f64` could not be converted into a [`TimeDelta`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeFromF64Error {
    /// The input was NaN.
    NaN,
    /// The input was ±infinity.
    Infinite,
    /// The input was negative; holds the offending value.
    Negative(f64),
    /// The input exceeds `u64::MAX` picoseconds; holds the offending value.
    Overflow(f64),
}

impl fmt::Display for TimeFromF64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeFromF64Error::NaN => write!(f, "NaN is not a time span"),
            TimeFromF64Error::Infinite => write!(f, "infinite time span"),
            TimeFromF64Error::Negative(v) => write!(f, "negative time span ({v})"),
            TimeFromF64Error::Overflow(v) => {
                write!(f, "time span {v}ps exceeds u64::MAX picoseconds")
            }
        }
    }
}

impl std::error::Error for TimeFromF64Error {}

impl Add<TimeDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: TimeDelta) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: SimTime) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", TimeDelta(self.0))
    }
}

impl fmt::Display for TimeDelta {
    /// Human-friendly rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ps")
        } else if ps < PS_PER_NS {
            write!(f, "{ps}ps")
        } else if ps < PS_PER_US {
            write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
        } else if ps < PS_PER_MS {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps < PS_PER_S {
            write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
        } else {
            write!(f, "{:.3}s", ps as f64 / PS_PER_S as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_scale() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(TimeDelta::from_ms(2), TimeDelta::from_ps(2 * PS_PER_MS));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ns(10);
        let d = TimeDelta::from_ns(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut u = t;
        u += d;
        assert_eq!(u, t + d);
    }

    #[test]
    fn since_measures_span() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(12);
        assert_eq!(b.since(a), TimeDelta::from_ns(7));
        assert_eq!(a.saturating_since(b), TimeDelta::ZERO);
    }

    #[test]
    fn delta_division_counts_whole_units() {
        let slot = TimeDelta::from_ns(640);
        let horizon = TimeDelta::from_us(10);
        assert_eq!(horizon.div_delta(slot), 15); // 10_000 / 640 = 15.625
    }

    #[test]
    fn delta_ratio_is_exact_for_small_values() {
        let a = TimeDelta::from_ns(250);
        let b = TimeDelta::from_ns(1000);
        assert!((a.ratio(b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(TimeDelta::from_ps(500).to_string(), "500ps");
        assert_eq!(TimeDelta::from_ns(2).to_string(), "2.000ns");
        assert_eq!(TimeDelta::from_us(3).to_string(), "3.000us");
        assert_eq!(TimeDelta::from_ms(4).to_string(), "4.000ms");
        assert_eq!(TimeDelta::from_ps(0).to_string(), "0ps");
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(TimeDelta::from_ns_f64(2.5), TimeDelta::from_ps(2_500));
        assert_eq!(TimeDelta::from_ns_f64(0.0004), TimeDelta::from_ps(0));
        assert_eq!(TimeDelta::from_ns_f64(0.0006), TimeDelta::from_ps(1));
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = (1..=4).map(TimeDelta::from_ns).sum();
        assert_eq!(total, TimeDelta::from_ns(10));
    }

    #[test]
    fn try_from_ps_f64_accepts_normal_values() {
        assert_eq!(
            TimeDelta::try_from_ps_f64(2_500.4),
            Ok(TimeDelta::from_ps(2_500))
        );
        assert_eq!(TimeDelta::try_from_ps_f64(0.0), Ok(TimeDelta::ZERO));
        assert_eq!(TimeDelta::try_from_ps_f64(0.6), Ok(TimeDelta::from_ps(1)));
    }

    #[test]
    fn try_from_ps_f64_rejects_degenerate_values() {
        assert_eq!(
            TimeDelta::try_from_ps_f64(f64::NAN),
            Err(TimeFromF64Error::NaN)
        );
        assert_eq!(
            TimeDelta::try_from_ps_f64(f64::INFINITY),
            Err(TimeFromF64Error::Infinite)
        );
        assert!(matches!(
            TimeDelta::try_from_ps_f64(-1.0),
            Err(TimeFromF64Error::Negative(_))
        ));
        assert!(matches!(
            TimeDelta::try_from_ps_f64(2.0e19),
            Err(TimeFromF64Error::Overflow(_))
        ));
        // The boundary: u64::MAX itself is not exactly representable, so
        // anything that rounds to 2^64 must be rejected, not wrapped.
        assert!(matches!(
            TimeDelta::try_from_ps_f64(u64::MAX as f64),
            Err(TimeFromF64Error::Overflow(_))
        ));
    }

    #[test]
    fn from_ps_f64_saturating_clamps() {
        assert_eq!(TimeDelta::from_ps_f64_saturating(-5.0), TimeDelta::ZERO);
        assert_eq!(TimeDelta::from_ps_f64_saturating(f64::NAN), TimeDelta::ZERO);
        assert_eq!(TimeDelta::from_ps_f64_saturating(2.0e19), TimeDelta::MAX);
        assert_eq!(
            TimeDelta::from_ps_f64_saturating(f64::INFINITY),
            TimeDelta::MAX
        );
        assert_eq!(
            TimeDelta::from_ps_f64_saturating(123.0),
            TimeDelta::from_ps(123)
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(TimeDelta::from_ps(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(TimeDelta::from_ps(7)),
            Some(SimTime::from_ps(7))
        );
    }

    #[test]
    fn times_multiplies() {
        assert_eq!(TimeDelta::from_ns(3).times(4), TimeDelta::from_ns(12));
        assert_eq!(TimeDelta::from_ns(3) * 4, TimeDelta::from_ns(12));
        assert_eq!(TimeDelta::from_ns(12) / 4, TimeDelta::from_ns(3));
    }
}
