//! Named event counters.

/// A simple saturating event counter with rate helpers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub const fn get(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `denom` (0 when `denom` is 0).
    pub fn fraction_of(&self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 / denom as f64
        }
    }

    /// This counter as a fraction of another counter.
    pub fn fraction_of_counter(&self, denom: &Counter) -> f64 {
        self.fraction_of(denom.0)
    }

    /// Merge (sum) another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.add(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let mut c = Counter::new();
        c.incr();
        c.incr();
        c.add(3);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn fraction_handles_zero_denominator() {
        let mut c = Counter::new();
        c.add(10);
        assert_eq!(c.fraction_of(0), 0.0);
        assert_eq!(c.fraction_of(20), 0.5);
        let d = Counter::new();
        assert_eq!(c.fraction_of_counter(&d), 0.0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn merge_sums() {
        let mut a = Counter::new();
        a.add(2);
        let mut b = Counter::new();
        b.add(5);
        a.merge(&b);
        assert_eq!(a.get(), 7);
    }
}
