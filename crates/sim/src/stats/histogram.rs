//! Log-linear bucketed histogram with quantile estimation.
//!
//! The layout follows the HdrHistogram idea: values are grouped into
//! "octaves" (powers of two); each octave is split into `2^precision`
//! linear sub-buckets. Relative quantile error is therefore bounded by
//! `2^-precision`, independent of the value range, at O(64 · 2^precision)
//! memory — ideal for latency distributions that span ns..ms.

/// A streaming histogram over `u64` values (typically picoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    precision: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with the given sub-bucket precision (1..=8).
    ///
    /// Precision `p` bounds relative quantile error by `2^-p`
    /// (e.g. `p = 5` → ≤ 3.1 %).
    pub fn new(precision: u32) -> Self {
        assert!((1..=8).contains(&precision), "precision must be in 1..=8");
        let sub = 1usize << precision;
        Histogram {
            precision,
            // one linear region for values < 2^precision, then one octave of
            // `sub` buckets for each further power of two up to 2^64.
            buckets: vec![0; sub * (64 - precision as usize + 1)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default precision suitable for latency metrics (≤ 1.6 % error).
    pub fn for_latency() -> Self {
        Histogram::new(6)
    }

    #[inline]
    fn bucket_index(&self, value: u64) -> usize {
        let p = self.precision;
        let sub = 1u64 << p;
        if value < sub {
            return value as usize;
        }
        // The octave is determined by the position of the highest set bit.
        let msb = 63 - value.leading_zeros(); // >= p here
        let octave = (msb - p + 1) as u64;
        let offset = (value >> (msb - p)) - sub; // top p+1 bits, minus leading 1
        (octave * sub + offset) as usize
    }

    /// Lowest value that maps to bucket `idx` (inverse of `bucket_index`).
    fn bucket_low(&self, idx: usize) -> u64 {
        let p = self.precision as u64;
        let sub = 1u64 << p;
        let idx = idx as u64;
        if idx < sub {
            return idx;
        }
        let octave = (idx - sub) / sub + 1;
        let offset = (idx - sub) % sub;
        (sub + offset) << (octave - 1)
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bucket_index(value);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded count.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Value at quantile `q` in `[0, 1]`, within the relative error bound.
    ///
    /// Returns the lower edge of the bucket containing the `⌈q·count⌉`-th
    /// value, clamped to the exact observed min/max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        // ccr-verify: allow(time-cast) -- q is asserted in [0, 1] above, so the product is bounded by count; this is a rank, not a time value
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_low(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (q = 0.5).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Merge another histogram of the same precision into this one.
    ///
    /// # Panics
    /// Panics if precisions differ.
    #[cfg(test)]
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.count == 0 {
            self.min = u64::MAX;
            self.max = 0;
        }
    }

    /// Iterate non-empty buckets as `(lower_edge, count)`.
    #[cfg(test)]
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_low_roundtrip_brackets_value() {
        let h = Histogram::new(5);
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            65_535,
            1 << 40,
            u64::MAX / 3,
        ] {
            let idx = h.bucket_index(v);
            let low = h.bucket_low(idx);
            assert!(low <= v, "low {low} > value {v}");
            // next bucket's low edge must exceed v
            let next_low = h.bucket_low(idx + 1);
            assert!(v < next_low, "value {v} >= next bucket edge {next_low}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new(5);
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.quantile(q), Some(v));
        }
    }

    #[test]
    fn quantile_error_bounded() {
        let mut h = Histogram::new(6);
        // 1..=10_000 uniformly
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - exact as f64).abs() / exact as f64;
            assert!(rel <= 1.0 / 64.0 + 1e-9, "q={q}: est {est}, rel err {rel}");
        }
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = Histogram::for_latency();
        for v in [10u64, 20, 30, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1_000_000));
        assert!((h.mean().unwrap() - 250_015.0).abs() < 1e-9);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = Histogram::new(4);
        let mut b = Histogram::new(4);
        a.record_n(77, 5);
        for _ in 0..5 {
            b.record(77);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        a.record_n(99, 0);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new(5);
        let mut b = Histogram::new(5);
        (0..100u64).for_each(|v| a.record(v * 3));
        (0..100u64).for_each(|v| b.record(v * 7));
        let mut whole = Histogram::new(5);
        (0..100u64).for_each(|v| whole.record(v * 3));
        (0..100u64).for_each(|v| whole.record(v * 7));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.quantile(0.9), whole.quantile(0.9));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(3);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_zero_rejected() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new(8);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(0));
        assert!(h.quantile(1.0).unwrap() >= h.quantile(0.01).unwrap());
    }

    #[test]
    fn nonzero_buckets_cover_all_counts() {
        let mut h = Histogram::new(5);
        for v in [1u64, 1, 5, 1000, 123456] {
            h.record(v);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }
}
