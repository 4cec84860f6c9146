//! Single-pass moment summary (Welford's algorithm).

/// Streaming mean / variance / min / max over `f64` samples.
///
/// Uses Welford's numerically stable online update; merging two summaries
/// uses the parallel (Chan et al.) combination rule so partial results from
/// parallel experiment shards can be folded together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample (Bessel-corrected) variance; `None` for fewer than 2 samples.
    #[cfg(test)]
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation.
    #[cfg(test)]
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Fold another summary into this one (parallel combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nearly(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_summary_has_no_stats() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!(nearly(s.mean().unwrap(), 5.0));
        assert!(nearly(s.variance().unwrap(), 4.0));
        assert!(nearly(s.std_dev().unwrap(), 2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(nearly(s.sum(), 40.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.variance(), Some(0.0));
        assert_eq!(s.sample_variance(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));

        let mut left = Summary::new();
        let mut right = Summary::new();
        data[..41].iter().for_each(|&x| left.record(x));
        data[41..].iter().for_each(|&x| right.record(x));
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!(nearly(left.mean().unwrap(), whole.mean().unwrap()));
        assert!(nearly(left.variance().unwrap(), whole.variance().unwrap()));
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Summary::new();
        a.record(1.0);
        let b = Summary::new();
        let mut a2 = a.clone();
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c, a);
    }
}
