//! Measurement primitives: counters, running means, and log2 histograms.
//!
//! Everything the benchmark harness reports is accumulated through these
//! types, so they are deliberately tiny and allocation-free on the hot
//! path.

/// A saturating event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Running mean/min/max over `u64` samples (e.g. miss latencies).
#[derive(Debug, Clone, Copy, Default)]
pub struct Running {
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Running {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.n += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Smallest sample, or `None` when no sample has been recorded.
    /// (A bare 0 would be indistinguishable from a real 0-valued
    /// sample.)
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when no sample has been recorded.
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram for latency distributions.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))`, with bucket 0 holding
/// `{0, 1}`.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 40],
    running: Running,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self { buckets: [0; 40], running: Running::default() }
    }
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.max(1).leading_zeros() - 1).min(39) as usize;
        self.buckets[b] += 1;
        self.running.record(v);
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Summary statistics over all recorded samples.
    pub fn summary(&self) -> &Running {
        &self.running
    }

    /// Approximate p-th percentile (`p` in `[0,100]`) from bucket
    /// boundaries; exact enough for reporting tail latencies.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.running.count();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return 1u64 << i;
            }
        }
        self.running.max().unwrap_or(0)
    }

    /// Number of buckets (`record` clamps everything above `2^39` into
    /// the last one).
    pub const BUCKETS: usize = 40;

    /// Inclusive lower bound of bucket `i` (`0` for bucket 0, else
    /// `2^i`).
    pub fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i.min(63)
        }
    }

    /// Iterates `(bucket index, count)` over non-empty buckets, in
    /// ascending index order (deterministic export order).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate().filter(|&(_, c)| c > 0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (i, c) in other.nonzero_buckets() {
            self.buckets[i] = self.buckets[i].saturating_add(c);
        }
        self.running.merge(&other.running);
    }
}

impl crate::snap::Snap for Counter {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        Ok(Counter(r.u64()?))
    }
}

crate::impl_snap!(Running { n, sum, min, max });

crate::impl_snap!(Log2Hist { buckets, running });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn running_mean_min_max() {
        let mut r = Running::default();
        for v in [4u64, 8, 12] {
            r.record(v);
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.min(), Some(4));
        assert_eq!(r.max(), Some(12));
        assert!((r.mean() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn running_empty_is_none_not_zero() {
        let r = Running::default();
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
        // A genuine 0 sample is distinguishable from "no samples".
        let mut r = Running::default();
        r.record(0);
        assert_eq!(r.min(), Some(0));
        assert_eq!(r.max(), Some(0));
    }

    #[test]
    fn running_merge() {
        let mut a = Running::default();
        a.record(1);
        a.record(3);
        let mut b = Running::default();
        b.record(10);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.min(), Some(1));
        let empty = Running::default();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn hist_buckets() {
        let mut h = Log2Hist::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1024
    }

    #[test]
    fn hist_percentile_monotone() {
        let mut h = Log2Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(90.0));
        assert!(h.percentile(90.0) <= h.percentile(100.0));
    }

    #[test]
    fn hist_empty_percentile_zero() {
        let h = Log2Hist::new();
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn hist_extreme_values() {
        let mut h = Log2Hist::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        // 0 and 1 share bucket 0; u64::MAX clamps into the last bucket.
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(Log2Hist::BUCKETS - 1), 1);
        assert_eq!(h.summary().count(), 3);
        assert_eq!(h.summary().min(), Some(0));
        assert_eq!(h.summary().max(), Some(u64::MAX));
        // Percentiles resolve to bucket lower bounds; the clamped tail
        // reports the final bucket's boundary, while the exact max stays
        // available through `summary()`.
        assert_eq!(h.percentile(100.0), 1u64 << 39);
    }

    #[test]
    fn hist_bucket_boundaries() {
        // Each power of two opens a new bucket; value 2^i-1 stays in
        // bucket i-1.
        for i in 1..Log2Hist::BUCKETS - 1 {
            let mut h = Log2Hist::new();
            let low = 1u64 << i;
            h.record(low - 1);
            h.record(low);
            assert_eq!(h.bucket(i - 1), 1, "2^{i}-1 belongs to bucket {}", i - 1);
            assert_eq!(h.bucket(i), 1, "2^{i} belongs to bucket {i}");
        }
        // Everything at or above 2^39 lands in the final bucket.
        let mut h = Log2Hist::new();
        h.record(1u64 << 39);
        h.record(1u64 << 40);
        assert_eq!(h.bucket(Log2Hist::BUCKETS - 1), 2);
        assert_eq!(Log2Hist::bucket_low(0), 0);
        assert_eq!(Log2Hist::bucket_low(10), 1024);
    }

    #[test]
    fn hist_merge_and_iteration() {
        let mut a = Log2Hist::new();
        a.record(3);
        let mut b = Log2Hist::new();
        b.record(3);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.summary().count(), 3);
        assert_eq!(a.bucket(1), 2);
        let nz: Vec<_> = a.nonzero_buckets().collect();
        assert_eq!(nz, vec![(1, 2), (9, 1)]);
    }
}
