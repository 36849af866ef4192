//! Log-scale histogram with percentile queries.

use std::fmt;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets give
/// a worst-case quantization error of ~3%, plenty for latency reporting.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A histogram of non-negative integer values (latencies in ns, sizes in
/// bytes, hop counts, …) with logarithmic bucketing and bounded relative
/// error, in the spirit of HdrHistogram.
///
/// Values are grouped into power-of-two ranges, each split into
/// 32 linear sub-buckets, so relative quantization error is ≤ 1/32.
///
/// ```
/// use mtnet_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 { h.record(v); }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!((470..=530).contains(&p50), "p50 was {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Sparse bucket counts, indexed by encoded bucket id.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Encodes a value into its bucket index.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Values below 32 get exact (unit-width) buckets.
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let bucket = msb - SUB_BITS + 1; // which power-of-two range
            let sub = (value >> (bucket - 1)) as usize & (SUB_BUCKETS - 1);
            (bucket as usize + 1) * SUB_BUCKETS + sub - SUB_BUCKETS
        }
    }

    /// Representative (midpoint-ish upper bound) value for a bucket index —
    /// the largest value mapping to that bucket.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let bucket = (index / SUB_BUCKETS) as u32;
            let sub = (index % SUB_BUCKETS) as u64 + SUB_BUCKETS as u64;
            (sub << (bucket - 1)) + (1u64 << (bucket - 1)) - 1
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (sums are kept exactly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at or below which `pct` percent of observations fall
    /// (`0 < pct <= 100`), with ≤ ~3% relative quantization error.
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `(0, 100]`.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        assert!(pct > 0.0 && pct <= 100.0, "percentile out of range: {pct}");
        if self.count == 0 {
            return None;
        }
        let target = ((pct / 100.0) * self.count as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                // Clamp to true extrema so p100 == max exactly.
                return Some(Self::value_of(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "empty histogram");
        }
        write!(
            f,
            "n={} mean={:.1} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0).unwrap(),
            self.percentile(95.0).unwrap(),
            self.percentile(99.0).unwrap(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.to_string(), "empty histogram");
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        // Buckets below 32 are unit-width, so percentiles are exact.
        assert_eq!(h.percentile(100.0), Some(31));
        assert_eq!(h.min, 0);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        for exp in 0..50u32 {
            let v = 3u64 << exp >> 1; // assorted magnitudes
            let v = v.max(1);
            h.record(v);
            let idx = Histogram::index_of(v);
            let rep = Histogram::value_of(idx);
            assert!(rep >= v, "representative below value: {rep} < {v}");
            let err = (rep - v) as f64 / v as f64;
            assert!(err <= 1.0 / 16.0, "error {err} too large for {v}");
        }
    }

    #[test]
    fn index_value_round_trip_monotone() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1_000_000,
            u64::MAX / 2,
        ] {
            let idx = Histogram::index_of(v);
            assert!(idx >= last, "indices must be monotone in value");
            last = idx;
            // value_of(index_of(v)) must bound v from above.
            assert!(Histogram::value_of(idx) >= v);
        }
    }

    #[test]
    fn percentiles_on_uniform() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (pct, expect) in [(25.0, 2500u64), (50.0, 5000), (90.0, 9000), (99.0, 9900)] {
            let got = h.percentile(pct).unwrap() as f64;
            let err = (got - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "p{pct}: got {got}, want ~{expect}");
        }
        assert_eq!(h.percentile(100.0), Some(10_000));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10, 10, 10, 70] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 1..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 1..300u64 {
            b.record(v * 7);
            whole.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.percentile(50.0), whole.percentile(50.0));
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_zero_rejected() {
        let mut h = Histogram::new();
        h.record(1);
        h.percentile(0.0);
    }

    #[test]
    fn display_format() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.to_string();
        assert!(s.contains("n=100"), "{s}");
        assert!(s.contains("p95"), "{s}");
    }
}
