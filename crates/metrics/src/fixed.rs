//! Fixed-bucket histogram: constant memory, O(1) record, exact merge.
//!
//! [`Histogram`](crate::Histogram) sizes itself to the recorded range
//! (log-scale buckets, allocated lazily per order of magnitude), which is
//! the right trade for one tracker. A metro-scale world records hundreds
//! of millions of latency samples into **one** world-level accumulator —
//! there the shape must be fixed up front: a flat bucket table allocated
//! once whose footprint never changes no matter how many samples stream
//! through, so the world's metric state stays O(1) in both events and
//! subscribers.
//!
//! Buckets are uniform over `[0, upper)` with the overflow policies
//! folded into the edges: negatives clamp into the first bucket,
//! `>= upper` into the last. Percentiles interpolate within a bucket, so
//! resolution is `upper / N` — pick the range to match the quantity
//! (e.g. 0–2048 ms in 1-ms steps for one-way delay).

/// Number of uniform buckets, allocated once at construction.
const BUCKETS: usize = 2048;

/// A constant-memory uniform-bucket histogram over `[0, upper)`.
#[derive(Debug, Clone)]
pub struct FixedHistogram {
    upper: f64,
    count: u64,
    buckets: Vec<u64>,
}

impl FixedHistogram {
    /// Creates a histogram over `[0, upper)`; resolution is
    /// `upper / 2048`.
    ///
    /// # Panics
    ///
    /// Panics unless `upper` is finite and positive.
    pub fn new(upper: f64) -> Self {
        assert!(
            upper.is_finite() && upper > 0.0,
            "FixedHistogram upper bound must be finite and positive, got {upper}"
        );
        FixedHistogram {
            upper,
            count: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Records one value. Values below zero clamp into the first bucket,
    /// values at or above the upper bound into the last.
    #[inline]
    pub fn record(&mut self, value: f64) {
        let idx = ((value / self.upper * BUCKETS as f64) as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (0–100), linearly interpolated inside the
    /// bucket it lands in; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let within = (rank - seen) as f64 / n as f64;
                let width = self.upper / BUCKETS as f64;
                return Some((i as f64 + within) * width);
            }
            seen += n;
        }
        Some(self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_footprint_and_exact_count() {
        let mut h = FixedHistogram::new(2000.0);
        let before = h.buckets.len();
        for i in 0..100_000u64 {
            h.record((i % 3000) as f64);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.buckets.len(), before, "bucket table never grows");
        assert_eq!(h.upper, 2000.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut h = FixedHistogram::new(100.0);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((p50 - 50.0).abs() < 1.0, "p50 {p50}");
        let p95 = h.percentile(95.0).unwrap();
        assert!((p95 - 95.0).abs() < 1.0, "p95 {p95}");
        assert_eq!(FixedHistogram::new(1.0).percentile(50.0), None);
        assert_eq!(FixedHistogram::new(1.0).count(), 0);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = FixedHistogram::new(10.0);
        h.record(-5.0);
        h.record(1e12);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets[0], 1, "negative folded into first bucket");
        assert_eq!(
            h.buckets[BUCKETS - 1],
            1,
            "overflow folded into last bucket"
        );
    }
}
