//! Streaming moment statistics (Welford's online algorithm).

use std::fmt;

/// Streaming mean / variance / min / max over `f64` observations.
///
/// Numerically stable (Welford), mergeable (parallel variance formula), and
/// serializable for experiment reports.
///
/// ```
/// use mtnet_metrics::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] { s.record(x); }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from an iterator of observations.
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }

    /// Records one observation. Non-finite values are ignored (and counted
    /// nowhere) so a single corrupt sample cannot poison a report.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample variance (divides by `n - 1`); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean; 0 when fewer than 2 samples.
    fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Student-t 95% confidence half-width for the mean: the standard
    /// error times t₀.₉₇₅ at `n − 1` degrees of freedom; 0 when fewer than
    /// 2 samples. Replications are few (2–3 per arm), where the normal
    /// z = 1.96 would understate the interval 2.2× (n = 3) to 6.5× (n = 2).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            t975(self.count - 1) * self.std_error()
        }
    }

    /// Merges another summary into this one (order-independent result).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
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

/// Two-sided 95% Student-t quantile t₀.₉₇₅ at `df ≥ 1` degrees of
/// freedom: the exact table up to 30, the two-term Cornish–Fisher
/// expansion about z₀.₉₇₅ above it (within 1e-4 of the exact value at
/// df = 31, tighter beyond).
fn t975(df: u64) -> f64 {
    const EXACT: [f64; 30] = [
        12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157,
        2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922,
        2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831,
        2.048407, 2.045230, 2.042272,
    ];
    const Z: f64 = 1.959_963_984_540_054;
    if df <= 30 {
        return EXACT[df as usize - 1];
    }
    let nu = df as f64;
    let (z3, z5) = (Z.powi(3), Z.powi(5));
    Z + (z3 + Z) / (4.0 * nu) + (5.0 * z5 + 16.0 * z3 + 3.0 * Z) / (96.0 * nu * nu)
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.count,
                self.mean(),
                self.sample_std_dev(),
                self.min,
                self.max
            )
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn known_moments() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_iter([3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let whole = Summary::from_iter(data.iter().copied());
        let mut a = Summary::from_iter(data[..400].iter().copied());
        let b = Summary::from_iter(data[400..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_iter([1.0, 2.0]);
        let before = format!("{s}");
        s.merge(&Summary::new());
        assert_eq!(format!("{s}"), before);

        let mut empty = Summary::new();
        empty.merge(&Summary::from_iter([1.0, 2.0]));
        assert_eq!(empty.mean(), 1.5);
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let small = Summary::from_iter((0..10).map(|i| i as f64));
        let large = Summary::from_iter((0..1000).map(|i| (i % 10) as f64));
        assert!(large.std_error() < small.std_error());
    }

    #[test]
    fn ci95_uses_the_student_t_quantile() {
        // n samples → n − 1 degrees of freedom; a million samples is the
        // normal limit.
        for (n, t) in [(2, 12.706), (3, 4.303), (30, 2.045), (1_000_000, 1.960)] {
            let s = Summary::from_iter((0..n).map(|i| f64::from(i % 7)));
            let factor = s.ci95_half_width() / s.std_error();
            assert!(
                (factor - t).abs() < 1e-3,
                "n = {n}: factor {factor}, want {t}"
            );
        }
        // The expansion takes over seamlessly past the table.
        assert!((t975(31) - 2.039513).abs() < 1e-4);
        assert!(t975(31) < t975(30));
    }

    #[test]
    fn extend_trait() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(Summary::new().to_string(), "n=0");
        assert!(Summary::from_iter([1.0]).to_string().contains("n=1"));
    }
}
