//! Cross-replication aggregation of named scalar metrics.

use crate::Summary;
use std::fmt;

/// Aggregates named scalar metrics across independent replications.
///
/// Each replication contributes one observation per metric name; the
/// collector keeps a mergeable [`Summary`] per name, in first-insertion
/// order (so experiment tables render columns in the order the harness
/// recorded them, not alphabetically).
///
/// ```
/// use mtnet_metrics::Replicates;
/// let mut agg = Replicates::new();
/// for loss in [0.010, 0.014, 0.012] {
///     agg.record("loss", loss); // one replication each
/// }
/// assert_eq!(agg.get("loss").unwrap().count(), 3);
/// assert!((agg.get("loss").unwrap().mean() - 0.012).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Replicates {
    metrics: Vec<(String, Summary)>,
}

impl Replicates {
    /// An empty collector.
    pub fn new() -> Self {
        Replicates::default()
    }

    /// Records one replication's observation of `name`.
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some((_, s)) = self.metrics.iter_mut().find(|(n, _)| n == name) {
            s.record(value);
        } else {
            let mut s = Summary::new();
            s.record(value);
            self.metrics.push((name.to_string(), s));
        }
    }

    /// The cross-replication summary for `name`, if any was recorded.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

impl fmt::Display for Replicates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name}: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_name() {
        let mut r = Replicates::new();
        r.record("loss", 0.1);
        r.record("loss", 0.3);
        r.record("delay", 40.0);
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.get("loss").unwrap().count(), 2);
        assert!((r.get("loss").unwrap().mean() - 0.2).abs() < 1e-12);
        assert_eq!(r.get("delay").unwrap().mean(), 40.0);
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn preserves_insertion_order() {
        let mut r = Replicates::new();
        for name in ["z", "a", "m"] {
            r.record(name, 1.0);
        }
        let text = r.to_string();
        let order: Vec<&str> = text.lines().filter_map(|l| l.split(':').next()).collect();
        assert_eq!(order, ["z", "a", "m"]);
    }

    #[test]
    fn display_lists_metrics() {
        let mut r = Replicates::new();
        r.record("loss", 0.5);
        let text = r.to_string();
        assert!(text.contains("loss"), "{text}");
        assert!(text.contains("n=1"), "{text}");
        assert!(Replicates::new().to_string().is_empty());
    }
}
