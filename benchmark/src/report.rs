//! Metric names, units and bounds, and how results are printed.
//!
//! The tables below are the harness's copy of what `BENCHMARK.json`
//! declares; `tests/harness.rs` fails when the two differ.

/// End-to-end metrics: `(name, unit, bound)`. The bound is the share of
/// the parent's median a metric may worsen by before a change counts as
/// a regression; the noise self-check inside one run is phrased in terms
/// of it too. The two timing bounds sit at the contract's cap because of
/// this box's measured noise floor (README, "Noise").
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("sim_rate", "sim_s/s", 0.25),
    ("peak_rss_mib", "MiB", 0.08),
    ("setup_s", "s", 0.25),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (repeats for a median, ops for a replay,
    /// 1 for a single reading or an exact count).
    pub samples: u64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one invocation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output was checked and none was wrong.
    pub correct: bool,
    /// World runs attempted.
    pub attempted: u64,
    /// World runs that panicked, diverged from the reference fingerprint
    /// or broke a conservation check.
    pub failed: u64,
    /// The metrics of the result line: end-to-end ones untraced, per-layer
    /// ones traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// JSON number for `v`: Rust's shortest round-trip form, which is valid
/// JSON for every finite value. Non-finite values have no JSON form and
/// mean the harness divided by zero somewhere — fail loudly.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints notes, one line per metric, then the result line (last).
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!(
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.result_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s", 3)],
            notes: Vec::new(),
        };
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
