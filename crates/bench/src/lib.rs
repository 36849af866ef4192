//! # mtnet-bench — the experiment harness
//!
//! One runner per paper artifact (every figure of the evaluation-relevant
//! sections plus the two headline claims), shared by the `experiments`
//! binary (full-length runs, printed tables recorded in `EXPERIMENTS.md`)
//! and the tests and CI smokes (short Quick-effort runs).
//!
//! Every experiment's arms and replications are declarative
//! `mtnet_core::spec::ScenarioSpec`s (see [`experiments::Experiment`])
//! executed **concurrently** through `mtnet_sim::runner::BatchRunner`
//! ([`RunOptions::threads`]; 1 forces the sequential path), with per-run
//! sub-seeds derived from the `(experiment, architecture, replication)`
//! path via `mtnet_sim::rng::SeedTree` — so the printed tables are
//! byte-identical at any thread count.
//!
//! Beyond the fixed suite, the [`sweep`] module (and `sweep` binary)
//! expands axis grids over any spec key and resumes interrupted or
//! extended sweeps from the content-addressed [`store`]; the [`coord`]
//! module adds the crash-safe multi-worker layer (`sweep --workers N`
//! or standalone `--worker-id` processes on a shared store directory):
//! lease files with heartbeats, work-stealing reclaim of dead workers'
//! cells, and quarantine of cells that keep killing their owners.
//!
//! The fourteen experiments — id, paper artifact, arms, tables — are
//! declared once, in [`experiments::EXPERIMENTS`]; [`ALL_IDS`],
//! [`run_one`] and [`experiments::find`] are lookups into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod coord;
pub mod experiments;
pub mod fpdiff;
pub mod rss;
pub mod store;
pub mod sweep;

use mtnet_metrics::Table;

/// How long the simulated runs should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Short runs for tests and CI smokes.
    Quick,
    /// Full-length runs for the recorded experiment tables.
    Full,
}

impl Effort {
    /// Scales a full-length duration (seconds) to this effort level.
    pub fn secs(self, full: f64) -> f64 {
        match self {
            Effort::Quick => (full / 10.0).max(10.0),
            Effort::Full => full,
        }
    }
}

/// Independent replications per experiment arm for the headline
/// comparisons (E10/E11), at either effort. Every `(experiment,
/// architecture, replication)` tuple gets its own sub-seed (see
/// `mtnet_sim::rng::SeedTree`) and the replications run concurrently
/// through `mtnet_sim::runner::BatchRunner`; tables report mean ± 95% CI
/// across them.
pub const REPLICATIONS: u64 = 3;

/// How an experiment is run — what [`run_one`] and every runner take.
/// Nothing here changes a result: tables and fingerprints are
/// byte-identical at any `threads` and `shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Simulated run length.
    pub effort: Effort,
    /// Master seed every arm's seed path resolves against.
    pub seed: u64,
    /// Batch-runner pool width (`--threads`): 0 = one worker per core,
    /// 1 = the sequential path.
    pub threads: usize,
    /// `--shards N`: runs every arm at `N` intra-world shards instead of
    /// its spec's own count.
    pub shards: Option<u32>,
}

#[cfg(test)]
impl RunOptions {
    /// One worker per core, every arm at its spec's own shard count.
    fn new(effort: Effort, seed: u64) -> Self {
        RunOptions {
            effort,
            seed,
            threads: 0,
            shards: None,
        }
    }
}

/// One experiment's rendered output.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Experiment id ("E4").
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// One or more captioned tables.
    pub tables: Vec<(String, Table)>,
    /// Interpretation notes (expected shape, caveats).
    pub notes: &'static [&'static str],
    /// Deterministic work count: total simulator events executed across
    /// every run of the experiment (the sum of its fingerprints'
    /// `events=` lines), or — for E5, which runs no discrete-event
    /// simulation — the number of model operations performed. The
    /// `experiments` binary prints it on the per-experiment stderr line.
    pub events: u64,
    /// Bit-exact `SimReport::fingerprint` of every run, in submission
    /// order — the regression surface for "same results, faster" work
    /// (`experiments --fingerprints <path>` records them).
    pub fingerprints: Vec<String>,
}

impl ExperimentResult {
    /// Renders the whole experiment as text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for (caption, table) in &self.tables {
            let _ = writeln!(out, "\n{caption}");
            let _ = write!(out, "{table}");
        }
        for note in self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// This experiment's block of an `experiments --fingerprints` dump:
    /// per run, a `== <id> run <i> ==` header, its fingerprint and a blank
    /// line (the format [`fpdiff::first_divergence`] reads).
    pub fn fingerprint_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, fp) in self.fingerprints.iter().enumerate() {
            let _ = writeln!(out, "== {} run {i} ==\n{fp}", self.id);
        }
        out
    }
}

/// Every experiment id, in suite order.
pub const ALL_IDS: [&str; 14] = {
    let mut ids = [""; 14];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = experiments::EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// Runs a single experiment by id (case-insensitive); `None` for unknown
/// ids.
pub fn run_one(id: &str, opts: RunOptions) -> Option<ExperimentResult> {
    experiments::find(id).map(|e| e.run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Full.secs(300.0), 300.0);
        assert_eq!(Effort::Quick.secs(300.0), 30.0);
        assert_eq!(Effort::Quick.secs(50.0), 10.0, "floors at 10 s");
    }

    #[test]
    fn replication_counts_positive() {
        assert!(REPLICATIONS >= 2, "CIs need >= 2 reps");
    }

    #[test]
    fn render_contains_id_and_tables() {
        let r = run_one("e1", RunOptions::new(Effort::Quick, 1)).expect("known id");
        let text = r.render();
        assert!(text.contains("E1"));
        assert!(text.contains("macro"));
    }
}
