//! Determinism regression tests for the parallel replication engine.
//!
//! The contract (see `mtnet_sim::runner`): a batch of simulation runs is a
//! pure function of its job list. The same master seed must produce
//! **byte-identical** run reports whether the batch executes on one worker
//! or many, whether a run executes alone or alongside others, and across
//! repeated invocations. Fingerprints (`SimReport::fingerprint`) render
//! every metric with f64 bit patterns, so equality here is equality down
//! to the last ulp.

use mtnet_core::report::RunReport;
use mtnet_core::scenario::ArchKind;
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::rng::replication_seed;
use mtnet_sim::runner::BatchRunner;

const MASTER_SEED: u64 = 42;
const SECS: f64 = 12.0;

/// The E10-shaped batch: every architecture × two replications, each run
/// seeded purely from its (experiment, architecture, replication) path
/// and labelled with its architecture.
fn e10_style_jobs() -> Vec<ScenarioSpec> {
    let mut jobs = Vec::new();
    for arch in [
        ArchKind::multi_tier(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ] {
        for rep in 0..2u64 {
            let spec = ScenarioSpec {
                name: arch.label().into(),
                ..ScenarioSpec::small_city()
            }
            .with_arch(arch)
            .with_duration_s(SECS)
            .with_seed_path("E10", arch.label(), rep);
            jobs.push(spec);
        }
    }
    jobs
}

fn run_jobs(threads: usize, jobs: Vec<ScenarioSpec>) -> Vec<RunReport> {
    BatchRunner::new(threads).run(jobs, |_, spec| spec.run_report(MASTER_SEED))
}

fn fingerprints(reports: &[RunReport]) -> Vec<String> {
    reports.iter().map(RunReport::fingerprint).collect()
}

#[test]
fn single_threaded_and_parallel_runs_are_byte_identical() {
    let seq = fingerprints(&run_jobs(1, e10_style_jobs()));
    let par = fingerprints(&run_jobs(4, e10_style_jobs()));
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(s, p, "job {i} diverged between 1 and 4 threads");
    }
}

#[test]
fn repeated_parallel_batches_are_byte_identical() {
    let a = fingerprints(&run_jobs(3, e10_style_jobs()));
    let b = fingerprints(&run_jobs(3, e10_style_jobs()));
    assert_eq!(a, b);
}

#[test]
fn a_run_is_unaffected_by_its_batch_mates() {
    // Runs must share no mutable state: executing one scenario alone must
    // reproduce exactly what it produced inside the full batch.
    let batch = run_jobs(4, e10_style_jobs());
    let lone_jobs = vec![e10_style_jobs().remove(3)];
    let lone = run_jobs(1, lone_jobs);
    assert_eq!(batch[3].fingerprint(), lone[0].fingerprint());
}

#[test]
fn different_replications_actually_differ() {
    // Guard against a degenerate seed split (every replication identical):
    // the per-tuple streams must make replications distinct runs.
    let batch = run_jobs(2, e10_style_jobs());
    assert_ne!(
        batch[0].report.fingerprint(),
        batch[1].report.fingerprint(),
        "replications 0 and 1 of the same arm must not coincide"
    );
    assert_ne!(batch[0].seed, batch[1].seed);
}

// ----------------------------------------------------------------------
// Determinism under faults: the contract extends unchanged to runs whose
// spec schedules infrastructure faults (outage windows, jittered link
// flaps, RSMC failover).
// ----------------------------------------------------------------------

/// A small-city spec with every fault category scheduled inside the
/// 12 s horizon, duplicated per architecture so the batch exercises the
/// fault path on both code shapes.
fn faulted_jobs() -> Vec<ScenarioSpec> {
    use mtnet_core::spec::{CellOutage, FaultSpec, LinkFlap, RsmcFailover};
    let faults = FaultSpec {
        cell_outages: vec![CellOutage {
            cell: 1,
            start_s: 2.0,
            end_s: 6.0,
        }],
        link_flaps: vec![LinkFlap {
            domain: 0,
            start_s: 1.0,
            period_s: 4.0,
            duty: 0.5,
            jitter_s: 0.5,
            count: 2,
        }],
        rsmc_failovers: vec![RsmcFailover {
            domain: 2,
            at_s: 7.0,
            takeover_s: Some(2.0),
        }],
        eclipses: Vec::new(),
    };
    [ArchKind::multi_tier(), ArchKind::PureMobileIp]
        .into_iter()
        .map(|arch| {
            ScenarioSpec::small_city()
                .with_arch(arch)
                .with_faults(faults.clone())
                .with_duration_s(SECS)
                .with_seed_path("faults", arch.label(), 0)
        })
        .collect()
}

fn run_specs(threads: usize, jobs: Vec<ScenarioSpec>) -> Vec<String> {
    BatchRunner::new(threads)
        .run(jobs, |_, spec| spec.run(MASTER_SEED))
        .iter()
        .map(|r| r.fingerprint())
        .collect()
}

#[test]
fn faulted_runs_are_byte_identical_across_thread_counts() {
    let seq = run_specs(1, faulted_jobs());
    let par = run_specs(4, faulted_jobs());
    assert_eq!(seq, par);
    // The faults actually fired (fingerprints carry the faults section);
    // a silently inert schedule would make this test vacuous.
    for fp in &seq {
        assert!(fp.contains("\nfaults: "), "no fault section in:\n{fp}");
    }
}

#[test]
fn repeated_faulted_batches_are_byte_identical() {
    assert_eq!(run_specs(3, faulted_jobs()), run_specs(3, faulted_jobs()));
}

#[test]
fn a_faulted_run_is_unaffected_by_its_batch_mates() {
    let batch = run_specs(4, faulted_jobs());
    let lone = run_specs(1, vec![faulted_jobs().remove(1)]);
    assert_eq!(batch[1], lone[0]);
}

#[test]
fn an_empty_fault_section_is_a_no_op() {
    // A spec with `faults` left default must fingerprint identically to
    // one that never mentions faults at all — fault support is strictly
    // opt-in, and E1–E12 results cannot move.
    use mtnet_core::spec::FaultSpec;
    let bare = ScenarioSpec::small_city()
        .with_duration_s(SECS)
        .with_seed_path("noop", "bare", 0);
    let with_empty = bare.clone().with_faults(FaultSpec::default());
    assert_eq!(bare.render(), with_empty.render(), "empty faults render");
    let a = bare.run(MASTER_SEED).fingerprint();
    let b = with_empty.run(MASTER_SEED).fingerprint();
    assert_eq!(a, b);
    assert!(!a.contains("faults:"), "quiet report grew a fault section");
}

// ----------------------------------------------------------------------
// Determinism under intra-world sharding: splitting one world across
// conservative time-window shards (`spec.shards`, `--shards`) is a
// pure execution strategy — fingerprints must match the sequential
// engine byte-for-byte at every shard × thread combination, including
// when batch workers and shard threads are live at the same time.
// ----------------------------------------------------------------------

fn sharded(jobs: Vec<ScenarioSpec>, shards: u32) -> Vec<ScenarioSpec> {
    jobs.into_iter().map(|s| s.with_shards(shards)).collect()
}

#[test]
fn sharded_runs_are_byte_identical_across_architectures() {
    let jobs = |shards: u32| -> Vec<ScenarioSpec> {
        [
            ArchKind::multi_tier(),
            ArchKind::PureMobileIp,
            ArchKind::FlatCellularIp,
        ]
        .into_iter()
        .map(|arch| {
            ScenarioSpec::small_city()
                .with_arch(arch)
                .with_duration_s(SECS)
                .with_seed_path("shard", arch.label(), 0)
                .with_shards(shards)
        })
        .collect()
    };
    let baseline = run_specs(1, jobs(1));
    // Two shards is every sharded configuration: a larger count clamps
    // to the two ownership groups.
    for threads in [1usize, 4] {
        assert_eq!(
            baseline,
            run_specs(threads, jobs(2)),
            "shards=2 threads={threads} diverged from the sequential engine"
        );
    }
}

#[test]
fn sharded_faulted_runs_match_sequential() {
    // The fault schedule is replicated on every shard; outage drops and
    // failover handling must still merge to the sequential figures.
    let baseline = run_specs(1, faulted_jobs());
    let shard2 = run_specs(4, sharded(faulted_jobs(), 2));
    assert_eq!(baseline, shard2);
    for fp in &shard2 {
        assert!(fp.contains("\nfaults: "), "no fault section in:\n{fp}");
    }
}

#[test]
fn repeated_sharded_batches_are_byte_identical() {
    let a = run_specs(3, sharded(faulted_jobs(), 2));
    let b = run_specs(3, sharded(faulted_jobs(), 2));
    assert_eq!(a, b);
}

#[test]
fn run_reports_carry_their_identity() {
    let batch = run_jobs(2, e10_style_jobs());
    assert_eq!(batch[0].label, "multi-tier+rsmc");
    assert_eq!(batch[2].label, "pure-mobile-ip");
    assert_eq!(batch[4].label, "flat-cellular-ip");
    assert_eq!(batch[5].replication, 1);
    assert_eq!(
        batch[5].seed,
        replication_seed(MASTER_SEED, "E10", "flat-cellular-ip", 1)
    );
}
