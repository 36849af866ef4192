//! Determinism and resume contracts of the sweep engine's result store.
//!
//! * A sweep cell answered **via the store** is indistinguishable from a
//!   direct run of the same spec: bit-exact fingerprint, bit-exact
//!   metrics, byte-identical table rendering.
//! * Re-invoking a sweep recomputes **only missing cells** — a full
//!   rerun computes zero, deleting one slot recomputes exactly one, and
//!   extending the grid computes exactly the new cells (asserted by
//!   counting store hits).

use mtnet_bench::store::{extract_metrics, ResultStore};
use mtnet_bench::sweep::{parse_axis, run_sweep, SweepPlan};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::runner::BatchRunner;
use std::path::PathBuf;

/// A fresh per-test store directory under the system temp dir.
struct TempStore {
    dir: PathBuf,
    store: ResultStore,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("mtnet-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore {
            store: ResultStore::open(&dir).expect("temp store"),
            dir,
        }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn small_plan() -> SweepPlan {
    SweepPlan {
        family: "commute-corridor".into(),
        base: ScenarioSpec::commute_corridor().with_duration_s(120.0),
        axes: vec![
            parse_axis("arch=multi-tier+rsmc,pure-mobile-ip").unwrap(),
            parse_axis("vehicles=1,2").unwrap(),
        ],
        replications: 1,
        effort: Effort::Quick,
    }
}

#[test]
fn sweep_cell_via_store_equals_direct_run() {
    let tmp = TempStore::new("equals-direct");
    let runner = BatchRunner::new(1);
    let plan = small_plan();
    let first = run_sweep(&plan, 42, Some(&tmp.store), &runner).expect("first run");
    assert_eq!((first.computed, first.loaded), (4, 0));
    // Second invocation answers entirely from the store…
    let second = run_sweep(&plan, 42, Some(&tmp.store), &runner).expect("second run");
    assert_eq!((second.computed, second.loaded), (0, 4));
    // …and a storeless (direct) run of the same plan produces the same
    // fingerprints, metrics and rendered table, byte for byte.
    let direct = run_sweep(&plan, 42, None, &runner).expect("direct run");
    assert_eq!((direct.computed, direct.loaded), (4, 0));
    assert_eq!(second.table.to_string(), direct.table.to_string());
    // Every stored cell equals a by-hand run outside the engine.
    for cell in plan.cells().expect("cells") {
        let loaded = tmp.store.load(&cell.spec.render(), 42).expect("stored");
        let report = cell.spec.run(42);
        assert_eq!(loaded.fingerprint, report.fingerprint(), "{}", loaded.label);
        let by_hand: Vec<_> = extract_metrics(&report)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        assert_eq!(loaded.metrics, by_hand, "{}", loaded.label);
        assert_eq!(loaded.seed, cell.spec.resolve_seed(42));
    }
}

#[test]
fn interrupted_and_extended_sweeps_recompute_only_missing_cells() {
    let tmp = TempStore::new("resume");
    let runner = BatchRunner::new(1);
    let plan = small_plan();
    let first = run_sweep(&plan, 42, Some(&tmp.store), &runner).expect("first");
    assert_eq!((first.cells, first.computed, first.loaded), (4, 4, 0));
    assert_eq!(tmp.store.keys().len(), 4);

    // Simulate a kill mid-sweep: one completed slot vanishes.
    let victim = std::fs::read_dir(tmp.store.dir())
        .expect("read store")
        .flatten()
        .find(|e| e.path().extension().is_some_and(|x| x == "run"))
        .expect("a stored cell");
    std::fs::remove_file(victim.path()).expect("delete slot");
    let resumed = run_sweep(&plan, 42, Some(&tmp.store), &runner).expect("resume");
    assert_eq!(
        (resumed.computed, resumed.loaded),
        (1, 3),
        "resume must recompute exactly the missing cell"
    );
    // The recomputed table is identical to the original.
    assert_eq!(resumed.table.to_string(), first.table.to_string());

    // Extending the grid (a third axis value + a second replication)
    // reuses every existing cell: 4 stored, 12 total, 8 fresh.
    let extended = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc,pure-mobile-ip,flat-cellular-ip").unwrap(),
            parse_axis("vehicles=1,2").unwrap(),
        ],
        replications: 2,
        ..plan.clone()
    };
    let bigger = run_sweep(&extended, 42, Some(&tmp.store), &runner).expect("extend");
    assert_eq!(
        (bigger.cells, bigger.computed, bigger.loaded),
        (12, 8, 4),
        "grid extension must only compute the new cells"
    );

    // A different master seed shares nothing.
    let other = run_sweep(&plan, 7, Some(&tmp.store), &runner).expect("other seed");
    assert_eq!((other.computed, other.loaded), (4, 0));
}

#[test]
fn sweep_results_are_thread_count_independent() {
    let plan = small_plan();
    let (one, four) = (TempStore::new("threads-1"), TempStore::new("threads-4"));
    let seq = run_sweep(&plan, 42, Some(&one.store), &BatchRunner::new(1)).expect("sequential");
    let par = run_sweep(&plan, 42, Some(&four.store), &BatchRunner::new(4)).expect("parallel");
    assert_eq!(seq.table.to_string(), par.table.to_string());
    for cell in plan.cells().expect("cells") {
        let text = cell.spec.render();
        let a = one.store.load(&text, 42).expect("stored");
        let b = four.store.load(&text, 42).expect("stored");
        assert_eq!(a.fingerprint, b.fingerprint, "{}", a.label);
    }
}
