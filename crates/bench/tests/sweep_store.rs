//! Determinism and resume contracts of the sweep's result store, drained
//! the way `sweep` drains it: by lease workers, read back by the grid
//! collector.
//!
//! * A sweep cell answered **via the store** is indistinguishable from a
//!   direct run of the same spec: bit-exact fingerprint, bit-exact
//!   metrics, byte-identical table rendering.
//! * Re-invoking a sweep recomputes **only missing cells** — a full
//!   rerun computes zero, deleting one slot recomputes exactly one, and
//!   extending the grid computes exactly the new cells (asserted by
//!   counting store hits).
//! * How many workers drain a grid changes no byte of the store.

use mtnet_bench::coord::{collect_grid, run_worker, GridReport};
use mtnet_bench::store::{extract_metrics, ResultStore};
use mtnet_bench::sweep::{parse_axis, SweepPlan};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use std::collections::HashSet;
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

/// One `sweep --workers 1` invocation: a lease worker drains the plan,
/// then the grid is read back against the keys stored before it ran.
fn drain(plan: &SweepPlan, seed: u64, store: &ResultStore) -> GridReport {
    let preexisting: HashSet<String> = store.keys().into_iter().collect();
    run_worker(plan, seed, store, 3, "solo@1").expect("worker");
    collect_grid(plan, seed, store, &preexisting).expect("collect")
}

/// The grid table as the store renders it, with every status column
/// reading `computed`, so stores filled at different times compare.
fn rendered(plan: &SweepPlan, store: &ResultStore) -> String {
    let grid = collect_grid(plan, 42, store, &HashSet::new()).expect("collect");
    grid.table.to_string()
}

/// Byte content of every `.run` slot, keyed by file name.
fn store_bytes(store: &ResultStore) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read slot"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn sweep_cell_via_store_equals_direct_run() {
    let tmp = TempStore::new("equals-direct");
    let plan = small_plan();
    let first = drain(&plan, 42, &tmp.store);
    assert_eq!((first.computed, first.loaded), (4, 0));
    // Second invocation answers entirely from the store…
    let second = drain(&plan, 42, &tmp.store);
    assert_eq!((second.computed, second.loaded), (0, 4));
    // …and a run of the same plan into an empty store produces the same
    // fingerprints, metrics and rendered table, byte for byte.
    let fresh = TempStore::new("equals-direct-fresh");
    let direct = drain(&plan, 42, &fresh.store);
    assert_eq!((direct.computed, direct.loaded), (4, 0));
    assert_eq!(rendered(&plan, &tmp.store), rendered(&plan, &fresh.store));
    // Every stored cell equals a by-hand run outside the sweep.
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
    let plan = small_plan();
    let first = drain(&plan, 42, &tmp.store);
    assert_eq!((first.cells, first.computed, first.loaded), (4, 4, 0));
    assert_eq!(tmp.store.keys().len(), 4);
    let original = rendered(&plan, &tmp.store);

    // Simulate a kill mid-sweep: one completed slot vanishes.
    let victim = std::fs::read_dir(tmp.store.dir())
        .expect("read store")
        .flatten()
        .find(|e| e.path().extension().is_some_and(|x| x == "run"))
        .expect("a stored cell");
    std::fs::remove_file(victim.path()).expect("delete slot");
    let resumed = drain(&plan, 42, &tmp.store);
    assert_eq!(
        (resumed.computed, resumed.loaded),
        (1, 3),
        "resume must recompute exactly the missing cell"
    );
    // The recomputed table is identical to the original.
    assert_eq!(rendered(&plan, &tmp.store), original);

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
    let bigger = drain(&extended, 42, &tmp.store);
    assert_eq!(
        (bigger.cells, bigger.computed, bigger.loaded),
        (12, 8, 4),
        "grid extension must only compute the new cells"
    );

    // A different master seed shares nothing.
    let other = drain(&plan, 7, &tmp.store);
    assert_eq!((other.computed, other.loaded), (4, 0));
}

#[test]
fn sweep_results_are_thread_count_independent() {
    let plan = small_plan();
    let (one, four) = (TempStore::new("threads-1"), TempStore::new("threads-4"));
    drain(&plan, 42, &one.store);
    // Four workers on threads of one process contend for the same leases
    // as four processes would: each cell's lock is per open file.
    let computed: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let (plan, store) = (&plan, &four.store);
                s.spawn(move || run_worker(plan, 42, store, 3, &format!("t{i}@1")))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("join").expect("worker").computed)
            .sum()
    });
    assert_eq!(computed, 4, "each cell is computed by exactly one worker");
    assert_eq!(store_bytes(&one.store), store_bytes(&four.store));
    assert_eq!(rendered(&plan, &one.store), rendered(&plan, &four.store));
}
