//! In-process contracts of the multi-worker coordinator: a lease-
//! protocol worker drains a grid to the same bytes the single-process
//! sweep engine produces, peers' completed cells are loaded not
//! recomputed, quarantined cells degrade the grid instead of wedging
//! it, a lease file's mtime never ages a lease, and — the
//! crash-recovery regression — a cell reclaimed from a dead worker's
//! stale lease completes bit-identical to a cell that never crashed.

use mtnet_bench::coord::{
    collect_grid, exit_code, load_poison, poison_path, run_worker, Claim, CoordConfig, Coordinator,
    Lease, Poison,
};
use mtnet_bench::store::ResultStore;
use mtnet_bench::sweep::{parse_axis, run_sweep, SweepPlan};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::runner::BatchRunner;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant, UNIX_EPOCH};

struct TempStore {
    dir: PathBuf,
    store: ResultStore,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir = std::env::temp_dir().join(format!("mtnet-coordw-{tag}-{}", std::process::id()));
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

fn quick_cfg() -> CoordConfig {
    CoordConfig {
        lease_timeout_ms: 300,
        max_reclaims: 2,
    }
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
fn one_worker_drains_the_grid_bit_identical_to_the_sweep_engine() {
    let reference = TempStore::new("ref");
    let plan = small_plan();
    let engine =
        run_sweep(&plan, 42, Some(&reference.store), &BatchRunner::new(1)).expect("engine sweep");
    assert_eq!(engine.computed, 4);

    let tmp = TempStore::new("worker");
    let outcome = run_worker(&plan, 42, &tmp.store, quick_cfg(), "solo@1").expect("worker");
    assert_eq!(
        (
            outcome.cells,
            outcome.computed,
            outcome.loaded,
            outcome.quarantined
        ),
        (4, 4, 0, 0)
    );
    assert_eq!(outcome.saved_keys.len(), 4);
    // Same slots, same bytes as the single-process engine — a lease-
    // protocol worker is an execution strategy, not a result change.
    assert_eq!(store_bytes(&tmp.store), store_bytes(&reference.store));
    // No lease or temp debris survives a clean drain.
    let debris = std::fs::read_dir(tmp.store.dir())
        .expect("read dir")
        .flatten()
        .filter(|e| !e.path().extension().is_some_and(|x| x == "run"))
        .count();
    assert_eq!(debris, 0, "leases and temp files must all be cleaned up");

    // A second worker over the finished grid loads everything.
    let again = run_worker(&plan, 42, &tmp.store, quick_cfg(), "late@2").expect("late worker");
    assert_eq!((again.computed, again.loaded), (0, 4));
}

#[test]
fn reclaimed_then_completed_cell_is_bit_identical_to_a_never_crashed_one() {
    // Reference: the grid computed with no crashes anywhere.
    let reference = TempStore::new("calm");
    let plan = small_plan();
    run_sweep(&plan, 42, Some(&reference.store), &BatchRunner::new(1)).expect("engine sweep");

    // Crash story: a worker claimed the first cell and died — its lease
    // sits there and never beats again. A live worker must watch it go
    // stale, steal the cell (reclaim), recompute it, and produce the
    // same bytes.
    let tmp = TempStore::new("crashed");
    let cells = plan.cells().expect("cells");
    let victim_key = ResultStore::key(&cells[0].spec.render(), 42);
    let coord = Coordinator::new(&tmp.store, "dead@9", quick_cfg());
    let abandoned = Lease {
        owner: "dead@9".into(),
        pid: 9,
        beat: 3,
        reclaims: 0,
        label: cells[0].label.clone(),
    };
    std::fs::write(coord.lease_path(&victim_key), abandoned.render()).expect("plant stale lease");

    let outcome = run_worker(&plan, 42, &tmp.store, quick_cfg(), "alive@1").expect("worker");
    assert_eq!((outcome.computed, outcome.quarantined), (4, 0));
    assert!(
        outcome.saved_keys.contains(&victim_key),
        "the reclaimed cell must be recomputed by the live worker"
    );
    assert_eq!(
        store_bytes(&tmp.store),
        store_bytes(&reference.store),
        "a reclaimed-then-completed cell must load bit-identical to a never-crashed one"
    );
    assert!(
        !coord.lease_path(&victim_key).exists(),
        "the stolen lease must be released after completion"
    );
}

#[test]
fn a_lease_file_dated_1970_is_not_reclaimed_before_a_watch() {
    // The file's mtime says nothing: a coordinator that has never seen
    // this lease must watch it unchanged for a full timeout first.
    let tmp = TempStore::new("mtime");
    let mut coord = Coordinator::new(&tmp.store, "fresh@1", quick_cfg());
    let key = "7e57ab1e00000000";
    let lease = Lease {
        owner: "old@2".into(),
        pid: 2,
        beat: 0,
        reclaims: 0,
        label: "cell".into(),
    };
    std::fs::write(coord.lease_path(key), lease.render()).expect("plant lease");
    std::fs::File::options()
        .write(true)
        .open(coord.lease_path(key))
        .and_then(|f| f.set_modified(UNIX_EPOCH))
        .expect("age the file");
    let t0 = Instant::now();
    let timeout = quick_cfg().lease_timeout_ms;
    for at in [0, timeout] {
        let claim = coord
            .try_claim(key, "cell", t0 + Duration::from_millis(at))
            .expect("io");
        assert!(matches!(claim, Claim::Busy), "+{at} ms: {claim:?}");
    }
    let claim = coord
        .try_claim(key, "cell", t0 + Duration::from_millis(timeout + 1))
        .expect("io");
    assert!(matches!(claim, Claim::Owned(_)), "{claim:?}");
}

#[test]
fn quarantined_cell_degrades_the_grid_instead_of_wedging_the_worker() {
    let tmp = TempStore::new("poison");
    let plan = small_plan();
    let cells = plan.cells().expect("cells");
    let poisoned_key = ResultStore::key(&cells[2].spec.render(), 42);
    let record = Poison {
        failures: 3,
        last_owner: "dead@7".into(),
        label: cells[2].label.clone(),
    };
    std::fs::write(poison_path(tmp.store.dir(), &poisoned_key), record.render())
        .expect("plant poison");

    let outcome = run_worker(&plan, 42, &tmp.store, quick_cfg(), "w@1").expect("worker");
    assert_eq!(
        (
            outcome.cells,
            outcome.computed,
            outcome.loaded,
            outcome.quarantined
        ),
        (4, 3, 0, 1)
    );
    assert_eq!(
        load_poison(tmp.store.dir(), &poisoned_key).expect("record survives"),
        record
    );

    // The fleet-level view agrees: 3 computed, 1 quarantined, exit 3.
    let grid = collect_grid(&plan, 42, &tmp.store, &HashSet::new()).expect("collect");
    assert_eq!(
        (
            grid.cells,
            grid.computed,
            grid.loaded,
            grid.quarantined,
            grid.missing
        ),
        (4, 3, 0, 1, 0)
    );
    assert_eq!(exit_code(grid.quarantined, grid.missing), 3);
    let table = grid.table.to_string();
    assert!(table.contains("quarantined (3 failures)"), "{table}");

    // Removing the quarantine record makes the cell computable again —
    // and it completes identically to an engine run (graceful recovery).
    std::fs::remove_file(poison_path(tmp.store.dir(), &poisoned_key)).expect("lift quarantine");
    let healed = run_worker(&plan, 42, &tmp.store, quick_cfg(), "w@2").expect("healed worker");
    assert_eq!(
        (healed.computed, healed.loaded, healed.quarantined),
        (1, 3, 0)
    );
    let reference = TempStore::new("poison-ref");
    run_sweep(&plan, 42, Some(&reference.store), &BatchRunner::new(1)).expect("engine");
    assert_eq!(store_bytes(&tmp.store), store_bytes(&reference.store));
}

#[test]
fn collect_grid_accounts_preexisting_cells_as_loaded_and_gaps_as_missing() {
    let tmp = TempStore::new("accounting");
    let plan = small_plan();
    // Complete half the grid "before the fleet" (preexisting snapshot).
    let half = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc,pure-mobile-ip").unwrap(),
            parse_axis("vehicles=1").unwrap(),
        ],
        ..plan.clone()
    };
    run_sweep(&half, 42, Some(&tmp.store), &BatchRunner::new(1)).expect("preload");
    let preexisting: HashSet<String> = tmp.store.keys().into_iter().collect();
    assert_eq!(preexisting.len(), 2);
    // The fleet then computes one more cell, leaving one missing.
    let three_quarters = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc,pure-mobile-ip").unwrap(),
            parse_axis("vehicles=1,2").unwrap(),
        ],
        ..plan.clone()
    };
    let cells = three_quarters.cells().expect("cells");
    let worker_plan = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc").unwrap(),
            parse_axis("vehicles=1,2").unwrap(),
        ],
        ..plan.clone()
    };
    run_worker(&worker_plan, 42, &tmp.store, quick_cfg(), "w@1").expect("worker");
    let grid = collect_grid(&three_quarters, 42, &tmp.store, &preexisting).expect("collect");
    assert_eq!(grid.cells, cells.len());
    assert_eq!(
        (grid.computed, grid.loaded, grid.quarantined, grid.missing),
        (1, 2, 0, 1)
    );
    assert_eq!(
        exit_code(grid.quarantined, grid.missing),
        1,
        "missing cells mean resume, exit 1"
    );
    let summary = grid.summary("commute-corridor");
    assert!(
        summary.contains("computed 1, loaded 2, quarantined 0, missing 1"),
        "{summary}"
    );
}
