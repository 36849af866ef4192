//! In-process contracts of the multi-worker coordinator: a lease-
//! protocol worker drains a grid to the same bytes as running each cell
//! directly and saving it, peers' completed cells are loaded not
//! recomputed, quarantined cells degrade the grid instead of wedging
//! it, a slow live owner is waited for and never reclaimed, and — the
//! crash-recovery regression — a cell reclaimed from a dead worker's
//! lease completes bit-identical to a cell that never crashed. Racing
//! workers share each cell's one temp name without a collision, and a
//! temp file a crashed save left behind is overwritten, not trusted.
//!
//! A lease is held from another thread than the worker's: a worker
//! blocks on a held lease, so holding one on its own thread would hang.

use mtnet_bench::coord::{
    collect_grid, exit_code, load_poison, poison_path, run_worker, Claim, Coordinator, Lease,
    Poison,
};
use mtnet_bench::store::{ResultStore, StoredRun};
use mtnet_bench::sweep::{parse_axis, SweepPlan};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

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

/// The reclaim budget of every worker here.
const MAX_RECLAIMS: u32 = 2;

/// Runs every cell of `plan` directly and saves it, no lease protocol
/// involved: the reference the workers' stores are held against.
fn save_direct(plan: &SweepPlan, store: &ResultStore) {
    for cell in plan.cells().expect("cells") {
        let report = cell.spec.run(42);
        let run = StoredRun::from_report(&cell.label, &cell.spec, 42, &report);
        store.save(&run).expect("save");
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
fn one_worker_drains_the_grid_bit_identical_to_direct_runs() {
    let reference = TempStore::new("ref");
    let plan = small_plan();
    save_direct(&plan, &reference.store);

    let tmp = TempStore::new("worker");
    let outcome = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "solo@1").expect("worker");
    assert_eq!(
        (
            outcome.cells,
            outcome.computed,
            outcome.loaded,
            outcome.quarantined
        ),
        (4, 4, 0, 0)
    );
    // Same slots, same bytes as the direct runs — a lease-protocol
    // worker is an execution strategy, not a result change.
    assert_eq!(store_bytes(&tmp.store), store_bytes(&reference.store));
    // No lease or temp debris survives a clean drain.
    let debris = std::fs::read_dir(tmp.store.dir())
        .expect("read dir")
        .flatten()
        .filter(|e| !e.path().extension().is_some_and(|x| x == "run"))
        .count();
    assert_eq!(debris, 0, "leases and temp files must all be cleaned up");

    // A second worker over the finished grid loads everything.
    let again = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "late@2").expect("late worker");
    assert_eq!((again.computed, again.loaded), (0, 4));
}

#[test]
fn reclaimed_then_completed_cell_is_bit_identical_to_a_never_crashed_one() {
    // Reference: the grid computed with no crashes anywhere.
    let reference = TempStore::new("calm");
    let plan = small_plan();
    save_direct(&plan, &reference.store);

    // Crash story: a worker claimed the first cell and died — its lease
    // sits there with nobody holding its lock. A live worker must steal
    // the cell (reclaim), recompute it, and produce the same bytes.
    let tmp = TempStore::new("crashed");
    let cells = plan.cells().expect("cells");
    let victim_key = ResultStore::key(&cells[0].spec.render(), 42);
    let coord = Coordinator::new(&tmp.store, "dead@9", MAX_RECLAIMS);
    let abandoned = Lease {
        owner: "dead@9".into(),
        reclaims: 0,
        label: cells[0].label.clone(),
    };
    std::fs::write(coord.lease_path(&victim_key), abandoned.render()).expect("plant stale lease");

    let outcome = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "alive@2").expect("worker");
    assert_eq!((outcome.computed, outcome.quarantined), (4, 0));
    // A cell that killed its owner may kill the next one too: it is
    // reclaimed only once no fresh cell is left, although `alive@2`
    // starts its passes at cell 0. Its slot is written last.
    let written = |key: &str| {
        std::fs::metadata(tmp.store.path_of(key))
            .and_then(|m| m.modified())
            .expect("slot mtime")
    };
    let victim_written = written(&victim_key);
    for key in tmp.store.keys() {
        assert!(
            written(&key) <= victim_written,
            "the reclaimed cell must be recomputed by the live worker, last ({key})"
        );
    }
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

/// Names of the files in a store directory with a `.tmp` extension.
fn temp_files(store: &ResultStore) -> Vec<String> {
    std::fs::read_dir(store.dir())
        .expect("read store dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn racing_workers_drain_one_grid_to_the_reference_bytes_without_temp_debris() {
    let reference = TempStore::new("race-ref");
    let plan = small_plan();
    save_direct(&plan, &reference.store);

    // Four workers share one store and one grid; each cell's lease lets
    // exactly one of them write it, through the cell's one temp name.
    let tmp = TempStore::new("race");
    let computed: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let (plan, store) = (&plan, &tmp.store);
                s.spawn(move || run_worker(plan, 42, store, MAX_RECLAIMS, &format!("r{i}@1")))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("join").expect("worker").computed)
            .sum()
    });
    assert_eq!(computed, plan.cells().expect("cells").len());
    assert_eq!(store_bytes(&tmp.store), store_bytes(&reference.store));
    assert_eq!(temp_files(&tmp.store), Vec::<String>::new());
}

#[test]
fn a_stale_temp_file_from_a_crashed_save_is_overwritten_by_the_next_owner() {
    let plan = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc").unwrap(),
            parse_axis("vehicles=1").unwrap(),
        ],
        ..small_plan()
    };
    let cell = plan.cells().expect("cells").remove(0);
    let direct = StoredRun::from_report(&cell.label, &cell.spec, 42, &cell.spec.run(42));

    // A worker died while writing its slot: half of it sits under the
    // temp name, and no `.run` exists.
    let tmp = TempStore::new("stale-temp");
    let mut stale = tmp
        .store
        .path_of(&ResultStore::key(&cell.spec.render(), 42))
        .into_os_string();
    stale.push(".tmp");
    let half = direct.render();
    std::fs::write(&stale, &half[..half.len() / 2]).expect("plant the stale temp");

    let outcome = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "next@2").expect("worker");
    assert_eq!((outcome.computed, outcome.loaded), (1, 0));
    assert_eq!(
        tmp.store.load(&cell.spec.render(), 42).expect("slot"),
        direct
    );
    assert_eq!(temp_files(&tmp.store), Vec::<String>::new());
}

#[test]
fn a_slow_live_owner_is_never_reclaimed() {
    // A live owner sits on its claim for longer than any lease timeout
    // the protocol ever had; a worker over the same one-cell grid must
    // wait for it and load its result, never reclaim the cell.
    let tmp = TempStore::new("slow-owner");
    let plan = SweepPlan {
        axes: vec![
            parse_axis("arch=multi-tier+rsmc").unwrap(),
            parse_axis("vehicles=1").unwrap(),
        ],
        ..small_plan()
    };
    let cell = plan.cells().expect("cells").remove(0);
    let key = ResultStore::key(&cell.spec.render(), 42);
    let (claimed, on_claim) = std::sync::mpsc::channel();
    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            let coord = Coordinator::new(&tmp.store, "slow@1", MAX_RECLAIMS);
            let Ok(Claim::Owned(held)) = coord.try_claim(&key, &cell.label) else {
                panic!("the owner claims the free cell");
            };
            claimed.send(()).expect("signal the claim");
            std::thread::sleep(Duration::from_millis(1500));
            let report = cell.spec.run(42);
            let run = StoredRun::from_report(&cell.label, &cell.spec, 42, &report);
            tmp.store.save(&run).expect("save");
            held.release().expect("release");
        });
        on_claim.recv().expect("the owner claimed");
        run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "eager@2").expect("worker")
    });
    assert_eq!(
        outcome.summary("eager@2"),
        "worker eager@2: 1 cells: computed 0, loaded 1, quarantined 0"
    );
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

    let outcome = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "w@1").expect("worker");
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
    // and it completes identically to a direct run (graceful recovery).
    std::fs::remove_file(poison_path(tmp.store.dir(), &poisoned_key)).expect("lift quarantine");
    let healed = run_worker(&plan, 42, &tmp.store, MAX_RECLAIMS, "w@2").expect("healed worker");
    assert_eq!(
        (healed.computed, healed.loaded, healed.quarantined),
        (1, 3, 0)
    );
    let reference = TempStore::new("poison-ref");
    save_direct(&plan, &reference.store);
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
    save_direct(&half, &tmp.store);
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
    run_worker(&worker_plan, 42, &tmp.store, MAX_RECLAIMS, "w@1").expect("worker");
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
