//! Kill-torture of the multi-worker sweep coordinator, driving the real
//! `sweep` binary as a fleet of OS processes.
//!
//! * **SIGKILL torture** — several workers drain one grid while one of
//!   them is SIGKILLed mid-run, repeatedly. The grid must still
//!   complete, every stored cell must be bit-identical to a
//!   single-process engine run, no cell may be saved by two workers
//!   (mutual exclusion), and completed cells must never be recomputed
//!   by later passes (exactly-once, asserted via slot mtimes and the
//!   fleet's `computed 0, loaded N` resume line).
//! * **Quarantine torture** — a deliberately poisoned cell (the
//!   `MTNET_SWEEP_KILL_CELL` hook aborts whichever worker claims it)
//!   kills worker after worker until the reclaim budget is spent; the
//!   cell must be quarantined, the rest of the grid must complete, and
//!   lifting the quarantine must heal the grid to bytes identical to a
//!   never-crashed run.
//!
//! Cells use a long-duration spec (written to a temp `.mtspec`) so a
//! timed SIGKILL reliably lands mid-compute.

use mtnet_bench::store::ResultStore;
use mtnet_bench::sweep::{parse_axis, run_sweep, SweepPlan};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::runner::BatchRunner;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, SystemTime};

/// Simulated seconds of the torture spec: long enough (at Quick effort,
/// a tenth of this) that one cell takes a sizable fraction of a second
/// of wall time in debug builds, so timed kills land mid-compute.
const TORTURE_DURATION_S: f64 = 6000.0;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mtnet-torture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn torture_spec() -> ScenarioSpec {
    ScenarioSpec::commute_corridor().with_duration_s(TORTURE_DURATION_S)
}

fn torture_plan() -> SweepPlan {
    SweepPlan {
        family: "commute-corridor".into(),
        base: torture_spec(),
        axes: vec![
            parse_axis("arch=multi-tier+rsmc,pure-mobile-ip").unwrap(),
            parse_axis("vehicles=1,2").unwrap(),
        ],
        replications: 1,
        effort: Effort::Quick,
    }
}

/// Writes the torture spec to `<dir>/torture.mtspec` for the binary.
fn write_spec_file(dir: &Path) -> PathBuf {
    let path = dir.join("torture.mtspec");
    std::fs::write(&path, torture_spec().render()).expect("write spec file");
    path
}

/// A `sweep` binary invocation over the torture grid and a store.
fn sweep_cmd(spec_file: &Path, store: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(["--spec", &spec_file.to_string_lossy()])
        .args(["--axis", "arch=multi-tier+rsmc,pure-mobile-ip"])
        .args(["--axis", "vehicles=1,2"])
        .args(["--reps", "1", "--seed", "42", "--effort", "quick"])
        .args(["--store", &store.to_string_lossy()]);
    cmd
}

/// Byte content of every `.run` slot, keyed by file name, sorted.
fn store_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
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

/// Modification times of every `.run` slot, keyed by file name.
fn store_mtimes(dir: &Path) -> HashMap<String, SystemTime> {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().and_then(|m| m.modified()).expect("mtime"),
            )
        })
        .collect()
}

/// The single-process reference: the same grid through the sweep engine.
fn reference_store(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let store = ResultStore::open(dir.path()).expect("open ref store");
    let outcome =
        run_sweep(&torture_plan(), 42, Some(&store), &BatchRunner::new(1)).expect("engine run");
    assert_eq!(outcome.computed, 4);
    dir
}

/// `worker <id>: saved <key> …` lines from one worker's stdout.
fn saved_keys(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|l| {
            let rest = l.split(" saved ").nth(1)?;
            Some(rest.split_whitespace().next()?.to_string())
        })
        .collect()
}

#[test]
fn sigkill_torture_completes_the_grid_bit_identical_and_exactly_once() {
    let reference = reference_store("sigkill-ref");
    let work = TempDir::new("sigkill");
    let spec_file = write_spec_file(work.path());
    let store_dir = work.path().join("store");

    // One fleet of 3 workers; two of them are SIGKILLed at staggered
    // offsets while the grid is still incomplete. (A kill landing
    // between cells is equally legal — the invariants below must hold
    // wherever it lands.) The last worker must reclaim every abandoned
    // cell and finish the grid alone.
    let mut all_stdout: Vec<String> = Vec::new();
    let mut children: Vec<_> = (0..3)
        .map(|i| {
            sweep_cmd(&spec_file, &store_dir)
                .args(["--worker-id", &format!("w{i}")])
                .args(["--lease-timeout-ms", "1200"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    all_stdout.push(kill_and_collect(children.swap_remove(0)));
    std::thread::sleep(Duration::from_millis(300));
    all_stdout.push(kill_and_collect(children.swap_remove(0)));
    let survivor = children.pop().expect("one survivor");
    let out = survivor.wait_with_output().expect("wait survivor");
    assert!(
        out.status.success(),
        "surviving worker failed: status {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    all_stdout.push(String::from_utf8_lossy(&out.stdout).into_owned());
    assert_eq!(
        store_bytes(&store_dir).len(),
        4,
        "grid must be complete once the survivor exits"
    );

    // Bit-identical to the single-process engine run.
    assert_eq!(
        store_bytes(&store_dir),
        store_bytes(reference.path()),
        "multi-worker + SIGKILL must reproduce the sequential bytes exactly"
    );

    // Mutual exclusion: no cell saved by two workers. (The SIGKILLed
    // workers' buffered stdout may be lost, so some saves are silent —
    // but a *duplicate* save would have to appear in two transcripts.)
    let mut seen: HashMap<String, usize> = HashMap::new();
    for stdout in &all_stdout {
        for key in saved_keys(stdout) {
            *seen.entry(key).or_default() += 1;
        }
    }
    for (key, count) in &seen {
        assert_eq!(*count, 1, "cell {key} saved {count} times across the fleet");
    }
    assert!(
        seen.len() >= 2,
        "at most one save line may be lost per kill"
    );

    // Exactly-once resume: a full fleet pass over the finished grid
    // recomputes nothing (summary line) and rewrites nothing (mtimes).
    let before = store_mtimes(&store_dir);
    let fleet = sweep_cmd(&spec_file, &store_dir)
        .args(["--workers", "3", "--lease-timeout-ms", "1200"])
        .output()
        .expect("fleet pass");
    assert!(
        fleet.status.success(),
        "fleet stderr: {}",
        String::from_utf8_lossy(&fleet.stderr)
    );
    let stdout = String::from_utf8_lossy(&fleet.stdout);
    assert!(
        stdout.contains("4 cells: computed 0, loaded 4, quarantined 0, missing 0"),
        "fleet resume summary wrong:\n{stdout}"
    );
    assert_eq!(
        store_mtimes(&store_dir),
        before,
        "a resumed fleet must not rewrite completed slots"
    );
}

/// SIGKILLs a worker and returns whatever stdout it managed to flush.
fn kill_and_collect(mut child: std::process::Child) -> String {
    let _ = child.kill();
    let out = child.wait_with_output().expect("collect killed worker");
    assert!(
        !out.status.success(),
        "the killed worker cannot have exited cleanly"
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn poisoned_cell_is_quarantined_then_heals_to_identical_bytes() {
    let reference = reference_store("poison-ref");
    let work = TempDir::new("poison");
    let spec_file = write_spec_file(work.path());
    let store_dir = work.path().join("store");
    // The hook matches this cell's label substring; every worker that
    // claims it aborts, so each respawn burns one reclaim.
    let poisoned_label = "arch=pure-mobile-ip,vehicles=2";
    let poisoned_key = {
        let cells = torture_plan().cells().expect("cells");
        let cell = cells
            .iter()
            .find(|c| c.label.contains(poisoned_label))
            .expect("poisoned cell in grid");
        ResultStore::key(&cell.spec.render(), 42)
    };

    // Respawn single workers until the quarantine resolves the grid:
    // claim+abort (reclaims=0) → reclaim+abort (1) → reclaim > budget →
    // quarantine + drain rest, exit 3.
    let mut last_code = None;
    for attempt in 0..8 {
        let out = sweep_cmd(&spec_file, &store_dir)
            .args(["--worker-id", &format!("p{attempt}")])
            .args(["--lease-timeout-ms", "400", "--max-reclaims", "1"])
            .env("MTNET_SWEEP_KILL_CELL", poisoned_label)
            .output()
            .expect("spawn worker");
        last_code = out.status.code();
        if last_code == Some(3) {
            break;
        }
        // The respawn needs no head start: it watches the aborted
        // worker's lease itself and reclaims it a timeout later.
        assert!(
            !out.status.success(),
            "worker must crash while the cell is claimable: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert_eq!(
        last_code,
        Some(3),
        "the fleet must converge to quarantine (exit 3)"
    );
    let poison_file = store_dir.join(format!("{poisoned_key}.poison"));
    let poison_text = std::fs::read_to_string(&poison_file).expect("poison record");
    assert!(
        poison_text.contains("failures = 2"),
        "max_reclaims=1 quarantines on the second reclaim:\n{poison_text}"
    );
    // Every other cell completed, bit-identical to the reference.
    let complete: Vec<_> = store_bytes(&store_dir);
    assert_eq!(complete.len(), 3);
    let ref_bytes = store_bytes(reference.path());
    for (name, bytes) in &complete {
        let reference_slot = ref_bytes
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unexpected slot {name}"));
        assert_eq!(bytes, &reference_slot.1, "{name} diverged");
    }

    // The report degrades gracefully — the poisoned point reports q1 —
    // but shares the fleet's exit contract: a degraded aggregate exits 3
    // and names the quarantined cell.
    let report = sweep_cmd(&spec_file, &store_dir)
        .arg("--report")
        .output()
        .expect("report");
    assert_eq!(report.status.code(), Some(3), "degraded report exits 3");
    let report_out = String::from_utf8_lossy(&report.stdout);
    assert!(report_out.contains("(q1)"), "{report_out}");
    assert!(report_out.contains("quarantined 1"), "{report_out}");
    assert!(
        report_out.contains(&format!("quarantined: ({poisoned_label}")),
        "the quarantined cell is named:\n{report_out}"
    );

    // Lifting the quarantine heals the grid: the once-poisoned cell is
    // reclaimed-then-completed, and the whole store matches a run that
    // never crashed.
    std::fs::remove_file(&poison_file).expect("lift quarantine");
    let healed = sweep_cmd(&spec_file, &store_dir)
        .args(["--workers", "2", "--lease-timeout-ms", "1200"])
        .output()
        .expect("healing fleet");
    assert!(
        healed.status.success(),
        "healing fleet stderr: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    let healed_out = String::from_utf8_lossy(&healed.stdout);
    assert!(
        healed_out.contains("4 cells: computed 1, loaded 3, quarantined 0, missing 0"),
        "healing must recompute exactly the quarantined cell:\n{healed_out}"
    );
    assert_eq!(store_bytes(&store_dir), ref_bytes);
}
