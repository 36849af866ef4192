//! Crash-safe multi-worker sweep coordination over the shared
//! [`crate::store::ResultStore`] directory.
//!
//! N worker processes (on one machine or many, sharing one directory)
//! drain one sweep grid cooperatively. A worker owns a cell while it
//! holds an exclusive OS file lock ([`File::try_lock`]) on `<key>.lease`,
//! next to the store's `<key>.run` slot. The kernel drops the lock the
//! moment its holder dies, however it dies (SIGKILL, abort, panic), so
//! whether an owner is alive is never guessed from a clock:
//!
//! * **Claim** — open `<key>.lease` (creating it) and `try_lock` it. A
//!   lock held elsewhere means a live peer owns the cell; any other lock
//!   error stops the worker, so a filesystem that refuses locks never
//!   runs cells unprotected.
//! * **Reclaim** — under the lock, the lease's body tells the cell's
//!   history. Empty is a fresh cell. A body is what a dead owner left
//!   behind (completion empties it first), so the claim counts one more
//!   reclaim; a body that does not parse (cut short, tampered with, an
//!   older format) counts as one. The new owner rewrites the body in
//!   place through the locked handle: a rename would move the path off
//!   the locked file. A cell that killed one worker may kill the next,
//!   so a worker reclaims only when it finds no fresh cell to claim.
//! * **Quarantine** — a cell reclaimed more than `max_reclaims` times is
//!   presumed poisoned (it kills whoever computes it). Instead of
//!   retrying forever, the claimant records `<key>.poison` (failure
//!   count, last owner), removes the lease and the fleet degrades
//!   gracefully: every other cell still completes, and the final report
//!   exits nonzero naming the quarantined cells. The record is read
//!   under the lock, and a quarantiner writes it before removing the
//!   lease, so no claimant can lock a fresh lease without seeing it.
//! * **Completion** — the owner saves the result through the store's own
//!   atomic save, empties its lease, removes it and only then unlocks
//!   it: a peer that locked the old file in that gap reads an empty
//!   lease, so a finished cell never counts as a death. Completed cells
//!   are answered from the store and never recomputed (a claimant checks
//!   again after claiming), so crash-and-resume keeps the store's
//!   exactly-once contract: each `.run` file is written by exactly one
//!   successful compute.
//! * **Waiting** — a pass over the grid that resolved nothing blocks in
//!   [`File::lock`] on the first cell a peer holds, and goes again once
//!   that peer finishes or dies.
//! * **One writer** — a cell's other files (its `.run` slot, its
//!   `.poison` record) are written only by the holder of its lease lock.
//!   A claimant that locks a lease already unlinked finds the cell
//!   complete or quarantined and writes neither, so the store publishes
//!   each file through one fixed temp name.
//!
//! The locks must reach every worker: any local filesystem does for
//! workers on one machine; workers on several machines need a shared
//! filesystem whose locks span clients (NFS with a lock manager).
//!
//! Lease and quarantine files are [`mtnet_core::kv`] records (every key
//! required, counters parsed at `u32`), declared once in this module's
//! `LEASE` and `POISON` field tables; [`cell_state`] is the one place a
//! cell's files are read back into complete / quarantined / missing.
//!
//! Every `sweep` invocation that computes goes through [`run_worker`]:
//! a `--worker-id` process runs one, and a plain invocation spawns a
//! fleet of them and reads the grid back with [`collect_grid`].
//!
//! Testing hook: setting `MTNET_SWEEP_KILL_CELL=<substring>` makes a
//! worker abort the moment it starts a cell whose label contains the
//! substring — a deterministic stand-in for "this cell crashes its
//! worker", used by the kill-torture tests and CI to exercise reclaim,
//! quarantine and resume without timing races.

use crate::store::{write_atomic, ResultStore, StoredRun, METRICS};
use crate::sweep::{fmt_metric, grid_row, grid_table, SweepCell, SweepPlan};
use mtnet_core::kv::{self, field, Kind, Presence::Required, Record};
use mtnet_core::lens;
use mtnet_metrics::{Summary, Table};
use mtnet_sim::rng::{fnv1a, FNV_OFFSET};
use mtnet_sim::runner::parse_count;
use std::collections::HashSet;
use std::fs::{File, TryLockError};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Testing hook: a worker that starts a cell whose label contains this
/// value prints `worker <id>: killed by …` and aborts without unwinding,
/// so its held lease is left behind exactly as by a SIGKILL mid-compute.
/// One of the two environment variables the workspace reads: it has to
/// reach every worker of a fleet, children included, without being an
/// option a user could pass by accident — it is not a flag on purpose.
pub const KILL_CELL_ENV: &str = "MTNET_SWEEP_KILL_CELL";

/// One cell's lease, as its owner writes it into `<key>.lease`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lease {
    /// Owner id (worker id + pid, unique per worker process).
    pub owner: String,
    /// How many times this cell has been reclaimed from a dead owner.
    /// Exceeding the sweep's `--max-reclaims` quarantines it.
    pub reclaims: u32,
    /// Human-readable cell label.
    pub label: String,
}

/// The lease file. Every key is required: a file cut short is an error
/// (a death with unknown history), never a lease owned by `""`.
#[rustfmt::skip]
static LEASE: Record<Lease> = Record {
    header: "mtnet-lease v3",
    comments: false,
    init: Lease::default,
    fields: &[
        field("owner", Required, Kind::Raw(lens!(owner))),
        field("reclaims", Required, Kind::U32(lens!(reclaims), 0..=u32::MAX)),
        field("label", Required, Kind::Raw(lens!(label))),
    ],
    blocks: &[],
};

impl Lease {
    /// Renders to the lease file format.
    pub fn render(&self) -> String {
        LEASE.render(self)
    }

    /// Parses the lease file format.
    pub fn parse(text: &str) -> Result<Lease, kv::Error> {
        LEASE.parse(text)
    }
}

/// A quarantined cell's record, as stored in `<key>.poison`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poison {
    /// How many times the cell's lease was reclaimed before giving up.
    pub failures: u32,
    /// The last owner whose lease was reclaimed.
    pub last_owner: String,
    /// Human-readable cell label.
    pub label: String,
}

/// The quarantine record; every key is required, as for [`LEASE`].
#[rustfmt::skip]
static POISON: Record<Poison> = Record {
    header: "mtnet-poison v2",
    comments: false,
    init: Poison::default,
    fields: &[
        field("failures", Required, Kind::U32(lens!(failures), 0..=u32::MAX)),
        field("last_owner", Required, Kind::Raw(lens!(last_owner))),
        field("label", Required, Kind::Raw(lens!(label))),
    ],
    blocks: &[],
};

impl Poison {
    /// Renders to the quarantine-record file format.
    pub fn render(&self) -> String {
        POISON.render(self)
    }

    /// Parses the quarantine-record file format.
    pub fn parse(text: &str) -> Result<Poison, kv::Error> {
        POISON.parse(text)
    }
}

/// Validates the `--workers` count: a positive integer.
pub fn parse_worker_count(value: &str) -> Result<usize, String> {
    match parse_count::<usize>(value) {
        Some(n) if n >= 1 => Ok(n),
        _ => Err(format!("--workers needs a positive integer, got {value:?}")),
    }
}

/// Validates the `--max-reclaims` limit: a non-negative integer (0 =
/// quarantine on the first reclaim).
pub fn parse_max_reclaims(value: &str) -> Result<u32, String> {
    parse_count(value)
        .ok_or_else(|| format!("--max-reclaims needs a non-negative integer, got {value:?}"))
}

/// The quarantine record's path for a store key, if present.
pub fn poison_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.poison"))
}

/// Loads the quarantine record for a key (corrupt records read as
/// quarantined-with-unknown-history rather than silently retryable).
pub fn load_poison(dir: &Path, key: &str) -> Option<Poison> {
    let text = std::fs::read_to_string(poison_path(dir, key)).ok()?;
    Some(Poison::parse(&text).unwrap_or(Poison {
        failures: 0,
        last_owner: "(corrupt record)".into(),
        label: String::new(),
    }))
}

/// Outcome of one claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// This worker now owns the cell and must compute it, save it and
    /// [`release`](Held::release) it.
    Owned(Held),
    /// A live peer holds the cell's lease — revisit on a later pass.
    Busy,
    /// The cell is quarantined; nobody will retry it.
    Quarantined(Poison),
}

/// A claimed cell: its lease file, locked until [`Held::release`] or
/// until dropped. A drop without a release is what a crash looks like to
/// the next claimant: the lease's body stays, and counts a reclaim.
#[derive(Debug)]
pub struct Held {
    path: PathBuf,
    file: File,
}

impl Held {
    /// Gives the cell up once its result is in the store: empties the
    /// lease, removes it, then unlocks it (by dropping the handle). A
    /// lease already gone is no error: a claimant that locked the old
    /// file after a completion removes the same path again.
    pub fn release(self) -> io::Result<()> {
        self.file.set_len(0)?;
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            done => done,
        }
    }
}

/// The lease-protocol side of one worker: claim, reclaim, quarantine
/// and wait, all under one store directory.
#[derive(Debug)]
pub struct Coordinator {
    dir: PathBuf,
    owner: String,
    max_reclaims: u32,
}

impl Coordinator {
    /// A coordinator for `owner` over the store's directory that
    /// quarantines a cell reclaimed more than `max_reclaims` times.
    pub fn new(store: &ResultStore, owner: impl Into<String>, max_reclaims: u32) -> Coordinator {
        Coordinator {
            dir: store.dir().to_path_buf(),
            owner: owner.into(),
            max_reclaims,
        }
    }

    /// The lease path for a store key.
    pub fn lease_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lease"))
    }

    /// Attempts to claim a cell. Exactly one concurrent claimant can win
    /// ([`Claim::Owned`]); a lease its dead owner left behind is
    /// reclaimed in passing, and a cell over the reclaim budget is
    /// quarantined here.
    pub fn try_claim(&self, key: &str, label: &str) -> io::Result<Claim> {
        let path = self.lease_path(key);
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => return Ok(Claim::Busy),
            Err(TryLockError::Error(e)) => return Err(e),
        }
        if let Some(poison) = load_poison(&self.dir, key) {
            let _ = std::fs::remove_file(&path);
            return Ok(Claim::Quarantined(poison));
        }
        let mut body = Vec::new();
        file.read_to_end(&mut body)?;
        // Only a dead owner leaves a body behind; one that does not parse
        // has an unknown history of 0 earlier reclaims.
        let dead = (!body.is_empty()).then(|| {
            std::str::from_utf8(&body)
                .ok()
                .and_then(|text| Lease::parse(text).ok())
                .unwrap_or_else(|| Lease {
                    owner: "(unparseable lease)".into(),
                    ..Lease::default()
                })
        });
        let reclaims = dead.as_ref().map_or(0, |d| d.reclaims.saturating_add(1));
        if let Some(dead) = dead.filter(|_| reclaims > self.max_reclaims) {
            let poison = Poison {
                failures: reclaims,
                last_owner: dead.owner,
                label: label.to_string(),
            };
            write_atomic(&poison_path(&self.dir, key), poison.render().as_bytes())?;
            std::fs::remove_file(&path)?;
            return Ok(Claim::Quarantined(poison));
        }
        let lease = Lease {
            owner: self.owner.clone(),
            reclaims,
            label: label.to_string(),
        };
        file.set_len(0)?;
        file.rewind()?;
        file.write_all(lease.render().as_bytes())?;
        Ok(Claim::Owned(Held { path, file }))
    }

    /// Whether `key`'s lease has a body: a live owner's, or the one a
    /// dead owner left behind. Read without the lock, so only a hint.
    pub fn has_lease_body(&self, key: &str) -> bool {
        std::fs::metadata(self.lease_path(key)).is_ok_and(|m| m.len() > 0)
    }

    /// Blocks until whoever holds `key`'s lease lets it go — completes
    /// or dies; returns at once when there is no lease.
    pub fn wait(&self, key: &str) -> io::Result<()> {
        match File::open(self.lease_path(key)) {
            Ok(file) => file.lock(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// How one worker resolved each cell of its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Computed,
    Loaded,
    Quarantined,
}

/// What one worker did over a whole grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Total cells in the expansion.
    pub cells: usize,
    /// Cells this worker computed and saved.
    pub computed: usize,
    /// Cells answered from the store (computed earlier or by peers).
    pub loaded: usize,
    /// Cells found (or driven) into quarantine.
    pub quarantined: usize,
}

impl WorkerOutcome {
    /// The worker's one-line summary:
    /// `worker <id>: N cells: computed X, loaded Y, quarantined Z`.
    pub fn summary(&self, owner: &str) -> String {
        format!(
            "worker {owner}: {} cells: computed {}, loaded {}, quarantined {}",
            self.cells, self.computed, self.loaded, self.quarantined
        )
    }
}

/// Runs one worker over the grid until every cell is resolved —
/// computed by us, completed by a peer, or quarantined. Fresh cells go
/// first: a cell a dead worker left behind may kill the next one too,
/// so it is reclaimed only by a pass that found no fresh cell to claim.
/// A pass that finds every open cell held by live peers blocks until the
/// first of them lets go. Cells are visited starting at an
/// owner-specific offset so a fleet spreads its first claims instead of
/// stampeding cell 0.
pub fn run_worker(
    plan: &SweepPlan,
    master_seed: u64,
    store: &ResultStore,
    max_reclaims: u32,
    owner: &str,
) -> Result<WorkerOutcome, String> {
    let cells = plan.cells()?;
    let coord = Coordinator::new(store, owner, max_reclaims);
    let keys: Vec<String> = cells
        .iter()
        .map(|c| ResultStore::key(&c.spec.render(), master_seed))
        .collect();
    let complete = |i: usize| {
        matches!(
            cell_state(store, &cells[i], master_seed),
            CellState::Complete(_)
        )
    };
    // One cell's fate, or `None` while a live peer holds it.
    let resolve = |i: usize| -> Result<Option<Fate>, String> {
        let (key, label) = (&keys[i], &cells[i].label);
        if complete(i) {
            return Ok(Some(Fate::Loaded));
        }
        let claim = coord
            .try_claim(key, label)
            .map_err(|e| format!("claim {key}: {e}"))?;
        let held = match claim {
            Claim::Busy => return Ok(None),
            Claim::Quarantined(poison) => {
                println!(
                    "worker {owner}: quarantined {key} ({label}) after {} failures \
                     (last owner {})",
                    poison.failures, poison.last_owner
                );
                return Ok(Some(Fate::Quarantined));
            }
            Claim::Owned(held) => held,
        };
        // Claim-then-recheck: a peer may have completed the cell between
        // our store probe and the claim.
        let fate = if complete(i) {
            Fate::Loaded
        } else {
            if std::env::var(KILL_CELL_ENV).is_ok_and(|k| !k.is_empty() && label.contains(&k)) {
                println!("worker {owner}: killed by {KILL_CELL_ENV} on ({label})");
                std::process::abort();
            }
            let report = cells[i].spec.run(master_seed);
            let run = StoredRun::from_report(label, &cells[i].spec, master_seed, &report);
            store
                .save(&run)
                .map_err(|e| format!("store write {key}: {e}"))?;
            println!("worker {owner}: saved {key} ({label})");
            Fate::Computed
        };
        held.release().map_err(|e| format!("release {key}: {e}"))?;
        Ok(Some(fate))
    };
    let mut fates: Vec<Option<Fate>> = vec![None; cells.len()];
    let offset = if cells.is_empty() {
        0
    } else {
        fnv1a(FNV_OFFSET, owner.as_bytes()) as usize % cells.len()
    };
    loop {
        let mut progress = false;
        let mut first_busy = None;
        // A lease with a body is held by a live peer or was left by a
        // dead one: the first sweep passes it over.
        for reclaim in [false, true] {
            for step in 0..cells.len() {
                let i = (step + offset) % cells.len();
                if fates[i].is_some() || (!reclaim && coord.has_lease_body(&keys[i])) {
                    continue;
                }
                match resolve(i)? {
                    Some(fate) => {
                        fates[i] = Some(fate);
                        progress = true;
                    }
                    None => {
                        first_busy.get_or_insert(i);
                    }
                }
            }
            if progress {
                break;
            }
        }
        if fates.iter().all(Option::is_some) {
            break;
        }
        if let Some(i) = first_busy.filter(|_| !progress) {
            let key = &keys[i];
            coord.wait(key).map_err(|e| format!("wait {key}: {e}"))?;
        }
    }
    let count = |fate: Fate| fates.iter().filter(|f| **f == Some(fate)).count();
    Ok(WorkerOutcome {
        cells: cells.len(),
        computed: count(Fate::Computed),
        loaded: count(Fate::Loaded),
        quarantined: count(Fate::Quarantined),
    })
}

/// What the store directory says about one cell.
#[derive(Debug)]
pub enum CellState {
    /// `<key>.run` holds the cell's result.
    Complete(StoredRun),
    /// No result; given up on after repeated worker deaths.
    Quarantined(Poison),
    /// No result and no quarantine record (a worker may hold the cell).
    Missing,
}

/// Reads one cell's state back from the store directory — the single
/// classification the workers, the fleet's final table and `--report`
/// all go through.
pub fn cell_state(store: &ResultStore, cell: &SweepCell, master_seed: u64) -> CellState {
    let spec_text = cell.spec.render();
    if let Some(run) = store.load(&spec_text, master_seed) {
        return CellState::Complete(run);
    }
    match load_poison(store.dir(), &ResultStore::key(&spec_text, master_seed)) {
        Some(poison) => CellState::Quarantined(poison),
        None => CellState::Missing,
    }
}

/// The process exit code every coordinated mode shares: 0 when the grid
/// is fully complete, 1 when cells are missing (crashed fleet — resume
/// by re-invoking; missing outranks quarantined), 3 when quarantined
/// cells degraded it.
pub fn exit_code(quarantined: usize, missing: usize) -> i32 {
    match (missing, quarantined) {
        (0, 0) => 0,
        (0, _) => 3,
        _ => 1,
    }
}

/// The fleet-level view of a grid after the workers drained it.
#[derive(Debug)]
pub struct GridReport {
    /// One row per cell: axis columns, metrics, and a status column.
    pub table: Table,
    /// Total cells in the expansion.
    pub cells: usize,
    /// Cells completed this invocation (absent from `preexisting`).
    pub computed: usize,
    /// Cells that were already complete before this invocation.
    pub loaded: usize,
    /// Cells quarantined (`.poison` present).
    pub quarantined: usize,
    /// Cells neither completed nor quarantined (workers died or were
    /// interrupted) — a resume will pick them up.
    pub missing: usize,
}

impl GridReport {
    /// The fleet's machine-checkable final line:
    /// `sweep "<family>": N cells: computed X, loaded Y, quarantined Z, missing M`.
    pub fn summary(&self, family: &str) -> String {
        format!(
            "sweep \"{family}\": {} cells: computed {}, loaded {}, quarantined {}, missing {}",
            self.cells, self.computed, self.loaded, self.quarantined, self.missing
        )
    }
}

/// Collects a grid's state from the store after a fleet ran:
/// per-cell rows (with quarantine/missing status) plus the counts the
/// final summary line and exit code are built from. `preexisting` is
/// the set of store keys that were already complete before the fleet
/// started (so computed-vs-loaded accounting survives the parent not
/// seeing its children's internals).
pub fn collect_grid(
    plan: &SweepPlan,
    master_seed: u64,
    store: &ResultStore,
    preexisting: &HashSet<String>,
) -> Result<GridReport, String> {
    let mut grid = GridReport {
        table: grid_table(plan, "rep", &["status"]),
        cells: 0,
        computed: 0,
        loaded: 0,
        quarantined: 0,
        missing: 0,
    };
    for cell in plan.cells()? {
        grid.cells += 1;
        let (run, status) = match cell_state(store, &cell, master_seed) {
            CellState::Complete(run) => {
                let status = if preexisting.contains(&ResultStore::key(&run.spec_text, master_seed))
                {
                    grid.loaded += 1;
                    "loaded"
                } else {
                    grid.computed += 1;
                    "computed"
                };
                (Some(run), status.to_string())
            }
            CellState::Quarantined(poison) => {
                grid.quarantined += 1;
                (None, format!("quarantined ({} failures)", poison.failures))
            }
            CellState::Missing => {
                grid.missing += 1;
                (None, "missing".to_string())
            }
        };
        let metrics = METRICS
            .iter()
            .map(|(m, _)| run.as_ref().map_or("-".into(), |run| fmt_metric(run, m)));
        let rep = cell.replication.to_string();
        grid.table
            .row(grid_row(&cell.assignments, rep, metrics, Some(status)));
    }
    Ok(grid)
}

/// The cross-cell analysis of a finished grid: per grid point (all
/// replications pooled), mean ± 95% CI of every table metric.
#[derive(Debug)]
pub struct ReportOutcome {
    /// One row per grid point: axis columns, `n` (reps present), then
    /// `mean ± ci95` per metric.
    pub table: Table,
    /// Grid points (cells / replications).
    pub points: usize,
    /// Cells found complete in the store.
    pub complete: usize,
    /// Cells quarantined.
    pub quarantined: usize,
    /// Labels of the quarantined cells (`axis=value,... rep=n`), in
    /// expansion order — a degraded report must name what it is missing,
    /// not just count it.
    pub quarantined_cells: Vec<String>,
    /// Cells neither complete nor quarantined.
    pub missing: usize,
}

impl ReportOutcome {
    /// The report's one-line summary:
    /// `sweep report "<family>": P points x R reps: complete C, quarantined Q, missing M`.
    pub fn summary(&self, family: &str, reps: u64) -> String {
        format!(
            "sweep report \"{family}\": {} points x {reps} reps: complete {}, quarantined {}, missing {}",
            self.points, self.complete, self.quarantined, self.missing
        )
    }
}

/// Formats one aggregated metric column: mean ± Student-t 95% CI over
/// the point's replications (loss rates as percentages,
/// like the per-cell tables); `-` when no cell of the point holds it.
fn fmt_aggregate(name: &str, agg: Option<&Summary>) -> String {
    match agg {
        Some(s) if name == "loss_rate" => format!(
            "{:.3}% ± {:.3}%",
            s.mean() * 100.0,
            s.ci95_half_width() * 100.0
        ),
        Some(s) => format!("{:.1} ± {:.1}", s.mean(), s.ci95_half_width()),
        None => "-".into(),
    }
}

/// Aggregates a finished grid into an experiment-style table: cells are
/// grouped by grid point (axis assignments; replications are innermost,
/// so a point's cells are contiguous), replications pool into one
/// [`Summary`] per [`METRICS`] column, in cell order, and each column
/// reports mean ± 95% CI. Missing and quarantined cells are counted (and shrink
/// a point's `n`) rather than failing the whole report.
pub fn report_sweep(
    plan: &SweepPlan,
    master_seed: u64,
    store: &ResultStore,
) -> Result<ReportOutcome, String> {
    let mut out = ReportOutcome {
        table: grid_table(plan, "n", &[]),
        points: 0,
        complete: 0,
        quarantined: 0,
        quarantined_cells: Vec::new(),
        missing: 0,
    };
    for point in plan
        .cells()?
        .chunk_by(|a, b| a.assignments == b.assignments)
    {
        let mut agg: [Option<Summary>; METRICS.len()] = [None; METRICS.len()];
        let (mut present, mut poisoned) = (0, 0);
        for cell in point {
            match cell_state(store, cell, master_seed) {
                CellState::Complete(run) => {
                    present += 1;
                    for (summary, (name, _)) in agg.iter_mut().zip(&METRICS) {
                        if let Some(value) = run.metric(name) {
                            summary.get_or_insert_default().record(value.as_f64());
                        }
                    }
                }
                CellState::Quarantined(_) => {
                    poisoned += 1;
                    out.quarantined_cells.push(cell.label.clone());
                }
                CellState::Missing => out.missing += 1,
            }
        }
        out.points += 1;
        out.complete += present;
        out.quarantined += poisoned;
        let n = if poisoned > 0 {
            format!("{present} (q{poisoned})")
        } else {
            present.to_string()
        };
        let metrics = METRICS
            .iter()
            .zip(&agg)
            .map(|((m, _), summary)| fmt_aggregate(m, summary.as_ref()));
        out.table
            .row(grid_row(&point[0].assignments, n, metrics, None));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::parse_axis;
    use crate::Effort;
    use mtnet_core::spec::ScenarioSpec;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("mtnet-coord-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    /// The lease a worker that died mid-cell left behind. Planted by
    /// hand, nobody holds its lock — which is exactly a dead owner.
    fn dead(reclaims: u32) -> Lease {
        Lease {
            owner: "dead@1".into(),
            reclaims,
            label: "cell".into(),
        }
    }

    /// The lease body on disk, as the next claimant would read it.
    fn on_disk(coord: &Coordinator, key: &str) -> Lease {
        let text = std::fs::read_to_string(coord.lease_path(key)).expect("lease file");
        Lease::parse(&text).expect("lease body")
    }

    /// Claims `key`, which must be granted, and reports the reclaim
    /// count written for it; the claim is dropped (the owner "dies").
    fn reclaims_granted(coord: &Coordinator, key: &str) -> u32 {
        let claim = coord.try_claim(key, "cell").expect("claim io");
        assert!(matches!(claim, Claim::Owned(_)), "{key}: {claim:?}");
        on_disk(coord, key).reclaims
    }

    #[test]
    fn counters_parse_at_their_width_and_every_key_is_required() {
        let lease = |reclaims: &str| {
            dead(0)
                .render()
                .replace("reclaims = 0", &format!("reclaims = {reclaims}"))
        };
        assert_eq!(Lease::parse(&lease("7")).expect("valid").reclaims, 7);
        // One past `u32::MAX` used to wrap to 0 and reset the budget.
        assert!(Lease::parse(&lease("4294967296")).is_err());
        assert!(Lease::parse(&lease("99999999999999999999")).is_err());
        // A file cut after its header is an error, not an empty record.
        assert!(Lease::parse("mtnet-lease v3\n").is_err());
        assert!(Poison::parse("mtnet-poison v2\nfailures = 1\n").is_err());
        assert!(Lease::parse("mtnet-lease v3\nwarp = 9\n").is_err());

        let store = tmp_store("width");
        let coord = Coordinator::new(&store, "alive", 2);
        // An unparseable count is a death with an unknown history: it is
        // reclaimed once, not with a wrapped count.
        std::fs::write(coord.lease_path("aa"), lease("4294967296")).expect("plant");
        assert_eq!(reclaims_granted(&coord, "aa"), 1);
        // The largest count saturates into quarantine instead of overflowing.
        std::fs::write(coord.lease_path("bb"), lease("4294967295")).expect("plant");
        match coord.try_claim("bb", "cell").expect("claim io") {
            Claim::Quarantined(poison) => assert_eq!(poison.failures, u32::MAX),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // A truncated quarantine record still quarantines, history unknown.
        std::fs::write(poison_path(store.dir(), "cc"), "mtnet-poison v2\n").expect("plant");
        let record = load_poison(store.dir(), "cc").expect("present");
        assert_eq!(record.last_owner, "(corrupt record)");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unparseable_lease_follows_the_same_watch() {
        // A lease body that does not parse is a dead owner's like any
        // other: reclaimed at once, with an unknown history of 0.
        let store = tmp_store("unparseable");
        let coord = Coordinator::new(&store, "w", 2);
        // Garbage (invalid UTF-8 too), and leases in the two formats
        // before this one (wall-clock fields, then a heartbeat counter).
        let v1 = "mtnet-lease v1\nowner = w0@11672\npid = 11672\n\
                  claimed_ms = 1791163734786\nheartbeat_ms = 1791163734786\n\
                  reclaims = 2\nlabel = cell\n";
        let v2 = "mtnet-lease v2\nowner = w0@11672\npid = 11672\nbeat = 4\n\
                  reclaims = 2\nlabel = cell\n";
        for (key, text) in [
            ("0123456789abcdef", &b"not a lease\xff"[..]),
            ("fedcba9876543210", v1.as_bytes()),
            ("00112233445566aa", v2.as_bytes()),
        ] {
            std::fs::write(coord.lease_path(key), text).expect("plant");
            assert_eq!(reclaims_granted(&coord, key), 1, "{key}");
        }
        // A quarantine record in the older format still quarantines.
        let older_poison = "mtnet-poison v1\nfailures = 1\nlast_owner = w0@11672\n\
                            label = cell\nquarantined_ms = 1791163735297\n";
        std::fs::write(poison_path(store.dir(), "cc"), older_poison).expect("plant");
        assert!(matches!(
            coord.try_claim("cc", "cell").expect("io"),
            Claim::Quarantined(p) if p.last_owner == "(corrupt record)"
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn claim_is_mutually_exclusive_across_racing_threads() {
        let store = tmp_store("race");
        // Every claim is kept until all are counted: a winner that let
        // go early would leave its lease to be reclaimed by a later one.
        let claims: Vec<Claim> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let store = &store;
                    s.spawn(move || {
                        Coordinator::new(store, format!("w{i}"), 3)
                            .try_claim("deadbeef00000000", "cell")
                            .expect("claim io")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        let winners = claims
            .iter()
            .filter(|c| matches!(c, Claim::Owned(_)))
            .count();
        assert_eq!(winners, 1, "exactly one of 8 racing claimants may win");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_lease_is_reclaimed_with_bumped_count_then_quarantined() {
        let store = tmp_store("reclaim");
        let max_reclaims = 2;
        let coord = Coordinator::new(&store, "alive", max_reclaims);
        let peer = Coordinator::new(&store, "peer", max_reclaims);
        let key = "feedface00000000";
        // Plant the lease of a worker that died mid-cell.
        std::fs::write(coord.lease_path(key), dead(0).render()).expect("plant lease");
        let Claim::Owned(held) = coord.try_claim(key, "cell").expect("claim io") else {
            panic!("a dead owner's lease is reclaimed at once");
        };
        let written = on_disk(&coord, key);
        assert_eq!(written.reclaims, 1, "first reclaim bumps the count");
        assert_eq!(written.owner, "alive");
        // A held lease is not reclaimable.
        assert!(matches!(
            peer.try_claim(key, "cell").expect("claim io"),
            Claim::Busy
        ));
        drop(held);
        // Drive the reclaim count over the budget: each round plants a
        // dead lease carrying the previous count.
        for reclaims in 1..=max_reclaims {
            std::fs::write(coord.lease_path(key), dead(reclaims).render()).expect("plant stale");
            let claim = coord.try_claim(key, "cell").expect("claim io");
            if reclaims < max_reclaims {
                assert!(
                    matches!(claim, Claim::Owned(_)),
                    "round {reclaims}: {claim:?}"
                );
            } else {
                match claim {
                    Claim::Quarantined(poison) => {
                        assert_eq!(poison.failures, max_reclaims + 1);
                        assert_eq!(poison.last_owner, "dead@1");
                        assert!(poison_path(store.dir(), key).exists());
                        assert!(!coord.lease_path(key).exists());
                    }
                    other => panic!("expected quarantine, got {other:?}"),
                }
            }
        }
        // Once quarantined, every claim sees the poison record.
        assert!(matches!(
            coord.try_claim(key, "cell").expect("claim io"),
            Claim::Quarantined(_)
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_dropped_handle_is_reclaimed_at_once() {
        let store = tmp_store("dropped");
        let owner = Coordinator::new(&store, "owner", 3);
        let peer = Coordinator::new(&store, "peer", 3);
        let key = "0b5e55ed00000000";
        let Claim::Owned(held) = owner.try_claim(key, "cell").expect("io") else {
            panic!("a free cell is claimed");
        };
        assert_eq!(on_disk(&owner, key).reclaims, 0);
        assert!(matches!(
            peer.try_claim(key, "cell").expect("io"),
            Claim::Busy
        ));
        // The owner dies without completing: no waiting, one reclaim.
        drop(held);
        assert_eq!(reclaims_granted(&peer, key), 1);
        assert_eq!(on_disk(&peer, key).owner, "peer");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn release_frees_the_cell_for_the_next_claimant() {
        let store = tmp_store("release");
        let coord = Coordinator::new(&store, "w", 3);
        let key = "cafebabe00000000";
        let Claim::Owned(held) = coord.try_claim(key, "c").expect("io") else {
            panic!("a free cell is claimed");
        };
        // A peer that opened the lease before the release and locks it
        // after reads it empty: a finished cell is no death.
        let mut early = File::open(coord.lease_path(key)).expect("open lease");
        held.release().expect("release");
        assert!(!coord.lease_path(key).exists());
        early.lock().expect("lock the old lease");
        let mut body = String::new();
        early.read_to_string(&mut body).expect("read");
        assert_eq!(body, "");
        drop(early);
        assert_eq!(reclaims_granted(&coord, key), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flag_and_env_parsers_validate() {
        assert_eq!(parse_worker_count("3").unwrap(), 3);
        assert!(parse_worker_count("0").is_err());
        assert!(parse_worker_count("-2").is_err());
        assert!(parse_worker_count("many").is_err());
        assert_eq!(parse_max_reclaims("0").unwrap(), 0);
        assert!(parse_max_reclaims("-1").is_err());
    }

    /// What no count parser may accept, whatever its range.
    fn hostile_counts() -> Vec<String> {
        let mut bad: Vec<String> = [
            "", " ", "+4", "-1", "1e3", "4 2", "\u{663}", // ARABIC-INDIC DIGIT THREE
            "4\0", "\x004", "0x10",
        ]
        .map(String::from)
        .into();
        bad.push("9".repeat(20));
        bad
    }

    #[test]
    fn parse_worker_count_rejects_hostile_input() {
        for bad in hostile_counts().iter().chain([&"0".to_string()]) {
            let err = parse_worker_count(bad).expect_err(bad);
            assert!(err.contains("--workers"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_max_reclaims_rejects_hostile_input() {
        for bad in &hostile_counts() {
            let err = parse_max_reclaims(bad).expect_err(bad);
            assert!(err.contains("--max-reclaims"), "{bad:?}: {err}");
        }
        assert_eq!(parse_max_reclaims(" 0 "), Ok(0));
    }

    #[test]
    fn report_aggregates_mean_and_ci_over_reps() {
        let store = tmp_store("report");
        let plan = SweepPlan {
            family: "commute-corridor".into(),
            base: ScenarioSpec::commute_corridor().with_duration_s(100.0),
            axes: vec![parse_axis("vehicles=1,2").unwrap()],
            replications: 2,
            effort: Effort::Quick,
        };
        let outcome = run_worker(&plan, 42, &store, 3, "w@1").expect("sweep");
        assert_eq!(outcome.computed, 4);
        let report = report_sweep(&plan, 42, &store).expect("report");
        assert_eq!(report.points, 2);
        assert_eq!(
            (report.complete, report.missing, report.quarantined),
            (4, 0, 0)
        );
        // The "events" column of point vehicles=1 must be the by-hand
        // mean ± ci95 of its two replications.
        let mut by_hand = Summary::new();
        for cell in &plan.cells().unwrap()[0..2] {
            let run = store.load(&cell.spec.render(), 42).expect("stored");
            by_hand.record(run.metric("events").unwrap().as_f64());
        }
        let expected = fmt_aggregate("events", Some(&by_hand));
        let rendered = report.table.to_string();
        assert!(
            rendered.contains(&expected),
            "report table missing {expected:?}:\n{rendered}"
        );
        // Deleting one slot: the report degrades (n shrinks), not fails.
        let victim_text = plan.cells().unwrap()[0].spec.render();
        std::fs::remove_file(store.path_of(&ResultStore::key(&victim_text, 42))).expect("rm");
        let partial = report_sweep(&plan, 42, &store).expect("partial report");
        assert_eq!((partial.complete, partial.missing), (3, 1));
        assert_eq!(
            exit_code(report.quarantined, report.missing),
            0,
            "complete grid reports clean"
        );
        assert_eq!(
            exit_code(partial.quarantined, partial.missing),
            1,
            "missing cells mean resume"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn report_on_all_poison_grid_exits_3_and_names_the_cells() {
        let store = tmp_store("allpoison");
        let plan = SweepPlan {
            family: "commute-corridor".into(),
            base: ScenarioSpec::commute_corridor().with_duration_s(100.0),
            axes: vec![parse_axis("vehicles=1,2").unwrap()],
            replications: 2,
            effort: Effort::Quick,
        };
        let cells = plan.cells().expect("cells");
        // Quarantine every cell without computing anything, the way the
        // lease protocol would after repeated worker deaths.
        for cell in &cells {
            let key = ResultStore::key(&cell.spec.render(), 42);
            let poison = Poison {
                failures: 3,
                last_owner: "dead@1".into(),
                label: cell.label.clone(),
            };
            std::fs::write(poison_path(store.dir(), &key), poison.render()).expect("plant poison");
        }
        let report = report_sweep(&plan, 42, &store).expect("report");
        assert_eq!(
            (report.complete, report.quarantined, report.missing),
            (0, 4, 0)
        );
        assert_eq!(
            exit_code(report.quarantined, report.missing),
            3,
            "all-poison grid must exit 3"
        );
        let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
        assert_eq!(
            report.quarantined_cells, labels,
            "the report must name every quarantined cell"
        );
        // Quarantine outranks nothing here — but with one cell also
        // missing, missing wins (exit 1 means "resume first").
        let key0 = ResultStore::key(&cells[0].spec.render(), 42);
        std::fs::remove_file(poison_path(store.dir(), &key0)).expect("rm poison");
        let mixed = report_sweep(&plan, 42, &store).expect("mixed report");
        assert_eq!((mixed.quarantined, mixed.missing), (3, 1));
        assert_eq!(exit_code(mixed.quarantined, mixed.missing), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
