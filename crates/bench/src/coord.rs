//! Crash-safe multi-worker sweep coordination over the shared
//! [`crate::store::ResultStore`] directory.
//!
//! N worker processes (on one machine or many, sharing one directory)
//! drain one sweep grid cooperatively. The protocol is lease files next
//! to the store's `<key>.run` slots, built from the same crash-safe
//! primitives the store itself uses:
//!
//! * **Claim** — a worker claims a cell by *atomically creating*
//!   `<key>.lease` (content written to a unique temp file, then
//!   [`std::fs::hard_link`]ed into place — link fails with
//!   `AlreadyExists` when another worker holds the lease, so exactly one
//!   claimant wins any race).
//! * **Heartbeat** — while computing, the owner refreshes the lease's
//!   heartbeat timestamp (temp file + rename over its own lease) every
//!   quarter of the lease timeout from a background thread, so a slow
//!   cell is never mistaken for a dead worker.
//! * **Reclaim** — a lease whose heartbeat is older than the timeout is
//!   presumed abandoned (worker killed mid-cell). Any live worker may
//!   reclaim it work-stealing style: atomically rename the stale lease
//!   aside (only one renamer can win), then re-claim through the same
//!   atomic-create path with the reclaim count bumped.
//! * **Quarantine** — a cell abandoned more than
//!   [`CoordConfig::max_reclaims`] times is presumed poisoned (it kills
//!   whoever computes it). Instead of retrying forever, the reclaiming
//!   worker records `<key>.poison` (failure count, last owner) and the
//!   fleet degrades gracefully: every other cell still completes, and
//!   the final report exits nonzero naming the quarantined cells.
//! * **Completion** — the owner saves the result through the store's own
//!   atomic save, then releases (deletes) its lease. Completed cells are
//!   answered from the store and never recomputed, so crash-and-resume
//!   keeps the store's exactly-once contract: each `.run` file is
//!   written by exactly one successful compute.
//!
//! The staleness test is wall-clock (`SystemTime`), so on a shared
//! directory the lease timeout must exceed worker clock skew plus the
//! heartbeat interval. A live worker that stalls longer than the
//! timeout (swap storm, debugger) can be falsely reclaimed; the result
//! is duplicate work, never corruption — both computes produce
//! bit-identical bytes and the store save is an atomic rename.
//!
//! Lease and quarantine files are [`mtnet_core::kv`] records (every key
//! required, counters parsed at `u32`), declared once in this module's
//! `LEASE` and `POISON` field tables; [`cell_state`] is the one place a
//! cell's files are read back into complete / leased / quarantined /
//! missing.
//!
//! Testing hook: setting `MTNET_SWEEP_KILL_CELL=<substring>` makes a
//! worker abort the moment it claims a cell whose label contains the
//! substring — a deterministic stand-in for "this cell crashes its
//! worker", used by the kill-torture tests and CI to exercise reclaim
//! and quarantine without timing races.

use crate::store::{tmp_sibling, write_atomic, Publish, ResultStore, StoredRun};
use crate::sweep::{fmt_metric, grid_row, grid_table, SweepCell, SweepPlan};
use mtnet_core::kv::{self, field, Kind, Presence::Required, Record};
use mtnet_core::lens;
use mtnet_metrics::{Replicates, Table};
use mtnet_sim::rng::{fnv1a, RngStream, FNV_OFFSET};
use mtnet_sim::runner::parse_count;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Testing hook: a worker that claims a cell whose label contains this
/// value prints a marker and aborts, simulating a crash on that cell.
/// One of the two environment variables the workspace reads: it has to
/// reach every worker of a fleet, children included, without being an
/// option a user could pass by accident — it is not a flag on purpose.
pub const KILL_CELL_ENV: &str = "MTNET_SWEEP_KILL_CELL";

/// Milliseconds since the unix epoch, for lease timestamps.
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One cell's lease, as stored in `<key>.lease`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lease {
    /// Owner id (worker id + pid, unique per worker process).
    pub owner: String,
    /// Owner's process id (diagnostics only — staleness is heartbeats).
    pub pid: u32,
    /// When the cell was first claimed (unix ms).
    pub claimed_ms: u64,
    /// Last heartbeat (unix ms); stale when older than the timeout.
    pub heartbeat_ms: u64,
    /// How many times this cell's lease has been reclaimed from a dead
    /// owner. Exceeding [`CoordConfig::max_reclaims`] quarantines it.
    pub reclaims: u32,
    /// Human-readable cell label.
    pub label: String,
}

/// The lease file. Every key is required: a file cut short is an error
/// (and so falls back to mtime staleness), never a lease owned by `""`.
#[rustfmt::skip]
static LEASE: Record<Lease> = Record {
    header: "mtnet-lease v1",
    comments: false,
    init: Lease::default,
    fields: &[
        field("owner", Required, Kind::Raw(lens!(owner))),
        field("pid", Required, Kind::U32(lens!(pid), 0..=u32::MAX)),
        field("claimed_ms", Required, Kind::U64(lens!(claimed_ms))),
        field("heartbeat_ms", Required, Kind::U64(lens!(heartbeat_ms))),
        field("reclaims", Required, Kind::U32(lens!(reclaims), 0..=u32::MAX)),
        field("label", Required, Kind::Raw(lens!(label))),
    ],
    blocks: &[],
};

impl Lease {
    /// Serializes to the lease file format.
    pub fn render(&self) -> String {
        LEASE.render(self)
    }

    /// Parses the lease file format.
    pub fn parse(text: &str) -> Result<Lease, kv::Error> {
        LEASE.parse(text)
    }

    /// True when the last heartbeat is older than `timeout_ms` at `now`
    /// — the owner is presumed dead and the lease reclaimable. A
    /// heartbeat exactly `timeout_ms` old is still live (strictly
    /// older-than), so the boundary is deterministic.
    pub fn is_stale(&self, now_ms: u64, timeout_ms: u64) -> bool {
        now_ms.saturating_sub(self.heartbeat_ms) > timeout_ms
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
    /// When the cell was quarantined (unix ms).
    pub quarantined_ms: u64,
}

/// The quarantine record; every key is required, as for [`LEASE`].
#[rustfmt::skip]
static POISON: Record<Poison> = Record {
    header: "mtnet-poison v1",
    comments: false,
    init: Poison::default,
    fields: &[
        field("failures", Required, Kind::U32(lens!(failures), 0..=u32::MAX)),
        field("last_owner", Required, Kind::Raw(lens!(last_owner))),
        field("label", Required, Kind::Raw(lens!(label))),
        field("quarantined_ms", Required, Kind::U64(lens!(quarantined_ms))),
    ],
    blocks: &[],
};

impl Poison {
    /// Serializes to the quarantine-record file format.
    pub fn render(&self) -> String {
        POISON.render(self)
    }

    /// Parses the quarantine-record file format.
    pub fn parse(text: &str) -> Result<Poison, kv::Error> {
        POISON.parse(text)
    }
}

/// Tuning knobs of the lease protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordConfig {
    /// A lease whose heartbeat is older than this is reclaimable.
    pub lease_timeout_ms: u64,
    /// A cell reclaimed more than this many times is quarantined.
    pub max_reclaims: u32,
    /// Base of the jittered exponential backoff between claim passes.
    pub backoff_base_ms: u64,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            lease_timeout_ms: 10_000,
            max_reclaims: 3,
            backoff_base_ms: 25,
        }
    }
}

impl CoordConfig {
    /// Heartbeat refresh period: a quarter of the timeout, so a live
    /// owner gets ~4 chances to beat before being presumed dead.
    pub fn heartbeat_interval_ms(&self) -> u64 {
        (self.lease_timeout_ms / 4).max(10)
    }
}

/// Validates the `--workers` count: a positive integer.
pub fn parse_worker_count(value: &str) -> Result<usize, String> {
    match parse_count::<usize>(value) {
        Some(n) if n >= 1 => Ok(n),
        _ => Err(format!("--workers needs a positive integer, got {value:?}")),
    }
}

/// Validates the `--lease-timeout-ms` value: a positive integer.
pub fn parse_timeout_ms(value: &str) -> Result<u64, String> {
    match parse_count::<u64>(value) {
        Some(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--lease-timeout-ms needs a positive integer (milliseconds), got {value:?}"
        )),
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
        quarantined_ms: 0,
    }))
}

/// Outcome of one claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// This worker now owns the cell and must compute + release it.
    Owned(Lease),
    /// Another live worker holds the lease (or won a claim race) —
    /// revisit after a backoff.
    Busy,
    /// The cell is quarantined; nobody will retry it.
    Quarantined(Poison),
}

/// The lease-protocol side of one worker: claim, heartbeat, release,
/// reclaim and quarantine, all under one store directory.
#[derive(Debug)]
pub struct Coordinator {
    dir: PathBuf,
    owner: String,
    cfg: CoordConfig,
}

impl Coordinator {
    /// A coordinator for `owner` over the store's directory.
    pub fn new(store: &ResultStore, owner: impl Into<String>, cfg: CoordConfig) -> Coordinator {
        Coordinator {
            dir: store.dir().to_path_buf(),
            owner: owner.into(),
            cfg,
        }
    }

    /// This worker's owner id.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The protocol configuration.
    pub fn config(&self) -> &CoordConfig {
        &self.cfg
    }

    /// The lease path for a store key.
    pub fn lease_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lease"))
    }

    /// Attempts to claim a cell. Exactly one concurrent claimant can win
    /// ([`Claim::Owned`]); stale leases are reclaimed in passing, and a
    /// cell over the reclaim budget is quarantined here.
    pub fn try_claim(&self, key: &str, label: &str) -> io::Result<Claim> {
        if let Some(poison) = load_poison(&self.dir, key) {
            return Ok(Claim::Quarantined(poison));
        }
        let lease_path = self.lease_path(key);
        // Stale-lease reclaim: read the incumbent (a lease that does not
        // parse — tampered with, cut short — falls back to file mtime as
        // its heartbeat, with an unknown reclaim history of 0).
        let incumbent = match std::fs::read_to_string(&lease_path) {
            Ok(text) => Some(Lease::parse(&text).unwrap_or_else(|_| {
                Lease {
                    owner: "(unparseable lease)".into(),
                    heartbeat_ms: std::fs::metadata(&lease_path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                        .map_or(0, |d| d.as_millis() as u64),
                    ..Lease::default()
                }
            })),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let reclaims = match incumbent {
            Some(old) => {
                if !old.is_stale(now_unix_ms(), self.cfg.lease_timeout_ms) {
                    return Ok(Claim::Busy);
                }
                // Rename the stale lease aside: atomic, so exactly one
                // of any number of would-be reclaimers proceeds.
                let graveyard = tmp_sibling(&lease_path);
                match std::fs::rename(&lease_path, &graveyard) {
                    Ok(()) => {
                        let _ = std::fs::remove_file(&graveyard);
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Claim::Busy),
                    Err(e) => return Err(e),
                }
                let failures = old.reclaims.saturating_add(1);
                if failures > self.cfg.max_reclaims {
                    let poison = Poison {
                        failures,
                        last_owner: old.owner,
                        label: label.to_string(),
                        quarantined_ms: now_unix_ms(),
                    };
                    self.write_poison(key, &poison)?;
                    return Ok(Claim::Quarantined(poison));
                }
                failures
            }
            None => 0,
        };
        // Atomic create: fails if any other worker claimed first.
        let lease = self.fresh_lease(label, reclaims);
        match write_atomic(&lease_path, lease.render().as_bytes(), Publish::CreateNew) {
            Ok(()) => Ok(Claim::Owned(lease)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(Claim::Busy),
            Err(e) => Err(e),
        }
    }

    /// A lease owned by this worker, claimed and beating now.
    fn fresh_lease(&self, label: &str, reclaims: u32) -> Lease {
        let now = now_unix_ms();
        Lease {
            owner: self.owner.clone(),
            pid: std::process::id(),
            claimed_ms: now,
            heartbeat_ms: now,
            reclaims,
            label: label.to_string(),
        }
    }

    /// Refreshes an owned lease's heartbeat (atomically replacing our own
    /// lease file — only ever called while owning the key).
    pub fn refresh(&self, key: &str, lease: &Lease) -> io::Result<()> {
        let beat = Lease {
            heartbeat_ms: now_unix_ms(),
            ..lease.clone()
        };
        let bytes = beat.render();
        write_atomic(&self.lease_path(key), bytes.as_bytes(), Publish::Replace)
    }

    /// Releases an owned lease (after the result is saved).
    pub fn release(&self, key: &str) -> io::Result<()> {
        std::fs::remove_file(self.lease_path(key))
    }

    /// Writes a quarantine record.
    fn write_poison(&self, key: &str, poison: &Poison) -> io::Result<()> {
        let path = poison_path(&self.dir, key);
        write_atomic(&path, poison.render().as_bytes(), Publish::Replace)
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
    /// Store keys this worker saved, in completion order.
    pub saved_keys: Vec<String>,
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
/// computed by us, completed by a peer, or quarantined. Blocks while
/// peers hold live leases (their heartbeats keep refreshing); reclaims
/// the moment a lease goes stale. Cells are visited starting at an
/// owner-specific offset so a fleet spreads its first claims instead of
/// stampeding cell 0.
pub fn run_worker(
    plan: &SweepPlan,
    master_seed: u64,
    store: &ResultStore,
    cfg: CoordConfig,
    owner: &str,
) -> Result<WorkerOutcome, String> {
    let cells = plan.cells()?;
    let coord = Coordinator::new(store, owner, cfg);
    let kill_cell = std::env::var(KILL_CELL_ENV).ok().filter(|v| !v.is_empty());
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
    let mut fates: Vec<Option<Fate>> = vec![None; cells.len()];
    let offset = if cells.is_empty() {
        0
    } else {
        fnv1a(FNV_OFFSET, owner.as_bytes()) as usize % cells.len()
    };
    let mut jitter = RngStream::derive(fnv1a(FNV_OFFSET, owner.as_bytes()), "coord.jitter");
    let mut idle_rounds: u32 = 0;
    loop {
        let mut progress = false;
        for step in 0..cells.len() {
            let i = (step + offset) % cells.len();
            if fates[i].is_some() {
                continue;
            }
            let (key, label) = (&keys[i], &cells[i].label);
            if complete(i) {
                fates[i] = Some(Fate::Loaded);
                progress = true;
                continue;
            }
            match coord
                .try_claim(key, label)
                .map_err(|e| format!("claim {key}: {e}"))?
            {
                Claim::Busy => {}
                Claim::Quarantined(poison) => {
                    println!(
                        "worker {owner}: quarantined {key} ({label}) after {} failures \
                         (last owner {})",
                        poison.failures, poison.last_owner
                    );
                    fates[i] = Some(Fate::Quarantined);
                    progress = true;
                }
                Claim::Owned(lease) => {
                    // Claim-then-recheck: a peer may have completed the
                    // cell between our store probe and the claim.
                    if complete(i) {
                        let _ = coord.release(key);
                        fates[i] = Some(Fate::Loaded);
                        progress = true;
                        continue;
                    }
                    if kill_cell.as_deref().is_some_and(|k| label.contains(k)) {
                        println!("worker {owner}: killed by {KILL_CELL_ENV} on ({label})");
                        // Abort without unwinding: the lease survives,
                        // exactly like a SIGKILL mid-compute.
                        std::process::abort();
                    }
                    let report = compute_with_heartbeats(&coord, key, &lease, || {
                        cells[i].spec.run(master_seed)
                    });
                    let run = StoredRun::from_report(label, &cells[i].spec, master_seed, &report);
                    store
                        .save(&run)
                        .map_err(|e| format!("store write {key}: {e}"))?;
                    coord
                        .release(key)
                        .map_err(|e| format!("release {key}: {e}"))?;
                    println!("worker {owner}: saved {key} ({label})");
                    fates[i] = Some(Fate::Computed);
                    progress = true;
                }
            }
        }
        if fates.iter().all(Option::is_some) {
            break;
        }
        // Jittered exponential backoff: cheap spins while the fleet is
        // making progress, longer (capped) waits while blocked on peers'
        // leases. Jitter is deterministic per owner, so two workers
        // never stay phase-locked.
        idle_rounds = if progress {
            0
        } else {
            idle_rounds.saturating_add(1)
        };
        let cap = (cfg.lease_timeout_ms / 2).max(cfg.backoff_base_ms);
        let base = cfg
            .backoff_base_ms
            .saturating_mul(1u64 << idle_rounds.min(8))
            .min(cap);
        let ms = ((base as f64) * jitter.uniform(0.5, 1.5)).max(1.0) as u64;
        std::thread::sleep(Duration::from_millis(ms));
    }
    let count = |fate: Fate| fates.iter().filter(|f| **f == Some(fate)).count();
    let saved_keys = fates
        .iter()
        .zip(&keys)
        .filter(|(f, _)| **f == Some(Fate::Computed))
        .map(|(_, key)| key.clone())
        .collect();
    Ok(WorkerOutcome {
        cells: cells.len(),
        computed: count(Fate::Computed),
        loaded: count(Fate::Loaded),
        quarantined: count(Fate::Quarantined),
        saved_keys,
    })
}

/// Runs `compute` while a background thread refreshes the lease's
/// heartbeat every [`CoordConfig::heartbeat_interval_ms`], so a long
/// cell is never presumed abandoned while its worker is alive.
fn compute_with_heartbeats<R: Send>(
    coord: &Coordinator,
    key: &str,
    lease: &Lease,
    compute: impl FnOnce() -> R + Send,
) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let interval = Duration::from_millis(coord.config().heartbeat_interval_ms());
            let slice = interval
                .min(Duration::from_millis(10))
                .max(Duration::from_millis(1));
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                if last.elapsed() >= interval {
                    let _ = coord.refresh(key, lease);
                    last = Instant::now();
                }
            }
        });
        let result = compute();
        stop.store(true, Ordering::Relaxed);
        result
    })
}

/// What the store directory says about one cell.
#[derive(Debug)]
pub enum CellState {
    /// `<key>.run` holds the cell's result.
    Complete(StoredRun),
    /// No result yet; a worker's lease (live or stale) is on the cell.
    Leased(Lease),
    /// No result; given up on after repeated worker deaths.
    Quarantined(Poison),
    /// No result, no quarantine record, no readable lease.
    Missing,
}

/// Reads one cell's state back from the store directory — the single
/// classification the sweep engine, the workers, the fleet's final
/// table and `--report` all go through.
pub fn cell_state(store: &ResultStore, cell: &SweepCell, master_seed: u64) -> CellState {
    let spec_text = cell.spec.render();
    if let Some(run) = store.load(&spec_text, master_seed) {
        return CellState::Complete(run);
    }
    let key = ResultStore::key(&spec_text, master_seed);
    if let Some(poison) = load_poison(store.dir(), &key) {
        return CellState::Quarantined(poison);
    }
    let lease = std::fs::read_to_string(store.dir().join(format!("{key}.lease")));
    match lease.ok().and_then(|text| Lease::parse(&text).ok()) {
        Some(lease) => CellState::Leased(lease),
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
            CellState::Leased(_) | CellState::Missing => {
                grid.missing += 1;
                (None, "missing".to_string())
            }
        };
        let metric = |m: &str| run.as_ref().map_or("-".into(), |run| fmt_metric(run, m));
        let rep = cell.replication.to_string();
        grid.table
            .row(grid_row(&cell.assignments, rep, metric, Some(status)));
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

/// Formats one aggregated metric column: mean ± normal-approximation
/// 95% CI over the point's replications (loss rates as percentages,
/// like the per-cell tables).
fn fmt_aggregate(name: &str, agg: &Replicates) -> String {
    match agg.get(name) {
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
/// so a point's cells are contiguous), replications pool into a
/// [`Replicates`] per point, and each metric column reports
/// mean ± 95% CI. Missing and quarantined cells are counted (and shrink
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
        let mut agg = Replicates::new();
        let (mut present, mut poisoned) = (0, 0);
        for cell in point {
            match cell_state(store, cell, master_seed) {
                CellState::Complete(run) => {
                    present += 1;
                    for (name, value) in &run.metrics {
                        agg.record(name, value.as_f64());
                    }
                }
                CellState::Quarantined(_) => {
                    poisoned += 1;
                    out.quarantined_cells.push(cell.label.clone());
                }
                CellState::Leased(_) | CellState::Missing => out.missing += 1,
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
        let metric = |m: &str| fmt_aggregate(m, &agg);
        out.table
            .row(grid_row(&point[0].assignments, n, metric, None));
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

    fn quick_cfg() -> CoordConfig {
        CoordConfig {
            lease_timeout_ms: 200,
            max_reclaims: 2,
            backoff_base_ms: 1,
        }
    }

    #[test]
    fn counters_parse_at_their_width_and_every_key_is_required() {
        let lease = |reclaims: &str| {
            let dead = Lease {
                owner: "dead@1".into(),
                heartbeat_ms: 1,
                ..Lease::default()
            };
            dead.render()
                .replace("reclaims = 0", &format!("reclaims = {reclaims}"))
        };
        assert_eq!(Lease::parse(&lease("7")).expect("valid").reclaims, 7);
        // One past `u32::MAX` used to wrap to 0 and reset the budget.
        assert!(Lease::parse(&lease("4294967296")).is_err());
        assert!(Lease::parse(&lease("99999999999999999999")).is_err());
        // A file cut after its header is an error, not an empty record.
        assert!(Lease::parse("mtnet-lease v1\n").is_err());
        assert!(Poison::parse("mtnet-poison v1\nfailures = 1\n").is_err());
        assert!(Lease::parse("mtnet-lease v1\nwarp = 9\n").is_err());

        let store = tmp_store("width");
        let coord = Coordinator::new(&store, "alive", quick_cfg());
        // An unparseable count falls back to mtime staleness: the file is
        // fresh, so the cell is busy — not reclaimed with a zeroed count.
        std::fs::write(coord.lease_path("aa"), lease("4294967296")).expect("plant");
        assert!(matches!(
            coord.try_claim("aa", "cell").expect("io"),
            Claim::Busy
        ));
        // The largest count saturates into quarantine instead of overflowing.
        std::fs::write(coord.lease_path("bb"), lease("4294967295")).expect("plant");
        match coord.try_claim("bb", "cell").expect("io") {
            Claim::Quarantined(poison) => assert_eq!(poison.failures, u32::MAX),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // A truncated quarantine record still quarantines, history unknown.
        std::fs::write(poison_path(store.dir(), "cc"), "mtnet-poison v1\n").expect("plant");
        let record = load_poison(store.dir(), "cc").expect("present");
        assert_eq!(record.last_owner, "(corrupt record)");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn staleness_boundary_is_strictly_older_than() {
        let lease = Lease {
            owner: "w".into(),
            pid: 1,
            claimed_ms: 1_000,
            heartbeat_ms: 1_000,
            reclaims: 0,
            label: String::new(),
        };
        // Exactly at the timeout: still live. One past: stale.
        assert!(!lease.is_stale(1_000 + 500, 500));
        assert!(lease.is_stale(1_000 + 501, 500));
        // A heartbeat from the future (clock skew) is never stale.
        assert!(!lease.is_stale(900, 500));
    }

    #[test]
    fn claim_is_mutually_exclusive_across_racing_threads() {
        let store = tmp_store("race");
        let cfg = CoordConfig::default();
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let store = &store;
                    s.spawn(move || {
                        let coord = Coordinator::new(store, format!("w{i}"), cfg);
                        matches!(
                            coord
                                .try_claim("deadbeef00000000", "cell")
                                .expect("claim io"),
                            Claim::Owned(_)
                        ) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("join")).sum()
        });
        assert_eq!(winners, 1, "exactly one of 8 racing claimants may win");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_lease_is_reclaimed_with_bumped_count_then_quarantined() {
        let store = tmp_store("reclaim");
        let cfg = quick_cfg();
        let coord = Coordinator::new(&store, "alive", cfg);
        let key = "feedface00000000";
        // Plant a lease whose heartbeat is long past.
        let dead = Lease {
            owner: "dead@1".into(),
            pid: 1,
            claimed_ms: 1,
            heartbeat_ms: 1,
            reclaims: 0,
            label: "cell".into(),
        };
        std::fs::write(coord.lease_path(key), dead.render()).expect("plant lease");
        match coord.try_claim(key, "cell").expect("claim io") {
            Claim::Owned(lease) => {
                assert_eq!(lease.reclaims, 1, "first reclaim bumps the count");
                assert_eq!(lease.owner, "alive");
            }
            other => panic!("expected reclaim to win, got {other:?}"),
        }
        // A fresh (just-written) lease is not reclaimable.
        assert!(matches!(
            coord.try_claim(key, "cell").expect("claim io"),
            Claim::Busy
        ));
        // Drive the reclaim count over the budget: each round plants a
        // stale lease carrying the previous count.
        for reclaims in 1..=cfg.max_reclaims {
            let stale = Lease {
                heartbeat_ms: 1,
                reclaims,
                ..dead.clone()
            };
            std::fs::write(coord.lease_path(key), stale.render()).expect("plant stale");
            let claim = coord.try_claim(key, "cell").expect("claim io");
            if reclaims < cfg.max_reclaims {
                assert!(
                    matches!(claim, Claim::Owned(_)),
                    "round {reclaims}: {claim:?}"
                );
            } else {
                match claim {
                    Claim::Quarantined(poison) => {
                        assert_eq!(poison.failures, cfg.max_reclaims + 1);
                        assert_eq!(poison.last_owner, "dead@1");
                        assert!(poison_path(store.dir(), key).exists());
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
    fn unparseable_lease_falls_back_to_mtime_staleness() {
        let store = tmp_store("unparseable");
        let coord = Coordinator::new(&store, "w", quick_cfg());
        let key = "0123456789abcdef";
        std::fs::write(coord.lease_path(key), "not a lease").expect("plant garbage");
        // Freshly written: mtime is now, so the lease is busy, not free.
        assert!(matches!(
            coord.try_claim(key, "cell").expect("claim io"),
            Claim::Busy
        ));
        // Once the mtime ages past the timeout it is reclaimed.
        std::thread::sleep(Duration::from_millis(quick_cfg().lease_timeout_ms + 50));
        assert!(matches!(
            coord.try_claim(key, "cell").expect("claim io"),
            Claim::Owned(_)
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn release_frees_the_cell_for_the_next_claimant() {
        let store = tmp_store("release");
        let coord = Coordinator::new(&store, "w", CoordConfig::default());
        let key = "cafebabe00000000";
        assert!(matches!(
            coord.try_claim(key, "c").expect("io"),
            Claim::Owned(_)
        ));
        coord.release(key).expect("release");
        assert!(matches!(
            coord.try_claim(key, "c").expect("io"),
            Claim::Owned(_)
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flag_and_env_parsers_validate() {
        assert_eq!(parse_worker_count("3").unwrap(), 3);
        assert!(parse_worker_count("0").is_err());
        assert!(parse_worker_count("-2").is_err());
        assert!(parse_worker_count("many").is_err());
        assert_eq!(parse_timeout_ms("1500").unwrap(), 1500);
        assert!(parse_timeout_ms("0").is_err());
        assert!(parse_timeout_ms("soon").is_err());
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
    fn parse_timeout_ms_rejects_hostile_input() {
        for bad in hostile_counts().iter().chain([&"0".to_string()]) {
            let err = parse_timeout_ms(bad).expect_err(bad);
            assert!(err.contains("--lease-timeout-ms"), "{bad:?}: {err}");
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
        let runner = mtnet_sim::runner::BatchRunner::new(1);
        let plan = SweepPlan {
            family: "commute-corridor".into(),
            base: ScenarioSpec::commute_corridor().with_duration_s(100.0),
            axes: vec![parse_axis("vehicles=1,2").unwrap()],
            replications: 2,
            effort: Effort::Quick,
        };
        let outcome = crate::sweep::run_sweep(&plan, 42, Some(&store), &runner).expect("sweep");
        assert_eq!(outcome.computed, 4);
        let report = report_sweep(&plan, 42, &store).expect("report");
        assert_eq!(report.points, 2);
        assert_eq!(
            (report.complete, report.missing, report.quarantined),
            (4, 0, 0)
        );
        // The "events" column of point vehicles=1 must be the by-hand
        // mean ± ci95 of its two replications.
        let mut by_hand = Replicates::new();
        for run in &outcome.runs[0..2] {
            by_hand.record("events", run.metric("events").unwrap().as_f64());
        }
        let expected = fmt_aggregate("events", &by_hand);
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
                quarantined_ms: 1_700_000_000_000,
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
