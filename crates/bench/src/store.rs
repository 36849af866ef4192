//! Content-addressed, resumable on-disk result store for sweeps.
//!
//! One completed sweep cell = one file under the store directory, named
//! by [`ResultStore::key`] — a 64-bit FNV-1a hash of the cell's
//! **canonical spec text** (see `ScenarioSpec::render`) plus the master
//! seed. Since the canonical text covers every field that can influence
//! a run (geometry, population, traffic, protocol knobs, duration, seed
//! path), two cells share a slot **iff** they would produce the same
//! report — so re-invoking an interrupted or extended sweep recomputes
//! only the cells that are actually missing.
//!
//! A stored cell carries the run's identity, its bit-exact
//! `SimReport::fingerprint`, and a fixed set of extracted metrics with
//! floats serialized as IEEE-754 bit patterns — a loaded cell therefore
//! renders **byte-identically** to the run that produced it, and equals
//! a direct (storeless) run of the same spec (asserted by
//! `tests/sweep_store.rs`). Loads verify the stored spec text and master
//! seed before trusting a slot, so a hash collision degrades to a
//! recompute, never a wrong result.
//!
//! The slot file is a [`mtnet_core::kv`] record — the scalar block is
//! declared in this module's `RUN` field table, the metric, spec and
//! fingerprint lines are its prefixed blocks. Slots here and quarantine
//! records in [`crate::coord`] are published through the one
//! `write_atomic`; a lease is the one file written in place, through the
//! handle that holds its lock.
//!
//! Every writer of a cell's files holds that cell's lease lock, so one
//! fixed temp name per file (`<key>.run.tmp`, `<key>.poison.tmp`) never
//! has two writers. A writer that crashes mid-save leaves its temp file
//! behind, and the cell's next owner truncates and renames it. A
//! quarantined cell has no next owner and may keep one stray
//! `.run.tmp`; [`ResultStore::keys`] and [`ResultStore::load`] never
//! read it.

use mtnet_core::kv::{self, field, Kind, Presence::Required, Record};
use mtnet_core::lens;
use mtnet_core::report::SimReport;
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::rng::{fnv1a, FNV_OFFSET};
use std::io;
use std::path::{Path, PathBuf};

/// One extracted metric value: exact counters or bit-exact floats.
#[derive(Debug, Clone, Copy)]
pub enum MetricValue {
    /// A counter.
    U(u64),
    /// A float, serialized as its IEEE-754 bit pattern.
    F(f64),
}

/// Floats compare by bit pattern, as they are stored: a NaN metric
/// equals itself, and `0.0` is not `-0.0`.
impl PartialEq for MetricValue {
    fn eq(&self, other: &MetricValue) -> bool {
        match (*self, *other) {
            (MetricValue::U(a), MetricValue::U(b)) => a == b,
            (MetricValue::F(a), MetricValue::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl MetricValue {
    /// The value as `f64` (counters converted).
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::U(v) => v as f64,
            MetricValue::F(v) => v,
        }
    }

    fn render(self) -> String {
        match self {
            MetricValue::U(v) => format!("u {v}"),
            MetricValue::F(v) => format!("f {:016x} # {v:?}", v.to_bits()),
        }
    }

    fn parse(text: &str) -> Option<MetricValue> {
        let text = text.split('#').next()?.trim();
        let (kind, value) = text.split_once(' ')?;
        match kind {
            "u" => value.trim().parse().ok().map(MetricValue::U),
            "f" => u64::from_str_radix(value.trim(), 16)
                .ok()
                .map(|bits| MetricValue::F(f64::from_bits(bits))),
            _ => None,
        }
    }
}

/// The fixed metric surface extracted from every stored run — everything
/// the sweep tables render, in a stable order.
pub fn extract_metrics(report: &SimReport) -> Vec<(&'static str, MetricValue)> {
    let q = report.aggregate_qos();
    let h = &report.handoffs;
    let drops = |c| report.drops.get(&c).copied().unwrap_or(0);
    use mtnet_core::report::DropCause;
    vec![
        ("sent", MetricValue::U(q.sent)),
        ("received", MetricValue::U(q.received)),
        ("duplicates", MetricValue::U(q.duplicates)),
        ("loss_rate", MetricValue::F(q.loss_rate)),
        ("mean_delay_ms", MetricValue::F(q.mean_delay_ms)),
        ("p95_delay_ms", MetricValue::F(q.p95_delay_ms)),
        ("jitter_ms", MetricValue::F(q.jitter_ms)),
        ("handoffs", MetricValue::U(h.total())),
        ("handoff_latency_ms", MetricValue::F(h.latency_all().mean())),
        ("ping_pong", MetricValue::U(h.ping_pong)),
        ("rejected", MetricValue::U(h.rejected)),
        ("fallback_used", MetricValue::U(h.fallback_used)),
        ("outage_samples", MetricValue::U(h.outage_samples)),
        (
            "signaling_msgs",
            MetricValue::U(report.signaling.total_messages()),
        ),
        (
            "route_updates",
            MetricValue::U(report.signaling.route_updates),
        ),
        (
            "page_messages",
            MetricValue::U(report.signaling.page_messages),
        ),
        ("drops_no_route", MetricValue::U(drops(DropCause::NoRoute))),
        ("drops_paging", MetricValue::U(drops(DropCause::Paging))),
        ("drops_outage", MetricValue::U(drops(DropCause::Outage))),
        ("calls_accepted", MetricValue::U(report.calls_accepted)),
        ("calls_blocked", MetricValue::U(report.calls_blocked)),
        ("events", MetricValue::U(report.events_processed)),
    ]
}

/// One completed sweep cell as stored on disk: the run's identity, its
/// extracted metric surface and bit-exact fingerprint, plus the exact
/// `(spec text, master seed)` pair it was computed from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoredRun {
    /// Cell label (axis assignments + replication).
    pub label: String,
    /// The resolved world seed the run used.
    pub seed: u64,
    /// Replication index.
    pub replication: u64,
    /// Master seed the sweep ran under.
    pub master_seed: u64,
    /// Canonical spec text of the cell (the content address, with
    /// `master_seed`).
    pub spec_text: String,
    /// Bit-exact `SimReport::fingerprint` of the run.
    pub fingerprint: String,
    /// Extracted metrics in [`extract_metrics`] order.
    pub metrics: Vec<(String, MetricValue)>,
}

/// Appends one `spec | ` / `fp | ` line to its text.
fn push_line(text: &mut String, line: &str) -> Option<()> {
    text.push_str(line);
    text.push('\n');
    Some(())
}

/// The slot file: four required scalars, then the `metric <name> = …`,
/// `spec | …` and `fp | …` lines [`StoredRun::render`] appends.
#[rustfmt::skip]
static RUN: Record<StoredRun> = Record {
    header: "mtnet-run v1",
    comments: false,
    init: StoredRun::default,
    fields: &[
        field("label", Required, Kind::Raw(lens!(label))),
        field("seed", Required, Kind::Hex64(lens!(seed))),
        field("replication", Required, Kind::U64(lens!(replication))),
        field("master_seed", Required, Kind::U64(lens!(master_seed))),
    ],
    blocks: &[
        ("metric ", |run, line| {
            let (name, value) = line.split_once('=')?;
            run.metrics.push((name.trim().to_string(), MetricValue::parse(value.trim())?));
            Some(())
        }),
        ("spec | ", |run, line| push_line(&mut run.spec_text, line)),
        ("fp | ", |run, line| push_line(&mut run.fingerprint, line)),
    ],
};

impl StoredRun {
    /// Captures a finished run.
    pub fn from_report(
        label: &str,
        spec: &ScenarioSpec,
        master_seed: u64,
        report: &SimReport,
    ) -> StoredRun {
        StoredRun {
            label: label.into(),
            seed: spec.resolve_seed(master_seed),
            replication: spec.seed.replication(),
            master_seed,
            spec_text: spec.render(),
            fingerprint: report.fingerprint(),
            metrics: extract_metrics(report)
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
        }
    }

    /// Looks up one metric by name.
    pub fn metric(&self, name: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serializes to the store file format.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = RUN.render(self);
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {}", value.render());
        }
        for line in self.spec_text.lines() {
            let _ = writeln!(out, "spec | {line}");
        }
        for line in self.fingerprint.lines() {
            let _ = writeln!(out, "fp | {line}");
        }
        out
    }

    /// Parses the store file format; a file missing any scalar key (one
    /// truncated after its header, say) is an error, hence a store miss.
    pub fn parse(text: &str) -> Result<StoredRun, kv::Error> {
        RUN.parse(text)
    }
}

/// The on-disk store: a directory of `<key>.run` files.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

/// Writes a file of the store directory atomically: in full to
/// `<file>.tmp` beside it, then renamed over `path` — a reader (or a
/// resume after a kill) sees the old content or the new, never half of
/// either. The caller holds the cell's lease lock, so no other writer
/// shares the temp name.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

impl ResultStore {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of a `(canonical spec text, master seed)`
    /// pair: 16 hex digits of FNV-1a 64.
    pub fn key(spec_text: &str, master_seed: u64) -> String {
        let h = fnv1a(FNV_OFFSET, spec_text.as_bytes());
        format!("{:016x}", fnv1a(h, &master_seed.to_le_bytes()))
    }

    /// The file path a key maps to.
    pub fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.run"))
    }

    /// Loads the stored run for a spec, verifying the slot really holds
    /// this `(spec text, master seed)` pair (collisions and corrupt
    /// files degrade to a miss, i.e. a recompute).
    pub fn load(&self, spec_text: &str, master_seed: u64) -> Option<StoredRun> {
        let path = self.path_of(&Self::key(spec_text, master_seed));
        let text = std::fs::read_to_string(path).ok()?;
        let run = StoredRun::parse(&text).ok()?;
        (run.spec_text == spec_text && run.master_seed == master_seed).then_some(run)
    }

    /// Persists a completed run under its content address. The write goes
    /// through `<key>.run.tmp` + rename, so a killed sweep never leaves a
    /// half-written slot that a resume would half-trust. The caller must
    /// hold the cell's lease lock ([`crate::coord::Claim::Owned`]): the
    /// temp name is fixed, so it admits one writer at a time.
    pub fn save(&self, run: &StoredRun) -> io::Result<PathBuf> {
        let path = self.path_of(&Self::key(&run.spec_text, run.master_seed));
        write_atomic(&path, run.render().as_bytes())?;
        Ok(path)
    }

    /// The keys of every completed cell currently stored (stems of the
    /// `*.run` files), in directory order.
    pub fn keys(&self) -> Vec<String> {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
                    .filter_map(|e| {
                        e.path()
                            .file_stem()
                            .map(|s| s.to_string_lossy().into_owned())
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("mtnet-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    fn sample_run() -> StoredRun {
        let spec = ScenarioSpec::commute_corridor()
            .with_duration_s(10.0)
            .with_seed_path("store-test", "arm", 1);
        let report = spec.run(42);
        StoredRun::from_report("arm rep=1", &spec, 42, &report)
    }

    #[test]
    fn store_load_verifies_content() {
        let store = tmp_store("verify");
        let run = sample_run();
        store.save(&run).expect("save");
        assert_eq!(store.keys().len(), 1);
        let hit = store.load(&run.spec_text, 42).expect("hit");
        assert_eq!(hit, run);
        // Same key file, different master seed: must miss.
        assert!(store.load(&run.spec_text, 43).is_none());
        // Different spec text: must miss.
        assert!(store.load("mtnet-spec v1\n", 42).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn keys_are_stable_and_content_sensitive() {
        let a = ResultStore::key("text", 1);
        assert_eq!(a, ResultStore::key("text", 1));
        assert_ne!(a, ResultStore::key("text", 2));
        assert_ne!(a, ResultStore::key("other", 1));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn keys_lists_run_stems() {
        let store = tmp_store("keys");
        assert!(store.keys().is_empty());
        let run = sample_run();
        store.save(&run).expect("save");
        let key = ResultStore::key(&run.spec_text, 42);
        assert_eq!(store.keys(), vec![key]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_slot_degrades_to_miss() {
        let store = tmp_store("corrupt");
        let run = sample_run();
        let path = store.save(&run).expect("save");
        std::fs::write(&path, "garbage").expect("corrupt");
        assert!(store.load(&run.spec_text, 42).is_none());
        // A slot cut short anywhere in its scalar block is no record.
        let text = run.render();
        let cut = text.find("master_seed").expect("scalar block");
        assert!(StoredRun::parse(&text[..cut]).is_err());
        assert!(StoredRun::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
