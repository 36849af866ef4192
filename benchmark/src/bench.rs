//! One invocation: one workload, measured for `--seconds`.
//!
//! Phases, in order: calibration spin → reference repeat(s) on the
//! sequential engine (untimed warm-up, and the fingerprints every later
//! repeat must equal) → timed repeats until the window closes → in a
//! traced invocation, three traced repeats and the layer replays.

use crate::layers::{self, LayerResults, Shape};
use crate::measure::{calibrate_ms, cpu_seconds, median, peak_rss_mib, quartile_spread};
use crate::report::{Metric, Outcome, END_TO_END};
use crate::trace::Tracer;
use crate::workload::{self, results_digest, Repeat, Workload, WorldRun};
use crate::DIGEST_SEED;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest timed repeats a window may close on: below three samples a
/// median is just one of them.
const MIN_REPEATS: usize = 3;

/// Simulated seconds per world at smoke size.
pub const SMOKE_DURATION_S: f64 = 2.0;

/// Traced repeats behind `harness.trace_overhead`.
const TRACED_REPEATS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The benchmark directory (holds `workloads/`, `expected/`, `out/`).
    pub root: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Master seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced invocation: report the per-layer metrics.
    pub trace: bool,
    /// Harness-test size: every world shortened to [`SMOKE_DURATION_S`]
    /// simulated seconds, replays at 1 % of their operation counts.
    pub smoke: bool,
}

/// Running totals of world runs attempted and failed, with the lines
/// that explain each failure.
struct Tally<'a> {
    workload: &'a Workload,
    /// Fingerprint hashes of the first reference repeat; every later run
    /// of world `i` must hash to `reference[i]`.
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally<'_> {
    fn check(&mut self, repeat: &Repeat, label: &str) {
        for (i, (spec, run)) in self.workload.worlds.iter().zip(&repeat.worlds).enumerate() {
            self.attempted += 1;
            let mut reasons = Vec::new();
            if !spec.round_trips {
                reasons.push("parse(render(spec)) != spec".to_string());
            }
            match run {
                Err(panic) => reasons.push(format!("panicked: {panic}")),
                Ok(run) => {
                    reasons.extend(run.violations.iter().cloned());
                    if run.digest != self.reference[i] {
                        reasons.push("fingerprint differs from the reference repeat".to_string());
                    }
                }
            }
            if !reasons.is_empty() {
                self.failed += 1;
                self.notes.push(format!(
                    "FAILED {label} {}: {}",
                    spec.file,
                    reasons.join("; ")
                ));
            }
        }
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The timed repeats of one window.
struct Window {
    repeats: Vec<Repeat>,
    /// `VmHWM` after the first timed repeat: a fixed amount of work since
    /// process start, so the reading does not depend on how many repeats
    /// the window had room for.
    peak_rss_mib: f64,
    /// CPU seconds the whole window consumed, all threads.
    cpu_s: f64,
}

impl Window {
    fn measure(workload: &Workload, seed: u64, seconds: f64) -> Window {
        let start = Instant::now();
        let cpu0 = cpu_seconds();
        let mut repeats = Vec::new();
        let mut peak = 0.0;
        while repeats.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
            repeats.push(workload::run_repeat(workload, seed, false, &mut None));
            if repeats.len() == 1 {
                peak = peak_rss_mib();
            }
        }
        Window {
            repeats,
            peak_rss_mib: peak,
            cpu_s: cpu_seconds() - cpu0,
        }
    }

    fn samples(&self, f: impl Fn(&Repeat) -> f64) -> Vec<f64> {
        self.repeats.iter().map(f).collect()
    }

    fn median_of(&self, f: impl Fn(&Repeat) -> f64) -> f64 {
        median(&self.samples(f))
    }

    /// Run-phase wall of one pass built from each world's fastest
    /// repeat. Whatever else runs on the box only ever slows a world
    /// down, so the fastest repeat is the least disturbed sample of it.
    fn fastest_run_s(&self) -> f64 {
        let worlds = self.repeats[0].worlds.len();
        (0..worlds)
            .map(|i| {
                self.repeats
                    .iter()
                    .filter_map(|r| r.worlds[i].as_ref().ok())
                    .map(|w| w.run_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Median over repeats of `f` summed over a repeat's worlds.
    fn world_sum(&self, f: fn(&WorldRun) -> f64) -> f64 {
        self.median_of(|r| r.worlds.iter().flatten().map(f).sum())
    }
}

/// The sequential engine's numbers on the same worlds: what
/// `core.shard.*` divides by.
struct Reference {
    run_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
}

/// Runs the configured workload and returns what to print.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let workload = workload::load(
        &cfg.root,
        &cfg.workload,
        cfg.smoke.then_some(SMOKE_DURATION_S),
    )?;
    let threads = workload.threads();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if threads as usize > cores {
        // The shard layer runs its windows inline on a box without the
        // cores, and an inline run measures a different program.
        return Err(format!(
            "skipped: {} needs {threads} cores, this box has {cores}",
            workload.name
        ));
    }
    let sim_seconds = workload.sim_seconds();
    let header = format!(
        "workload {} seed {} threads {threads} worlds {} sim_seconds {sim_seconds}",
        workload.name,
        cfg.seed,
        workload.worlds.len(),
    );
    let calib_ms = calibrate_ms();
    let baseline_rss = peak_rss_mib();

    // Reference repeats: every world on the sequential engine. A sharded
    // workload in a traced invocation takes three, because
    // `core.shard.*` compares against the fastest of them.
    let sharded = threads > 1;
    let n_reference = if sharded && cfg.trace { 3 } else { 1 };
    let cpu0 = cpu_seconds();
    let reference_repeats: Vec<Repeat> = (0..n_reference)
        .map(|_| workload::run_repeat(&workload, cfg.seed, true, &mut None))
        .collect();
    let reference = Reference {
        run_s: min(&reference_repeats
            .iter()
            .map(Repeat::run_s)
            .collect::<Vec<_>>()),
        cpu_s: (cpu_seconds() - cpu0) / n_reference as f64,
        peak_rss_mib: peak_rss_mib(),
    };
    let mut tally = Tally {
        workload: &workload,
        reference: reference_repeats[0].digests(),
        attempted: 0,
        failed: 0,
        notes: vec![
            header,
            format!("harness.calib_ms = {calib_ms} ms (fixed spin loop)"),
        ],
    };
    for r in &reference_repeats {
        tally.check(r, "reference");
    }

    // Timed window.
    let window = Window::measure(&workload, cfg.seed, cfg.seconds);
    for r in &window.repeats {
        tally.check(r, "timed");
    }
    let n = window.repeats.len() as u64;
    let (rate_bound, setup_bound) = (END_TO_END[0].2, END_TO_END[2].2);
    let rates = window.samples(|r| sim_seconds / r.run_s());
    let setups = window.samples(Repeat::setup_s);
    let best_rate = sim_seconds / window.fastest_run_s();
    let end_to_end = vec![
        Metric::new("sim_rate", best_rate, END_TO_END[0].1, n),
        Metric::new("peak_rss_mib", window.peak_rss_mib, END_TO_END[1].1, 1),
        Metric::new("setup_s", median(&setups), END_TO_END[2].1, n),
    ];
    // Noise self-check. A fastest-repeat figure is trusted when the box
    // reproduced it: at least three whole repeats within a third of the
    // metric's bound of the fastest one. A median is trusted when the
    // repeats' inter-quartile spread stays inside the bound.
    let fastest = rates.iter().copied().fold(0.0, f64::max);
    let agreeing = rates
        .iter()
        .filter(|&&r| r >= fastest * (1.0 - rate_bound / 3.0))
        .count();
    let rate_spread = quartile_spread(&rates).unwrap_or(0.0);
    let setup_spread = quartile_spread(&setups).unwrap_or(0.0);
    let flag = |bad: bool| if bad { " UNRESOLVED" } else { "" };
    tally.notes.push(format!(
        "spread sim_rate = {rate_spread:.4} (IQR/median over {n} repeats; median {}, {agreeing} \
         repeats within {:.3} of the fastest){}",
        median(&rates),
        rate_bound / 3.0,
        flag(agreeing < MIN_REPEATS)
    ));
    tally.notes.push(format!(
        "spread setup_s = {setup_spread:.4} (IQR/median over {n} repeats){}",
        flag(setup_spread > setup_bound)
    ));
    tally
        .notes
        .push("spread peak_rss_mib = n/a (one reading per process)".to_string());

    // Results digest against the recorded expectation.
    let digest = results_digest(&tally.reference);
    tally.notes.push(format!("results_digest: {digest}"));
    let changed = if cfg.seed == DIGEST_SEED && !cfg.smoke {
        let path = cfg
            .root
            .join("expected")
            .join(format!("{}.digest", workload.name));
        match std::fs::read_to_string(&path) {
            Ok(expected) => (expected.trim() != digest).to_string(),
            Err(e) => format!("n/a ({}: {e})", path.display()),
        }
    } else {
        format!("n/a (expectations are recorded at seed {DIGEST_SEED})")
    };
    tally.notes.push(format!("results_changed: {changed}"));

    let metrics = if cfg.trace {
        for m in &end_to_end {
            tally.notes.push(format!(
                "end-to-end {} = {} {} (n={}; from a traced invocation, for orientation)",
                m.name, m.value, m.unit, m.samples
            ));
        }
        // Traced repeats, span file, layer replays.
        let mut tracer = Tracer::new(&workload.name);
        let mut traced_walls = Vec::new();
        for _ in 0..TRACED_REPEATS {
            let r = workload::run_repeat(&workload, cfg.seed, false, &mut Some(&mut tracer));
            traced_walls.push(r.wall_s);
            tally.check(&r, "traced");
        }
        let counts = window.repeats[0].counts();
        let shape = Shape::of(&workload);
        let layers = layers::replay_all(
            &shape,
            &counts,
            cfg.seed,
            if cfg.smoke { 100 } else { 1 },
            &mut Some(&mut tracer),
        );
        let path = cfg
            .root
            .join("out")
            .join(format!("trace-{}.jsonl", workload.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        tally.notes.push(format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ));
        let nodes = shape.population as f64;
        let mut m = per_layer(
            nodes * workload.worlds.len() as f64,
            &window,
            sharded.then_some(&reference),
            &layers,
        );
        m.extend([
            Metric::new(
                "core.world.bytes_per_mn",
                // One world is alive at a time, so the peak is one world's.
                (window.peak_rss_mib - baseline_rss) * 1024.0 * 1024.0 / nodes,
                "B",
                1,
            ),
            Metric::new(
                "harness.trace_overhead",
                // Fastest against fastest, for the reason `sim_rate` uses
                // the fastest repeat.
                min(&traced_walls) / min(&window.samples(|r| r.wall_s)) - 1.0,
                "ratio",
                TRACED_REPEATS as u64,
            ),
            Metric::new("harness.calib_ms", calib_ms, "ms", 1),
        ]);
        m
    } else {
        end_to_end
    };
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    })
}

/// The per-layer metrics that follow from the timed window (whose worlds
/// hold `population` nodes between them), the
/// sequential reference (`Some` for a sharded workload) and the replays.
fn per_layer(
    population: f64,
    window: &Window,
    reference: Option<&Reference>,
    layers: &LayerResults,
) -> Vec<Metric> {
    let n = window.repeats.len() as u64;
    let run_s = window.fastest_run_s();
    let counts = window.repeats[0].counts();

    let mut m: Vec<Metric> = counts
        .named()
        .into_iter()
        .map(|(name, v)| Metric::new(name, v as f64, "count", 1))
        .collect();
    m.extend([
        Metric::new(
            "core.spec.parse_us",
            window.world_sum(|w| w.parse_s) * 1e6,
            "us",
            n,
        ),
        Metric::new(
            "core.build.ns_per_mn",
            window.world_sum(|w| w.build_s) * 1e9 / population,
            "ns",
            n,
        ),
        Metric::new(
            "core.world.ns_per_event",
            run_s * 1e9 / counts.events as f64,
            "ns",
            n,
        ),
        Metric::new(
            "core.report.fingerprint_us",
            window.world_sum(|w| w.fingerprint_s) * 1e6,
            "us",
            n,
        ),
    ]);
    // A workload without a sharded twin is its own twin: ratios of 1.
    let (speedup, rss_ratio, cpu_ratio) = reference.map_or((1.0, 1.0, 1.0), |seq| {
        (
            seq.run_s / run_s,
            window.peak_rss_mib / seq.peak_rss_mib,
            window.cpu_s / n as f64 / seq.cpu_s,
        )
    });
    m.extend([
        Metric::new("core.shard.speedup", speedup, "x", n),
        Metric::new("core.shard.rss_ratio", rss_ratio, "x", 1),
        Metric::new("core.shard.cpu_ratio", cpu_ratio, "x", n),
    ]);
    for r in &layers.replays {
        let unit = if r.name.ends_with("_us") { "us" } else { "ns" };
        m.push(Metric::new(r.name, r.value, unit, r.ops));
    }
    m.push(Metric::new(
        "radio.scan_audible",
        layers.scan_audible,
        "ratio",
        1,
    ));
    let mut explained = 0.0;
    for r in &layers.replays {
        if let Some(run_ops) = r.run_ops {
            let share = r.ns() * run_ops as f64 / (run_s * 1e9);
            explained += share;
            m.push(Metric::new(r.share_name(), share, "ratio", run_ops));
        }
    }
    m.push(Metric::new(
        "core.world.residual_share",
        1.0 - explained,
        "ratio",
        1,
    ));
    m
}
