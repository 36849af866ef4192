//! Regenerates every experiment table recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p mtnet-bench --bin experiments --release           # full runs
//! cargo run -p mtnet-bench --bin experiments --release -- quick  # smoke runs
//! cargo run -p mtnet-bench --bin experiments --release -- full E4 E9
//! cargo run -p mtnet-bench --bin experiments --release -- quick E10 --threads 1
//! cargo run -p mtnet-bench --bin experiments --release -- quick E11 --shards 2
//! cargo run -p mtnet-bench --bin experiments --release -- --bench-json BENCH.json
//! cargo run -p mtnet-bench --bin experiments --release -- --fingerprints fp.txt
//! ```
//!
//! Experiment arms and replications run concurrently through
//! `mtnet_sim::runner::BatchRunner`; `--threads N` pins the pool width
//! (default: one worker per core), and `--threads 1` forces the
//! sequential path. `--shards N` additionally splits each world across
//! conservative time-window shards. Both reach the runners as
//! `mtnet_bench::RunOptions` fields; no environment variable is read.
//! The printed tables are byte-identical at any thread or shard count;
//! per-experiment wall-clock timings go to stderr so stdout stays
//! recordable.
//!
//! `--bench-json <path>` records the perf trajectory machine-readably: one
//! JSON object per experiment with `{experiment, effort, wall_ms, events,
//! events_per_sec, max_rss_bytes, threads}` (plus `shards` when sharded,
//! plus `pgo` when the binary was built by `scripts/pgo_build` and run
//! with `--pgo`; `max_rss_bytes` is each run's own peak RSS, measured by
//! rebasing the kernel watermark between runs, and is absent on platforms
//! without `/proc`). `--fingerprints
//! <path>` dumps the bit-exact `SimReport::fingerprint` of every run —
//! diffing two dumps proves a refactor changed nothing observable.

use mtnet_bench::benchjson::{self, BenchRow};
use mtnet_bench::{cli, rss, run_one, Effort, RunOptions, ALL_IDS};
use mtnet_core::world::shard::parse_shard_count;
use mtnet_sim::runner::{parse_thread_count, BatchRunner};
use std::fmt::Write as _;
use std::time::Instant;

/// Throughput figure for one row; zero when wall time is unmeasurably
/// small.
fn events_per_sec(events: u64, wall_ms: f64) -> u64 {
    if wall_ms > 0.0 {
        (events as f64 / (wall_ms / 1e3)).round() as u64
    } else {
        0
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take =
        |args: &mut Vec<String>, flag| cli::take_value(args, flag).unwrap_or_else(|e| fail(&e));
    let bench_json = take(&mut args, "--bench-json");
    let fingerprint_path = take(&mut args, "--fingerprints");
    // `--pgo` tags every emitted row as coming from the
    // profile-guided-optimized artifact (`scripts/pgo_build`); PGO rows
    // form their own trajectory in BENCH.json.
    let pgo = cli::take_switch(&mut args, "--pgo");
    // Resolved here (0 = one worker per core), so the header and the
    // bench rows name the pool width the runners get.
    let threads = take(&mut args, "--threads")
        .map_or(0, |v| parse_thread_count(&v).unwrap_or_else(|e| fail(&e)));
    let threads = BatchRunner::new(threads).threads();
    let shards = take(&mut args, "--shards").map(|v| {
        parse_shard_count(&v)
            .unwrap_or_else(|()| fail(&format!("--shards needs a positive integer, got {v:?}")))
    });
    // Every remaining argument must be an effort word or a known
    // experiment id — an unknown id or a stray flag must fail loudly, not
    // silently run nothing (or everything).
    let mut effort = Effort::Full;
    let mut filter: Vec<String> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "quick" => effort = Effort::Quick,
            "full" => effort = Effort::Full,
            a if a.starts_with('-') => {
                fail(&format!(
                    "unknown flag {a:?} (valid: --threads N, --shards N, --bench-json PATH, \
                     --fingerprints PATH, --pgo)"
                ));
            }
            a => {
                if !ALL_IDS.iter().any(|id| id.eq_ignore_ascii_case(a)) {
                    fail(&format!(
                        "unknown experiment id {a:?} (valid: {}, plus quick|full)",
                        ALL_IDS.join(" ")
                    ));
                }
                filter.push(arg.clone());
            }
        }
    }
    let seed = 42;
    let opts = RunOptions {
        effort,
        seed,
        threads,
        shards,
    };
    // Specs in the suite all default to one shard, so the effective
    // count is the `--shards` value or 1.
    let shards = shards.unwrap_or(1);
    println!(
        "mtnet experiment suite — effort: {effort:?}, seed: {seed}, threads: {threads}, \
         shards: {shards}\n"
    );
    let suite_start = Instant::now();
    let mut bench_rows = Vec::new();
    let mut fingerprint_dump = String::new();
    for id in ALL_IDS {
        if !filter.is_empty() && !filter.iter().any(|f| f.eq_ignore_ascii_case(id)) {
            continue;
        }
        // Rebase the kernel's peak-RSS watermark so each row reports its
        // own run's peak, not the largest experiment before it.
        rss::reset_peak();
        let start = Instant::now();
        let result = run_one(id, opts).expect("known id");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let max_rss_bytes = rss::peak_bytes();
        println!("{}", result.render());
        eprintln!("[{id}: {:.2}s]", wall_ms / 1e3);
        bench_rows.push(BenchRow {
            experiment: id.to_string(),
            effort: format!("{effort:?}"),
            wall_ms,
            events: result.events,
            events_per_sec: events_per_sec(result.events, wall_ms),
            analytic: result.analytic,
            shards,
            threads,
            pgo,
            max_rss_bytes,
        });
        for (i, fp) in result.fingerprints.iter().enumerate() {
            let _ = writeln!(fingerprint_dump, "== {id} run {i} ==\n{fp}");
        }
    }
    eprintln!("[suite: {:.2}s]", suite_start.elapsed().as_secs_f64());
    if let Some(path) = bench_json {
        // Suite-total row (sum of the measured rows), so the trajectory
        // file is self-describing about whole-suite cost. Only a full
        // (unfiltered) run may write it — a partial run must not shrink
        // the committed total.
        if filter.is_empty() {
            let total_events: u64 = bench_rows.iter().map(|r| r.events).sum();
            let total_wall: f64 = bench_rows.iter().map(|r| r.wall_ms).sum();
            // Suite memory = the largest single row: rows run
            // sequentially, so their peaks never stack.
            let suite_rss = bench_rows.iter().filter_map(|r| r.max_rss_bytes).max();
            bench_rows.push(BenchRow {
                experiment: "suite".into(),
                effort: format!("{effort:?}"),
                wall_ms: total_wall,
                events: total_events,
                events_per_sec: events_per_sec(total_events, total_wall),
                analytic: false,
                shards,
                threads,
                pgo,
                max_rss_bytes: suite_rss,
            });
        }
        // Merge into an existing trajectory (a Full file keeps its Quick
        // rows and vice versa) so one committed BENCH.json carries both
        // effort levels for the perf gate.
        let existing = std::fs::read_to_string(&path)
            .map(|text| benchjson::parse_file(&text))
            .unwrap_or_default();
        let merged = benchjson::merge(existing, bench_rows);
        std::fs::write(&path, benchjson::render_file(&merged)).expect("write --bench-json file");
        eprintln!("[bench json -> {path}]");
    }
    if let Some(path) = fingerprint_path {
        std::fs::write(&path, fingerprint_dump).expect("write --fingerprints file");
        eprintln!("[fingerprints -> {path}]");
    }
}
