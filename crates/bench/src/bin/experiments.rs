//! Regenerates every experiment table recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p mtnet-bench --bin experiments --release           # full runs
//! cargo run -p mtnet-bench --bin experiments --release -- quick  # smoke runs
//! cargo run -p mtnet-bench --bin experiments --release -- full E4 E9
//! cargo run -p mtnet-bench --bin experiments --release -- quick E10 --threads 1
//! cargo run -p mtnet-bench --bin experiments --release -- quick E11 --shards 2
//! cargo run -p mtnet-bench --bin experiments --release -- --fingerprints fp.txt
//! ```
//!
//! Experiment arms and replications run concurrently through
//! `mtnet_sim::runner::BatchRunner`; `--threads N` pins the pool width
//! (default: one worker per core), and `--threads 1` forces the
//! sequential path. `--shards N` additionally splits each world across
//! conservative time-window shards. Both reach the runners as
//! `mtnet_bench::RunOptions` fields; no environment variable is read.
//! The printed tables are byte-identical at any thread or shard count.
//!
//! Stderr carries one line per experiment so stdout stays recordable:
//! `[E14: 0.07s, 213542 events, peak RSS 10136 KiB]` — wall time, the
//! run's deterministic event count, and its own peak RSS (the kernel
//! watermark is rebased between runs; the figure is absent on platforms
//! without `/proc`). `--fingerprints <path>` dumps the bit-exact
//! `SimReport::fingerprint` of every run — diffing two dumps (the
//! `fingerprint-diff` binary names the first differing run and field)
//! proves a refactor changed nothing observable.

use mtnet_bench::{cli, rss, run_one, Effort, RunOptions, ALL_IDS};
use mtnet_core::world::shard::parse_shard_count;
use mtnet_sim::runner::{parse_thread_count, BatchRunner};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take =
        |args: &mut Vec<String>, flag| cli::take_value(args, flag).unwrap_or_else(|e| fail(&e));
    let fingerprint_path = take(&mut args, "--fingerprints");
    // Resolved here (0 = one worker per core), so the header names the
    // pool width the runners get.
    let threads = take(&mut args, "--threads")
        .map_or(0, |v| parse_thread_count(&v).unwrap_or_else(|e| fail(&e)));
    let threads = BatchRunner::new(threads).threads();
    let shards =
        take(&mut args, "--shards").map(|v| parse_shard_count(&v).unwrap_or_else(|e| fail(&e)));
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
                    "unknown flag {a:?} (valid: --threads N, --shards N, --fingerprints PATH)"
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
    let mut fingerprint_dump = String::new();
    for id in ALL_IDS {
        if !filter.is_empty() && !filter.iter().any(|f| f.eq_ignore_ascii_case(id)) {
            continue;
        }
        // Rebase the kernel's peak-RSS watermark so each line reports its
        // own run's peak, not the largest experiment before it.
        rss::reset_peak();
        let start = Instant::now();
        let result = run_one(id, opts).expect("known id");
        let wall_s = start.elapsed().as_secs_f64();
        let peak =
            rss::peak_bytes().map_or(String::new(), |b| format!(", peak RSS {} KiB", b / 1024));
        println!("{}", result.render());
        eprintln!("[{id}: {wall_s:.2}s, {} events{peak}]", result.events);
        fingerprint_dump.push_str(&result.fingerprint_dump());
    }
    eprintln!("[suite: {:.2}s]", suite_start.elapsed().as_secs_f64());
    if let Some(path) = fingerprint_path {
        std::fs::write(&path, fingerprint_dump).expect("write --fingerprints file");
        eprintln!("[fingerprints -> {path}]");
    }
}
