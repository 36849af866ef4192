//! Metro-tier tuning probe: runs `ScenarioSpec::metro()` with `key=value`
//! overrides from the command line and prints wall time, event count,
//! events/s, peak RSS and page-fault counts — the quickest way to answer
//! "what does this knob cost at scale" without editing an experiment.
//! `--profile` adds a per-event-type cost breakdown.
//!
//! ```text
//! cargo run --release --example metro_probe -- --profile duration_s=12 pedestrians=10000 domains=8
//! ```
use mtnet_bench::rss;
use mtnet_core::spec::ScenarioSpec;

/// (minor, major) page faults of this process so far.
fn faults() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap();
    let rest = s.rsplit(") ").next().unwrap();
    let f: Vec<&str> = rest.split_whitespace().collect();
    (f[7].parse().unwrap(), f[9].parse().unwrap())
}

fn main() {
    let mut spec = ScenarioSpec::metro().with_seed_path("E14", "metro", 0);
    let mut profile = false;
    for arg in std::env::args().skip(1) {
        if arg == "--profile" {
            profile = true;
            continue;
        }
        let (k, v) = arg.split_once('=').expect("--profile or key=value");
        spec.set(k, v).expect("valid override");
    }
    spec.validate().expect("valid spec");
    let t0 = std::time::Instant::now();
    let world = spec.build(42);
    let built = t0.elapsed();
    let f0 = faults();
    let t1 = std::time::Instant::now();
    let duration = mtnet_sim::SimDuration::from_secs_f64(spec.duration_s);
    let (report, prof) = if profile {
        let (report, prof) = world.run_profiled(duration);
        (report, Some(prof))
    } else {
        (world.run(duration), None)
    };
    let ran = t1.elapsed();
    let f1 = faults();
    eprintln!(
        "build {:.2}s  run {:.2}s  events {}  ev/s {:.2}M  rss {:.0} MiB  minflt {}  majflt {}",
        built.as_secs_f64(),
        ran.as_secs_f64(),
        report.events_processed,
        report.events_processed as f64 / ran.as_secs_f64() / 1e6,
        rss::peak_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0),
        f1.0 - f0.0,
        f1.1 - f0.1,
    );
    if let Some(prof) = prof {
        eprint!("{prof}");
    }
}
