//! Metro-tier tuning probe: runs `ScenarioSpec::metro()` — or the world a
//! `.mtspec` file names, such as a benchmark workload's — with `key=value`
//! overrides from the command line and prints wall time, event count,
//! events/s, peak RSS after the build and at the end, the heap's own
//! figures and page-fault counts — the quickest way to answer "what does
//! this knob cost at scale" without editing an experiment. The end peak
//! minus the build peak is what launch and the run added on top of the
//! built world (the scheduler's share, when the peak is set at launch).
//! The heap figures come from this binary's global allocator, the shared
//! heap probe (`crates/sim/src/heap_probe.rs`): the most bytes live
//! during the build, the bytes live once it is done, and the most live
//! from then to the end of the run. `--profile` adds a per-event-type
//! cost breakdown and the share of mobility samples whose `Stay` was
//! certified without a scan.
//!
//! The last line, `alloc digest <hex> over <n> calls`, folds the kind and
//! size of every heap call the build, the run and the report's drop make
//! on the main thread into one FNV-1a hash. Two trees that print the same
//! digest for a world hand glibc the same allocation sequence, so its
//! heap-trim mode cannot be what separates their `setup_s`
//! (EXPERIMENTS.md § How performance is measured). Every world runs on
//! the main thread through `World::run`, whatever its `shards` key says,
//! so the digest sees all of its calls.
//!
//! ```text
//! cargo run --release --example metro_probe -- --profile duration_s=12 pedestrians=10000 domains=8
//! cargo run --release --example metro_probe -- --profile benchmark/workloads/metro_idle/metro.mtspec
//! ```
//!
//! A spec file is read, never written; overrides after it apply on top.
//! Every world is built at master seed 42, the benchmark's.
use mtnet_bench::rss;
use mtnet_core::spec::ScenarioSpec;

#[path = "../../sim/src/heap_probe.rs"]
mod heap_probe;
use heap_probe::digested;

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
        if arg.ends_with(".mtspec") {
            let text = std::fs::read_to_string(&arg).expect("readable spec file");
            spec = ScenarioSpec::parse(&text).expect("valid spec file");
            continue;
        }
        let (k, v) = arg
            .split_once('=')
            .expect("--profile, a .mtspec path or key=value");
        spec.set(k, v).expect("valid override");
    }
    spec.validate().expect("valid spec");
    let t0 = std::time::Instant::now();
    let world = digested(|| spec.build(42));
    let built = t0.elapsed();
    let built_peak = rss::peak_bytes().unwrap_or(0);
    let built_heap = heap_probe::peak();
    let live_heap = heap_probe::restart_peak();
    let f0 = faults();
    let t1 = std::time::Instant::now();
    let duration = mtnet_sim::SimDuration::from_secs_f64(spec.duration_s);
    let (report, prof) = digested(|| {
        if profile {
            let (report, prof) = world.run_profiled(duration);
            (report, Some(prof))
        } else {
            (world.run(duration), None)
        }
    });
    let ran = t1.elapsed();
    let f1 = faults();
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "build {:.2}s  run {:.2}s  events {}  ev/s {:.2}M  rss after build {:.1} MiB  \
         rss {:.1} MiB  heap peak build {:.1} MiB, live {:.1} MiB, run {:.1} MiB  \
         minflt {}  majflt {}",
        built.as_secs_f64(),
        ran.as_secs_f64(),
        report.events_processed,
        report.events_processed as f64 / ran.as_secs_f64() / 1e6,
        mib(built_peak),
        mib(rss::peak_bytes().unwrap_or(0)),
        mib(built_heap as u64),
        mib(live_heap as u64),
        mib(heap_probe::peak() as u64),
        f1.0 - f0.0,
        f1.1 - f0.1,
    );
    if let Some(prof) = &prof {
        eprint!("{prof}");
    }
    digested(|| drop((report, prof)));
    let (digest, calls) = heap_probe::take_digest();
    eprintln!("alloc digest {digest:016x} over {calls} calls");
}
