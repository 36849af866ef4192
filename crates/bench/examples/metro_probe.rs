//! Metro-tier tuning probe: runs `ScenarioSpec::metro()` — or the world a
//! `.mtspec` file names, such as a benchmark workload's — with `key=value`
//! overrides from the command line and prints wall time, event count,
//! events/s, peak RSS after the build and at the end, and page-fault
//! counts — the quickest way to answer "what does this knob cost at
//! scale" without editing an experiment. The end peak minus the build
//! peak is what launch and the run added on top of the built world (the
//! scheduler's share, when the peak is set at launch). `--profile` adds
//! a per-event-type cost breakdown and the share of mobility samples
//! whose `Stay` was certified without a scan.
//!
//! The last line, `alloc digest <hex> over <n> calls`, folds the kind and
//! size of every heap call the build, the run and the report's drop make
//! into one FNV-1a hash (this binary's global allocator forwards each
//! call to `System` and observes it). Two trees that print the same
//! digest for a world hand glibc the same allocation sequence, so its
//! heap-trim mode cannot be what separates their `setup_s`
//! (EXPERIMENTS.md § How performance is measured). The digest is
//! reproducible for a world run on one thread; a sharded world's calls
//! interleave across threads.
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
use mtnet_sim::rng::{fnv1a, FNV_OFFSET};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Whether heap calls are folded now: only inside [`digested`], so the
/// probe's own reads of `/proc` and its printing stay out of the digest.
/// Statistics only, which publish no other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
/// The FNV-1a state over every folded call, and the number of calls.
static DIGEST: AtomicU64 = AtomicU64::new(FNV_OFFSET);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Call kinds, the first byte each call folds.
const ALLOC: u8 = 1;
const ALLOC_ZEROED: u8 = 2;
const DEALLOC: u8 = 3;
const REALLOC: u8 = 4;

/// Folds one call: its kind, then each size as 8 little-endian bytes.
fn fold(kind: u8, sizes: &[usize]) {
    if !ON.load(Relaxed) {
        return;
    }
    let _ = DIGEST.fetch_update(Relaxed, Relaxed, |h| {
        let h = fnv1a(h, &[kind]);
        Some(
            sizes
                .iter()
                .fold(h, |h, s| fnv1a(h, &(*s as u64).to_le_bytes())),
        )
    });
    CALLS.fetch_add(1, Relaxed);
}

struct Digesting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `fold` only observes sizes.
unsafe impl GlobalAlloc for Digesting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        fold(ALLOC, &[layout.size()]);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        fold(ALLOC_ZEROED, &[layout.size()]);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        fold(DEALLOC, &[layout.size()]);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        fold(REALLOC, &[layout.size(), new_size]);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`; the caller's guarantees for `new_size` hold.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static DIGESTING: Digesting = Digesting;

/// Runs `f` with its heap calls folded into the digest.
fn digested<T>(f: impl FnOnce() -> T) -> T {
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    out
}

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
         rss {:.1} MiB  minflt {}  majflt {}",
        built.as_secs_f64(),
        ran.as_secs_f64(),
        report.events_processed,
        report.events_processed as f64 / ran.as_secs_f64() / 1e6,
        mib(built_peak),
        mib(rss::peak_bytes().unwrap_or(0)),
        f1.0 - f0.0,
        f1.1 - f0.1,
    );
    if let Some(prof) = &prof {
        eprint!("{prof}");
    }
    digested(|| drop((report, prof)));
    eprintln!(
        "alloc digest {:016x} over {} calls",
        DIGEST.load(Relaxed),
        CALLS.load(Relaxed)
    );
}
