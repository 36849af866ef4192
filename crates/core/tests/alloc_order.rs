//! Tripwire for the order of a world's heap calls: building, running and
//! dropping the same world twice in one process must make the same
//! sequence of allocation calls, counted by a global allocator of this
//! test binary's own.
//!
//! glibc's heap-trim mode follows the sequence of sizes it is handed, and
//! the benchmark's `setup_s` follows that mode (EXPERIMENTS.md § How
//! performance is measured), so a world whose calls reorder from run to
//! run makes the allocation digest `metro_probe` prints vouch for nothing.
//! A map keyed by std's per-instance `RandomState` does exactly that: each
//! instance hashes its keys differently, so its values drop in a
//! different order every time.

use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::rng::{fnv1a, FNV_OFFSET};
use mtnet_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's FNV-1a state over the calls folded so far and their
    /// number, while a digest is being taken (`None` otherwise). Per
    /// thread, so the test harness's own threads stay out of it.
    static DIGEST: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Call kinds, the first byte each call folds.
const ALLOC: u8 = 1;
const DEALLOC: u8 = 2;

/// Folds one call: its kind, then its size as 8 little-endian bytes.
fn fold(kind: u8, size: usize) {
    DIGEST.with(|d| {
        if let Some((h, calls)) = d.get() {
            let h = fnv1a(fnv1a(h, &[kind]), &(size as u64).to_le_bytes());
            d.set(Some((h, calls + 1)));
        }
    });
}

/// Forwards to `System`. `GlobalAlloc`'s own `alloc_zeroed` and
/// `realloc` call `alloc` and `dealloc`, so every call is folded.
struct Digesting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `fold` only observes sizes and touches a
// const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Digesting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        fold(ALLOC, layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        fold(DEALLOC, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static DIGESTING: Digesting = Digesting;

/// The digest and call count of building, running and dropping `spec`'s
/// world at seed 42.
fn digest_of(spec: &ScenarioSpec) -> (u64, u64) {
    DIGEST.with(|d| d.set(Some((FNV_OFFSET, 0))));
    let report = spec
        .build(42)
        .run(SimDuration::from_secs_f64(spec.duration_s));
    drop(report);
    DIGEST
        .with(Cell::take)
        .expect("the digest was started above")
}

/// The small city (a voice flow on every node, video on every third)
/// for 20 simulated seconds: its cell tables fill with location records.
#[test]
fn a_world_repeats_its_allocation_sequence() {
    let spec = ScenarioSpec {
        duration_s: 20.0,
        ..ScenarioSpec::small_city()
    }
    .with_seed_path("alloc-order", "small-city", 0);
    let first = digest_of(&spec);
    let second = digest_of(&spec);
    assert!(first.1 > 0, "the world made no heap calls");
    assert_eq!(
        first, second,
        "the same world's heap calls differ between two runs (digest, calls)"
    );
}
