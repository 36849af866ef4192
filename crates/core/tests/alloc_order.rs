//! Tripwire for the order of a world's heap calls: building, running and
//! dropping the same world twice in one process must make the same
//! sequence of allocation calls, digested by a global allocator of this
//! test binary's own (`heap_probe`, the one `metro_probe` prints its
//! digest through, so this test vouches for the same call sequence).
//!
//! glibc's heap-trim mode follows the sequence of sizes it is handed, and
//! the benchmark's `setup_s` follows that mode (EXPERIMENTS.md § How
//! performance is measured), so a world whose calls reorder from run to
//! run makes the allocation digest `metro_probe` prints vouch for nothing.
//! A map keyed by std's per-instance `RandomState` does exactly that: each
//! instance hashes its keys differently, so its values drop in a
//! different order every time.

use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::SimDuration;

#[path = "../../sim/src/heap_probe.rs"]
#[allow(dead_code)] // only the digest is read here
mod heap_probe;

/// The digest and call count of building, running and dropping `spec`'s
/// world at seed 42, on this thread.
fn digest_of(spec: &ScenarioSpec) -> (u64, u64) {
    heap_probe::digested(|| {
        let report = spec
            .build(42)
            .run(SimDuration::from_secs_f64(spec.duration_s));
        drop(report);
    });
    heap_probe::take_digest()
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
