//! Property tests on the multi-worker coordinator's on-disk formats:
//! the lease and quarantine-record files must round-trip render→parse
//! exactly (they are the fleet's only shared state), and the staleness
//! watch must call a lease stale exactly when its bytes have gone
//! unchanged for more than one timeout of the watcher's own clock.

use mtnet_bench::coord::{CoordConfig, Coordinator, Lease, Poison};
use mtnet_bench::store::ResultStore;
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    #[test]
    fn lease_roundtrips_for_arbitrary_fields(
        owner in "[-a-zA-Z0-9@._]{1,24}",
        pid in 1u32..=u32::MAX,
        beat in 0u64..=u64::MAX,
        reclaims in 0u32..=1_000,
        label in "[-a-z0-9=,+. ]{0,40}",
    ) {
        // Labels are axis assignments: they contain `=`, `,`, spaces —
        // everything the line-oriented format must not trip over. The
        // format trims value whitespace, so edge spaces are normalized.
        let lease = Lease {
            owner,
            pid,
            beat,
            reclaims,
            label: label.trim().to_string(),
        };
        let back = Lease::parse(&lease.render());
        prop_assert_eq!(back.as_ref(), Ok(&lease), "render:\n{}", lease.render());
    }

    #[test]
    fn poison_roundtrips_for_arbitrary_fields(
        failures in 1u32..=10_000,
        last_owner in "[-a-zA-Z0-9@._]{1,24}",
        label in "[-a-z0-9=,+. ]{0,40}",
    ) {
        let poison = Poison {
            failures,
            last_owner,
            label: label.trim().to_string(),
        };
        let back = Poison::parse(&poison.render());
        prop_assert_eq!(back.as_ref(), Ok(&poison), "render:\n{}", poison.render());
    }

    #[test]
    fn staleness_is_monotonic_in_time_and_tight_at_the_boundary(
        timeout in 1u64..=400,
        polls in prop::collection::vec((0u64..=4, 0u64..=200, any::<bool>()), 1..40),
    ) {
        // One watcher polls one lease on an arbitrary schedule: each step
        // advances its clock (often by exactly a timeout, or one past it,
        // to hit the boundary) and either finds the bytes changed by a
        // heartbeat or finds them as before. The model: stale iff the
        // current bytes were first seen more than one timeout ago.
        let dir = std::env::temp_dir().join(format!("mtnet-coord-props-{}", std::process::id()));
        let store = ResultStore::open(&dir).expect("temp store");
        let cfg = CoordConfig { lease_timeout_ms: timeout, max_reclaims: 1 };
        let mut watcher = Coordinator::new(&store, "watcher", cfg);
        let t0 = Instant::now();
        let (mut now, mut beat, mut since) = (0u64, 0u64, 0u64);
        let mut was_stale = false;
        for (i, (shape, extra, changed)) in polls.into_iter().enumerate() {
            now += match shape {
                0 => timeout,
                1 => timeout + 1,
                _ => extra,
            };
            if changed && i > 0 {
                beat += 1;
            }
            if i == 0 || changed {
                since = now;
            }
            let bytes = Lease { owner: "w".into(), pid: 1, beat, reclaims: 0, label: String::new() }
                .render();
            let stale = watcher.watch("k", bytes.as_bytes(), t0 + Duration::from_millis(now));
            prop_assert_eq!(stale, now - since > timeout, "poll {} at +{} ms", i, now);
            // Once stale, it stays stale until the bytes change.
            if was_stale && !changed {
                prop_assert!(stale, "poll {} at +{} ms", i, now);
            }
            was_stale = stale;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
