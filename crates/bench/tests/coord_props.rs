//! Property tests on the multi-worker coordinator's on-disk formats:
//! the lease and quarantine-record files must round-trip render→parse
//! exactly (they are the fleet's only shared state besides the locks).

use mtnet_bench::coord::{Lease, Poison};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lease_roundtrips_for_arbitrary_fields(
        owner in "[-a-zA-Z0-9@._]{1,24}",
        reclaims in 0u32..=1_000,
        label in "[-a-z0-9=,+. ]{0,40}",
    ) {
        // Labels are axis assignments: they contain `=`, `,`, spaces —
        // everything the line-oriented format must not trip over. The
        // format trims value whitespace, so edge spaces are normalized.
        let lease = Lease {
            owner,
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
}
