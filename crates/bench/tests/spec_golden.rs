//! Golden tests pinning the declarative spec texts behind E1–E14.
//!
//! Every experiment arm is a `ScenarioSpec`; its canonical text is the
//! content address the sweep store keys on and the contract the
//! byte-identical-fingerprint guarantee rides on. This test pins
//! (a) the full text of two representative arms, human-readably, and
//! (b) a digest of every experiment's concatenated arm texts — so *any*
//! unintentional drift in *any* arm's spec (geometry, knobs, duration,
//! seed path) fails loudly. E5 has no arms and no fingerprint (it runs
//! no world), so (c) pins a digest of its rendered table instead. An
//! intentional change updates the constants below; the failure message
//! prints the fresh text to paste.

use mtnet_bench::experiments::arm_specs;
use mtnet_bench::store::ResultStore;
use mtnet_bench::{run_one, Effort, RunOptions, ALL_IDS};

/// E2's first arm (the pure-Mobile-IP baseline) at Quick effort, in full.
const E2_ARM0_QUICK: &str = "\
mtnet-spec v1
name = \"commute-corridor\"
seed = path \"E2\" \"pure-mobile-ip\" rep 0
duration_s = 30.0
arch = pure-mobile-ip
domains = 2
micro_per_domain = 4
micro_kind = micro
micro_spacing_m = 400.0
domain_width_m = 3000.0
street_y_m = 1500.0
share_upper = on
macro_hole = off
satellite = off
pedestrians = 2
cyclists = 0
vehicles = 1
pedestrian_class = pedestrian
pedestrian_pause_s = 10.0
cyclist_speed_mps = 6.0
vehicle_speed_mps = 25.0
voice_every = 1
video_every = 0
web_every = 0
factors = speed+signal+resources
route_update_ms = none
semisoft_delay_ms = none
table_lifetime_ms = none
paging_update_ms = none
";

/// E12's third arm (the "no speed" ablation) at Quick effort, in full —
/// exercises quoting, factors rendering and population overrides.
const E12_ARM2_QUICK: &str = "\
mtnet-spec v1
name = \"small-city\"
seed = path \"E12\" \"no speed\" rep 0
duration_s = 30.0
arch = multi-tier+rsmc
domains = 3
micro_per_domain = 4
micro_kind = micro
micro_spacing_m = 400.0
domain_width_m = 3000.0
street_y_m = 1500.0
share_upper = on
macro_hole = off
satellite = off
pedestrians = 6
cyclists = 3
vehicles = 3
pedestrian_class = pedestrian
pedestrian_pause_s = 10.0
cyclist_speed_mps = 6.0
vehicle_speed_mps = 25.0
voice_every = 1
video_every = 3
web_every = 0
factors = signal+resources
route_update_ms = none
semisoft_delay_ms = none
table_lifetime_ms = none
paging_update_ms = none
";

/// `(experiment, arm count, digest of concatenated canonical texts)` at
/// Quick effort. The digest is the store's own content hash, so this is
/// exactly "would every arm land in the same store slot as before".
const QUICK_DIGESTS: [(&str, usize, &str); 14] = [
    ("E1", 2, "080ec007d756b65d"),
    ("E2", 2, "6f980c280036295f"),
    ("E3", 5, "5b7701f6f0f24e8f"),
    ("E4", 2, "84b186aa619da284"),
    ("E5", 0, "a8c7f832281a39c5"),
    ("E6", 1, "debdd7721285ce15"),
    ("E7", 1, "ef9e312ab55f9b3c"),
    ("E8", 1, "2c983c28a8997388"),
    ("E9", 2, "b22b7ca58b7df417"),
    ("E10", 9, "a35e178457aed7a1"),
    ("E11", 36, "df51789d3b35f1e5"),
    ("E12", 5, "9fb581ce7c347f11"),
    ("E13", 3, "0f216fe32b22f303"),
    ("E14", 1, "874e5836f83e6d26"),
];

/// Digest of E5's rendered output at Quick effort, seed 42 — the only
/// pin on `LocationDirectory` behaviour as the suite exercises it (the
/// staleness gradient, the micro-first hit split).
const E5_QUICK_RENDER_DIGEST: &str = "3e9316d31fa0581c";

/// E13's first arm (multi-tier under the shared fault schedule) at Quick
/// effort, in full — pins the `fault.*` grammar end to end.
const E13_ARM0_QUICK: &str = "\
mtnet-spec v1
name = \"small-city\"
seed = path \"E13\" \"multi-tier+rsmc\" rep 0
duration_s = 30.0
arch = multi-tier+rsmc
domains = 3
micro_per_domain = 4
micro_kind = micro
micro_spacing_m = 400.0
domain_width_m = 3000.0
street_y_m = 1500.0
share_upper = on
macro_hole = off
satellite = off
pedestrians = 6
cyclists = 0
vehicles = 3
pedestrian_class = pedestrian
pedestrian_pause_s = 10.0
cyclist_speed_mps = 6.0
vehicle_speed_mps = 25.0
voice_every = 1
video_every = 3
web_every = 0
factors = speed+signal+resources
route_update_ms = none
semisoft_delay_ms = none
table_lifetime_ms = none
paging_update_ms = none
fault.cell_outages = 1:8.0:16.0
fault.link_flaps = 1:5.0:8.0:0.5:0.5:2
fault.rsmc_failover = 2:18.0:5.0
";

#[test]
fn representative_arm_texts_are_pinned() {
    let e2 = arm_specs("E2", Effort::Quick);
    assert_eq!(
        e2[0].render(),
        E2_ARM0_QUICK,
        "E2 arm 0 drifted; fresh text:\n{}",
        e2[0].render()
    );
    let e12 = arm_specs("E12", Effort::Quick);
    assert_eq!(
        e12[2].render(),
        E12_ARM2_QUICK,
        "E12 arm 2 drifted; fresh text:\n{}",
        e12[2].render()
    );
    let e13 = arm_specs("E13", Effort::Quick);
    assert_eq!(
        e13[0].render(),
        E13_ARM0_QUICK,
        "E13 arm 0 drifted; fresh text:\n{}",
        e13[0].render()
    );
}

#[test]
fn every_experiments_spec_texts_are_pinned() {
    assert_eq!(QUICK_DIGESTS.len(), ALL_IDS.len());
    for (id, arms, digest) in QUICK_DIGESTS {
        let specs = arm_specs(id, Effort::Quick);
        assert_eq!(specs.len(), arms, "{id}: arm count changed");
        let concatenated: String = specs.iter().map(|s| s.render()).collect();
        let fresh = ResultStore::key(&concatenated, 0);
        assert_eq!(
            fresh, digest,
            "{id}: spec texts drifted (fresh digest {fresh}); \
             if intentional, update QUICK_DIGESTS. Concatenated texts:\n{concatenated}"
        );
    }
}

#[test]
fn e5_rendered_table_is_pinned() {
    let text = run_one("E5", RunOptions::new(Effort::Quick, 42))
        .expect("known id")
        .render();
    let fresh = ResultStore::key(&text, 0);
    assert_eq!(
        fresh, E5_QUICK_RENDER_DIGEST,
        "E5 output drifted (fresh digest {fresh}); \
         if intentional, update E5_QUICK_RENDER_DIGEST. Fresh table:\n{text}"
    );
}

#[test]
fn spec_texts_parse_back_exactly() {
    // The pinned texts are also valid input: the parser reproduces the
    // very specs the runners execute.
    use mtnet_core::spec::ScenarioSpec;
    for id in ALL_IDS {
        for (i, spec) in arm_specs(id, Effort::Quick).iter().enumerate() {
            let back =
                ScenarioSpec::parse(&spec.render()).unwrap_or_else(|e| panic!("{id} arm {i}: {e}"));
            assert_eq!(&back, spec, "{id} arm {i}");
        }
    }
}
