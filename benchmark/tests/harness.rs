//! Harness self-tests, at smoke size (2 simulated seconds per world,
//! replays at 1 % of their operation counts) so they run in a debug
//! build. They check the benchmark's own plumbing, not the simulator.

use mtnet_benchmark::bench::{self, Config};
use mtnet_benchmark::report::END_TO_END;
use mtnet_benchmark::workload::{self, results_digest};
use mtnet_benchmark::WORKLOADS;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of `[section]` in a manifest, sorted.
fn manifest_section(path: &Path, section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != section)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_repeats_the_root_manifest() {
    let ours = manifest_section(&root().join("Cargo.toml"), "[profile.release]");
    let theirs = manifest_section(&root().join("../Cargo.toml"), "[profile.release]");
    assert!(!theirs.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        ours, theirs,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest: \
         the benchmark would time a differently compiled program"
    );
}

#[test]
fn every_spec_parses_validates_and_round_trips() {
    for name in WORKLOADS {
        let w = workload::load(&root(), name, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        for world in &w.worlds {
            assert!(world.spec.validate().is_ok(), "{name}/{}", world.file);
            assert!(world.round_trips, "{name}/{} round-trips", world.file);
        }
    }
}

#[test]
fn metro_busy_x2_is_metro_busy_plus_one_line() {
    let busy = workload::load(&root(), "metro_busy", None).unwrap();
    let x2 = workload::load(&root(), "metro_busy_x2", None).unwrap();
    assert_eq!(x2.worlds.len(), 1);
    assert_eq!(
        x2.worlds[0].text,
        format!("{}shards = 2\n", busy.worlds[0].text)
    );
    assert_eq!(x2.threads(), 2);
    assert_eq!(busy.threads(), 1);
}

fn smoke_digest(name: &str, seed: u64) -> String {
    let w = workload::load(&root(), name, Some(2.0)).unwrap();
    let repeat = workload::run_repeat(&w, seed, false, &mut None);
    for (spec, run) in w.worlds.iter().zip(&repeat.worlds) {
        let run = run
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", spec.file));
        assert!(run.violations.is_empty(), "{:?}", run.violations);
    }
    results_digest(&repeat.digests())
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for name in ["city_packets", "metro_busy"] {
        assert_eq!(
            smoke_digest(name, 42),
            smoke_digest(name, 42),
            "{name} repeats"
        );
    }
    // Two simulated seconds are too few for a metro world's random
    // streams to reach its report; a city world's web traffic does.
    assert_ne!(
        smoke_digest("city_packets", 42),
        smoke_digest("city_packets", 43)
    );
}

#[test]
fn sharded_twin_equals_sequential_bit_for_bit() {
    assert_eq!(
        smoke_digest("metro_busy_x2", 42),
        smoke_digest("metro_busy", 42)
    );
}

/// The `"name"` (and, when asked, another string or number field) of
/// every object in the top-level array `key` of `BENCHMARK.json`. The
/// file is flat enough that scanning for the field is all the JSON
/// parsing this needs.
fn declared(text: &str, key: &str, field: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("array key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let value_after = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
        obj[at..]
            .trim_start_matches([':', ' '])
            .split([',', '}'])
            .next()
            .expect("value")
            .trim()
            .trim_matches('"')
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (value_after(obj, "name"), value_after(obj, field)))
        .collect()
}

#[test]
fn every_declared_metric_is_printed_exactly_once_per_workload() {
    let json = std::fs::read_to_string(root().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = declared(&json, "workloads", "name")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS, "workload names");

    // The harness's own table of end-to-end metrics is the file's.
    let units = declared(&json, "end_to_end", "unit");
    let bounds = declared(&json, "end_to_end", "bound");
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        assert_eq!((units[i].0.as_str(), units[i].1.as_str()), (*name, *unit));
        assert_eq!(bounds[i].1.parse::<f64>().unwrap(), *bound, "{name} bound");
    }
    assert_eq!(units.len(), END_TO_END.len());

    let per_layer = declared(&json, "per_layer", "unit");
    for name in WORKLOADS {
        for (trace, want) in [(false, &units), (true, &per_layer)] {
            let out = bench::run(&Config {
                root: root(),
                workload: name.to_string(),
                seed: 42,
                seconds: 0.01,
                trace,
                smoke: true,
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.correct && out.failed == 0, "{name}: {:?}", out.notes);
            assert!(out.attempted >= 1);
            let mut got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            for (metric, _) in &got {
                assert!(
                    metric
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{metric} matches [A-Za-z0-9_.-]+"
                );
            }
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{name} trace={trace}: names and units");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{name}: {} is finite", m.name);
            }
        }
        let trace_file = root().join("out").join(format!("trace-{name}.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).expect("span file written");
        for needle in [
            "\"parse\"",
            "\"build\"",
            "\"run\"",
            "\"fingerprint\"",
            "replay:",
        ] {
            assert!(spans.contains(needle), "{name}: span {needle}");
        }
    }
}
