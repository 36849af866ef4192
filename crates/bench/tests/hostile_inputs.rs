//! Hostile bytes against the one `mtnet_core::kv` reader, through each
//! of its four records: scenario specs, stored runs, leases and
//! quarantine records — and against the command-line value parsers
//! (`--axis` and the five counts). One deterministic byte-level mutation driver
//! (seeded `RngStream`) takes valid texts and truncates them at every
//! offset, flips bytes (invalid UTF-8 included, read lossily), splices
//! two texts, duplicates key lines, swaps values for overflowing and
//! non-finite numbers, and adds CRLF and NUL. The contract: `parse`
//! returns `Err` — never panics — and a mutant `x` that still parses
//! satisfies `parse(render(x)) == x`, so no hostile text is silently a
//! different record than it prints as. The valid texts go through the
//! same check first, which makes this the render/parse round-trip test
//! of all four formats; texts of a retired format (the `v1` lease and
//! quarantine record) or of a hostile size (an axis range past the
//! sweep's cell ceiling) must instead be an `Err`, and are mutated too. A
//! flag value has no renderer of its own: a count renders as its digits,
//! an axis as `key=v1,v2,…` (see [`render_axis`]).

use mtnet_bench::coord::{parse_max_reclaims, parse_timeout_ms, parse_worker_count};
use mtnet_bench::coord::{Lease, Poison};
use mtnet_bench::experiments::find;
use mtnet_bench::store::StoredRun;
use mtnet_bench::sweep::{parse_axis, Axis};
use mtnet_bench::Effort;
use mtnet_core::spec::ScenarioSpec;
use mtnet_core::world::shard::parse_shard_count;
use mtnet_sim::runner::parse_thread_count;
use mtnet_sim::RngStream;
use std::fmt::{Debug, Display};

/// Values no numeric, switch or quoted field may choke on.
const HOSTILE_VALUES: [&str; 14] = [
    "99999999999999999999",
    "18446744073709551615",
    "4294967296",
    "4294967295",
    "NaN",
    "inf",
    "-inf",
    "-0",
    "1e309",
    "",
    "\0",
    "\"",
    "\"\\",
    "none",
];

/// Deterministic mutants of `text`; `other` is the splice partner.
fn mutants(text: &str, other: &str, rng: &mut RngStream) -> Vec<String> {
    let (bytes, other) = (text.as_bytes(), other.as_bytes());
    let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    // Every offset of a short text, an even sample of 128 of a long one.
    let stride = bytes.len() / 128 + 1;
    let mut out: Vec<String> = (0..bytes.len())
        .step_by(stride)
        .map(|n| lossy(&bytes[..n]))
        .collect();
    for _ in 0..64 {
        let mut flipped = bytes.to_vec();
        flipped[rng.index(bytes.len())] = rng.uniform_u64(256) as u8;
        out.push(lossy(&flipped));
    }
    for _ in 0..32 {
        let (i, j) = (rng.index(bytes.len()), rng.index(other.len()));
        out.push(lossy(&[&bytes[..i], &other[j..]].concat()));
    }
    let lines: Vec<&str> = text.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        let with = |new: String| {
            let mut edited: Vec<&str> = lines.clone();
            edited[n] = &new;
            edited.join("\n") + "\n"
        };
        out.push(with(format!("{line}\n{line}")));
        if let Some((key, _)) = line.split_once('=') {
            for value in HOSTILE_VALUES {
                out.push(with(format!("{key}= {value}")));
            }
        }
    }
    out.push(text.replace('\n', "\r\n"));
    out.push(text.replace('\n', "\0\n"));
    out
}

/// What [`torture`] expects of a seed text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seed {
    /// Parses, and renders back byte for byte.
    Canonical,
    /// Parses (hand-written, so it may render differently).
    Valid,
    /// A retired format or a hostile size: must be an `Err`, but its
    /// mutants are driven all the same.
    Refused,
}

/// Runs the driver over one record type.
fn torture<T: PartialEq + Debug, E: PartialEq + Debug + Display>(
    record: &str,
    texts: &[(String, Seed)],
    parse: fn(&str) -> Result<T, E>,
    render: fn(&T) -> String,
) {
    let mut rng = RngStream::derive(0xbad_b17e5, record);
    let (mut parsed, mut total) = (0usize, 0usize);
    for (i, (text, seed)) in texts.iter().enumerate() {
        match (parse(text), seed) {
            (Ok(valid), Seed::Canonical) => {
                assert_eq!(&render(&valid), text, "{record} text {i} is not canonical")
            }
            (Ok(_), Seed::Valid) | (Err(_), Seed::Refused) => {}
            (got, _) => panic!("{record} text {i} ({seed:?}): {got:?}\n{text}"),
        }
        let other = &texts[(i + 1) % texts.len()].0;
        for mutant in std::iter::once(text.clone()).chain(mutants(text, other, &mut rng)) {
            total += 1;
            let Ok(survivor) = parse(&mutant) else {
                continue;
            };
            parsed += 1;
            let again = parse(&render(&survivor));
            assert_eq!(again.as_ref(), Ok(&survivor), "{record}: {mutant:?}");
        }
    }
    assert!(
        total <= 20_000,
        "{record}: {total} mutants is past the bound"
    );
    assert!(
        parsed > texts.len() && parsed < total,
        "{record}: {parsed} of {total} mutants parsed — the driver is not biting"
    );
}

#[test]
fn scenario_specs() {
    let mut texts: Vec<(String, Seed)> = ScenarioSpec::families()
        .iter()
        .map(|(name, preset)| {
            let spec = preset().with_seed_path("hostile", name, 2);
            (spec.render(), Seed::Canonical)
        })
        .collect();
    texts.push((
        (find("E13").expect("E13").arms)(Effort::Quick)[0]
            .1
            .render(),
        Seed::Canonical,
    ));
    // The benchmark's hand-written workload files, read as input only.
    let workloads = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
    let mut files: Vec<_> = std::fs::read_dir(workloads)
        .expect("benchmark/workloads")
        .flat_map(|dir| std::fs::read_dir(dir.expect("entry").path()).expect("workload dir"))
        .map(|file| file.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 11, "{files:?}");
    texts.extend(files.iter().map(|f| {
        (
            std::fs::read_to_string(f).expect("workload spec"),
            Seed::Valid,
        )
    }));
    torture("spec", &texts, ScenarioSpec::parse, ScenarioSpec::render);
}

#[test]
fn stored_runs() {
    let texts: Vec<(String, Seed)> = [1, 2]
        .map(|rep| {
            let spec = ScenarioSpec::commute_corridor()
                .with_duration_s(10.0)
                .with_seed_path("hostile", "arm=1,x", rep);
            let run = StoredRun::from_report("arm=1,x rep=1", &spec, 42, &spec.run(42));
            (run.render(), Seed::Canonical)
        })
        .into();
    torture("run", &texts, StoredRun::parse, StoredRun::render);
}

/// A lease and a quarantine record exactly as the `v1` formats wrote
/// them (`sweep --workers 1 --max-reclaims 0` under the kill hook), before
/// `beat` replaced their wall-clock fields. Both are retired: a leftover
/// file must read as an error, never as a record.
const PARENT_LEASE: &str = "mtnet-lease v1\nowner = w0@11672\npid = 11672\n\
    claimed_ms = 1791163734786\nheartbeat_ms = 1791163734786\nreclaims = 0\n\
    label = domains=2 rep=0\n";
const PARENT_POISON: &str = "mtnet-poison v1\nfailures = 1\nlast_owner = w0@11672\n\
    label = domains=2 rep=0\nquarantined_ms = 1791163735297\n";

#[test]
fn leases() {
    let lease = |beat, reclaims, label: &str| Lease {
        owner: "w1@4242".into(),
        pid: u32::MAX,
        beat,
        reclaims,
        label: label.into(),
    };
    let texts = [
        (
            lease(u64::MAX, 3, "arch=multi-tier+rsmc,domains=2 rep=1").render(),
            Seed::Canonical,
        ),
        (lease(0, 0, "domains=2 rep=0").render(), Seed::Canonical),
        (PARENT_LEASE.to_string(), Seed::Refused),
    ];
    torture("lease", &texts, Lease::parse, Lease::render);
}

#[test]
fn poison_records() {
    let poison = |failures, label: &str| Poison {
        failures,
        last_owner: "w2@777".into(),
        label: label.into(),
    };
    let texts = [
        (poison(4, "").render(), Seed::Canonical),
        (poison(1, "domains=2 rep=0").render(), Seed::Canonical),
        (PARENT_POISON.to_string(), Seed::Refused),
    ];
    torture("poison", &texts, Poison::parse, Poison::render);
}

/// An axis as `--axis` text: a value holding a `,` or `..` is quoted,
/// so a list never reads back as a range or as more values.
fn render_axis(axis: &Axis) -> String {
    let values: Vec<String> = axis
        .values
        .iter()
        .map(|v| {
            if v.contains(',') || v.contains("..") {
                format!("\"{v}\"")
            } else {
                v.clone()
            }
        })
        .collect();
    format!("{}={}", axis.key, values.join(","))
}

#[test]
fn axis_flags() {
    let texts = [
        ("route_update_ms=100,200".to_string(), Seed::Canonical),
        ("duration_s=1..3..1".to_string(), Seed::Valid),
        // Past the sweep's cell ceiling: refused before any allocation.
        ("domains=1..1000000000000".to_string(), Seed::Refused),
    ];
    torture("--axis", &texts, parse_axis, render_axis);
}

#[test]
fn count_flags() {
    let texts = [
        ("4".to_string(), Seed::Canonical),
        ("10000".to_string(), Seed::Canonical),
    ];
    torture("--threads", &texts, parse_thread_count, usize::to_string);
    torture("--shards", &texts, parse_shard_count, u32::to_string);
    torture("--workers", &texts, parse_worker_count, usize::to_string);
    torture(
        "--lease-timeout-ms",
        &texts,
        parse_timeout_ms,
        u64::to_string,
    );
    torture("--max-reclaims", &texts, parse_max_reclaims, u32::to_string);
}

#[test]
fn the_driver_is_deterministic() {
    let run = || {
        mutants(
            PARENT_LEASE,
            PARENT_POISON,
            &mut RngStream::derive(7, "twice"),
        )
    };
    assert_eq!(run(), run());
}
