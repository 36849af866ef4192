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
//! of all four formats. A flag value has no renderer of its own: a count
//! renders as its digits, an axis as `key=v1,v2,…` (see [`render_axis`]).

use mtnet_bench::coord::{parse_max_reclaims, parse_timeout_ms, parse_worker_count};
use mtnet_bench::coord::{Lease, Poison};
use mtnet_bench::experiments::arm_specs;
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

/// Runs the driver over one record type. Canonical texts (`canonical`)
/// must also render back byte for byte.
fn torture<T: PartialEq + Debug, E: PartialEq + Debug + Display>(
    record: &str,
    texts: &[(String, bool)],
    parse: fn(&str) -> Result<T, E>,
    render: fn(&T) -> String,
) {
    let mut rng = RngStream::derive(0xbad_b17e5, record);
    let (mut parsed, mut total) = (0usize, 0usize);
    for (i, (text, canonical)) in texts.iter().enumerate() {
        let valid = parse(text).unwrap_or_else(|e| panic!("{record} text {i}: {e}\n{text}"));
        if *canonical {
            assert_eq!(&render(&valid), text, "{record} text {i} is not canonical");
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
    let mut texts: Vec<(String, bool)> = ScenarioSpec::families()
        .iter()
        .map(|(name, preset)| (preset().with_seed_path("hostile", name, 2).render(), true))
        .collect();
    texts.push((arm_specs("E13", Effort::Quick)[0].render(), true));
    // The benchmark's hand-written workload files, read as input only.
    let workloads = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
    let mut files: Vec<_> = std::fs::read_dir(workloads)
        .expect("benchmark/workloads")
        .flat_map(|dir| std::fs::read_dir(dir.expect("entry").path()).expect("workload dir"))
        .map(|file| file.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 11, "{files:?}");
    texts.extend(
        files
            .iter()
            .map(|f| (std::fs::read_to_string(f).expect("workload spec"), false)),
    );
    torture("spec", &texts, ScenarioSpec::parse, ScenarioSpec::render);
}

#[test]
fn stored_runs() {
    let texts: Vec<(String, bool)> = [1, 2]
        .map(|rep| {
            let spec = ScenarioSpec::commute_corridor()
                .with_duration_s(10.0)
                .with_seed_path("hostile", "arm=1,x", rep);
            let run = StoredRun::from_report("arm=1,x rep=1", &spec, 42, &spec.run(42));
            (run.render(), true)
        })
        .into();
    torture("run", &texts, StoredRun::parse, StoredRun::render);
}

/// A lease and a quarantine record exactly as the commit before the
/// `kv` reader wrote them (`sweep --workers 1 --max-reclaims 0` under
/// the kill hook).
const PARENT_LEASE: &str = "mtnet-lease v1\nowner = w0@11672\npid = 11672\n\
    claimed_ms = 1791163734786\nheartbeat_ms = 1791163734786\nreclaims = 0\n\
    label = domains=2 rep=0\n";
const PARENT_POISON: &str = "mtnet-poison v1\nfailures = 1\nlast_owner = w0@11672\n\
    label = domains=2 rep=0\nquarantined_ms = 1791163735297\n";

#[test]
fn leases() {
    let lease = Lease {
        owner: "w1@4242".into(),
        pid: u32::MAX,
        claimed_ms: 1_700_000_000_000,
        heartbeat_ms: u64::MAX,
        reclaims: 3,
        label: "arch=multi-tier+rsmc,domains=2 rep=1".into(),
    };
    assert_eq!(Lease::parse(PARENT_LEASE).expect("parent's").pid, 11672);
    let texts = [(lease.render(), true), (PARENT_LEASE.to_string(), true)];
    torture("lease", &texts, Lease::parse, Lease::render);
}

#[test]
fn poison_records() {
    let poison = Poison {
        failures: 4,
        last_owner: "w2@777".into(),
        label: String::new(),
        quarantined_ms: 1_700_000_001_000,
    };
    assert_eq!(Poison::parse(PARENT_POISON).expect("parent's").failures, 1);
    let texts = [(poison.render(), true), (PARENT_POISON.to_string(), true)];
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
        ("route_update_ms=100,200".to_string(), true),
        ("duration_s=1..3..1".to_string(), false),
    ];
    torture("--axis", &texts, parse_axis, render_axis);
}

#[test]
fn count_flags() {
    let texts = [("4".to_string(), true), ("10000".to_string(), true)];
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
