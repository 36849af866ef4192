//! Parameter sweeps over declarative scenario specs, with a resumable
//! content-addressed result store and a crash-safe multi-worker mode.
//!
//! ```text
//! sweep --family dense-urban --effort quick \
//!       --axis arch=multi-tier+rsmc,flat-cellular-ip --axis domains=1,2 \
//!       --reps 2 --seed 42 --store .mtnet-store
//! sweep --spec my-scenario.mtspec --axis route_update_ms=500..4500..1000
//! sweep --family dense-urban --effort quick --axis domains=1,2 --workers 3
//! sweep --family dense-urban --effort quick --axis domains=1,2 \
//!       --worker-id box1 --store /shared/.mtnet-store   # one worker per machine
//! sweep --family dense-urban --effort quick --axis domains=1,2 --reps 4 --report
//! sweep --list-families
//! ```
//!
//! Cells already present in the store (keyed by canonical spec text +
//! master seed) are loaded, not recomputed — interrupting a sweep and
//! re-invoking it, or extending the grid/replications, only simulates
//! the missing cells. `--no-store` forces a stateless run. The final
//! line (`sweep "<family>": N cells: computed X, loaded Y`) is the
//! machine-checkable resume contract CI greps.
//!
//! **Multi-worker mode** (`--workers N`, or standalone `--worker-id`
//! processes sharing one `--store` directory) drains the grid through
//! the lease protocol of `mtnet_bench::coord`: a worker owns a cell
//! while it holds an OS file lock on `<key>.lease`, the kernel drops
//! that lock the moment the worker dies, and a survivor reclaims the
//! cell on its next pass; a worker that finds every open cell held
//! blocks on the first one's lock. A cell reclaimed more than
//! `--max-reclaims` times is quarantined (`<key>.poison`). The fleet's
//! final pass prints the grid table plus
//! `computed/loaded/quarantined/missing` counts and exits 0 only when
//! the grid is complete (3 = quarantined cells, 1 = missing cells —
//! resume by re-invoking). Every setting is a flag: fleet children get
//! theirs through the argv the parent rebuilds for them, and no
//! environment variable is read (the `MTNET_SWEEP_KILL_CELL` crash hook
//! of the torture tests aside, see `mtnet_bench::coord`).
//!
//! **Report mode** (`--report`) aggregates a finished grid without
//! computing anything: one row per grid point, mean ± 95% CI over its
//! replications for every table metric. It shares the fleet's exit
//! contract — 0 only for a complete grid, 3 when quarantined cells
//! degraded the aggregate (each named on its own `quarantined:` line),
//! 1 when cells are missing.

use mtnet_bench::coord;
use mtnet_bench::store::ResultStore;
use mtnet_bench::sweep::{parse_axis, parse_reps, parse_seed, run_sweep, Axis, SweepPlan};
use mtnet_bench::{cli, Effort};
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::runner::{parse_thread_count, BatchRunner};
use std::collections::HashSet;

fn usage() -> ! {
    eprintln!(
        "usage: sweep --family <name> | --spec <file>  [--axis key=v1,v2|lo..hi..step]...\n\
         \x20      [--reps N] [--effort quick|full] [--seed N]\n\
         \x20      [--store DIR | --no-store] [--threads N] [--list-families]\n\
         \x20      [--workers N | --worker-id ID] [--max-reclaims K]\n\
         \x20      [--report]\n\
         axes assign any scenario-spec key (see ScenarioSpec::set); cells already\n\
         in the store are loaded instead of recomputed. --workers N drains the grid\n\
         with N crash-safe worker processes (locked leases in the store dir);\n\
         --worker-id runs one such worker standalone (share --store across machines);\n\
         --report renders mean ± 95% CI per grid point from a finished store"
    );
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2)
}

fn main() {
    // Raw argv is kept verbatim for respawning worker children.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw.clone();
    if cli::take_switch(&mut args, "--list-families") {
        println!("available scenario families:");
        for (name, preset) in ScenarioSpec::families() {
            let spec = preset();
            println!(
                "  {name:<18} {} domain(s), {} {} cells/domain, pop {}p/{}c/{}v, {:.0}s",
                spec.n_domains,
                spec.micro_per_domain,
                spec.micro_kind,
                spec.pedestrians,
                spec.cyclists,
                spec.vehicles,
                spec.duration_s,
            );
        }
        return;
    }
    let take =
        |args: &mut Vec<String>, flag| cli::take_value(args, flag).unwrap_or_else(|e| fail(&e));
    let family_arg = take(&mut args, "--family");
    let spec_file = take(&mut args, "--spec");
    let axes: Vec<Axis> = cli::take_values(&mut args, "--axis")
        .unwrap_or_else(|e| fail(&e))
        .iter()
        .map(|a| parse_axis(a).unwrap_or_else(|e| fail(&e)))
        .collect();
    let reps = take(&mut args, "--reps").map_or(1, |v| parse_reps(&v).unwrap_or_else(|e| fail(&e)));
    let effort = match take(&mut args, "--effort").as_deref() {
        None | Some("full") => Effort::Full,
        Some("quick") => Effort::Quick,
        Some(other) => fail(&format!("unknown effort {other:?} (quick|full)")),
    };
    let master_seed =
        take(&mut args, "--seed").map_or(42, |v| parse_seed(&v).unwrap_or_else(|e| fail(&e)));
    let no_store = cli::take_switch(&mut args, "--no-store");
    let store_dir = take(&mut args, "--store").unwrap_or_else(|| ".mtnet-store".into());
    let threads = take(&mut args, "--threads")
        .map_or(0, |v| parse_thread_count(&v).unwrap_or_else(|e| fail(&e)));
    // Multi-worker / report knobs.
    let report_mode = cli::take_switch(&mut args, "--report");
    let worker_id = take(&mut args, "--worker-id");
    let workers = take(&mut args, "--workers")
        .map(|v| coord::parse_worker_count(&v).unwrap_or_else(|e| fail(&e)));
    let max_reclaims = take(&mut args, "--max-reclaims").map_or(3, |v| {
        coord::parse_max_reclaims(&v).unwrap_or_else(|e| fail(&e))
    });
    if !args.is_empty() {
        eprintln!("sweep: unrecognized arguments: {}", args.join(" "));
        usage();
    }
    // The coordinated modes are meaningless without a shared store.
    if no_store && (report_mode || worker_id.is_some() || workers.is_some()) {
        fail("--no-store cannot be combined with --report, --workers or --worker-id");
    }
    if report_mode && (worker_id.is_some() || workers.is_some()) {
        fail("--report is an analysis pass; it cannot be combined with --workers or --worker-id");
    }

    let (family, base) = match (family_arg, spec_file) {
        (Some(name), None) => {
            let spec = ScenarioSpec::family(&name)
                .unwrap_or_else(|| fail(&format!("unknown family {name:?} (try --list-families)")));
            (name, spec)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            (spec.name.clone(), spec)
        }
        _ => usage(),
    };

    let plan = SweepPlan {
        family: family.clone(),
        base,
        axes,
        replications: reps,
        effort,
    };
    let open_store = || {
        ResultStore::open(&store_dir)
            .unwrap_or_else(|e| fail(&format!("cannot open store {store_dir}: {e}")))
    };

    // ---- report mode: aggregate a finished grid, compute nothing ----
    if report_mode {
        let store = open_store();
        let outcome = coord::report_sweep(&plan, master_seed, &store).unwrap_or_else(|e| fail(&e));
        print!("{}", outcome.table);
        println!("{}", outcome.summary(&family, reps));
        for label in &outcome.quarantined_cells {
            println!("  quarantined: ({label})");
        }
        // Same contract as the fleet: a degraded aggregate must not look
        // like a clean one to CI (3 = quarantined, 1 = missing).
        std::process::exit(coord::exit_code(outcome.quarantined, outcome.missing));
    }

    // ---- standalone worker: one lease-protocol worker, shared store ----
    if let Some(id) = worker_id {
        let owner = format!("{id}@{}", std::process::id());
        let store = open_store();
        println!(
            "mtnet sweep worker — id: {owner}, family: {family}, seed: {master_seed}, \
             max reclaims: {max_reclaims}, store: {store_dir}"
        );
        let outcome = coord::run_worker(&plan, master_seed, &store, max_reclaims, &owner)
            .unwrap_or_else(|e| fail(&e));
        println!("{}", outcome.summary(&owner));
        std::process::exit(coord::exit_code(outcome.quarantined, 0));
    }

    // ---- fleet mode: spawn N workers, wait, report the grid ----
    if let Some(n) = workers {
        let store = open_store();
        let preexisting: HashSet<String> = store.keys().into_iter().collect();
        println!(
            "mtnet sweep fleet — family: {family}, seed: {master_seed}, workers: {n}, \
             max reclaims: {max_reclaims}, store: {store_dir}"
        );
        // Children get the parent's argv minus the fleet flag, plus
        // their worker identity.
        let child_args = cli::strip_value_flag(&raw, "--workers");
        let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
        let children: Vec<std::process::Child> = (0..n)
            .map(|i| {
                std::process::Command::new(&exe)
                    .args(&child_args)
                    .arg("--worker-id")
                    .arg(format!("w{i}"))
                    .spawn()
                    .unwrap_or_else(|e| fail(&format!("spawn worker w{i}: {e}")))
            })
            .collect();
        let mut failures = 0;
        for (i, mut child) in children.into_iter().enumerate() {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("sweep: worker w{i} exited with {status}");
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("sweep: worker w{i} wait failed: {e}");
                    failures += 1;
                }
            }
        }
        let report = coord::collect_grid(&plan, master_seed, &store, &preexisting)
            .unwrap_or_else(|e| fail(&e));
        print!("{}", report.table);
        println!("{}", report.summary(&family));
        if failures > 0 {
            eprintln!("sweep: {failures} of {n} workers failed (resume by re-invoking)");
        }
        std::process::exit(coord::exit_code(report.quarantined, report.missing));
    }

    // ---- classic single-process sweep ----
    let store = if no_store { None } else { Some(open_store()) };
    let runner = BatchRunner::new(threads);
    println!(
        "mtnet sweep — family: {family}, effort: {effort:?}, seed: {master_seed}, threads: {}, store: {}",
        runner.threads(),
        if no_store { "(disabled)".to_string() } else { store_dir.clone() },
    );
    let start = std::time::Instant::now();
    let outcome =
        run_sweep(&plan, master_seed, store.as_ref(), &runner).unwrap_or_else(|e| fail(&e));
    eprintln!("[sweep wall: {:.2}s]", start.elapsed().as_secs_f64());
    print!("{}", outcome.table);
    println!("{}", outcome.summary(&family));
}
