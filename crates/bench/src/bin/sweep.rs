//! Parameter sweeps over declarative scenario specs, drained by a fleet
//! of crash-safe worker processes into a resumable content-addressed
//! result store.
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
//! A plain invocation spawns `--workers N` child processes (default one
//! per core, never more than the grid has cells), each a lease-protocol
//! worker of `mtnet_bench::coord` over the `--store` directory (default
//! `.mtnet-store`). A worker owns a cell while it holds an OS file lock
//! on `<key>.lease`, the kernel drops that lock the moment the worker
//! dies, and a survivor reclaims the cell on its next pass; a worker
//! that finds every open cell held blocks on the first one's lock. A
//! cell reclaimed more than `--max-reclaims` times is quarantined
//! (`<key>.poison`). `--worker-id ID` runs one such worker standalone,
//! so processes on several machines can share one store; it cannot be
//! combined with `--workers`.
//!
//! Cells already present in the store (keyed by canonical spec text +
//! master seed) are loaded, not recomputed — interrupting a sweep and
//! re-invoking it, or extending the grid/replications, only simulates
//! the missing cells; a stateless run is `--store <fresh dir>`. Once
//! the workers exit, the parent prints the grid table and the final
//! line `sweep "<family>": N cells: computed X, loaded Y, quarantined
//! Z, missing M` that CI greps, and exits 0 only when the grid is
//! complete (3 = quarantined cells, 1 = missing cells — resume by
//! re-invoking). A plan that cannot expand (an axis value outside its
//! key's range, say) exits 2 before the store is opened. Every setting
//! is a flag: fleet children get theirs through the argv the parent
//! rebuilds for them, and no environment variable is read (the
//! `MTNET_SWEEP_KILL_CELL` crash hook of the torture tests aside, see
//! `mtnet_bench::coord`).
//!
//! **Report mode** (`--report`) aggregates a finished grid without
//! computing anything: one row per grid point, mean ± 95% CI over its
//! replications for every table metric. It shares the fleet's exit
//! contract — 0 only for a complete grid, 3 when quarantined cells
//! degraded the aggregate (each named on its own `quarantined:` line),
//! 1 when cells are missing.

use mtnet_bench::coord;
use mtnet_bench::store::ResultStore;
use mtnet_bench::sweep::{parse_axis, parse_reps, parse_seed, Axis, SweepPlan};
use mtnet_bench::{cli, Effort};
use mtnet_core::spec::ScenarioSpec;
use std::collections::HashSet;

fn usage() -> ! {
    eprintln!(
        "usage: sweep --family <name> | --spec <file>  [--axis key=v1,v2|lo..hi..step]...\n\
         \x20      [--reps N] [--effort quick|full] [--seed N] [--store DIR]\n\
         \x20      [--workers N | --worker-id ID] [--max-reclaims K]\n\
         \x20      [--report] [--list-families]\n\
         axes assign any scenario-spec key (see ScenarioSpec::set); cells already\n\
         in the store are loaded instead of recomputed. The grid is drained by\n\
         --workers N crash-safe worker processes (default one per core; locked\n\
         leases in the store dir); --worker-id runs one such worker standalone\n\
         (share --store across machines); --report renders mean ± 95% CI per grid\n\
         point from a finished store"
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
    let store_dir = take(&mut args, "--store").unwrap_or_else(|| ".mtnet-store".into());
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
    if report_mode && (worker_id.is_some() || workers.is_some()) {
        fail("--report is an analysis pass; it cannot be combined with --workers or --worker-id");
    }
    if worker_id.is_some() && workers.is_some() {
        fail("--worker-id runs one worker and --workers spawns a fleet; pass one of them");
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
    // A plan that cannot expand is refused here, before the store is
    // created or a worker is spawned to fail on it in turn.
    let cells = plan.cells().unwrap_or_else(|e| fail(&e)).len();
    let store = ResultStore::open(&store_dir)
        .unwrap_or_else(|e| fail(&format!("cannot open store {store_dir}: {e}")));

    // ---- report mode: aggregate a finished grid, compute nothing ----
    if report_mode {
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
        println!(
            "mtnet sweep worker — id: {owner}, family: {family}, seed: {master_seed}, \
             max reclaims: {max_reclaims}, store: {store_dir}"
        );
        let outcome = coord::run_worker(&plan, master_seed, &store, max_reclaims, &owner)
            .unwrap_or_else(|e| fail(&e));
        println!("{}", outcome.summary(&owner));
        std::process::exit(coord::exit_code(outcome.quarantined, 0));
    }

    // ---- fleet: spawn N workers, wait, report the grid ----
    // A worker past the grid's cell count would find nothing to claim.
    let n = workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .min(cells);
    let preexisting: HashSet<String> = store.keys().into_iter().collect();
    println!(
        "mtnet sweep fleet — family: {family}, seed: {master_seed}, workers: {n}, \
         max reclaims: {max_reclaims}, store: {store_dir}"
    );
    // Children get the parent's argv minus the fleet flag, plus their
    // worker identity.
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
    let report =
        coord::collect_grid(&plan, master_seed, &store, &preexisting).unwrap_or_else(|e| fail(&e));
    print!("{}", report.table);
    println!("{}", report.summary(&family));
    if failures > 0 {
        eprintln!("sweep: {failures} of {n} workers failed (resume by re-invoking)");
    }
    std::process::exit(coord::exit_code(report.quarantined, report.missing));
}
