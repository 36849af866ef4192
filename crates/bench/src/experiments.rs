//! The fourteen experiments, declared once in [`EXPERIMENTS`]. Each
//! reproduces one paper artifact (E13 adds the resilience family the
//! paper only argues qualitatively, E14 the metro tier); see
//! `EXPERIMENTS.md` for the recorded outputs and the paper-vs-measured
//! discussion.
//!
//! An [`Experiment`] is its id, title and notes, an `arms` function —
//! every simulation arm as a `(label, ScenarioSpec)` pair, the spec being
//! a family preset with knob assignments, duration and seed path — and a
//! `tabulate` function over the finished [`Run`]s. [`Experiment::run`]
//! is the one runner: it fans the arms out through [`BatchRunner`],
//! keeps label, spec and report *together*, and sums events and
//! fingerprints. Seed paths are `(experiment, arm, replication)`
//! resolved via `mtnet_sim::rng::seed_for_path`, so the jobs are
//! independent of scheduling order and the rendered tables are
//! byte-identical at any thread count. The arm specs are pinned
//! textually by the golden tests in `tests/spec_golden.rs`.

use crate::{Effort, ExperimentResult, RunOptions, REPLICATIONS};
use mtnet_cellularip::{CipTree, HandoffKind};
use mtnet_core::handoff::{HandoffFactors, HandoffType};
use mtnet_core::hierarchy::Hierarchy;
use mtnet_core::location::LocationDirectory;
use mtnet_core::report::{DropCause, SimReport};
use mtnet_core::scenario::ArchKind;
use mtnet_core::spec::{
    CellOutage, EclipseWindow, FaultSpec, LinkFlap, RsmcFailover, ScenarioSpec,
};
use mtnet_core::tier::Tier;
use mtnet_metrics::{fmt_f64, Summary, Table};
use mtnet_net::{Addr, NodeId};
use mtnet_radio::{CellId, CellKind, PathLoss, SENSITIVITY_DBM};
use mtnet_sim::runner::BatchRunner;
use mtnet_sim::{RngStream, SimDuration, SimTime};

/// One arm before it runs: display label and spec.
pub type Arm = (String, ScenarioSpec);

/// One finished arm: its label, its spec and its report, together.
#[derive(Debug)]
pub struct Run {
    /// The arm's display label (replications of an arm share it).
    pub label: String,
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// What it produced.
    pub report: SimReport,
}

/// One experiment's whole declaration.
#[derive(Debug)]
pub struct Experiment {
    /// Experiment id ("E4").
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Interpretation notes (expected shape, caveats).
    pub notes: &'static [&'static str],
    /// The simulation arms in submission order — the single place the
    /// experiment's scenarios are defined. Replications of an arm are
    /// consecutive and share its label; empty for the analytic E5.
    pub arms: fn(Effort) -> Vec<Arm>,
    /// Renders the finished runs into the result's `tables` — and, for
    /// an analytic part, adds the model operations it performed in place
    /// of simulator events to `events` (E5's messages and queries).
    pub tabulate: fn(RunOptions, &[Run], &mut ExperimentResult),
}

impl Experiment {
    /// Runs every arm and tabulates the results.
    pub fn run(&self, opts: RunOptions) -> ExperimentResult {
        let runs = run_arms(opts, (self.arms)(opts.effort));
        let mut result = ExperimentResult {
            id: self.id,
            title: self.title,
            tables: Vec::new(),
            notes: self.notes,
            events: runs.iter().map(|r| r.report.events_processed).sum(),
            fingerprints: runs.iter().map(|r| r.report.fingerprint()).collect(),
        };
        (self.tabulate)(opts, &runs, &mut result);
        result
    }
}

/// Looks an experiment up by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// The declarative simulation arms of one experiment, in submission
/// order (empty for E5 and unknown ids). The golden test pins these
/// texts; the sweep engine's families compose the same presets.
pub fn arm_specs(id: &str, effort: Effort) -> Vec<ScenarioSpec> {
    let arms = find(id).map_or_else(Vec::new, |e| (e.arms)(effort));
    arms.into_iter().map(|(_, spec)| spec).collect()
}

/// Runs every arm through a worker pool `opts.threads` wide, each at
/// `opts.shards` shards when that is set; the runs come back in
/// submission order, label and spec still attached to their report.
fn run_arms(opts: RunOptions, arms: Vec<Arm>) -> Vec<Run> {
    BatchRunner::new(opts.threads).run(arms, move |_, (label, spec)| {
        let sharded = opts.shards.map(|n| spec.clone().with_shards(n));
        let report = sharded.as_ref().unwrap_or(&spec).run(opts.seed);
        Run {
            label,
            spec,
            report,
        }
    })
}

/// Every experiment, in suite order.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        id: "E1",
        title: "Fig 2.1 — multi-tier cellular architecture",
        notes: &[
            "radio range >= nominal radius for every tier, so footprints are servable",
            "tier speed threshold: 8 m/s",
            "the satellite tier absorbs the macro hole: outages drop to ~0 at the cost of 32 kb/s service and ~2.7 ms orbital latency",
        ],
        arms: e1_arms,
        tabulate: e1_tables,
    },
    Experiment {
        id: "E2",
        title: "Fig 2.2 — Mobile IP procedures: registration and triangle routing",
        notes: &[
            "expected shape: triangle delay > optimized delay; registrations higher without the hierarchy",
        ],
        arms: e2_arms,
        tabulate: e2_tables,
    },
    Experiment {
        id: "E3",
        title: "Fig 2.3 — Cellular IP: route-update rate vs overhead and staleness",
        notes: &[
            "expected shape: overhead falls linearly with the period; loss rises once caches outlive their refresh",
            "cache lifetime is 3x the period, so staleness appears via handoffs, not pure expiry",
        ],
        arms: e3_arms,
        tabulate: e3_tables,
    },
    Experiment {
        id: "E4",
        title: "Fig 2.4 — Cellular IP handoff: hard vs semisoft",
        notes: &[
            "expected shape: hard window = crossover round-trip (paper); semisoft covers it at the cost of duplicates",
        ],
        arms: e4_arms,
        tabulate: e4_tables,
    },
    Experiment {
        id: "E5",
        title: "Fig 3.1 — micro_table/macro_table location management",
        notes: &[
            "expected shape: staleness ~0 while period < lifetime (6 s), then rises sharply",
            "micro-sourced records dominate hits: the paper's micro-first search order pays off",
        ],
        arms: |_| Vec::new(),
        tabulate: e5_tables,
    },
    Experiment {
        id: "E6",
        title: "Fig 3.2 — inter-domain handoff, same upper BS",
        notes: &[
            "expected shape: inter-domain (same upper) latency well below the different-upper case of E7 — no home-network round trip",
        ],
        arms: |effort| {
            let corridor = ScenarioSpec::commute_corridor();
            vec![arch_arm("E6", ArchKind::multi_tier(), 0, effort.secs(500.0), corridor)]
        },
        tabulate: |_, runs, out| handoff_tables("2 domains sharing an upper BS", &runs[0], out),
    },
    Experiment {
        id: "E7",
        title: "Fig 3.3 — inter-domain handoff, different upper BS",
        notes: &[
            "expected shape: different-upper latency includes the home-network round trip (tens of ms of WAN)",
        ],
        arms: |effort| {
            let corridor = ScenarioSpec::commute_corridor().without_shared_upper();
            vec![arch_arm("E7", ArchKind::multi_tier(), 0, effort.secs(500.0), corridor)]
        },
        tabulate: |_, runs, out| handoff_tables("2 domains with separate upper BSs", &runs[0], out),
    },
    Experiment {
        id: "E8",
        title: "Fig 3.4 — intra-domain handoffs (macro→micro, micro→macro, micro→micro)",
        notes: &[
            "expected shape: all intra cases complete within the access network (≈ semisoft delay + tree climb), far below inter-domain costs",
        ],
        arms: |effort| {
            let city = ScenarioSpec::small_city().with_population(6, 3, 2);
            vec![arch_arm("E8", ArchKind::multi_tier(), 0, effort.secs(600.0), city)]
        },
        tabulate: |_, runs, out| handoff_tables("small city, mixed population", &runs[0], out),
    },
    Experiment {
        id: "E9",
        title: "Fig 4.1 — RSMC: combined gateway cache + HA/CN notification",
        notes: &[
            "expected shape: RSMC cuts mean delay (route optimization via CN notify) and loss (location-cache rescue of stale routes)",
        ],
        arms: e9_arms,
        tabulate: e9_tables,
    },
    Experiment {
        id: "E10",
        title: "Claim — multi-tier improves QoS over pure Mobile IP and flat Cellular IP",
        notes: &[
            "expected shape: multi-tier wins on delay (vs triangle-routing Mobile IP) and on loss/outage (vs coverage-limited flat Cellular IP)",
        ],
        arms: e10_arms,
        tabulate: e10_tables,
    },
    Experiment {
        id: "E11",
        title: "Claim — multi-tier + semisoft + RSMC reduces multimedia packet loss",
        notes: &[
            "expected shape: fast populations break flat Cellular IP (outages) and stress pure Mobile IP (registration loss); the multi-tier architecture stays low across all speeds",
            "semisoft ≤ hard loss for the micro-tier populations",
        ],
        arms: e11_arms,
        tabulate: e11_tables,
    },
    Experiment {
        id: "E12",
        title: "Ablation — the three handoff factors of §3.2",
        notes: &[
            "expected shape: dropping the speed factor strands fast nodes in micro cells (more handoffs); dropping signal raises ping-pong; dropping resources removes the fallback safety valve",
        ],
        arms: e12_arms,
        tabulate: e12_tables,
    },
    Experiment {
        id: "E13",
        title: "Resilience — spec-driven outages, flaps, failover and eclipse",
        notes: &[
            "expected shape: the hierarchy re-converges via soft-state refresh (bounded recovery latency); pure Mobile IP pays a re-registration storm per restore",
            "the eclipse arm re-opens the E1 macro hole while the overlay is dark — loss climbs toward the terrestrial-only arm of E1",
        ],
        arms: e13_arms,
        tabulate: e13_tables,
    },
    Experiment {
        id: "E14",
        title: "Metro tier — 10^6 subscribers, O(active) state, streaming QoS",
        notes: &[
            "state scales with the active set: per-flow delay histograms collapse into one 2048-bucket aggregate; RSMC auth and MNLD rows are O(population) columns, not O(subscribers) side maps",
            "expected shape: idle subscribers cost only their periodic ticks (5 s move samples, 60 s location/paging); the pico street rows absorb the active calls and the macro umbrella takes the overflow",
        ],
        arms: e14_arms,
        tabulate: e14_tables,
    },
];

/// One arm: `spec` for `secs` simulated seconds on the
/// `(experiment, label, rep)` seed path.
fn arm(id: &str, label: &str, rep: u64, secs: f64, spec: ScenarioSpec) -> Arm {
    let spec = spec.with_duration_s(secs).with_seed_path(id, label, rep);
    (label.to_string(), spec)
}

/// [`arm`] for an architecture comparison: `spec` under `arch`,
/// labelled by the architecture.
fn arch_arm(id: &str, arch: ArchKind, rep: u64, secs: f64, spec: ScenarioSpec) -> Arm {
    arm(id, arch.label(), rep, secs, spec.with_arch(arch))
}

fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

fn ms(x: f64) -> String {
    format!("{x:.1}ms")
}

fn drops(r: &SimReport, cause: DropCause) -> String {
    r.drops.get(&cause).copied().unwrap_or(0).to_string()
}

/// `mean ± ci95` rendering for a cross-replication summary (plain mean
/// when only one replication contributed).
fn pm(s: &Summary, unit: fn(f64) -> String) -> String {
    if s.count() <= 1 {
        unit(s.mean())
    } else {
        format!("{}±{}", unit(s.mean()), unit(s.ci95_half_width()))
    }
}

fn count_fmt(x: f64) -> String {
    if x.fract().abs() < 1e-9 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

/// A per-run column: its header and the cell one run renders to.
type Column = (&'static str, fn(&Run) -> String);

/// One row per run: the run's label under `first`, then every column.
fn per_run(first: &'static str, columns: &[Column], runs: &[Run]) -> Table {
    let mut t = Table::new([first].into_iter().chain(columns.iter().map(|c| c.0)));
    for run in runs {
        let cells = columns.iter().map(|(_, cell)| cell(run));
        t.row([run.label.clone()].into_iter().chain(cells));
    }
    t
}

/// A per-arm column: its header, the value one replication contributes,
/// and the unit its cross-replication mean ± 95% CI renders in.
type Stat = (&'static str, fn(&SimReport) -> f64, fn(f64) -> String);

/// One row per arm (consecutive runs sharing a label are its
/// replications): the label, split at `/` under `firsts`, then every
/// stat over the arm's replications.
fn per_arm(firsts: &[&'static str], stats: &[Stat], runs: &[Run]) -> Table {
    let mut t = Table::new(firsts.iter().copied().chain(stats.iter().map(|s| s.0)));
    for reps in runs.chunk_by(|a, b| a.label == b.label) {
        let cells = stats.iter().map(|(_, value, unit)| {
            let summary = Summary::from_iter(reps.iter().map(|run| value(&run.report)));
            pm(&summary, *unit)
        });
        t.row(reps[0].label.split('/').map(String::from).chain(cells));
    }
    t
}

/// `{secs}s{per}, {n} replications (mean±95% CI)`, from the first arm.
fn replicated_for(runs: &[Run], per: &str) -> String {
    let reps = runs.iter().take_while(|r| r.label == runs[0].label).count();
    let secs = runs[0].spec.duration_s;
    format!("{secs:.0}s{per}, {reps} replications (mean±95% CI)")
}

/// Horizon for E1's satellite-overlay sub-experiment: long enough at any
/// effort for the highway shuttle to actually cross the macro hole.
fn e1_overlay_secs(effort: Effort) -> f64 {
    effort.secs(400.0).max(240.0)
}

/// E1 — Fig 2.1: the multi-tier cellular architecture. Tier parameters,
/// radio-effective ranges, the speed-based tier assignment, and the
/// satellite overlay rescuing a rural macro coverage hole. The shuttle
/// enters the hole around t = 104 s, so even the Quick run must cover
/// the first traversal (t ≈ 104–224 s) for the overlay to have anything
/// to rescue — hence the 240 s floor of [`e1_overlay_secs`].
fn e1_arms(effort: Effort) -> Vec<Arm> {
    let rural = ScenarioSpec::rural_corridor();
    let secs = e1_overlay_secs(effort);
    vec![
        arm("E1", "terrestrial only", 0, secs, rural.clone()),
        arm("E1", "with satellite", 0, secs, rural.with_satellite()),
    ]
}

fn e1_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let mut tiers = Table::new([
        "tier",
        "radius m",
        "tx dBm",
        "rate bps",
        "channels",
        "guard",
        "exponent",
        "radio range m",
    ]);
    for kind in CellKind::ALL {
        let pl = PathLoss {
            exponent: kind.path_loss_exponent(),
            ..PathLoss::clean(3.5)
        };
        let range = pl.range_for_threshold(kind.tx_power_dbm(), SENSITIVITY_DBM);
        tiers.row([
            kind.to_string(),
            fmt_f64(kind.radius_m()),
            fmt_f64(kind.tx_power_dbm()),
            kind.data_rate_bps().to_string(),
            kind.channels().to_string(),
            kind.guard_channels().to_string(),
            fmt_f64(kind.path_loss_exponent()),
            fmt_f64(range.min(kind.radius_m() * 10.0)),
        ]);
    }
    let mut speeds = Table::new(["population", "speed m/s", "preferred tier"]);
    for (name, v) in [
        ("pedestrian", 1.25),
        ("cyclist", 6.0),
        ("urban vehicle", 10.0),
        ("highway", 27.0),
    ] {
        speeds.row([
            name.to_string(),
            fmt_f64(v),
            Tier::preferred_for_speed(v).to_string(),
        ]);
    }
    let inter_domain = |run: &Run| {
        let completed = run.report.handoffs.completed.iter();
        let inter = completed.filter(|(t, _)| t.is_inter_domain());
        inter.map(|(_, c)| *c).sum::<u64>().to_string()
    };
    let sat = per_run(
        "overlay",
        &[
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
            ("outage samples", |r| {
                r.report.handoffs.outage_samples.to_string()
            }),
            ("inter-domain handoffs", inter_domain),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    let caption = format!("Satellite overlay over a rural macro hole, {secs:.0}s");
    out.tables.extend([
        (
            "Tier parameters (radio-consistent footprints)".into(),
            tiers,
        ),
        ("Speed-based tier assignment (§3.2 factor 1)".into(), speeds),
        (caption, sat),
    ]);
}

/// E2 — Fig 2.2: Mobile IP procedures. Registration cost and the
/// triangle-routing penalty, against the RSMC-optimized path.
fn e2_arms(effort: Effort) -> Vec<Arm> {
    [ArchKind::PureMobileIp, ArchKind::multi_tier()]
        .map(|arch| {
            arch_arm(
                "E2",
                arch,
                0,
                effort.secs(300.0),
                ScenarioSpec::commute_corridor(),
            )
        })
        .into()
}

fn e2_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let (pure, multi) = (&runs[0].report, &runs[1].report);
    let mut t = Table::new([
        "metric",
        "pure mobile-ip (triangle)",
        "multi-tier+rsmc (optimized)",
    ]);
    let (pq, mq) = (pure.aggregate_qos(), multi.aggregate_qos());
    t.row([
        "mean one-way delay".into(),
        ms(pq.mean_delay_ms),
        ms(mq.mean_delay_ms),
    ]);
    t.row([
        "p95 one-way delay".into(),
        ms(pq.p95_delay_ms),
        ms(mq.p95_delay_ms),
    ]);
    t.row(["loss".into(), pct(pq.loss_rate), pct(mq.loss_rate)]);
    t.row([
        "registrations sent".into(),
        pure.signaling.mip_requests.to_string(),
        multi.signaling.mip_requests.to_string(),
    ]);
    t.row([
        "handoff latency (mean)".into(),
        ms(pure.handoffs.latency_all().mean()),
        ms(multi.handoffs.latency_all().mean()),
    ]);
    let secs = runs[0].spec.duration_s;
    out.tables
        .push((format!("commute corridor, {secs:.0}s simulated"), t));
}

/// E3 — Fig 2.3: Cellular IP access network. Route-update period vs
/// signaling overhead and routing-state staleness.
fn e3_arms(effort: Effort) -> Vec<Arm> {
    let flat = ScenarioSpec::single_domain().with_arch(ArchKind::FlatCellularIp);
    [500, 1000, 2000, 4000, 8000]
        .map(|period_ms| {
            let spec = flat.clone().with_route_update_ms(period_ms);
            arm("E3", &format!("{period_ms}ms"), 0, effort.secs(300.0), spec)
        })
        .into()
}

fn e3_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    fn updates(r: &Run) -> u64 {
        r.report.signaling.route_updates
    }
    let t = per_run(
        "route-update period",
        &[
            ("route updates", |r| updates(r).to_string()),
            ("updates/s", |r| {
                fmt_f64(updates(r) as f64 / r.spec.duration_s)
            }),
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
            ("no-route drops", |r| drops(&r.report, DropCause::NoRoute)),
            ("paging drops", |r| drops(&r.report, DropCause::Paging)),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    out.tables
        .push((format!("flat Cellular IP, single domain, {secs:.0}s"), t));
}

/// E4 — Fig 2.4: Cellular IP hard vs semisoft handoff. Analytic loss
/// window vs crossover distance, plus measured loss on the cyclist
/// workload.
fn e4_arms(effort: Effort) -> Vec<Arm> {
    [
        ("hard", ArchKind::multi_tier_hard()),
        ("semisoft", ArchKind::multi_tier()),
    ]
    .map(|(label, arch)| {
        let spec = ScenarioSpec::single_domain().with_arch(arch);
        arm("E4", label, 0, effort.secs(400.0), spec)
    })
    .into()
}

fn e4_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    // Analytic part: a deep chain exposes the crossover-distance scaling.
    let mut chain = CipTree::new(NodeId(0));
    for i in 1..=6u32 {
        chain.add_bs(NodeId(i), NodeId(i - 1));
    }
    // Leaves hanging off each chain node: handoff from leaf(i) to leaf(j)
    // has crossover at depth min(i,j).
    for i in 1..=6u32 {
        chain.add_bs(NodeId(100 + i), NodeId(i));
    }
    let per_hop = SimDuration::from_millis(5);
    let mut analytic = Table::new([
        "crossover hops",
        "hard loss window",
        "semisoft(100ms) window",
        "semisoft(20ms) window",
    ]);
    for up in 1..=5u32 {
        // Old attachment near the root, new attachment deep in the chain:
        // the route update from the NEW BS must climb `up + 1` hops to the
        // crossover (the chain node above the old leaf).
        let old = NodeId(100 + 6 - up);
        let new = NodeId(106);
        let hard = HandoffKind::Hard.loss_window(&chain, old, new, per_hop);
        let semi100 = HandoffKind::default_semisoft().loss_window(&chain, old, new, per_hop);
        let semi20 = HandoffKind::Semisoft {
            delay: SimDuration::from_millis(20),
        }
        .loss_window(&chain, old, new, per_hop);
        analytic.row([
            (up + 1).to_string(),
            ms(hard.as_millis_f64()),
            ms(semi100.as_millis_f64()),
            ms(semi20.as_millis_f64()),
        ]);
    }
    // Measured part: cyclists crossing micro cells.
    let measured = per_run(
        "scheme",
        &[
            ("handoffs", |r| r.report.handoffs.total().to_string()),
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
            ("lost pkts", |r| {
                let q = r.report.aggregate_qos();
                (q.sent - q.received).to_string()
            }),
            ("duplicates (bicast cost)", |r| {
                r.report.aggregate_qos().duplicates.to_string()
            }),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    let caption = "Analytic loss window vs crossover distance (5 ms/hop)".into();
    out.tables.push((caption, analytic));
    let caption = format!("Measured, cyclist workload, {secs:.0}s");
    out.tables.push((caption, measured));
}

/// E5 — Fig 3.1: hierarchical cell tables. Refresh period vs staleness and
/// the micro-before-macro lookup order. Analytic (no discrete-event
/// simulation): its work count is location messages + directory queries,
/// fixed by the loop bounds.
fn e5_tables(opts: RunOptions, _: &[Run], out: &mut ExperimentResult) {
    // Fig 3.1 geometry: R3 over R1, R2; two-level micros per domain.
    let mut h = Hierarchy::new();
    let r3 = h.add_upper_macro(CellId(100));
    h.add_domain(CellId(101), Some(r3));
    h.add_domain(CellId(102), Some(r3));
    let micros_d1 = [CellId(1), CellId(2), CellId(3)];
    let micros_d2 = [CellId(4), CellId(5), CellId(6)];
    h.add_micro(CellId(1), CellId(101));
    h.add_micro(CellId(2), CellId(1));
    h.add_micro(CellId(3), CellId(1));
    h.add_micro(CellId(4), CellId(102));
    h.add_micro(CellId(5), CellId(4));
    h.add_micro(CellId(6), CellId(4));

    let lifetime = SimDuration::from_secs(6);
    let n_mns = 40usize;
    let horizon = SimTime::from_secs(120);
    // E5 is analytic (no discrete-event simulation); its work count is
    // location messages + directory queries, fixed by the loop bounds.
    let mut total_work = 0u64;
    let mut t = Table::new([
        "refresh period",
        "messages",
        "tables touched",
        "found at query",
        "stale fraction",
        "micro-table hits",
        "macro-table hits",
    ]);
    for period_s in [2u64, 4, 5, 8, 12] {
        let mut dir = LocationDirectory::new(&h, lifetime);
        let mut rng = RngStream::derive(opts.seed, &format!("e5/{period_s}"));
        let all_micros: Vec<CellId> = micros_d1.iter().chain(micros_d2.iter()).copied().collect();
        let mut serving: Vec<CellId> = (0..n_mns)
            .map(|_| all_micros[rng.index(all_micros.len())])
            .collect();
        let mut messages = 0u64;
        let mut touched = 0usize;
        let mut found = 0u64;
        let mut queries = 0u64;
        let mut micro_hits = 0u64;
        let mut macro_hits = 0u64;
        let mut now = SimTime::ZERO;
        while now < horizon {
            for (i, cell) in serving.iter_mut().enumerate() {
                // 10% of periods the node moves to a random micro.
                if rng.chance(0.1) {
                    *cell = all_micros[rng.index(all_micros.len())];
                }
                let mn = Addr::from_octets(10, 0, 2, i as u8 + 1);
                touched += dir.on_location_message(&h, mn, *cell, now);
                messages += 1;
            }
            // Query every node once per second across the refresh period
            // (the tracking use case), so staleness shows as a gradient.
            for offset in 1..=period_s {
                let query_time = now + SimDuration::from_secs(offset);
                for (i, cell) in serving.iter().enumerate() {
                    let mn = Addr::from_octets(10, 0, 2, i as u8 + 1);
                    let from = if rng.chance(0.5) {
                        CellId(101)
                    } else {
                        CellId(102)
                    };
                    queries += 1;
                    if let Some(loc) = dir.locate(&h, mn, from, query_time) {
                        found += 1;
                        match loc.hit.tier() {
                            Tier::Micro => micro_hits += 1,
                            Tier::Macro => macro_hits += 1,
                        }
                        let _ = cell;
                    }
                }
            }
            dir.sweep(now);
            now += SimDuration::from_secs(period_s);
        }
        total_work += messages + queries;
        t.row([
            format!("{period_s}s"),
            messages.to_string(),
            touched.to_string(),
            format!("{found}/{queries}"),
            pct(1.0 - found as f64 / queries as f64),
            micro_hits.to_string(),
            macro_hits.to_string(),
        ]);
    }
    let caption = format!("{n_mns} nodes, 6 micro cells in 2 domains, table lifetime {lifetime}");
    out.events += total_work;
    out.tables.push((caption, t));
}

fn handoff_table(r: &SimReport) -> Table {
    let mut t = Table::new([
        "handoff type",
        "count",
        "latency mean",
        "latency min",
        "latency max",
        "nominal msgs",
    ]);
    for ht in HandoffType::ALL {
        let Some(&count) = r.handoffs.completed.get(&ht) else {
            continue;
        };
        let lat = r.handoffs.latency_ms.get(&ht);
        t.row([
            ht.to_string(),
            count.to_string(),
            lat.map_or("-".into(), |s| ms(s.mean())),
            lat.and_then(|s| s.min()).map_or("-".into(), ms),
            lat.and_then(|s| s.max()).map_or("-".into(), ms),
            ht.nominal_messages().to_string(),
        ]);
    }
    t
}

/// E6–E8 — Figs 3.2–3.4: one multi-tier run each, tabulated by handoff
/// type: inter-domain under a shared upper BS (the update travels over
/// it, not the home network), inter-domain under separate upper BSs
/// (the update detours via the home network), and the three
/// intra-domain cases.
fn handoff_tables(scene: &str, run: &Run, out: &mut ExperimentResult) {
    let caption = format!("{scene}, {:.0}s", run.spec.duration_s);
    out.tables.push((caption, handoff_table(&run.report)));
}

/// E9 — Fig 4.1: the RSMC. With vs without the combined
/// gateway/cache/notifier.
fn e9_arms(effort: Effort) -> Vec<Arm> {
    [ArchKind::multi_tier(), ArchKind::multi_tier_no_rsmc()]
        .map(|arch| {
            arch_arm(
                "E9",
                arch,
                0,
                effort.secs(300.0),
                ScenarioSpec::small_city(),
            )
        })
        .into()
}

fn e9_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let t = per_run(
        "architecture",
        &[
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
            ("mean delay", |r| ms(r.report.aggregate_qos().mean_delay_ms)),
            ("p95 delay", |r| ms(r.report.aggregate_qos().p95_delay_ms)),
            ("rsmc notifications", |r| {
                r.report.signaling.rsmc_notifications.to_string()
            }),
            ("no-route drops", |r| drops(&r.report, DropCause::NoRoute)),
            ("paging drops", |r| drops(&r.report, DropCause::Paging)),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    out.tables.push((format!("small city, {secs:.0}s"), t));
}

/// E10 — headline claim 1: improved QoS (handoff latency and delay) of
/// the proposed architecture vs both baselines. All (architecture,
/// replication) runs fan out in one batch; each gets its own
/// (E10, arch, rep)-derived seed, so results are independent of how the
/// pool schedules them.
fn e10_arms(effort: Effort) -> Vec<Arm> {
    let archs = [
        ArchKind::multi_tier(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ];
    let mut arms = Vec::new();
    for arch in archs {
        for rep in 0..REPLICATIONS {
            let city = ScenarioSpec::small_city();
            arms.push(arch_arm("E10", arch, rep, effort.secs(300.0), city));
        }
    }
    arms
}

fn e10_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let t = per_arm(
        &["architecture"],
        &[
            ("loss", |r| r.aggregate_qos().loss_rate, pct),
            ("mean delay", |r| r.aggregate_qos().mean_delay_ms, ms),
            ("p95 delay", |r| r.aggregate_qos().p95_delay_ms, ms),
            ("jitter", |r| r.aggregate_qos().jitter_ms, ms),
            ("handoffs", |r| r.handoffs.total() as f64, count_fmt),
            ("handoff latency", |r| r.handoffs.latency_all().mean(), ms),
            (
                "signaling msgs",
                |r| r.signaling.total_messages() as f64,
                count_fmt,
            ),
        ],
        runs,
    );
    let caption = format!("small city, mixed population, {}", replicated_for(runs, ""));
    out.tables.push((caption, t));
}

/// E11 — headline claim 2: reduced data-packet loss for mobile multimedia,
/// across population speeds. One job per (population, architecture,
/// replication); the arm label carries both the population and the
/// architecture, as `population/architecture`.
fn e11_arms(effort: Effort) -> Vec<Arm> {
    let populations = [
        ("pedestrians", (8, 0, 0)),
        ("cyclists", (0, 8, 0)),
        ("vehicles", (0, 0, 4)),
    ];
    let archs = [
        ArchKind::multi_tier(),
        ArchKind::multi_tier_hard(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ];
    let mut arms = Vec::new();
    for (pname, (p, c, v)) in populations {
        for arch in archs {
            for rep in 0..REPLICATIONS {
                let city = ScenarioSpec::small_city()
                    .with_arch(arch)
                    .with_population(p, c, v);
                let label = format!("{pname}/{}", arch.label());
                arms.push(arm("E11", &label, rep, effort.secs(300.0), city));
            }
        }
    }
    arms
}

fn e11_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let t = per_arm(
        &["population", "architecture"],
        &[
            ("loss", |r| r.aggregate_qos().loss_rate, pct),
            ("jitter", |r| r.aggregate_qos().jitter_ms, ms),
            ("handoffs", |r| r.handoffs.total() as f64, count_fmt),
            (
                "outage samples",
                |r| r.handoffs.outage_samples as f64,
                count_fmt,
            ),
        ],
        runs,
    );
    let caption = format!("small city, {}", replicated_for(runs, " per cell"));
    out.tables.push((caption, t));
}

/// E12 — §3.2 ablation: which of the three handoff factors matter.
fn e12_arms(effort: Effort) -> Vec<Arm> {
    let factors = |speed, signal, resources| HandoffFactors {
        speed,
        signal,
        resources,
    };
    [
        ("all three (paper)", HandoffFactors::all()),
        ("signal only", HandoffFactors::signal_only()),
        ("no speed", factors(false, true, true)),
        ("no signal", factors(true, false, true)),
        ("no resources", factors(true, true, false)),
    ]
    .map(|(label, factors)| {
        let city = ScenarioSpec::small_city()
            .with_population(6, 3, 3)
            .with_factors(factors);
        arm("E12", label, 0, effort.secs(300.0), city)
    })
    .into()
}

fn e12_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let t = per_run(
        "factors",
        &[
            ("handoffs", |r| r.report.handoffs.total().to_string()),
            ("ping-pong", |r| r.report.handoffs.ping_pong.to_string()),
            ("rejected", |r| r.report.handoffs.rejected.to_string()),
            ("fallback used", |r| {
                r.report.handoffs.fallback_used.to_string()
            }),
            ("outages", |r| r.report.handoffs.outage_samples.to_string()),
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    out.tables
        .push((format!("small city, mixed population, {secs:.0}s"), t));
}

/// E13 — resilience under infrastructure faults: the same outage, flap
/// and failover schedule against the hierarchical architecture and pure
/// Mobile IP, plus an eclipsed satellite overlay.
///
/// In the shared schedule, cell 1 is domain 0's macro umbrella — the
/// only radio cell whose id means the same thing under both
/// architectures (pure Mobile IP deploys no micro row) — and all windows
/// land inside the Quick horizon (30 s). The overlay arm is the E1 rural
/// corridor with the satellite tier, eclipsed while the shuttle crosses
/// the macro hole (t ≈ 104–224 s); its horizon floor matches E1's.
fn e13_arms(effort: Effort) -> Vec<Arm> {
    let schedule = FaultSpec {
        cell_outages: vec![CellOutage {
            cell: 1,
            start_s: 8.0,
            end_s: 16.0,
        }],
        link_flaps: vec![LinkFlap {
            domain: 1,
            start_s: 5.0,
            period_s: 8.0,
            duty: 0.5,
            jitter_s: 0.5,
            count: 2,
        }],
        rsmc_failovers: vec![RsmcFailover {
            domain: 2,
            at_s: 18.0,
            takeover_s: Some(5.0),
        }],
        eclipses: Vec::new(),
    };
    let eclipse = FaultSpec {
        eclipses: vec![EclipseWindow {
            start_s: 120.0,
            end_s: 180.0,
        }],
        ..FaultSpec::default()
    };
    let faulted = |label: &str, arch: ArchKind| {
        let spec = ScenarioSpec::small_city()
            .with_arch(arch)
            .with_faults(schedule.clone())
            .with_duration_s(effort.secs(300.0))
            .with_seed_path("E13", arch.label(), 0);
        (label.to_string(), spec)
    };
    let overlay = ScenarioSpec::rural_corridor()
        .with_satellite()
        .with_faults(eclipse)
        .with_duration_s(e1_overlay_secs(effort))
        .with_seed_path("E13", "satellite-eclipse", 0);
    vec![
        faulted("multi-tier", ArchKind::multi_tier()),
        faulted("pure mobile-ip", ArchKind::PureMobileIp),
        ("satellite eclipse".to_string(), overlay),
    ]
}

fn e13_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let t = per_run(
        "arm",
        &[
            ("fault events", |r| {
                r.report.faults.total_transitions().to_string()
            }),
            ("loss", |r| pct(r.report.aggregate_qos().loss_rate)),
            ("outage drops", |r| r.report.faults.outage_drops.to_string()),
            ("re-registrations", |r| {
                r.report.faults.reregistrations.to_string()
            }),
            ("recoveries", |r| {
                r.report.faults.recovery_latency_ms.count().to_string()
            }),
            ("recovery mean", |r| {
                let rec = &r.report.faults.recovery_latency_ms;
                if rec.count() > 0 {
                    ms(rec.mean())
                } else {
                    "-".into()
                }
            }),
            ("recovery max", |r| {
                r.report
                    .faults
                    .recovery_latency_ms
                    .max()
                    .map_or("-".into(), ms)
            }),
        ],
        runs,
    );
    let secs = runs[0].spec.duration_s;
    let caption =
        format!("identical fault schedules per arm, {secs:.0}s (overlay arm: E1 horizon)");
    out.tables.push((caption, t));
}

/// E14 — the metro tier: a million-subscriber world carried with
/// O(active) state. Per-node state lives in SoA columns, RSMC
/// authentication is an epoch tag on the node's own row, the MNLD is a
/// dense table, and every delivered packet's delay streams into one
/// constant-memory aggregate histogram instead of per-flow
/// distributions. The table reports the per-tier admission pressure and
/// the aggregate delay percentiles the streaming accumulators exist for.
///
/// The metro tier scales with effort: Full is the headline
/// 10^6-subscriber world; Quick is the same knobs at CI size (10k nodes,
/// 8 domains) so the suite and the smoke test stay bounded. Both run the
/// identical code paths — SoA tables, aggregate QoS, modular stagger,
/// load curve.
fn e14_arms(effort: Effort) -> Vec<Arm> {
    let base = match effort {
        Effort::Quick => ScenarioSpec::metro_smoke(),
        Effort::Full => ScenarioSpec::metro(),
    };
    vec![arm("E14", "metro", 0, effort.secs(120.0), base)]
}

fn e14_tables(_: RunOptions, runs: &[Run], out: &mut ExperimentResult) {
    let (spec, r) = (&runs[0].spec, &runs[0].report);
    let secs = spec.duration_s;
    let subscribers = spec.pedestrians + spec.cyclists + spec.vehicles;
    let flows = if spec.voice_every > 0 {
        subscribers.div_ceil(spec.voice_every)
    } else {
        0
    };
    // Deployed radio cells: each domain's street row + its macro (or the
    // satellite's single footprint), plus one shared upper BS per
    // consecutive domain pair.
    let cells = spec.n_domains * (1 + spec.micro_per_domain)
        + if spec.share_upper {
            spec.n_domains / 2
        } else {
            0
        }
        + u32::from(spec.satellite);
    let agg = r
        .aggregate
        .as_ref()
        .expect("metro specs enable aggregate QoS");
    let q = r.aggregate_qos();
    let p = |pct: f64| ms(agg.delay_ms.percentile(pct).unwrap_or(0.0));
    let mut t = Table::new(["metric", "value"]);
    t.row(["subscribers".into(), subscribers.to_string()]);
    t.row(["radio cells".into(), cells.to_string()]);
    t.row(["voice flows (active set)".into(), flows.to_string()]);
    t.row(["simulated".into(), format!("{secs:.0}s")]);
    t.row(["events processed".into(), r.events_processed.to_string()]);
    t.row(["packets delivered".into(), agg.count().to_string()]);
    t.row(["aggregate delay p50".into(), p(50.0)]);
    t.row(["aggregate delay p95".into(), p(95.0)]);
    t.row(["aggregate delay p99".into(), p(99.0)]);
    t.row(["loss".into(), pct(q.loss_rate)]);
    t.row(["handoffs".into(), r.handoffs.total().to_string()]);
    t.row(["handoffs rejected".into(), r.handoffs.rejected.to_string()]);
    t.row([
        "fallback (other tier)".into(),
        r.handoffs.fallback_used.to_string(),
    ]);
    t.row([
        "route updates".into(),
        r.signaling.route_updates.to_string(),
    ]);
    t.row([
        "paging updates".into(),
        r.signaling.paging_updates.to_string(),
    ]);
    t.row([
        "location messages".into(),
        r.signaling.location_messages.to_string(),
    ]);
    let caption = format!(
        "{} domains + satellite overlay, commute-hour load curve, {secs:.0}s",
        spec.n_domains
    );
    out.tables.push((caption, t));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_is_complete() {
        let r = find("E1").unwrap().run(RunOptions::new(Effort::Quick, 1));
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[0].1.len(), 4, "one row per tier");
        let threshold = format!("threshold: {} m/s", Tier::SPEED_THRESHOLD_MPS);
        assert!(r.notes[1].ends_with(&threshold), "{}", r.notes[1]);
    }

    #[test]
    fn arm_labels_are_unique_and_arm_specs_is_the_table() {
        for e in &EXPERIMENTS {
            let arms = (e.arms)(Effort::Quick);
            let mut seen = std::collections::HashSet::new();
            for (label, spec) in &arms {
                let rep = spec.seed.replication();
                assert!(
                    seen.insert((label, rep)),
                    "{}: {label} rep {rep} twice",
                    e.id
                );
            }
            let specs: Vec<ScenarioSpec> = arms.iter().map(|(_, s)| s.clone()).collect();
            assert_eq!(arm_specs(&e.id.to_lowercase(), Effort::Quick), specs);
        }
        assert_eq!(crate::ALL_IDS.len(), EXPERIMENTS.len());
    }

    #[test]
    fn e5_staleness_rises_past_lifetime() {
        let r = find("E5").unwrap().run(RunOptions::new(Effort::Quick, 3));
        let rendered = r.render();
        // The 2 s row must show ~0 staleness; the 12 s row must not.
        assert!(rendered.contains("2s"));
        assert!(rendered.contains("12s"));
    }

    #[test]
    fn e4_analytic_monotone() {
        let r = find("E4").unwrap().run(RunOptions::new(Effort::Quick, 3));
        assert!(r.render().contains("hard loss window"));
    }

    #[test]
    fn e1_satellite_overlay_rescues_the_macro_hole() {
        // Regression for the E1 blind spot: the Quick horizon must cover
        // the shuttle's first traversal of the macro hole (t ≈ 104–224 s),
        // so the terrestrial arm suffers outages the overlay rescues and
        // the with/without loss delta is nonzero.
        let secs = e1_overlay_secs(Effort::Quick);
        assert!(secs >= 240.0, "Quick horizon too short to reach the hole");
        let [terrestrial_spec, satellite_spec] =
            <[ScenarioSpec; 2]>::try_from(arm_specs("E1", Effort::Quick)).expect("two arms");
        let terrestrial = terrestrial_spec.run(42);
        let satellite = satellite_spec.run(42);
        assert!(
            terrestrial.handoffs.outage_samples > 0,
            "the macro hole was never hit"
        );
        let (lt, ls) = (
            terrestrial.aggregate_qos().loss_rate,
            satellite.aggregate_qos().loss_rate,
        );
        assert!(
            lt > ls,
            "satellite overlay must reduce loss: terrestrial {lt:.4} vs satellite {ls:.4}"
        );
    }

    #[test]
    fn arm_spec_seeds_are_distinct_and_stable() {
        // Every simulation arm across the whole suite resolves to a
        // distinct world seed, and the derivation matches the historical
        // (experiment, arm, replication) convention.
        use mtnet_sim::rng::replication_seed;
        let mut seen = std::collections::HashMap::new();
        for id in crate::ALL_IDS {
            for (i, spec) in arm_specs(id, Effort::Quick).iter().enumerate() {
                let seed = spec.resolve_seed(42);
                if let Some(prev) = seen.insert(seed, (id, i)) {
                    panic!("seed collision: {id}[{i}] vs {prev:?}");
                }
            }
        }
        let e2 = &arm_specs("E2", Effort::Quick)[0];
        assert_eq!(
            e2.resolve_seed(42),
            replication_seed(42, "E2", "pure-mobile-ip", 0)
        );
        assert_ne!(e2.resolve_seed(42), e2.resolve_seed(43));
    }

    #[test]
    fn e10_tables_identical_across_thread_counts() {
        // The rendered experiment output is part of the determinism
        // contract: sequential and parallel execution must agree byte for
        // byte. (The full report-level check lives in
        // tests/determinism.rs; this guards the harness glue.)
        let run_with = |threads: usize| {
            let opts = RunOptions {
                threads,
                ..RunOptions::new(Effort::Quick, 7)
            };
            find("E10").unwrap().run(opts).render()
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn fingerprints_bit_identical_across_threads_and_shards() {
        // Parity surface of the metro-tier memory work: the SoA node
        // tables, O(active) RSMC/MNLD caches, and streaming metrics must
        // not let execution layout leak into results. Every (threads,
        // shards) combination must reproduce the sequential single-shard
        // fingerprints bit for bit — on an E1-class legacy world and on a
        // metro-tier world (idle camping + aggregate QoS exercise the new
        // paths).
        let arms = || {
            let mut arms = e1_arms(Effort::Quick);
            let metro = ScenarioSpec::metro_smoke();
            arms.push(arm("parity", "metro", 0, 30.0, metro));
            arms
        };
        let run_with = |threads: usize, shards: u32| -> Vec<String> {
            let opts = RunOptions {
                threads,
                shards: Some(shards),
                ..RunOptions::new(Effort::Quick, 42)
            };
            let runs = run_arms(opts, arms());
            runs.iter().map(|r| r.report.fingerprint()).collect()
        };
        let reference = run_with(1, 1);
        assert!(reference.len() >= 3, "E1 arms plus the metro world");
        for (threads, shards) in [(1usize, 2u32), (4, 1), (4, 2)] {
            assert_eq!(
                run_with(threads, shards),
                reference,
                "threads={threads} shards={shards}"
            );
        }
    }
}
