//! The thirteen experiment runners. Each reproduces one paper artifact
//! (E13 adds the resilience family the paper only argues qualitatively);
//! see `EXPERIMENTS.md` for the recorded outputs and the paper-vs-measured
//! discussion.
//!
//! Every simulation arm is a declarative [`ScenarioSpec`] — family
//! preset + knob assignments + duration + seed path — built by
//! [`arm_specs`] and fanned out through [`BatchRunner`]; the runner
//! itself is reduced to a thin metric-extraction closure over the
//! returned reports. Seed paths are `(experiment, arm, replication)`
//! resolved via `mtnet_sim::rng::seed_for_path`, so the jobs are
//! independent of scheduling order and the rendered tables are
//! byte-identical at any thread count. The same specs are pinned
//! textually by the golden tests in `tests/spec_golden.rs`.

use crate::{Effort, ExperimentResult, RunOptions};
use mtnet_cellularip::{CipTree, HandoffKind};
use mtnet_core::handoff::{HandoffFactors, HandoffType};
use mtnet_core::hierarchy::Hierarchy;
use mtnet_core::location::LocationDirectory;
use mtnet_core::report::SimReport;
use mtnet_core::scenario::ArchKind;
use mtnet_core::spec::{
    CellOutage, EclipseWindow, FaultSpec, LinkFlap, RsmcFailover, ScenarioSpec,
};
use mtnet_core::tier::Tier;
use mtnet_metrics::{fmt_f64, Replicates, Summary, Table};
use mtnet_net::{Addr, NodeId};
use mtnet_radio::{CellId, CellKind, PathLoss, SENSITIVITY_DBM};
use mtnet_sim::runner::BatchRunner;
use mtnet_sim::{RngStream, SimDuration, SimTime};

fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

fn ms(x: f64) -> String {
    format!("{x:.1}ms")
}

/// Runs every spec job through a worker pool `opts.threads` wide, each
/// at `opts.shards` shards when that is set; results come back in
/// submission order.
fn run_specs(opts: RunOptions, specs: Vec<ScenarioSpec>) -> Vec<SimReport> {
    BatchRunner::new(opts.threads).run(specs, move |_, spec| {
        match opts.shards {
            Some(n) => spec.with_shards(n),
            None => spec,
        }
        .run(opts.seed)
    })
}

/// The declarative simulation arms of one experiment, in submission
/// order — the single place each experiment's scenario is defined.
/// Empty for the analytic E5. The golden test pins these texts; the
/// sweep engine's families compose the same presets.
pub fn arm_specs(id: &str, effort: Effort) -> Vec<ScenarioSpec> {
    match id.to_ascii_uppercase().as_str() {
        "E1" => {
            let secs = e1_overlay_secs(effort);
            e1_arms()
                .iter()
                .map(|(label, satellite)| {
                    let spec = ScenarioSpec::rural_corridor()
                        .with_duration_s(secs)
                        .with_seed_path("E1", label, 0);
                    if *satellite {
                        spec.with_satellite()
                    } else {
                        spec
                    }
                })
                .collect()
        }
        "E2" => e2_arms()
            .iter()
            .map(|&arch| {
                ScenarioSpec::commute_corridor()
                    .with_arch(arch)
                    .with_duration_s(effort.secs(300.0))
                    .with_seed_path("E2", arch.label(), 0)
            })
            .collect(),
        "E3" => e3_periods()
            .iter()
            .map(|&period_ms| {
                ScenarioSpec::single_domain()
                    .with_arch(ArchKind::FlatCellularIp)
                    .with_route_update_ms(period_ms)
                    .with_duration_s(effort.secs(300.0))
                    .with_seed_path("E3", &format!("{period_ms}ms"), 0)
            })
            .collect(),
        "E4" => e4_arms()
            .iter()
            .map(|(label, arch)| {
                ScenarioSpec::single_domain()
                    .with_arch(*arch)
                    .with_duration_s(effort.secs(400.0))
                    .with_seed_path("E4", label, 0)
            })
            .collect(),
        "E5" => Vec::new(),
        "E6" => {
            let arch = ArchKind::multi_tier();
            vec![ScenarioSpec::commute_corridor()
                .with_arch(arch)
                .with_duration_s(effort.secs(500.0))
                .with_seed_path("E6", arch.label(), 0)]
        }
        "E7" => {
            let arch = ArchKind::multi_tier();
            vec![ScenarioSpec::commute_corridor()
                .with_arch(arch)
                .without_shared_upper()
                .with_duration_s(effort.secs(500.0))
                .with_seed_path("E7", arch.label(), 0)]
        }
        "E8" => {
            let arch = ArchKind::multi_tier();
            vec![ScenarioSpec::small_city()
                .with_arch(arch)
                .with_population(6, 3, 2)
                .with_duration_s(effort.secs(600.0))
                .with_seed_path("E8", arch.label(), 0)]
        }
        "E9" => e9_arms()
            .iter()
            .map(|&arch| {
                ScenarioSpec::small_city()
                    .with_arch(arch)
                    .with_duration_s(effort.secs(300.0))
                    .with_seed_path("E9", arch.label(), 0)
            })
            .collect(),
        "E10" => {
            let mut specs = Vec::new();
            for arch in e10_arms() {
                for rep in 0..effort.replications() {
                    specs.push(
                        ScenarioSpec::small_city()
                            .with_arch(arch)
                            .with_duration_s(effort.secs(300.0))
                            .with_seed_path("E10", arch.label(), rep),
                    );
                }
            }
            specs
        }
        "E11" => {
            let mut specs = Vec::new();
            for (pname, pop) in e11_populations() {
                for arch in e11_arms() {
                    for rep in 0..effort.replications() {
                        let arm = format!("{pname}/{}", arch.label());
                        specs.push(
                            ScenarioSpec::small_city()
                                .with_arch(arch)
                                .with_population(pop.0, pop.1, pop.2)
                                .with_duration_s(effort.secs(300.0))
                                .with_seed_path("E11", &arm, rep),
                        );
                    }
                }
            }
            specs
        }
        "E12" => e12_arms()
            .iter()
            .map(|(label, factors)| {
                ScenarioSpec::small_city()
                    .with_population(6, 3, 3)
                    .with_factors(*factors)
                    .with_duration_s(effort.secs(300.0))
                    .with_seed_path("E12", label, 0)
            })
            .collect(),
        "E13" => {
            let mut specs: Vec<ScenarioSpec> = e13_arms()
                .iter()
                .map(|&arch| {
                    ScenarioSpec::small_city()
                        .with_arch(arch)
                        .with_faults(e13_fault_schedule())
                        .with_duration_s(effort.secs(300.0))
                        .with_seed_path("E13", arch.label(), 0)
                })
                .collect();
            // Overlay arm: the E1 rural corridor with the satellite tier,
            // eclipsed exactly while the shuttle crosses the macro hole
            // (t ≈ 104–224 s) — the horizon floor matches E1's.
            specs.push(
                ScenarioSpec::rural_corridor()
                    .with_satellite()
                    .with_faults(e13_eclipse_schedule())
                    .with_duration_s(e1_overlay_secs(effort))
                    .with_seed_path("E13", "satellite-eclipse", 0),
            );
            specs
        }
        "E14" => {
            // The metro tier scales with effort: Full is the headline
            // 10^6-subscriber world; Quick is the same knobs at CI size
            // (10k nodes, 8 domains) so the suite and the smoke test
            // stay bounded. Both run the identical code paths — SoA
            // tables, aggregate QoS, modular stagger, load curve.
            let base = match effort {
                Effort::Quick => ScenarioSpec::metro_smoke(),
                Effort::Full => ScenarioSpec::metro(),
            };
            vec![base
                .with_duration_s(effort.secs(120.0))
                .with_seed_path("E14", "metro", 0)]
        }
        _ => Vec::new(),
    }
}

/// E1's arms: `(label, satellite overlay?)`.
fn e1_arms() -> [(&'static str, bool); 2] {
    [("terrestrial only", false), ("with satellite", true)]
}

/// E2's arms: triangle-routing baseline vs the optimized architecture.
fn e2_arms() -> [ArchKind; 2] {
    [ArchKind::PureMobileIp, ArchKind::multi_tier()]
}

/// E3's route-update periods, ms.
fn e3_periods() -> [u64; 5] {
    [500, 1000, 2000, 4000, 8000]
}

/// E4's measured arms.
fn e4_arms() -> [(&'static str, ArchKind); 2] {
    [
        ("hard", ArchKind::multi_tier_hard()),
        ("semisoft", ArchKind::multi_tier()),
    ]
}

/// E9's arms: RSMC on vs off.
fn e9_arms() -> [ArchKind; 2] {
    [ArchKind::multi_tier(), ArchKind::multi_tier_no_rsmc()]
}

/// E10's arms: the proposal vs both baselines.
fn e10_arms() -> [ArchKind; 3] {
    [
        ArchKind::multi_tier(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ]
}

/// E11's populations: `(label, (pedestrians, cyclists, vehicles))`.
fn e11_populations() -> [(&'static str, (u32, u32, u32)); 3] {
    [
        ("pedestrians", (8, 0, 0)),
        ("cyclists", (0, 8, 0)),
        ("vehicles", (0, 0, 4)),
    ]
}

/// E11's architecture arms.
fn e11_arms() -> [ArchKind; 4] {
    [
        ArchKind::multi_tier(),
        ArchKind::multi_tier_hard(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ]
}

/// E12's factor-ablation arms.
fn e12_arms() -> [(&'static str, HandoffFactors); 5] {
    [
        ("all three (paper)", HandoffFactors::all()),
        ("signal only", HandoffFactors::signal_only()),
        (
            "no speed",
            HandoffFactors {
                speed: false,
                signal: true,
                resources: true,
            },
        ),
        (
            "no signal",
            HandoffFactors {
                speed: true,
                signal: false,
                resources: true,
            },
        ),
        (
            "no resources",
            HandoffFactors {
                speed: true,
                signal: true,
                resources: false,
            },
        ),
    ]
}

/// E13's architecture comparison arms, hit by the identical
/// [`e13_fault_schedule`].
fn e13_arms() -> [ArchKind; 2] {
    [ArchKind::multi_tier(), ArchKind::PureMobileIp]
}

/// E13's shared infrastructure-fault schedule. Cell 1 is domain 0's
/// macro umbrella — the only radio cell whose id means the same thing
/// under both architectures (pure Mobile IP deploys no micro row). All
/// windows land inside the Quick horizon (30 s).
fn e13_fault_schedule() -> FaultSpec {
    FaultSpec {
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
    }
}

/// E13's satellite-overlay schedule: one eclipse swallowing part of the
/// rural shuttle's macro-hole traversal.
fn e13_eclipse_schedule() -> FaultSpec {
    FaultSpec {
        eclipses: vec![EclipseWindow {
            start_s: 120.0,
            end_s: 180.0,
        }],
        ..FaultSpec::default()
    }
}

/// Total event count and bit-exact per-run fingerprints for an
/// experiment's reports, in submission order.
fn digest(reports: &[SimReport]) -> (u64, Vec<String>) {
    (
        reports.iter().map(|r| r.events_processed).sum(),
        reports.iter().map(SimReport::fingerprint).collect(),
    )
}

/// `mean ± ci95` rendering for a cross-replication summary (plain mean
/// when only one replication contributed).
fn pm(s: Option<&Summary>, unit: fn(f64) -> String) -> String {
    let Some(s) = s else {
        return "-".into();
    };
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

/// Horizon for E1's satellite-overlay sub-experiment: long enough at any
/// effort for the highway shuttle to actually cross the macro hole.
fn e1_overlay_secs(effort: Effort) -> f64 {
    effort.secs(400.0).max(240.0)
}

/// E1 — Fig 2.1: the multi-tier cellular architecture. Tier parameters,
/// radio-effective ranges, the speed-based tier assignment, and the
/// satellite overlay rescuing a rural macro coverage hole.
pub fn e1_multitier_coverage(opts: RunOptions) -> ExperimentResult {
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
    // The outermost tier at work: a rural corridor whose middle domain
    // has no macro radio, with and without the satellite overlay. The
    // shuttle enters the hole around t = 104 s, so even the Quick run
    // must cover the first traversal (t ≈ 104–224 s) for the overlay to
    // have anything to rescue — hence the 240 s floor.
    let secs = e1_overlay_secs(opts.effort);
    let reports = run_specs(opts, arm_specs("E1", opts.effort));
    let (events, fingerprints) = digest(&reports);
    let mut sat = Table::new(["overlay", "loss", "outage samples", "inter-domain handoffs"]);
    for ((label, _), r) in e1_arms().iter().zip(&reports) {
        let inter: u64 = r
            .handoffs
            .completed
            .iter()
            .filter(|(t, _)| t.is_inter_domain())
            .map(|(_, c)| *c)
            .sum();
        sat.row([
            label.to_string(),
            pct(r.aggregate_qos().loss_rate),
            r.handoffs.outage_samples.to_string(),
            inter.to_string(),
        ]);
    }
    ExperimentResult {
        id: "E1",
        title: "Fig 2.1 — multi-tier cellular architecture",
        tables: vec![
            ("Tier parameters (radio-consistent footprints)".into(), tiers),
            ("Speed-based tier assignment (§3.2 factor 1)".into(), speeds),
            (format!("Satellite overlay over a rural macro hole, {secs:.0}s"), sat),
        ],
        notes: vec![
            "radio range >= nominal radius for every tier, so footprints are servable".into(),
            format!("tier speed threshold: {} m/s", Tier::SPEED_THRESHOLD_MPS),
            "the satellite tier absorbs the macro hole: outages drop to ~0 at the cost of 32 kb/s service and ~2.7 ms orbital latency".into(),
        ],
        events,
        fingerprints,
    }
}

/// E2 — Fig 2.2: Mobile IP procedures. Registration cost and the
/// triangle-routing penalty, against the RSMC-optimized path.
pub fn e2_mobileip(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let mut reports = run_specs(opts, arm_specs("E2", opts.effort));
    let (events, fingerprints) = digest(&reports);
    let multi = reports.pop().expect("two arms");
    let pure = reports.pop().expect("two arms");
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
    ExperimentResult {
        id: "E2",
        title: "Fig 2.2 — Mobile IP procedures: registration and triangle routing",
        tables: vec![(format!("commute corridor, {secs:.0}s simulated"), t)],
        notes: vec![
            "expected shape: triangle delay > optimized delay; registrations higher without the hierarchy".into(),
        ],
        events,
        fingerprints,
    }
}

/// E3 — Fig 2.3: Cellular IP access network. Route-update period vs
/// signaling overhead and routing-state staleness.
pub fn e3_cip_routing(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let mut t = Table::new([
        "route-update period",
        "route updates",
        "updates/s",
        "loss",
        "no-route drops",
        "paging drops",
    ]);
    let reports = run_specs(opts, arm_specs("E3", opts.effort));
    let (events, fingerprints) = digest(&reports);
    for (&period_ms, r) in e3_periods().iter().zip(&reports) {
        let q = r.aggregate_qos();
        let drops = |c| r.drops.get(&c).copied().unwrap_or(0);
        t.row([
            format!("{period_ms}ms"),
            r.signaling.route_updates.to_string(),
            fmt_f64(r.signaling.route_updates as f64 / secs),
            pct(q.loss_rate),
            drops(mtnet_core::report::DropCause::NoRoute).to_string(),
            drops(mtnet_core::report::DropCause::Paging).to_string(),
        ]);
    }
    ExperimentResult {
        id: "E3",
        title: "Fig 2.3 — Cellular IP: route-update rate vs overhead and staleness",
        tables: vec![(format!("flat Cellular IP, single domain, {secs:.0}s"), t)],
        notes: vec![
            "expected shape: overhead falls linearly with the period; loss rises once caches outlive their refresh".into(),
            "cache lifetime is 3x the period, so staleness appears via handoffs, not pure expiry".into(),
        ],
        events,
        fingerprints,
    }
}

/// E4 — Fig 2.4: Cellular IP hard vs semisoft handoff. Analytic loss
/// window vs crossover distance, plus measured loss on the cyclist
/// workload.
pub fn e4_cip_handoff(opts: RunOptions) -> ExperimentResult {
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
    let secs = opts.effort.secs(400.0);
    let mut measured = Table::new([
        "scheme",
        "handoffs",
        "loss",
        "lost pkts",
        "duplicates (bicast cost)",
    ]);
    let reports = run_specs(opts, arm_specs("E4", opts.effort));
    let (events, fingerprints) = digest(&reports);
    for ((label, _), r) in e4_arms().iter().zip(&reports) {
        let q = r.aggregate_qos();
        measured.row([
            label.to_string(),
            r.handoffs.total().to_string(),
            pct(q.loss_rate),
            (q.sent - q.received).to_string(),
            q.duplicates.to_string(),
        ]);
    }
    ExperimentResult {
        id: "E4",
        title: "Fig 2.4 — Cellular IP handoff: hard vs semisoft",
        tables: vec![
            ("Analytic loss window vs crossover distance (5 ms/hop)".into(), analytic),
            (format!("Measured, cyclist workload, {secs:.0}s"), measured),
        ],
        notes: vec![
            "expected shape: hard window = crossover round-trip (paper); semisoft covers it at the cost of duplicates".into(),
        ],
        events,
        fingerprints,
    }
}

/// E5 — Fig 3.1: hierarchical cell tables. Refresh period vs staleness and
/// the micro-before-macro lookup order.
pub fn e5_location(opts: RunOptions) -> ExperimentResult {
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
    ExperimentResult {
        id: "E5",
        title: "Fig 3.1 — micro_table/macro_table location management",
        tables: vec![(
            format!("{n_mns} nodes, 6 micro cells in 2 domains, table lifetime {lifetime}"),
            t,
        )],
        notes: vec![
            "expected shape: staleness ~0 while period < lifetime (6 s), then rises sharply".into(),
            "micro-sourced records dominate hits: the paper's micro-first search order pays off"
                .into(),
        ],
        events: total_work,
        fingerprints: Vec::new(),
    }
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

/// E6 — Fig 3.2: inter-domain handoff when both domains share the upper
/// BS: the update travels over the shared BS, not the home network.
pub fn e6_interdomain_same(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(500.0);
    let reports = run_specs(opts, arm_specs("E6", opts.effort));
    let r = &reports[0];
    let (events, fingerprints) = digest(&reports);
    ExperimentResult {
        id: "E6",
        title: "Fig 3.2 — inter-domain handoff, same upper BS",
        tables: vec![(format!("2 domains sharing an upper BS, {secs:.0}s"), handoff_table(r))],
        notes: vec![
            "expected shape: inter-domain (same upper) latency well below the different-upper case of E7 — no home-network round trip".into(),
        ],
        events,
        fingerprints,
    }
}

/// E7 — Fig 3.3: inter-domain handoff when the upper BSs differ: the
/// update detours via the home network.
pub fn e7_interdomain_diff(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(500.0);
    let reports = run_specs(opts, arm_specs("E7", opts.effort));
    let r = &reports[0];
    let (events, fingerprints) = digest(&reports);
    ExperimentResult {
        id: "E7",
        title: "Fig 3.3 — inter-domain handoff, different upper BS",
        tables: vec![(format!("2 domains with separate upper BSs, {secs:.0}s"), handoff_table(r))],
        notes: vec![
            "expected shape: different-upper latency includes the home-network round trip (tens of ms of WAN)".into(),
        ],
        events,
        fingerprints,
    }
}

/// E8 — Fig 3.4: the three intra-domain handoff cases.
pub fn e8_intradomain(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(600.0);
    let reports = run_specs(opts, arm_specs("E8", opts.effort));
    let r = &reports[0];
    let (events, fingerprints) = digest(&reports);
    ExperimentResult {
        id: "E8",
        title: "Fig 3.4 — intra-domain handoffs (macro→micro, micro→macro, micro→micro)",
        tables: vec![(format!("small city, mixed population, {secs:.0}s"), handoff_table(r))],
        notes: vec![
            "expected shape: all intra cases complete within the access network (≈ semisoft delay + tree climb), far below inter-domain costs".into(),
        ],
        events,
        fingerprints,
    }
}

/// E9 — Fig 4.1: the RSMC. With vs without the combined
/// gateway/cache/notifier.
pub fn e9_rsmc(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let mut t = Table::new([
        "architecture",
        "loss",
        "mean delay",
        "p95 delay",
        "rsmc notifications",
        "no-route drops",
        "paging drops",
    ]);
    let reports = run_specs(opts, arm_specs("E9", opts.effort));
    let (events, fingerprints) = digest(&reports);
    for (&arch, r) in e9_arms().iter().zip(&reports) {
        let q = r.aggregate_qos();
        let drops = |c| r.drops.get(&c).copied().unwrap_or(0);
        t.row([
            arch.label().to_string(),
            pct(q.loss_rate),
            ms(q.mean_delay_ms),
            ms(q.p95_delay_ms),
            r.signaling.rsmc_notifications.to_string(),
            drops(mtnet_core::report::DropCause::NoRoute).to_string(),
            drops(mtnet_core::report::DropCause::Paging).to_string(),
        ]);
    }
    ExperimentResult {
        id: "E9",
        title: "Fig 4.1 — RSMC: combined gateway cache + HA/CN notification",
        tables: vec![(format!("small city, {secs:.0}s"), t)],
        notes: vec![
            "expected shape: RSMC cuts mean delay (route optimization via CN notify) and loss (location-cache rescue of stale routes)".into(),
        ],
        events,
        fingerprints,
    }
}

/// E10 — headline claim 1: improved QoS (handoff latency and delay) of
/// the proposed architecture vs both baselines.
pub fn e10_qos(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let reps = opts.effort.replications();
    let archs = e10_arms();
    // All (architecture, replication) runs fan out in one batch; each gets
    // its own (E10, arch, rep)-derived seed, so results are independent of
    // how the pool schedules them.
    let reports = run_specs(opts, arm_specs("E10", opts.effort));
    let (events, fingerprints) = digest(&reports);
    let mut t = Table::new([
        "architecture",
        "loss",
        "mean delay",
        "p95 delay",
        "jitter",
        "handoffs",
        "handoff latency",
        "signaling msgs",
    ]);
    for (a, arch) in archs.iter().enumerate() {
        let runs = &reports[a * reps as usize..][..reps as usize];
        let mut agg = Replicates::new();
        for r in runs {
            let q = r.aggregate_qos();
            agg.record("loss", q.loss_rate);
            agg.record("mean_delay", q.mean_delay_ms);
            agg.record("p95_delay", q.p95_delay_ms);
            agg.record("jitter", q.jitter_ms);
            agg.record("handoffs", r.handoffs.total() as f64);
            agg.record("latency", r.handoffs.latency_all().mean());
            agg.record("signaling", r.signaling.total_messages() as f64);
        }
        t.row([
            arch.label().to_string(),
            pm(agg.get("loss"), pct),
            pm(agg.get("mean_delay"), ms),
            pm(agg.get("p95_delay"), ms),
            pm(agg.get("jitter"), ms),
            pm(agg.get("handoffs"), count_fmt),
            pm(agg.get("latency"), ms),
            pm(agg.get("signaling"), count_fmt),
        ]);
    }
    ExperimentResult {
        id: "E10",
        title: "Claim — multi-tier improves QoS over pure Mobile IP and flat Cellular IP",
        tables: vec![(
            format!("small city, mixed population, {secs:.0}s, {reps} replications (mean±95% CI)"),
            t,
        )],
        notes: vec![
            "expected shape: multi-tier wins on delay (vs triangle-routing Mobile IP) and on loss/outage (vs coverage-limited flat Cellular IP)".into(),
        ],
        events,
        fingerprints,
    }
}

/// E11 — headline claim 2: reduced data-packet loss for mobile multimedia,
/// across population speeds.
pub fn e11_loss(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let populations = e11_populations();
    let archs = e11_arms();
    let reps = opts.effort.replications();
    // One job per (population, architecture, replication); the arm label
    // in the seed path carries both the population and the architecture.
    let reports = run_specs(opts, arm_specs("E11", opts.effort));
    let (events, fingerprints) = digest(&reports);
    let mut t = Table::new([
        "population",
        "architecture",
        "loss",
        "jitter",
        "handoffs",
        "outage samples",
    ]);
    let mut next = reports.chunks(reps as usize);
    for (pname, _) in populations {
        for arch in archs {
            let runs = next.next().expect("one chunk per (population, arch)");
            let mut agg = Replicates::new();
            for r in runs {
                let q = r.aggregate_qos();
                agg.record("loss", q.loss_rate);
                agg.record("jitter", q.jitter_ms);
                agg.record("handoffs", r.handoffs.total() as f64);
                agg.record("outages", r.handoffs.outage_samples as f64);
            }
            t.row([
                pname.to_string(),
                arch.label().to_string(),
                pm(agg.get("loss"), pct),
                pm(agg.get("jitter"), ms),
                pm(agg.get("handoffs"), count_fmt),
                pm(agg.get("outages"), count_fmt),
            ]);
        }
    }
    ExperimentResult {
        id: "E11",
        title: "Claim — multi-tier + semisoft + RSMC reduces multimedia packet loss",
        tables: vec![(
            format!("small city, {secs:.0}s per cell, {reps} replications (mean±95% CI)"),
            t,
        )],
        notes: vec![
            "expected shape: fast populations break flat Cellular IP (outages) and stress pure Mobile IP (registration loss); the multi-tier architecture stays low across all speeds".into(),
            "semisoft ≤ hard loss for the micro-tier populations".into(),
        ],
        events,
        fingerprints,
    }
}

/// E12 — §3.2 ablation: which of the three handoff factors matter.
pub fn e12_ablation(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let mut t = Table::new([
        "factors",
        "handoffs",
        "ping-pong",
        "rejected",
        "fallback used",
        "outages",
        "loss",
    ]);
    let reports = run_specs(opts, arm_specs("E12", opts.effort));
    let (events, fingerprints) = digest(&reports);
    for ((label, _), r) in e12_arms().iter().zip(&reports) {
        let q = r.aggregate_qos();
        t.row([
            label.to_string(),
            r.handoffs.total().to_string(),
            r.handoffs.ping_pong.to_string(),
            r.handoffs.rejected.to_string(),
            r.handoffs.fallback_used.to_string(),
            r.handoffs.outage_samples.to_string(),
            pct(q.loss_rate),
        ]);
    }
    ExperimentResult {
        id: "E12",
        title: "Ablation — the three handoff factors of §3.2",
        tables: vec![(format!("small city, mixed population, {secs:.0}s"), t)],
        notes: vec![
            "expected shape: dropping the speed factor strands fast nodes in micro cells (more handoffs); dropping signal raises ping-pong; dropping resources removes the fallback safety valve".into(),
        ],
        events,
        fingerprints,
    }
}

/// E13 — resilience under infrastructure faults: the same outage, flap
/// and failover schedule against the hierarchical architecture and pure
/// Mobile IP, plus an eclipsed satellite overlay.
pub fn e13_resilience(opts: RunOptions) -> ExperimentResult {
    let secs = opts.effort.secs(300.0);
    let reports = run_specs(opts, arm_specs("E13", opts.effort));
    let (events, fingerprints) = digest(&reports);
    let mut t = Table::new([
        "arm",
        "fault events",
        "loss",
        "outage drops",
        "re-registrations",
        "recoveries",
        "recovery mean",
        "recovery max",
    ]);
    let labels = ["multi-tier", "pure mobile-ip", "satellite eclipse"];
    for (label, r) in labels.iter().zip(&reports) {
        let q = r.aggregate_qos();
        let f = &r.faults;
        let rec = &f.recovery_latency_ms;
        t.row([
            label.to_string(),
            f.total_transitions().to_string(),
            pct(q.loss_rate),
            f.outage_drops.to_string(),
            f.reregistrations.to_string(),
            rec.count().to_string(),
            if rec.count() > 0 {
                ms(rec.mean())
            } else {
                "-".into()
            },
            rec.max().map_or("-".into(), ms),
        ]);
    }
    ExperimentResult {
        id: "E13",
        title: "Resilience — spec-driven outages, flaps, failover and eclipse",
        tables: vec![(
            format!("identical fault schedules per arm, {secs:.0}s (overlay arm: E1 horizon)"),
            t,
        )],
        notes: vec![
            "expected shape: the hierarchy re-converges via soft-state refresh (bounded recovery latency); pure Mobile IP pays a re-registration storm per restore".into(),
            "the eclipse arm re-opens the E1 macro hole while the overlay is dark — loss climbs toward the terrestrial-only arm of E1".into(),
        ],
        events,
        fingerprints,
    }
}

/// E14 — the metro tier: a million-subscriber world carried with
/// O(active) state. Per-node state lives in SoA columns, RSMC
/// authentication is an epoch tag on the node's own row, the MNLD is a
/// dense table, and every delivered packet's delay streams into one
/// constant-memory aggregate histogram instead of per-flow
/// distributions. The table reports the per-tier admission pressure and
/// the aggregate delay percentiles the streaming accumulators exist for.
pub fn e14_metro(opts: RunOptions) -> ExperimentResult {
    let specs = arm_specs("E14", opts.effort);
    let spec = specs[0].clone();
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
    let reports = run_specs(opts, specs);
    let (events, fingerprints) = digest(&reports);
    let r = &reports[0];
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
    ExperimentResult {
        id: "E14",
        title: "Metro tier — 10^6 subscribers, O(active) state, streaming QoS",
        tables: vec![(
            format!(
                "{} domains + satellite overlay, commute-hour load curve, {secs:.0}s",
                spec.n_domains
            ),
            t,
        )],
        notes: vec![
            "state scales with the active set: per-flow delay histograms collapse into one \
             2048-bucket aggregate; RSMC auth and MNLD rows are O(population) columns, not \
             O(subscribers) side maps"
                .into(),
            "expected shape: idle subscribers cost only their periodic ticks (5 s move samples, \
             60 s location/paging); the pico street rows absorb the active calls and the macro \
             umbrella takes the overflow"
                .into(),
        ],
        events,
        fingerprints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_is_complete() {
        let r = e1_multitier_coverage(RunOptions::new(Effort::Quick, 1));
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[0].1.len(), 4, "one row per tier");
    }

    #[test]
    fn e5_staleness_rises_past_lifetime() {
        let r = e5_location(RunOptions::new(Effort::Quick, 3));
        let rendered = r.render();
        // The 2 s row must show ~0 staleness; the 12 s row must not.
        assert!(rendered.contains("2s"));
        assert!(rendered.contains("12s"));
    }

    #[test]
    fn e4_analytic_monotone() {
        let r = e4_cip_handoff(RunOptions::new(Effort::Quick, 3));
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
            e10_qos(opts).render()
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
            let mut specs = arm_specs("E1", Effort::Quick);
            specs.push(
                ScenarioSpec::metro_smoke()
                    .with_duration_s(30.0)
                    .with_seed_path("parity", "metro", 0),
            );
            specs
        };
        let run_with = |threads: usize, shards: u32| -> Vec<String> {
            let opts = RunOptions {
                threads,
                shards: Some(shards),
                ..RunOptions::new(Effort::Quick, 42)
            };
            let reports = run_specs(opts, arms());
            reports.iter().map(|r| r.fingerprint()).collect()
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
