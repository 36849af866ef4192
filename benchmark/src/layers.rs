//! Layer replays: each crate's public API driven from outside, at the
//! workload's shape.
//!
//! Nothing here looks inside a running world. A replay builds the layer's
//! own data structure the way `ScenarioSpec::build` would (same cell
//! geometry, node count, pending-event population), drives one public
//! operation in a loop and reports ns per operation. Multiplied by the
//! operation count the workload's report gives, that is the layer's
//! *estimated* share of the run wall — an outside-in estimate with warm
//! caches and none of the world's handler code around it, which is why
//! `core.world.residual_share` exists.

use crate::measure::ns_per_op;
use crate::trace::{span, MaybeTracer};
use crate::workload::{Counts, Workload};
use mtnet_cellularip::{CipConfig, CipNetwork};
use mtnet_core::handoff::{Candidate, CurrentAttachment, DecisionConfig, HandoffEngine};
use mtnet_core::hierarchy::{DomainId, Hierarchy};
use mtnet_core::location::LocationDirectory;
use mtnet_core::mnld::Mnld;
use mtnet_core::rsmc::Rsmc;
use mtnet_core::scenario::ArchKind;
use mtnet_core::{MnId, PacketArena, Payload, ScenarioSpec, Tier};
use mtnet_metrics::{FixedHistogram, Histogram};
use mtnet_mobileip::{HomeAgent, RegistrationRequest};
use mtnet_mobility::{LinearCommute, MobilityModel, Point, RandomWaypoint, Rect, Trajectory};
use mtnet_net::{
    Addr, FlowId, Link, LinkConfig, LinkId, NodeId, PacketId, Prefix, RouteCache, Topology,
};
use mtnet_radio::{Cell, CellId, CellMap, Measurement};
use mtnet_sim::{RngStream, Scheduler, SimDuration, SimTime};
use mtnet_traffic::{ArrivalProcess, Cbr, FlowQos, OnOffVbr, ParetoWeb};
use std::hint::black_box;

/// Timed rounds per replay (the median is reported).
const ROUNDS: usize = 3;

/// Sample points / candidate lists precomputed per replay.
const POINTS: usize = 4096;

/// One replay's result.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Metric name, `<crate>.<thing>_ns` or `_us`.
    pub name: &'static str,
    /// Median cost of one operation, in the unit the name ends with.
    pub value: f64,
    /// Operations timed per round.
    pub ops: u64,
    /// How many such operations the workload's run performed (from its
    /// report, or from the spec's timer periods); `None` for a replay
    /// that is a variant of another and would double-count.
    pub run_ops: Option<u64>,
}

impl Replay {
    /// Cost of one operation in ns.
    pub fn ns(&self) -> f64 {
        if self.name.ends_with("_us") {
            self.value * 1e3
        } else {
            self.value
        }
    }

    /// `<name minus _ns/_us>.est_share`.
    pub fn share_name(&self) -> String {
        let base = self
            .name
            .strip_suffix("_ns")
            .or_else(|| self.name.strip_suffix("_us"))
            .expect("replay names end in a time unit");
        format!("{base}.est_share")
    }
}

/// What the replays need to know about a workload: the geometry and
/// population of its first world (every world of a workload shares
/// them), and operation counts summed over all its worlds.
#[derive(Debug, Clone)]
pub struct Shape {
    spec: ScenarioSpec,
    has_macro: bool,
    has_micro: bool,
    /// Mobile nodes in one world.
    pub population: usize,
    /// Traffic flows in one world.
    pub flows: usize,
    /// Events pending in the scheduler at steady state: two or three
    /// periodic timers per node, one `FlowNext` per flow, one sweep.
    pub pending: usize,
    /// Mobility measurement period.
    pub move_sample: SimDuration,
    /// Mobility samples over the whole workload (population × duration ÷
    /// period, summed over worlds).
    pub move_samples: u64,
    /// Periodic timer events over the whole workload.
    pub timer_events: u64,
}

fn every(n: u32, i: usize) -> bool {
    n > 0 && i.is_multiple_of(n as usize)
}

impl Shape {
    /// Derives the shape from the workload's parsed specs.
    pub fn of(workload: &Workload) -> Shape {
        let spec = workload.worlds[0].spec.clone();
        let (has_macro, has_micro) = match spec.arch {
            ArchKind::MultiTier { .. } => (true, true),
            ArchKind::PureMobileIp => (true, false),
            ArchKind::FlatCellularIp => (false, true),
        };
        let population = (spec.pedestrians + spec.cyclists + spec.vehicles) as usize;
        let flows_of = |i: usize| {
            usize::from(every(spec.voice_every, i))
                + usize::from(every(spec.video_every, i))
                + usize::from(every(spec.web_every, i))
        };
        let flows: usize = (0..population).map(flows_of).sum();
        let camping = if spec.idle_camping {
            (0..population).filter(|&i| flows_of(i) == 0).count()
        } else {
            0
        };
        // Defaults as in `WorldConfig::default()` / `CipTimers::default()`.
        let ms = |v: Option<u64>, default: u64| SimDuration::from_millis(v.unwrap_or(default));
        let move_sample = ms(spec.move_sample_ms, 200);
        let route_update = ms(spec.route_update_ms, 1_000);
        let paging_update = ms(spec.paging_update_ms, 60_000);
        let location = ms(spec.location_update_ms, 2_000);
        let mut move_samples = 0.0;
        let mut timer_events = 0.0;
        for w in &workload.worlds {
            let d = w.spec.duration_s;
            let ticks = |period: SimDuration, nodes: usize| nodes as f64 * d / period.as_secs_f64();
            let moves = ticks(move_sample, population);
            move_samples += moves;
            timer_events += moves
                + ticks(route_update, population - camping)
                + ticks(paging_update, camping)
                + ticks(location, population - camping);
        }
        Shape {
            has_macro,
            has_micro,
            population,
            flows,
            pending: 3 * population - camping + flows + 1,
            move_sample,
            move_samples: move_samples as u64,
            timer_events: timer_events as u64,
            spec,
        }
    }

    fn domain_center_x(&self, d: usize) -> f64 {
        self.spec.domain_width_m / 2.0 + d as f64 * self.spec.domain_width_m
    }

    /// Street-row positions spread over the domains the way the spec
    /// scatters its pedestrians.
    fn sample_points(&self) -> Vec<Point> {
        let n_domains = self.spec.n_domains as usize;
        (0..POINTS)
            .map(|i| {
                let cx = self.domain_center_x(i % n_domains);
                Point::new(
                    cx - 600.0 + (i as f64 * 163.0) % 1200.0,
                    self.spec.street_y_m - 250.0 + (i as f64 * 37.0) % 500.0,
                )
            })
            .collect()
    }

    /// Home address of node `i` (any address inside 10/8 will do).
    fn mn_addr(i: usize) -> Addr {
        Addr(0x0A00_0201 + i as u32)
    }
}

/// One domain of the rebuilt deployment.
struct DomainNodes {
    rsmc: NodeId,
    rsmc_addr: Addr,
    /// Radio cells with their BS nodes, macro first.
    bs: Vec<(CellId, NodeId)>,
    /// Internet ↔ RSMC duplex pair.
    uplink: (LinkId, LinkId),
}

/// Cell map, hierarchy and wired topology laid out as
/// `WorldBuilder::add_domain` lays them out for this shape.
struct Deployment {
    cells: CellMap,
    hierarchy: Hierarchy,
    topo: Topology,
    internet: NodeId,
    ha: NodeId,
    cn: NodeId,
    domains: Vec<DomainNodes>,
}

impl Deployment {
    fn build(shape: &Shape) -> Deployment {
        let spec = &shape.spec;
        let mut topo = Topology::new();
        let internet = topo.add_node(Addr::from_octets(1, 0, 0, 1));
        let ha = topo.add_node(Addr::from_octets(10, 0, 0, 1));
        let cn = topo.add_node(Addr::from_octets(30, 0, 0, 2));
        topo.connect(internet, ha, LinkConfig::wide_area());
        topo.connect(internet, cn, LinkConfig::backbone());
        let mut cells = CellMap::without_shadowing();
        let mut hierarchy = Hierarchy::new();
        let mut domains = Vec::new();
        let mut next_cell = 0u32;
        let mut alloc = || {
            next_cell += 1;
            CellId(next_cell - 1)
        };
        let mut upper: Option<CellId> = None;
        let n_domains = spec.n_domains as usize;
        for d in 0..n_domains + usize::from(spec.satellite) {
            let satellite = d == n_domains;
            let octet = d as u8;
            let rsmc_addr = Addr::from_octets(20, octet, 0, 1);
            let rsmc = topo.add_node(rsmc_addr);
            let uplink = topo.connect(internet, rsmc, LinkConfig::wide_area());
            // Consecutive domain pairs share an upper BS (Fig 3.2).
            let paired = spec.share_upper && !satellite && (d + 1 < n_domains || d % 2 == 1);
            let upper_cell = paired.then(|| {
                if d % 2 == 0 {
                    upper = Some(hierarchy.add_upper_macro(alloc()));
                }
                upper.expect("even domain allocated the pair's upper BS")
            });
            let macro_cell = alloc();
            hierarchy.add_domain(macro_cell, upper_cell);
            let center = if satellite {
                Point::new(spec.corridor_width() / 2.0, spec.street_y_m)
            } else {
                Point::new(shape.domain_center_x(d), spec.street_y_m)
            };
            let mut bs = Vec::new();
            let mut parent_node = rsmc;
            if shape.has_macro {
                let node = topo.add_node(Addr::from_octets(20, octet, 0, 10));
                topo.connect(rsmc, node, LinkConfig::backbone());
                let kind = if satellite {
                    mtnet_radio::CellKind::Satellite
                } else {
                    mtnet_radio::CellKind::Macro
                };
                cells.add(Cell::new(macro_cell, kind, center, node));
                bs.push((macro_cell, node));
                parent_node = node;
            }
            if shape.has_micro && !satellite {
                let n_micro = spec.micro_per_domain as usize;
                let span = spec.micro_spacing_m * n_micro.saturating_sub(1) as f64;
                let x0 = center.x - span / 2.0;
                let mut prev: Option<(CellId, NodeId)> = None;
                for i in 0..n_micro {
                    let cell = alloc();
                    let node = topo.add_node(Addr::from_octets(20, octet, 1, i as u8 + 1));
                    // Even cells hang off the macro, odd ones chain under
                    // their left neighbour.
                    let (parent_cell, parent) = match (i % 2, prev) {
                        (1, Some(p)) => p,
                        _ => (macro_cell, parent_node),
                    };
                    topo.connect(parent, node, LinkConfig::access());
                    hierarchy.add_micro(cell, parent_cell);
                    let pos = Point::new(x0 + i as f64 * spec.micro_spacing_m, center.y);
                    cells.add(Cell::new(cell, spec.micro_kind, pos, node));
                    bs.push((cell, node));
                    prev = Some((cell, node));
                }
            }
            domains.push(DomainNodes {
                rsmc,
                rsmc_addr,
                bs,
                uplink,
            });
        }
        Deployment {
            cells,
            hierarchy,
            topo,
            internet,
            ha,
            cn,
            domains,
        }
    }

    /// The first terrestrial domain's Cellular IP tree, wired as the
    /// builder wires it. Returns the network and its BS nodes.
    fn cip_domain(&self) -> (CipNetwork, Vec<NodeId>) {
        let d = &self.domains[0];
        let mut cip = CipNetwork::new(d.rsmc, CipConfig::default());
        let mut nodes = Vec::new();
        for &(_, node) in &d.bs {
            let parent = self
                .topo
                .neighbors(node)
                .find(|&n| n == d.rsmc || nodes.contains(&n))
                .expect("every BS hangs under the RSMC or an earlier BS");
            cip.add_bs(node, parent);
            nodes.push(node);
        }
        (cip, nodes)
    }
}

/// The mobility models `ScenarioSpec::build` gives the first `n` nodes.
fn trajectories(shape: &Shape, n: usize) -> Vec<Trajectory> {
    let spec = &shape.spec;
    let n_domains = spec.n_domains as usize;
    let street_y = spec.street_y_m;
    (0..n)
        .map(|i| {
            let model: Box<dyn MobilityModel + Send> = if i < spec.pedestrians as usize {
                let cx = shape.domain_center_x(i % n_domains);
                let area = Rect::new(
                    Point::new(cx - 800.0, street_y - 250.0),
                    Point::new(cx + 800.0, street_y + 250.0),
                );
                let start = Point::new(cx - 600.0 + (i as f64 * 163.0) % 1200.0, street_y);
                Box::new(
                    RandomWaypoint::new(area, spec.pedestrian_class)
                        .with_pause(SimDuration::from_secs_f64(spec.pedestrian_pause_s))
                        .with_start(start),
                )
            } else if i < (spec.pedestrians + spec.cyclists) as usize {
                let c = i - spec.pedestrians as usize;
                let cx = shape.domain_center_x(c % n_domains);
                let span = spec.micro_spacing_m * spec.micro_per_domain.saturating_sub(1) as f64;
                let y = street_y + 20.0 * c as f64;
                Box::new(
                    LinearCommute::new(
                        Point::new(cx - span / 2.0, y),
                        Point::new(cx + span / 2.0, y),
                        spec.cyclist_speed_mps,
                    )
                    .round_trip(),
                )
            } else {
                let v = i - (spec.pedestrians + spec.cyclists) as usize;
                let y = street_y + 50.0 * (v as f64 - 1.0);
                Box::new(
                    LinearCommute::new(
                        Point::new(400.0, y),
                        Point::new(spec.corridor_width() - 400.0, y),
                        spec.vehicle_speed_mps,
                    )
                    .round_trip(),
                )
            };
            Trajectory::new(model)
        })
        .collect()
}

/// Everything the replays report.
#[derive(Debug, Clone)]
pub struct LayerResults {
    /// One entry per replay, in a fixed order.
    pub replays: Vec<Replay>,
    /// Measurements a scan returns ÷ cells deployed: the useful share of
    /// the cells a full sweep would have to look at.
    pub scan_audible: f64,
}

/// Runs every layer replay at `shape` (the workload's, from
/// [`Shape::of`]), scaled by `counts` (its report's exact counts). Each replay times its
/// nominal operation count divided by `ops_divisor` (1 outside tests).
pub fn replay_all(
    shape: &Shape,
    counts: &Counts,
    seed: u64,
    ops_divisor: u64,
    tracer: &mut MaybeTracer<'_>,
) -> LayerResults {
    let mut dep = Deployment::build(shape);
    let points = shape.sample_points();
    let mut replays = Vec::new();
    let mut record =
        |name: &'static str, ops: u64, run_ops: Option<u64>, f: &mut dyn FnMut(u64)| {
            let ops = (ops / ops_divisor).max(1);
            let per_op = span(tracer, &format!("replay:{name}"), None, || {
                ns_per_op(ROUNDS, ops, f)
            });
            let value = if name.ends_with("_us") {
                per_op / 1e3
            } else {
                per_op
            };
            replays.push(Replay {
                name,
                value,
                ops,
                run_ops,
            });
        };

    // --- sim: the hold model at the workload's pending population -------
    // One op = pop the earliest event + schedule its successor. Every
    // `timer_every`-th successor is a periodic timer re-arm, the rest are
    // packet-path delays (air, access, backbone, wide-area, voice gap).
    let timer_every = (counts.events / shape.timer_events.max(1)).max(1);
    let packet_delays = [2u64, 1, 2, 25, 20].map(SimDuration::from_millis);
    let stagger =
        |i: usize| SimTime::from_nanos(i as u64 * 7_000_000 % shape.move_sample.as_nanos());
    {
        let mut sched: Scheduler<[u64; 3]> = Scheduler::new();
        for i in 0..shape.pending {
            sched.schedule_at(stagger(i), [i as u64; 3]);
        }
        let mut k = 0u64;
        record(
            "sim.scheduler.hold_ns",
            1_000_000,
            Some(counts.events),
            &mut |ops| {
                for _ in 0..ops {
                    let ev = sched.pop().expect("hold model never drains");
                    k += 1;
                    let delay = if k.is_multiple_of(timer_every) {
                        shape.move_sample
                    } else {
                        packet_delays[(k % 5) as usize]
                    };
                    sched.schedule_in(delay, ev.into_event());
                }
            },
        );
    }
    // The tick wave: one timer per node, all on one period.
    {
        let mut sched: Scheduler<[u64; 3]> = Scheduler::new();
        for i in 0..shape.population {
            sched.schedule_at(stagger(i), [i as u64; 3]);
        }
        record("sim.scheduler.tickwave_ns", 1_000_000, None, &mut |ops| {
            for _ in 0..ops {
                let ev = sched.pop().expect("tick wave never drains");
                sched.schedule_in(shape.move_sample, ev.into_event());
            }
        });
    }

    // --- radio ----------------------------------------------------------
    let mut scratch: Vec<Measurement> = Vec::new();
    let mut returned = 0u64;
    let mut scans = 0u64;
    record(
        "radio.scan_ns",
        400_000,
        Some(shape.move_samples),
        &mut |ops| {
            for i in 0..ops as usize {
                dep.cells
                    .measure_batch(points[i % POINTS], None, &mut scratch);
                returned += scratch.len() as u64;
                scans += 1;
            }
        },
    );
    let scan_audible = returned as f64 / (scans as f64 * dep.cells.len() as f64);
    record("radio.best_cell_ns", 400_000, None, &mut |ops| {
        for i in 0..ops as usize {
            black_box(dep.cells.best_cell(points[i % POINTS], None));
        }
    });

    // --- mobility: monotone position queries, one trajectory per node ---
    {
        let n = shape.population.min(200_000);
        let mut trajs = trajectories(shape, n);
        let mut rngs: Vec<RngStream> = (0..n)
            .map(|i| RngStream::derive(seed, &format!("replay/mn{i}")))
            .collect();
        let mut wave = 0u64;
        let mut i = 0usize;
        record(
            "mobility.position_ns",
            1_000_000,
            Some(shape.move_samples + counts.pkts_received),
            &mut |ops| {
                for _ in 0..ops {
                    let t = SimTime::from_nanos(wave * shape.move_sample.as_nanos())
                        + SimDuration::from_nanos(stagger(i).as_nanos());
                    black_box(trajs[i].position(t, &mut rngs[i]));
                    i += 1;
                    if i == n {
                        i = 0;
                        wave += 1;
                    }
                }
            },
        );
    }

    // --- core: §3.2 decision, RSMC, MNLD, §3.1 location tables ----------
    {
        let engine = HandoffEngine::new(DecisionConfig::default(), shape.spec.factors);
        let rounds: Vec<(Vec<Candidate>, Option<CurrentAttachment>)> = points
            .iter()
            .map(|&p| {
                dep.cells.measure_batch(p, None, &mut scratch);
                let cands: Vec<Candidate> = scratch
                    .iter()
                    .map(|m| Candidate {
                        cell: m.cell,
                        tier: Tier::of_cell(m.kind),
                        rssi_dbm: m.rssi_dbm,
                        free_ratio: m.free_ratio,
                    })
                    .collect();
                let current = cands.first().map(|c| CurrentAttachment {
                    cell: c.cell,
                    tier: c.tier,
                    rssi_dbm: Some(c.rssi_dbm),
                });
                (cands, current)
            })
            .collect();
        let speed = shape.spec.pedestrian_class.typical();
        record(
            "core.handoff.decide_ns",
            2_000_000,
            Some(shape.move_samples),
            &mut |ops| {
                for i in 0..ops as usize {
                    let (cands, current) = &rounds[i % POINTS];
                    black_box(engine.decide(speed, *current, cands));
                }
            },
        );
    }
    let per_domain = (shape.population / shape.spec.n_domains as usize).max(1);
    let domain0 = &dep.domains[0];
    {
        let mut rsmc = Rsmc::new(domain0.rsmc_addr);
        let cells: Vec<CellId> = domain0.bs.iter().map(|&(c, _)| c).collect();
        let mut now = SimTime::ZERO;
        let mut k = 0usize;
        record(
            "core.rsmc.update_ns",
            1_000_000,
            Some(counts.route_updates),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    now += SimDuration::from_micros(50);
                    // A node's serving cell changes on every 16th update
                    // it sends (the RSMC then emits its two notifies).
                    let mn = k % per_domain;
                    let cell = cells[(mn + k / per_domain / 16) % cells.len()];
                    black_box(rsmc.on_route_update(Shape::mn_addr(mn), cell, now, 2));
                }
            },
        );
    }
    {
        let mut mnld = Mnld::new();
        let n_domains = shape.spec.n_domains as usize;
        let mut now = SimTime::ZERO;
        // Nodes are visited in timer-stagger order, which is a stride
        // through the id space, not a sweep.
        let stride = 7919 % shape.population.max(2);
        let mut mn = 0usize;
        record(
            "core.mnld.update_ns",
            2_000_000,
            Some(counts.rsmc_notifications),
            &mut |ops| {
                for _ in 0..ops {
                    mn = (mn + stride) % shape.population;
                    now += SimDuration::from_micros(50);
                    black_box(mnld.update(
                        MnId(mn as u32),
                        DomainId((mn % n_domains) as u32),
                        domain0.rsmc_addr,
                        now,
                    ));
                }
            },
        );
        record("core.mnld.query_ns", 2_000_000, None, &mut |ops| {
            for _ in 0..ops {
                mn = (mn + stride) % shape.population;
                black_box(mnld.query(MnId(mn as u32)));
            }
        });
    }
    {
        let lifetime = SimDuration::from_millis(shape.spec.table_lifetime_ms.unwrap_or(6_000));
        let mut locdir = LocationDirectory::new(&dep.hierarchy, lifetime);
        let serving: Vec<CellId> = dep
            .domains
            .iter()
            .flat_map(|d| d.bs.iter().map(|&(c, _)| c))
            .filter(|&c| dep.hierarchy.contains(c))
            .collect();
        let mut now = SimTime::ZERO;
        let mut k = 0usize;
        record(
            "core.location.update_ns",
            500_000,
            Some(counts.location_msgs),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    now += SimDuration::from_micros(50);
                    let mn = k % shape.population;
                    black_box(locdir.on_location_message(
                        &dep.hierarchy,
                        Shape::mn_addr(mn),
                        serving[mn % serving.len()],
                        now,
                    ));
                }
            },
        );
    }

    // --- net: route cache, rebuild after a link flap, link transmit -----
    // Wired hops are what is left of the event count once timers, flow
    // arrivals and air deliveries are taken out.
    let wired_hops = counts
        .events
        .saturating_sub(shape.timer_events + counts.pkts_sent + counts.pkts_received);
    {
        let topo = &mut dep.topo;
        let mut routes = RouteCache::new();
        let backbone = [dep.internet, dep.ha, dep.cn];
        let edge: Vec<NodeId> = dep
            .domains
            .iter()
            .flat_map(|d| std::iter::once(d.rsmc).chain(d.bs.iter().map(|&(_, n)| n)))
            .collect();
        record(
            "net.route.next_hop_ns",
            4_000_000,
            Some(wired_hops),
            &mut |ops| {
                for i in 0..ops as usize {
                    // Downlink from the backbone and uplink from the edge,
                    // alternating — both directions cross every tier.
                    let (src, dst) = if i % 2 == 0 {
                        (backbone[i % 3], edge[i % edge.len()])
                    } else {
                        (edge[i % edge.len()], backbone[i % 3])
                    };
                    black_box(routes.next_hop(topo, src, dst));
                }
            },
        );
        let (fwd, _) = domain0.uplink;
        let mut up = true;
        record("net.route.rebuild_us", 200, None, &mut |ops| {
            for _ in 0..ops {
                // One flap edge (a generation bump), then the first lookup
                // from each backbone source pays for a fresh tree.
                up = !up;
                topo.set_link_up(fwd, up).expect("uplink exists");
                for src in backbone {
                    black_box(routes.next_hop(topo, src, edge[edge.len() - 1]));
                }
            }
        });
    }
    {
        let config = LinkConfig::access();
        let mut link = Link::new(config);
        let gap = config.serialization(200);
        let mut now = SimTime::ZERO;
        record(
            "net.link.transmit_ns",
            4_000_000,
            Some(wired_hops),
            &mut |ops| {
                for _ in 0..ops {
                    now += gap;
                    black_box(link.transmit(now, 200));
                }
            },
        );
    }

    // --- cellularip / mobileip -----------------------------------------
    {
        let (mut cip, nodes) = dep.cip_domain();
        let mut now = SimTime::ZERO;
        let mut k = 0usize;
        record(
            "cellularip.route_update_ns",
            1_000_000,
            Some(counts.route_updates + counts.paging_updates),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    now += SimDuration::from_micros(50);
                    let mn = k % per_domain;
                    black_box(cip.route_update(Shape::mn_addr(mn), nodes[mn % nodes.len()], now));
                }
            },
        );
        record(
            "cellularip.next_hop_ns",
            4_000_000,
            Some(counts.pkts_received),
            &mut |ops| {
                for i in 0..ops as usize {
                    let mn = i % per_domain;
                    black_box(cip.next_hop(nodes[mn % nodes.len()], Shape::mn_addr(mn), now));
                }
            },
        );
    }
    {
        let ha_addr = Addr::from_octets(10, 0, 0, 1);
        let mut ha = HomeAgent::new(ha_addr, Prefix::new(Addr::from_octets(10, 0, 0, 0), 8));
        let mut now = SimTime::ZERO;
        let mut k = 0usize;
        record(
            "mobileip.registration_ns",
            1_000_000,
            Some(counts.registrations),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    now += SimDuration::from_micros(50);
                    let req = RegistrationRequest {
                        mn_home: Shape::mn_addr(k % shape.population),
                        coa: domain0.rsmc_addr,
                        ha: ha_addr,
                        lifetime: SimDuration::from_secs(300),
                        id: k as u64,
                    };
                    black_box(ha.process_registration(&req, now));
                }
            },
        );
        record(
            "mobileip.tunnel_lookup_ns",
            4_000_000,
            Some(counts.pkts_sent),
            &mut |ops| {
                for i in 0..ops as usize {
                    black_box(ha.tunnel_endpoint(Shape::mn_addr(i % shape.population), now));
                }
            },
        );
    }

    // --- per-packet bookkeeping: arena, arrivals, QoS, histograms -------
    {
        let mut arena = PacketArena::new();
        // A standing window of packets in flight, oldest freed first.
        let mut live = std::collections::VecDeque::new();
        let in_flight = shape.flows.clamp(16, 4096);
        let mut k = 0u64;
        record(
            "core.arena.alloc_free_ns",
            4_000_000,
            Some(counts.pkts_sent),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    live.push_back(arena.alloc(
                        PacketId(k),
                        FlowId(k % 64),
                        k,
                        Addr::from_octets(30, 0, 0, 2),
                        Shape::mn_addr((k % 64) as usize),
                        160,
                        SimTime::from_nanos(k),
                        Payload::Data,
                    ));
                    if live.len() > in_flight {
                        arena.free(live.pop_front().expect("non-empty window"));
                    }
                }
            },
        );
    }
    {
        let mut rng = RngStream::derive(seed, "replay/traffic");
        let spec = &shape.spec;
        let mut gens: Vec<Box<dyn ArrivalProcess>> = Vec::new();
        if spec.voice_every > 0 {
            gens.push(Box::new(Cbr::voice()));
        }
        if spec.video_every > 0 {
            gens.push(Box::new(OnOffVbr::video()));
        }
        if spec.web_every > 0 {
            gens.push(Box::new(ParetoWeb::browsing()));
        }
        if gens.is_empty() {
            // A workload without flows still reports the voice cost.
            gens.push(Box::new(Cbr::voice()));
        }
        record(
            "traffic.arrival_ns",
            4_000_000,
            Some(counts.pkts_sent),
            &mut |ops| {
                for i in 0..ops as usize {
                    let n = gens.len();
                    black_box(gens[i % n].next_arrival(&mut rng));
                }
            },
        );
    }
    {
        let mut flows: Vec<FlowQos> = (0..shape.flows.max(1)).map(|_| FlowQos::new()).collect();
        let mut k = 0u64;
        record(
            "traffic.qos.record_ns",
            4_000_000,
            Some(counts.pkts_sent.max(counts.pkts_received)),
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    let n = flows.len();
                    let q = &mut flows[k as usize % n];
                    let sent = SimTime::from_nanos(k * 1_000);
                    q.record_sent(k, sent, 160);
                    black_box(q.record_received_compact(
                        k,
                        sent,
                        sent + SimDuration::from_micros(30_000 + k % 977),
                        160,
                    ));
                }
            },
        );
    }
    // Delivered packets record their delay in a per-flow `Histogram`, or,
    // under `aggregate_qos`, in the world's one `FixedHistogram`.
    // Both shares are always reported (0 for the one not in use) so
    // every workload prints the same metric names.
    let (hist_ops, fixed_ops) = if shape.spec.aggregate_qos {
        (Some(0), Some(counts.pkts_received))
    } else {
        (Some(counts.pkts_received), Some(0))
    };
    {
        let mut hist = Histogram::new();
        let mut k = 0u64;
        record(
            "metrics.histogram.record_ns",
            4_000_000,
            hist_ops,
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    hist.record(30_000_000 + (k * 7_919) % 50_000_000);
                }
                black_box(hist.count());
            },
        );
    }
    {
        let mut hist = FixedHistogram::new(2_000.0);
        let mut k = 0u64;
        record(
            "metrics.fixed.record_ns",
            4_000_000,
            fixed_ops,
            &mut |ops| {
                for _ in 0..ops {
                    k += 1;
                    hist.record(30.0 + ((k * 7_919) % 50_000) as f64 / 1_000.0);
                }
                black_box(hist.count());
            },
        );
    }

    LayerResults {
        replays,
        scan_audible,
    }
}
