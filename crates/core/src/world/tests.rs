//! World-level unit tests: protocol interactions on small, controlled
//! deployments.

use super::mn::home_addr;
use super::*;
use crate::messages::{CipControl, Payload};
use crate::report::DropCause;
use crate::scenario::ArchKind;
use crate::spec::ScenarioSpec;
use crate::tier::Tier;
use mtnet_mobility::{LinearCommute, Point, Stationary};

/// Adds a node parked at `at`, on a model of its own.
fn park(b: &mut WorldBuilder, at: Point, flows: &[FlowKind]) -> MnId {
    let model = b.add_model(Box::new(Stationary::new(at)));
    b.add_mn(model, at, flows)
}

fn commute_world(arch: ArchKind, secs: f64, seed: u64) -> SimReport {
    ScenarioSpec::commute_corridor()
        .with_raw_seed(seed)
        .with_arch(arch)
        .with_duration_s(secs)
        .run(0)
}

#[test]
fn stationary_node_registers_and_receives() {
    // A parked pedestrian population: no handoffs, near-zero loss.
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
    let report = b.build().run(SimDuration::from_secs(30));
    let q = report.aggregate_qos();
    assert!(q.sent > 1000, "voice flow ran: {}", q.sent);
    assert!(
        q.loss_rate < 0.02,
        "stationary node loses ~nothing, got {:.4} (drops {:?})",
        q.loss_rate,
        report.drops
    );
    assert_eq!(report.handoffs.total(), 0, "nothing to hand off");
    // Exactly one registration (initial attach), refreshed rarely.
    assert!(report.signaling.mip_requests >= 1);
}

#[test]
fn voice_delay_reflects_topology() {
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
    let report = b.build().run(SimDuration::from_secs(20));
    let q = report.aggregate_qos();
    // CN→internet(5ms)→RSMC(25ms)→tree(2ms×n)→air(2ms+ser):
    // one-way delay lands in the tens of milliseconds.
    assert!(
        (20.0..80.0).contains(&q.mean_delay_ms),
        "delay {} outside plausible topology range",
        q.mean_delay_ms
    );
}

#[test]
fn cn_route_optimization_reduces_delay() {
    let run = |notify_cn: bool| {
        let mut cfg = WorldConfig::default();
        cfg.notify_cn = notify_cn;
        let mut b = WorldBuilder::new(cfg);
        b.add_domain(DomainSpec::default());
        park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
        b.build()
            .run(SimDuration::from_secs(30))
            .aggregate_qos()
            .mean_delay_ms
    };
    let optimized = run(true);
    let triangle = run(false);
    assert!(
        optimized + 5.0 < triangle,
        "CN notify should cut the HA detour: {optimized} !<< {triangle}"
    );
}

#[test]
fn semisoft_duplicates_only_with_semisoft() {
    let base = ScenarioSpec::single_domain()
        .with_raw_seed(3)
        .with_duration_s(150.0);
    let report_semi = base.run(0);
    let report_hard = base.with_arch(ArchKind::multi_tier_hard()).run(0);
    assert_eq!(
        report_hard.aggregate_qos().duplicates,
        0,
        "hard never bicasts"
    );
    if report_semi.handoffs.total() > 0 {
        assert!(
            report_semi.aggregate_qos().duplicates > 0,
            "semisoft handoffs should bicast: {:?}",
            report_semi.handoffs.completed
        );
    }
}

#[test]
fn hard_handoff_loses_at_least_semisoft() {
    let base = ScenarioSpec::single_domain()
        .with_raw_seed(11)
        .with_duration_s(300.0);
    let semi = base.run(0);
    let hard = base.with_arch(ArchKind::multi_tier_hard()).run(0);
    let (ls, lh) = (
        semi.aggregate_qos().loss_rate,
        hard.aggregate_qos().loss_rate,
    );
    assert!(
        ls <= lh + 1e-4,
        "semisoft loss {ls} must not exceed hard loss {lh}"
    );
}

#[test]
fn inter_domain_same_upper_faster_than_different() {
    let same = commute_world(ArchKind::multi_tier(), 400.0, 21);
    let diff = ScenarioSpec::commute_corridor()
        .with_raw_seed(21)
        .without_shared_upper()
        .with_duration_s(400.0)
        .run(0);
    let same_lat = same
        .handoffs
        .latency_ms
        .get(&HandoffType::InterDomainSameUpper)
        .map(|s| s.mean());
    let diff_lat = diff
        .handoffs
        .latency_ms
        .get(&HandoffType::InterDomainDifferentUpper)
        .map(|s| s.mean());
    let (Some(same_lat), Some(diff_lat)) = (same_lat, diff_lat) else {
        panic!(
            "both corridors must produce inter-domain handoffs: {:?} / {:?}",
            same.handoffs.completed, diff.handoffs.completed
        );
    };
    assert!(
        same_lat * 2.0 < diff_lat,
        "Fig 3.2 ({same_lat} ms) must be far cheaper than Fig 3.3 ({diff_lat} ms)"
    );
}

#[test]
fn pure_mobile_ip_registers_on_every_handoff() {
    let report = commute_world(ArchKind::PureMobileIp, 400.0, 5);
    assert!(
        report.handoffs.total() > 0,
        "the shuttle crosses macro cells"
    );
    // Every handoff triggers a fresh registration, plus initial attaches.
    assert!(
        report.signaling.mip_requests as i64 >= report.handoffs.total() as i64,
        "registrations {} < handoffs {}",
        report.signaling.mip_requests,
        report.handoffs.total()
    );
}

#[test]
fn flat_cip_fast_nodes_suffer_outage() {
    let one_vehicle = ScenarioSpec::commute_corridor()
        .with_raw_seed(9)
        .with_population(0, 0, 1)
        .with_duration_s(300.0);
    let report = one_vehicle
        .clone()
        .with_arch(ArchKind::FlatCellularIp)
        .run(0);
    assert!(
        report.handoffs.outage_samples > 0,
        "a 25 m/s vehicle must outrun the micro strip"
    );
    let multi = one_vehicle.run(0);
    assert!(
        multi.handoffs.outage_samples < report.handoffs.outage_samples,
        "the macro umbrella must cover the gaps"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let r = ScenarioSpec::small_city()
            .with_raw_seed(77)
            .with_duration_s(60.0)
            .run(0);
        let q = r.aggregate_qos();
        (
            q.sent,
            q.received,
            r.handoffs.total(),
            r.signaling.total_messages(),
            r.events_processed,
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce exactly");
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        ScenarioSpec::small_city()
            .with_raw_seed(seed)
            .with_duration_s(60.0)
            .run(0)
            .events_processed
    };
    assert_ne!(run(1), run(2), "seeds must actually matter");
}

#[test]
fn location_tables_track_attached_nodes() {
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
    let world = b.build();
    let report = world.run(SimDuration::from_secs(20));
    // Location messages flowed and populated tables.
    assert!(report.signaling.location_messages > 5);
}

#[test]
fn channel_accounting_balances() {
    // After a run, every attached node holds exactly one channel; total
    // in-use equals the attached population.
    let world = ScenarioSpec::small_city().with_raw_seed(13).build(0);
    let n = world.mns.len();
    let mut sim = mtnet_sim::Simulator::new(world);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_millis(i as u64 * 7),
            Ev::MoveSample(MnId(i as u32)),
        );
    }
    sim.run_until(SimTime::from_secs(30));
    let world = sim.into_model();
    let attached = world
        .mns
        .hot
        .iter()
        .filter(|h| h.serving().is_some())
        .count();
    let in_use: u32 = world.cells.cells().map(|c| c.channels().in_use()).sum();
    assert_eq!(
        in_use as usize, attached,
        "channels in use must equal attached nodes"
    );
}

#[test]
fn ha_intercepts_and_tunnels() {
    // After the run, the HA must have tunneled most CN traffic (unless the
    // CN route cache bypassed it — so disable notify_cn).
    let mut cfg = WorldConfig::default();
    cfg.notify_cn = false;
    let mut b = WorldBuilder::new(cfg);
    b.add_domain(DomainSpec::default());
    park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
    let world = b.build();
    let mut sim = mtnet_sim::Simulator::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::MoveSample(MnId(0)));
    sim.schedule_at(SimTime::from_millis(50), Ev::Uplink(MnId(0)));
    sim.schedule_at(SimTime::from_millis(500), Ev::FlowNext(0));
    sim.run_until(SimTime::from_secs(10));
    let world = sim.into_model();
    let (_, _, tunneled) = world.ha.counters();
    assert!(tunneled > 100, "HA tunneled CN traffic: {tunneled}");
}

#[test]
fn vehicle_prefers_macro_pedestrian_prefers_micro() {
    let world = ScenarioSpec::commute_corridor().with_raw_seed(17).build(0);
    let n = world.mns.len();
    let mut sim = mtnet_sim::Simulator::new(world);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_millis(i as u64),
            Ev::MoveSample(MnId(i as u32)),
        );
    }
    sim.run_until(SimTime::from_secs(20));
    let world = sim.into_model();
    // Population layout: pedestrians first, then cyclists, then vehicles.
    let tier_of = |i: usize| {
        world.mns.hot[i]
            .serving()
            .map(|c| Tier::of_cell(world.cells.cell(c).expect("cell").kind()))
    };
    assert_eq!(tier_of(0), Some(Tier::Micro), "pedestrian in micro tier");
    assert_eq!(tier_of(n - 1), Some(Tier::Macro), "vehicle in macro tier");
}

#[test]
fn mnld_learns_domain_crossings() {
    let world = ScenarioSpec::commute_corridor().with_raw_seed(23).build(0);
    let duration = SimDuration::from_secs(400);
    // Run manually to inspect final MNLD state.
    let n = world.mns.len();
    let mut sim = mtnet_sim::Simulator::new(world);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_millis(i as u64 * 7),
            Ev::MoveSample(MnId(i as u32)),
        );
        sim.schedule_at(
            SimTime::from_millis(100 + i as u64 * 13),
            Ev::Uplink(MnId(i as u32)),
        );
    }
    sim.schedule_at(SimTime::from_secs(5), Ev::Sweep);
    sim.run_until(SimTime::ZERO + duration);
    let world = sim.into_model();
    let (updates, changes, ..) = world.mnld.counters();
    assert!(updates > 0, "MNLD must see RSMC notifications");
    assert!(changes >= 2, "the shuttle crossed domains: {changes}");
}

#[test]
fn signaling_scales_with_population() {
    let base = ScenarioSpec::small_city()
        .with_raw_seed(31)
        .with_duration_s(60.0);
    let small = base.clone().with_population(2, 0, 0).run(0);
    let large = base.with_population(8, 0, 0).run(0);
    assert!(
        large.signaling.route_updates > small.signaling.route_updates * 2,
        "route updates scale with nodes: {} vs {}",
        large.signaling.route_updates,
        small.signaling.route_updates
    );
}

#[test]
fn queue_overflow_counted_under_congestion() {
    // Squeeze many video flows through one domain's access links.
    let mut cfg = WorldConfig::default();
    cfg.notify_cn = true;
    let mut b = WorldBuilder::new(cfg);
    b.add_domain(DomainSpec {
        n_micro: 2,
        ..DomainSpec::default()
    });
    for i in 0..20 {
        let from = Point::new(1300.0 + i as f64, 1500.0);
        let to = Point::new(1700.0 + i as f64, 1500.0);
        let model = b.add_model(Box::new(LinearCommute::new(from, to, 1.0)));
        b.add_mn(model, from, &[FlowKind::Video]);
    }
    let report = b.build().run(SimDuration::from_secs(30));
    // 20 video flows ≈ 5 Mbit/s mean through one RSMC: some links and air
    // interfaces will hurt; at minimum traffic flowed and the report is
    // consistent.
    let q = report.aggregate_qos();
    assert!(q.sent > 10_000);
    assert!(
        q.sent as i64 - q.received as i64 >= 0,
        "received cannot exceed sent (dups filtered)"
    );
}

#[test]
fn outage_detaches_and_releases_channel() {
    // One vehicle on a flat-CIP corridor: it will leave micro coverage.
    let world = ScenarioSpec::commute_corridor()
        .with_raw_seed(37)
        .with_arch(ArchKind::FlatCellularIp)
        .with_population(0, 0, 1)
        .build(0);
    let mut sim = mtnet_sim::Simulator::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::MoveSample(MnId(0)));
    // Long enough to attach and then drive out of the strip.
    sim.run_until(SimTime::from_secs(120));
    let world = sim.into_model();
    if world.mns.hot[0].serving().is_none() {
        let in_use: u32 = world.cells.cells().map(|c| c.channels().in_use()).sum();
        assert_eq!(in_use, 0, "detached node must not hold a channel");
    }
}

#[test]
fn satellite_overlay_rescues_macro_hole() {
    // Fig 2.1's outermost tier: the rural corridor's middle domain has no
    // macro radio, so terrestrial-only vehicles hit a coverage hole; the
    // satellite overlay absorbs it.
    let base = ScenarioSpec::rural_corridor()
        .with_raw_seed(42)
        .with_duration_s(300.0);
    let terrestrial = base.run(0);
    let with_sat = base.with_satellite().run(0);
    assert!(
        terrestrial.handoffs.outage_samples > 10,
        "the macro hole must produce outages: {}",
        terrestrial.handoffs.outage_samples
    );
    assert!(
        with_sat.handoffs.outage_samples < terrestrial.handoffs.outage_samples / 5,
        "satellite must absorb the hole: {} vs {}",
        with_sat.handoffs.outage_samples,
        terrestrial.handoffs.outage_samples
    );
    assert!(
        with_sat.aggregate_qos().loss_rate < terrestrial.aggregate_qos().loss_rate,
        "satellite coverage must cut loss"
    );
    assert!(
        with_sat
            .handoffs
            .completed
            .keys()
            .any(|t| t.is_inter_domain()),
        "moving onto/off the satellite is an inter-domain handoff: {:?}",
        with_sat.handoffs.completed
    );
}

#[test]
fn persistent_indices_match_linear_scans() {
    // The O(1) lookup structures this PR introduced must agree exactly
    // with the `iter().position()`-style scans they replaced, for every
    // key that exists — and reject every key that does not.
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    b.add_domain(DomainSpec {
        center: Point::new(4500.0, 1500.0),
        ..DomainSpec::default()
    });
    park(
        &mut b,
        Point::new(1500.0, 1500.0),
        &[FlowKind::Voice, FlowKind::Web],
    );
    let from = Point::new(900.0, 1500.0);
    let shuttle = LinearCommute::new(from, Point::new(4500.0, 1500.0), 10.0).round_trip();
    let model = b.add_model(Box::new(shuttle));
    b.add_mn(model, from, &[FlowKind::Video]);
    let world = b.build();

    // Flow index ≡ position scan.
    for (i, f) in world.flows.iter().enumerate() {
        assert_eq!(world.flow_index.get(&f.flow).copied(), Some(i));
        assert_eq!(
            world.flows.iter().position(|g| g.flow == f.flow),
            world.flow_index.get(&f.flow).copied()
        );
    }
    assert_eq!(world.flow_index.get(&FlowId(999)), None);
    assert_eq!(world.flows.iter().position(|g| g.flow == FlowId(999)), None);

    // Domain indices ≡ position scans over the domain list.
    for (didx, d) in world.domains.iter().enumerate() {
        assert_eq!(
            world.rsmc_addr_domain.get(&d.rsmc.addr()).copied(),
            world
                .domains
                .iter()
                .position(|x| x.rsmc.addr() == d.rsmc.addr())
        );
        assert_eq!(
            world.rsmc_addr_domain.get(&d.rsmc.addr()).copied(),
            Some(didx)
        );
        assert_eq!(
            world.rsmc_node_domain.get(&d.rsmc_node).copied(),
            world
                .domains
                .iter()
                .position(|x| x.rsmc_node == d.rsmc_node)
        );
    }
    assert_eq!(world.rsmc_addr_domain.get(&world.cn_addr), None);

    // MN owner probe ≡ the inverse of the home-address arithmetic.
    for i in 0..world.mns.len() as u32 {
        assert_eq!(world.mn_of(home_addr(i)), Some(MnId(i)));
    }
    assert_eq!(world.mn_of(home_addr(world.mns.len() as u32)), None);
    assert_eq!(world.mn_of(world.cn_addr), None);
    assert_eq!(world.mn_of(world.ha.addr()), None);

    // Dense node/cell tables ≡ the builder's associations, both ways.
    for (cidx, bs) in world.cell_node.iter().enumerate() {
        if let Some(bs) = bs {
            assert_eq!(world.cell_of_node(*bs), Some(CellId(cidx as u32)));
            assert_eq!(world.node_of_cell(CellId(cidx as u32)), *bs);
        }
    }
}

#[test]
fn route_cache_matches_routing_tables() {
    // The RouteCache + prefix resolution in `wired_next_hop` must pick
    // exactly the hops the retired per-node routing tables would have:
    // same Dijkstra, same tie-breaks, same prefix fallbacks.
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    b.add_domain(DomainSpec {
        center: Point::new(4500.0, 1500.0),
        region: Some(1),
        ..DomainSpec::default()
    });
    park(&mut b, Point::new(1500.0, 1500.0), &[FlowKind::Voice]);
    let mut world = b.build();
    // Probe every (router, destination) pair the simulation can see:
    // node addresses, MN home addresses, and the CN/HA endpoints.
    let mut dsts: Vec<Addr> = (0..world.topo.node_count() as u32)
        .map(|n| world.topo.addr_of(NodeId(n)))
        .collect();
    dsts.extend((0..world.mns.len() as u32).map(home_addr));
    dsts.push(world.cn_addr);
    for node in 0..world.topo.node_count() as u32 {
        let node = NodeId(node);
        let table = world.topo.build_routing_table(node, &world.prefixes);
        for &dst in &dsts {
            assert_eq!(
                world.wired_next_hop(node, dst),
                table.lookup(dst),
                "divergence at {node} -> {dst:?}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// One way onto a link, one way out of the arena
// ----------------------------------------------------------------------

#[test]
fn a_packet_refused_by_a_full_tree_link_leaves_the_arena_with_its_cause() {
    use mtnet_net::{Link, LinkConfig};
    // One domain, one caller parked on the first micro cell (cell 1,
    // chained under the macro BS), nothing scheduled.
    let mut b = WorldBuilder::new(WorldConfig::default());
    b.add_domain(DomainSpec::default());
    park(&mut b, Point::new(900.0, 1500.0), &[FlowKind::Voice]);
    let mut world = b.build();
    let cell = CellId(1);
    let bs = world.node_of_cell(cell);
    let tree = world.domains[0].cip.tree();
    let (parent, gateway) = (tree.parent(bs).expect("a micro BS"), tree.gateway());
    // Both directions of the BS's tree link carry one packet at a time,
    // for most of a second, and queue none.
    let mut links = Vec::new();
    for (a, b) in [(bs, parent), (parent, bs)] {
        let id = world.topo.link_between(a, b).expect("tree link");
        *world.topo.link_mut(id).expect("known link") = Link::new(LinkConfig {
            bandwidth_bps: 1_000,
            queue_bytes: 0,
            ..LinkConfig::access()
        });
        links.push(id);
    }
    world.mns.hot[0].set_serving(Some(cell));
    let mn = home_addr(0);
    let gw_addr = world.topo.addr_of(gateway);
    let update = Payload::Cip(CipControl::RouteUpdate {
        mn,
        came_from_bs: true,
    });
    let cn = world.cn_addr;
    let mut sim = Simulator::new(world);
    let dropped = |sim: &Simulator<World>, link: usize| {
        let stats = sim.model().topo.link(links[link]).expect("known link");
        stats.stats().dropped_packets
    };

    // Two route updates enter at the BS together: the first climbs, the
    // second finds the link busy. A refused update is control — freed,
    // not a data drop.
    for _ in 0..2 {
        let pkt = sim
            .model_mut()
            .alloc_control(mn, gw_addr, SimTime::ZERO, update);
        let (node, from) = (bs, None);
        sim.schedule_at(SimTime::ZERO, Ev::Pkt { node, from, pkt });
    }
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(dropped(&sim, 0), 1, "the uplink refused the second update");
    assert_eq!(
        sim.model().arena.live(),
        0,
        "a refused update kept its slot"
    );
    assert_eq!(sim.model().report.total_drops(), 0);
    assert!(
        sim.model().domains[0].cip.locate(mn, sim.now()).is_some(),
        "the first update reached the gateway"
    );

    // Two data packets descend from the parent together along the route
    // the update installed: one is delivered, one overflows — booked once,
    // as a queue overflow.
    for seq in 0..2 {
        let now = sim.now();
        let pkt = sim
            .model_mut()
            .alloc_packet(FlowId(1), seq, cn, mn, 160, now, Payload::Data);
        let (node, from) = (parent, Some(gateway));
        sim.schedule_at(now, Ev::Pkt { node, from, pkt });
    }
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        dropped(&sim, 1),
        1,
        "the downlink refused the second packet"
    );
    assert_eq!(
        sim.model().arena.live(),
        0,
        "a refused packet kept its slot"
    );
    let world = sim.into_model();
    let overflow = [(DropCause::QueueOverflow, 1)];
    assert_eq!(world.report.drops, overflow.into_iter().collect());
    assert_eq!(world.flows[0].qos.received(), 1, "the first was delivered");
}

#[test]
fn a_full_bs_foreign_agent_denies_over_its_own_air_interface() {
    use mtnet_mobileip::{ForeignAgent, MnState};
    // Pure Mobile IP: the macro BS is the FA, and it has room for one
    // visitor. Two nodes park under it.
    let mut cfg = WorldConfig::default();
    ArchKind::PureMobileIp.apply(&mut cfg);
    let mut b = WorldBuilder::new(cfg);
    b.add_domain(DomainSpec::default());
    for _ in 0..2 {
        park(&mut b, Point::new(1500.0, 1500.0), &[]);
    }
    let mut world = b.build();
    let (&cell, fa) = world.bs_fas.iter_mut().next().expect("one BS, one FA");
    *fa = ForeignAgent::new(fa.addr()).with_max_visitors(1);
    let mut sim = world.launch();
    // Node 0 samples, attaches and registers 7 ms ahead of node 1, whose
    // request finds the FA full. The denial has no tree to descend: it
    // reaches node 1 over the BS's own radio and ends its registration
    // attempt, long before the 1 s retransmission timer could.
    sim.run_until(SimTime::from_millis(400));
    let world = sim.into_model();
    let state = |i: usize| world.mns.active(i).expect("nobody camps").mip.state();
    assert_eq!(world.mns.hot[1].serving(), Some(cell));
    assert!(
        matches!(state(0), MnState::Registered { .. }),
        "{:?}",
        state(0)
    );
    assert_eq!(state(1), MnState::Searching, "the denial never arrived");
    assert_eq!(world.bs_fas[&cell].visitor_count(), 1);
    assert_eq!(
        world.report.signaling.mip_requests, 3,
        "two sent, one at the HA"
    );
    assert_eq!(
        world.report.signaling.mip_replies, 1,
        "only node 0's, from the HA"
    );
    assert_eq!(world.arena.live(), 0, "a control packet kept its slot");
    assert_eq!(world.report.total_drops(), 0);
}

/// Runs `world` to `secs` in `checkpoints` slices and, at every stop and
/// at the end, checks each row's handoff-in-flight flag against the
/// payload map it summarizes. Returns how many in-flight rows the
/// stops saw, so callers can tell the check was not vacuous.
fn audit_handoff_flags(world: World, secs: u64, checkpoints: u64) -> (u64, SimReport) {
    let mut sim = world.launch();
    let mut seen_in_flight = 0;
    for k in 1..=checkpoints {
        sim.run_until(SimTime::from_millis(secs * 1000 * k / checkpoints));
        let mns = &sim.model().mns;
        let mut flagged = 0;
        for i in 0..mns.len() {
            let flag = mns.hot[i].handoff_in_flight();
            assert_eq!(
                flag,
                mns.has_payload(i),
                "row {i} at {:?}: flag and payload disagree",
                sim.now()
            );
            flagged += usize::from(flag);
        }
        assert_eq!(flagged, mns.payloads(), "stale payloads");
        seen_in_flight += flagged as u64;
    }
    let events = sim.events_processed();
    let report = sim
        .into_model()
        .finish_report(SimDuration::from_secs(secs), events);
    (seen_in_flight, report)
}

#[test]
fn handoff_flag_mirrors_pending_payload_in_a_city() {
    // The busiest of the city families: channel contention, fallbacks
    // and rejections on top of plain handoffs.
    let spec = crate::spec::ScenarioSpec::dense_urban();
    let (in_flight, report) = audit_handoff_flags(spec.build(42), 30, 499);
    assert!(report.handoffs.total() > 20, "{:?}", report.handoffs);
    assert!(in_flight > 0, "no checkpoint caught a handoff in flight");
    // The sliced run is the same run.
    assert_eq!(
        report.fingerprint(),
        spec.build(42).run(SimDuration::from_secs(30)).fingerprint()
    );
}

#[test]
fn handoff_flag_mirrors_pending_payload_in_a_metro() {
    let mut spec = crate::spec::ScenarioSpec::metro_smoke();
    spec.duration_s = 20.0;
    let (in_flight, report) = audit_handoff_flags(spec.build(42), 20, 499);
    assert!(report.handoffs.total() > 1000, "{:?}", report.handoffs);
    assert!(in_flight > 0, "no checkpoint caught a handoff in flight");
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

fn faulted_city_spec() -> crate::spec::ScenarioSpec {
    use crate::spec::{CellOutage, FaultSpec, LinkFlap, RsmcFailover};
    crate::spec::ScenarioSpec::small_city().with_faults(FaultSpec {
        cell_outages: vec![CellOutage {
            cell: 1,
            start_s: 3.0,
            end_s: 8.0,
        }],
        link_flaps: vec![LinkFlap {
            domain: 0,
            start_s: 2.0,
            period_s: 5.0,
            duty: 0.4,
            jitter_s: 1.0,
            count: 3,
        }],
        rsmc_failovers: vec![RsmcFailover {
            domain: 2,
            at_s: 10.0,
            takeover_s: Some(4.0),
        }],
        eclipses: Vec::new(),
    })
}

#[test]
fn fault_plan_is_sorted_with_paired_alternating_flap_edges() {
    let world = faulted_city_spec().build(42);
    let plan = &world.fault_plan;
    assert!(!plan.is_empty());
    for w in plan.windows(2) {
        assert!(w[0].0 <= w[1].0, "plan not time-sorted: {plan:?}");
    }
    // Per flapped link, the edge stream alternates down/up starting with
    // down — strictly ordered, so every down is paired with its restore.
    let mut last: Option<(SimTime, bool)> = None;
    let mut edges = 0;
    for (t, action) in plan {
        let FaultAction::Link { down, .. } = action else {
            continue;
        };
        edges += 1;
        if let Some((pt, pdown)) = last {
            assert!(pt < *t, "flap edges must be strictly ordered");
            assert_ne!(pdown, *down, "flap edges must alternate");
        } else {
            assert!(*down, "a flap starts with a down edge");
        }
        last = Some((*t, *down));
    }
    assert_eq!(edges, 6, "count=3 cycles produce 3 down/up pairs");
    assert_eq!(last.map(|(_, d)| d), Some(false), "last edge restores");
    // Jitter draws are a pure function of the world seed.
    let again = faulted_city_spec().build(42);
    let times: Vec<SimTime> = plan.iter().map(|(t, _)| *t).collect();
    let times2: Vec<SimTime> = again.fault_plan.iter().map(|(t, _)| *t).collect();
    assert_eq!(times, times2);
}

#[test]
fn faults_fire_and_are_fully_accounted() {
    let report = faulted_city_spec()
        .with_duration_s(20.0)
        .build(42)
        .run(SimDuration::from_secs(20));
    let f = &report.faults;
    assert_eq!(f.cell_transitions, 2, "outage window: down + restore");
    assert_eq!(f.link_transitions, 6, "3 flap cycles, every edge applied");
    assert_eq!(f.rsmc_kills, 1);
    assert_eq!(f.rsmc_takeovers, 1);
    assert_eq!(f.eclipse_transitions, 0);
    assert!(
        f.recovery_latency_ms.count() > 0,
        "restores must arm recovery measurements"
    );
    assert!(
        report
            .fingerprint()
            .contains("faults: cells=2 links=6 kills=1"),
        "fault section in fingerprint:\n{}",
        report.fingerprint()
    );
}

#[test]
fn downed_macro_reroutes_or_drops_but_never_serves() {
    // While domain 0's macro (cell 1) is down, no MN may be attached to
    // it; after the restore the cell serves again. Run a vehicle that
    // prefers the macro tier.
    use crate::spec::{CellOutage, FaultSpec};
    let spec = crate::spec::ScenarioSpec::small_city()
        .with_population(0, 0, 2)
        .with_faults(FaultSpec {
            cell_outages: vec![CellOutage {
                cell: 1,
                start_s: 2.0,
                end_s: 40.0,
            }],
            ..FaultSpec::default()
        })
        .with_duration_s(60.0);
    let report = spec.build(7).run(SimDuration::from_secs(60));
    assert_eq!(report.faults.cell_transitions, 2);
    // The world survives: traffic still flows (micro fallback), and the
    // outage window attributes its data drops.
    assert!(report.aggregate_qos().received > 0, "world kept serving");
}

// ----------------------------------------------------------------------
// Sharded execution (conservative time-window parallelism)
// ----------------------------------------------------------------------

#[test]
fn sharded_run_is_byte_identical_to_sequential() {
    let spec = crate::spec::ScenarioSpec::small_city().with_duration_s(12.0);
    let duration = SimDuration::from_secs_f64(12.0);
    let sequential = spec.build(42).run(duration).fingerprint();
    // Requested counts above the two ownership groups clamp; all must
    // reproduce the sequential fingerprint bit for bit.
    for shards in [2u32, 4, 8] {
        let sharded = run_sharded(|| spec.build(42), duration, shards).fingerprint();
        assert_eq!(sequential, sharded, "shards={shards}");
    }
    // shards <= 1 falls through to the sequential engine.
    let one = run_sharded(|| spec.build(42), duration, 1).fingerprint();
    assert_eq!(sequential, one);
}

/// Runs `spec` sharded down both window paths — every window handed to
/// the worker thread (threshold 0) and every window inline on the
/// calling thread (threshold `u64::MAX`) — and demands the sequential
/// engine's fingerprint from each. Unit-test worlds never reach the
/// production threshold on their own, so the paths are forced and the
/// hand-over counter proves which one ran. Returns the fingerprint.
fn assert_both_window_paths_match_sequential(spec: &crate::spec::ScenarioSpec) -> String {
    use super::shard::{run_sharded_with, HANDED_OVER};
    let duration = SimDuration::from_secs_f64(spec.duration_s);
    let sequential = spec.build(42).run(duration).fingerprint();
    for (min_window_events, hands_over) in [(0, true), (u64::MAX, false)] {
        let before = HANDED_OVER.with(|n| n.get());
        let sharded = run_sharded_with(|| spec.build(42), duration, 2, min_window_events);
        let handed_over = HANDED_OVER.with(|n| n.get()) - before;
        assert_eq!(
            sequential,
            sharded.fingerprint(),
            "{} at threshold {min_window_events}",
            spec.name
        );
        assert_eq!(
            handed_over > 0,
            hands_over,
            "{} at threshold {min_window_events}: {handed_over} windows handed over",
            spec.name
        );
    }
    sequential
}

#[test]
fn sharded_run_is_byte_identical_under_faults() {
    // Fault edges are replicated on both halves: link state, cell state
    // and every resilience metric must still merge exactly.
    let spec = faulted_city_spec().with_duration_s(20.0);
    let sequential = assert_both_window_paths_match_sequential(&spec);
    assert!(
        sequential.contains("faults: cells=2"),
        "fault machinery fired in the comparison:\n{sequential}"
    );
}

#[test]
fn both_window_paths_match_sequential_on_every_architecture() {
    for arch in [
        ArchKind::multi_tier(),
        ArchKind::multi_tier_hard(),
        ArchKind::PureMobileIp,
        ArchKind::FlatCellularIp,
    ] {
        let spec = crate::spec::ScenarioSpec::small_city()
            .with_arch(arch)
            .with_duration_s(12.0);
        assert_both_window_paths_match_sequential(&spec);
    }
}

#[test]
fn both_window_paths_match_sequential_in_a_metro() {
    let spec = crate::spec::ScenarioSpec::metro_smoke().with_duration_s(12.0);
    assert_both_window_paths_match_sequential(&spec);
}

#[test]
fn run_sharded_builds_its_world_exactly_once() {
    let spec = crate::spec::ScenarioSpec::small_city().with_duration_s(2.0);
    let duration = SimDuration::from_secs(2);
    for shards in [1u32, 2, 4, 8] {
        let builds = std::cell::Cell::new(0);
        run_sharded(
            || {
                builds.set(builds.get() + 1);
                spec.build(42)
            },
            duration,
            shards,
        );
        assert_eq!(builds.get(), 1, "shards={shards}");
    }
    // A world without a domain has no link across the cut: it cannot be
    // sharded and runs on the sequential engine.
    let builds = std::cell::Cell::new(0);
    run_sharded(
        || {
            builds.set(builds.get() + 1);
            WorldBuilder::new(WorldConfig::default()).build()
        },
        duration,
        2,
    );
    assert_eq!(builds.get(), 1, "unshardable world");
}

/// Runs a sabotaged small city sharded with every window handed over: a
/// panic on either thread must come back as a panic, not leave the other
/// side parked (a hang here is the failure).
fn run_sharded_sabotaged(sabotage: impl FnOnce(&mut World)) {
    let spec = crate::spec::ScenarioSpec::small_city().with_duration_s(2.0);
    let build = || {
        let mut world = spec.build(42);
        sabotage(&mut world);
        world
    };
    super::shard::run_sharded_with(build, SimDuration::from_secs(2), 2, 0);
}

#[test]
#[should_panic(expected = "backbone half panicked")]
fn a_panic_on_the_worker_thread_reaches_the_caller() {
    // The CN's route column moves to the backbone half, whose first
    // `FlowNext` then indexes past its end — on the worker.
    run_sharded_sabotaged(|world| world.cn_route.clear());
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn a_panic_on_the_calling_thread_releases_the_worker() {
    // The access half's first `MoveSample` indexes an empty hot column
    // while the worker holds, or waits for, a window.
    run_sharded_sabotaged(|world| world.mns.hot.clear());
}

#[test]
fn the_split_puts_every_subscriber_column_on_one_side() {
    let mut world = crate::spec::ScenarioSpec::small_city().build(42);
    let n = world.mns.len();
    assert!(n > 0 && world.cn_route.len() == n);
    let twin = world.backbone_twin();
    // The backbone half knows who each row is and nothing else about it.
    let t = &twin.mns;
    assert!(t.hot.is_empty() && t.prev_cell.is_empty());
    assert!(t.last_paging_update.is_empty());
    assert_eq!(
        t.active_rows(),
        0,
        "protocol state stays on the access half"
    );
    assert_eq!(t.len(), n);
    assert_eq!(t.has_flow, world.mns.has_flow);
    // The CN's route column went with it; the access half keeps none.
    assert_eq!(twin.cn_route.len(), n);
    assert!(world.cn_route.is_empty());
    assert_eq!(world.mns.hot.len(), n, "the access half keeps its rows");
}

#[test]
fn spec_shards_knob_selects_the_parallel_engine() {
    let spec = crate::spec::ScenarioSpec::small_city().with_duration_s(10.0);
    let sequential = spec.run(42).fingerprint();
    let sharded = spec.clone().with_shards(4).run(42).fingerprint();
    assert_eq!(sequential, sharded);
}

#[test]
fn parse_shard_count_rejects_hostile_input() {
    use super::shard::parse_shard_count;
    assert_eq!(parse_shard_count("2"), Ok(2));
    assert_eq!(parse_shard_count(" 8 "), Ok(8));
    let twenty_digits = "9".repeat(20);
    for bad in [
        "",
        " ",
        "0",
        "+4",
        "-1",
        "1e3",
        "4 2",
        &twenty_digits,
        "\u{663}", // ARABIC-INDIC DIGIT THREE
        "4\0",
        "\x004",
        "0x10",
    ] {
        let err = parse_shard_count(bad).expect_err(bad);
        assert!(err.contains("--shards"), "{bad:?}: {err}");
    }
}

// ----------------------------------------------------------------------
// Tick waves (same-instant MoveSample / Uplink ties run together)
// ----------------------------------------------------------------------

fn mean_move_wave(probe: &WaveProbe) -> f64 {
    probe.move_members as f64 / probe.move_waves as f64
}

/// Runs `spec` with tick waves and as its own one-event-at-a-time oracle,
/// demands identical results, and hands back the waved run's probe and
/// report.
fn run_waved_and_serial(spec: &crate::spec::ScenarioSpec) -> (WaveProbe, SimReport) {
    let duration = SimDuration::from_secs_f64(spec.duration_s);
    let run = |take_no_ties: bool| {
        let mut world = spec.build(42);
        world.wave_probe.take_no_ties = take_no_ties;
        let mut sim = world.launch();
        sim.run_until(SimTime::ZERO + duration);
        let events = sim.events_processed();
        let mut world = sim.into_model();
        let probe = std::mem::take(&mut world.wave_probe);
        (probe, world.finish_report(duration, events))
    };
    let (serial_probe, serial) = run(true);
    let (probe, waved) = run(false);
    assert_eq!(serial_probe.move_waves, serial_probe.move_members);
    assert_eq!(probe.move_members, serial_probe.move_members);
    assert_eq!(waved.events_processed, serial.events_processed);
    assert_eq!(waved.fingerprint(), serial.fingerprint());
    (probe, waved)
}

/// 1 000 random-waypoint nodes sampled every 100 ms: past
/// `LEGACY_STAGGER_MAX`, so the stagger wraps and ten nodes share every
/// millisecond instant. They drive rather than walk, so legs roll over
/// and cells change within seconds; nobody camps, so every handoff goes
/// through channel admission, and every tenth node carries a voice call,
/// so packets are in flight around the waves. The 250 ms semisoft delay
/// keeps a handing-off node in flight across two of its own samples.
fn wave_city_spec() -> crate::spec::ScenarioSpec {
    crate::spec::ScenarioSpec {
        n_domains: 4,
        pedestrians: 1_000,
        voice_every: 10,
        move_sample_ms: Some(100),
        pedestrian_class: mtnet_mobility::SpeedClass::UrbanVehicle,
        pedestrian_pause_s: 0.5,
        semisoft_delay_ms: Some(250),
        idle_camping: false,
        duration_s: 6.0,
        load_curve: None,
        ..crate::spec::ScenarioSpec::metro_smoke()
    }
}

#[test]
fn tick_waves_equal_one_at_a_time_in_a_metro() {
    let mut spec = crate::spec::ScenarioSpec::metro_smoke();
    spec.duration_s = 12.0;
    let (probe, report) = run_waved_and_serial(&spec);
    // 10 000 nodes over a 5 000 ms stagger: two per instant (a little
    // under in the first cycle, where other initial events interleave).
    assert!(mean_move_wave(&probe) > 1.5, "{probe:?}");
    assert!(report.handoffs.total() > 500, "{:?}", report.handoffs);
}

#[test]
fn tick_waves_equal_one_at_a_time_with_handoffs_in_flight() {
    let (probe, report) = run_waved_and_serial(&wave_city_spec());
    assert!(mean_move_wave(&probe) >= 4.0, "{probe:?}");
    assert!(
        probe.move_members_in_flight > 100,
        "waves held too few members with a handoff in flight: {probe:?}"
    );
    assert!(report.handoffs.total() > 1000, "{:?}", report.handoffs);
    assert!(report.aggregate_qos().received > 0, "voice flowed");
}

#[test]
fn tick_waves_have_one_member_in_a_faulted_city() {
    let spec = faulted_city_spec().with_duration_s(20.0);
    let (probe, report) = run_waved_and_serial(&spec);
    assert_eq!(
        probe.move_waves, probe.move_members,
        "legacy stagger never ties"
    );
    assert!(probe.move_waves > 0);
    assert_eq!(report.faults.link_transitions, 6);
}

#[test]
fn a_wave_member_with_a_handoff_in_flight_is_not_sampled() {
    let spec = wave_city_spec();
    let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(4));
    // Control run: find a node idle at t1 whose cursor or RNG moves by t2.
    let mut control = spec.build(42).launch();
    control.run_until(t1);
    let n = control.model().mns.len();
    let before: Vec<String> = (0..n)
        .map(|i| control.model().mns.motion_state(i))
        .collect();
    let idle: Vec<bool> = (0..n)
        .map(|i| !control.model().mns.hot[i].handoff_in_flight())
        .collect();
    control.run_until(t2);
    let i = (0..n)
        .find(|&i| idle[i] && control.model().mns.motion_state(i) != before[i])
        .expect("some idle node rolls a leg within three seconds");
    // Same run, but node i has a handoff in flight from t1 on (no Attach
    // is scheduled, so it stays in flight): thirty waves pass over it.
    let mut sim = spec.build(42).launch();
    sim.run_until(t1);
    assert_eq!(sim.model().mns.motion_state(i), before[i]);
    let serving = sim.model().mns.hot[i].serving();
    sim.model_mut().mns.begin_handoff(
        i,
        PendingAttach {
            target: serving.unwrap_or(CellId(0)),
            old: serving,
            htype: None,
            decided_at: t1,
            holds_channel: false,
        },
    );
    let skipped = sim.model().wave_probe.move_members_in_flight;
    sim.run_until(t2);
    assert_eq!(
        sim.model().mns.motion_state(i),
        before[i],
        "an in-flight wave member had its cursor or RNG advanced"
    );
    let probe = &sim.model().wave_probe;
    assert!(probe.move_members_in_flight >= skipped + 29, "{probe:?}");
    assert!(mean_move_wave(probe) >= 4.0, "{probe:?}");
}

// ----------------------------------------------------------------------
// Idle rows and active rows (protocol state only for nodes that do not
// camp)
// ----------------------------------------------------------------------

/// Runs `spec` as built and as its own dense-table oracle — every
/// camping row given the protocol state it would have had if nobody
/// camped, so the handlers run their `MnActive` arms for camping nodes
/// too — and demands identical results. In the dense run a camping
/// node's protocol state must also end where it started: the reason
/// skipping it is exact. Returns how many nodes camped, and the report.
fn run_sparse_and_dense(spec: &ScenarioSpec) -> (usize, SimReport) {
    use mtnet_mobileip::MnState;
    let duration = SimDuration::from_secs_f64(spec.duration_s);
    let run = |dense: bool| {
        let mut world = spec.build(42);
        let n = world.mns.len();
        let camping = (0..n).filter(|&i| world.camps(i)).count();
        assert_eq!(world.mns.active_rows(), n - camping);
        if dense {
            world.mns.densify(world.ha.addr(), world.cfg.cip_timers);
            assert_eq!(world.mns.active_rows(), n);
        }
        let mut sim = world.launch();
        sim.run_until(SimTime::ZERO + duration);
        let events = sim.events_processed();
        let world = sim.into_model();
        // Camping nodes went through `handle_attach`, not around it.
        let attached = |i: &usize| world.camps(*i) && world.mns.hot[*i].serving().is_some();
        assert!(camping == 0 || (0..n).filter(attached).count() > camping / 2);
        for i in (0..n).filter(|&i| world.camps(i)) {
            let Some(active) = world.mns.active(i) else {
                assert!(!dense, "row {i} lost its densified state");
                continue;
            };
            assert!(dense, "camping row {i} has protocol state");
            assert!(
                matches!(active.mip.state(), MnState::Home | MnState::Searching),
                "camping row {i} reached {:?}",
                active.mip.state()
            );
            assert_eq!(active.channel_cell, None, "camping row {i}");
            assert!(active.auth.is_empty(), "camping row {i}");
        }
        (camping, world.finish_report(duration, events))
    };
    let (camping, sparse) = run(false);
    let (_, dense) = run(true);
    assert_eq!(sparse.events_processed, dense.events_processed);
    assert_eq!(sparse.fingerprint(), dense.fingerprint(), "{}", spec.name);
    (camping, sparse)
}

/// A small city where two nodes in three camp.
fn camping_city_spec() -> ScenarioSpec {
    ScenarioSpec {
        voice_every: 3,
        video_every: 0,
        idle_camping: true,
        ..ScenarioSpec::small_city()
    }
    .with_duration_s(120.0)
}

#[test]
fn dense_table_oracle_matches_in_a_metro() {
    let spec = ScenarioSpec::metro_smoke().with_duration_s(12.0);
    let (camping, report) = run_sparse_and_dense(&spec);
    assert!(camping > 9_000, "{camping} of 10 000 camp");
    assert!(report.handoffs.total() > 500, "{:?}", report.handoffs);
}

#[test]
fn dense_table_oracle_matches_in_a_camping_city() {
    let (camping, report) = run_sparse_and_dense(&camping_city_spec());
    assert_eq!(camping, 6);
    assert!(report.handoffs.total() > 0, "{:?}", report.handoffs);
    assert!(
        report.aggregate_qos().received > 0,
        "the callers' voice flowed"
    );
}

#[test]
fn dense_table_oracle_matches_in_a_faulted_city() {
    // Cell outages push camping nodes through the outage arm of the move
    // sample, RSMC failover through the authentication arm of the attach.
    let spec = ScenarioSpec {
        faults: faulted_city_spec().faults,
        ..camping_city_spec()
    };
    let (camping, report) = run_sparse_and_dense(&spec);
    assert_eq!(camping, 6);
    assert_eq!(report.faults.rsmc_kills, 1);
    // And the stock faulted city, where nobody camps: fully dense as
    // built, so the oracle is the identity.
    let (camping, _) = run_sparse_and_dense(&faulted_city_spec().with_duration_s(20.0));
    assert_eq!(camping, 0);
}

#[test]
fn a_row_has_protocol_state_exactly_when_it_does_not_camp() {
    // Random populations and flow plans, with and without idle camping.
    let mut rng = RngStream::derive(42, "active-slot-property");
    for case in 0..64 {
        let idle_camping = rng.chance(0.75);
        let mut b = WorldBuilder::new(WorldConfig {
            idle_camping,
            ..WorldConfig::default()
        });
        b.add_domain(DomainSpec::default());
        let n = rng.index(40);
        if rng.chance(0.5) {
            b.reserve_mns(n);
        }
        let kinds = [FlowKind::Voice, FlowKind::Video, FlowKind::Web];
        let plans: Vec<Vec<FlowKind>> = (0..n)
            .map(|_| {
                // Half the nodes source nothing, the rest any subset.
                let mask = if rng.chance(0.5) { 0 } else { rng.index(8) };
                (0..3)
                    .filter(|k| mask >> k & 1 == 1)
                    .map(|k| kinds[k])
                    .collect()
            })
            .collect();
        for plan in &plans {
            park(&mut b, Point::new(1500.0, 1500.0), plan);
        }
        let world = b.build();
        let mut active = 0;
        for (i, plan) in plans.iter().enumerate() {
            let camps = idle_camping && plan.is_empty();
            assert_eq!(world.camps(i), camps, "case {case} row {i}");
            assert_eq!(world.mns.active(i).is_none(), camps, "case {case} row {i}");
            active += usize::from(!camps);
        }
        assert_eq!(world.mns.active_rows(), active, "case {case}");
    }
}

/// A hand-built camping street: 120 nodes driving random waypoints over
/// two domains' street rows with 2 s pauses, every 40th on a voice call.
/// With `shared`, every node walks one registered model; without, each
/// gets a model of its own, started where the node starts — the world
/// before models were shared.
fn camping_street(shared: bool) -> World {
    use mtnet_mobility::{RandomWaypoint, Rect, SpeedClass};
    let mut b = WorldBuilder::new(WorldConfig {
        seed: 7,
        idle_camping: true,
        ..WorldConfig::default()
    });
    b.add_domain(DomainSpec::default());
    b.add_domain(DomainSpec {
        center: Point::new(4500.0, 1500.0),
        ..DomainSpec::default()
    });
    let area = Rect::new(Point::new(700.0, 1250.0), Point::new(5300.0, 1750.0));
    let walk =
        RandomWaypoint::new(area, SpeedClass::UrbanVehicle).with_pause(SimDuration::from_secs(2));
    let one = b.add_model(Box::new(walk.clone()));
    for i in 0..120 {
        let start = Point::new(700.0 + (i as f64 * 163.0) % 4600.0, 1500.0);
        let model = if shared {
            one
        } else {
            b.add_model(Box::new(walk.clone().with_start(start)))
        };
        let flows: &[FlowKind] = if i % 40 == 0 { &[FlowKind::Voice] } else { &[] };
        b.add_mn(model, start, flows);
    }
    b.build()
}

#[test]
fn nodes_sharing_one_model_run_as_nodes_with_their_own() {
    let duration = SimDuration::from_secs(120);
    let (shared, own) = (camping_street(true), camping_street(false));
    assert_eq!((shared.mns.model_count(), own.mns.model_count()), (1, 121));
    let (shared, own) = (shared.run(duration), own.run(duration));
    assert_eq!(shared.events_processed, own.events_processed);
    assert_eq!(shared.fingerprint(), own.fingerprint());
    assert!(shared.handoffs.total() > 100, "{:?}", shared.handoffs);
    assert!(
        shared.aggregate_qos().received > 0,
        "the callers' voice flowed"
    );
}
