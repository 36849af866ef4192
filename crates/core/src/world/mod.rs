//! The packet-level simulation world tying every subsystem together.
//!
//! One [`World`] is one experiment arm: a wired topology (Internet, home
//! network with HA and CN, per-domain access networks), a radio cell map,
//! the multi-tier hierarchy with its cell tables, Mobile IP entities,
//! per-domain Cellular IP trees with (optional) RSMCs, and a population of
//! mobile nodes with multimedia flows.
//!
//! The same world type runs the paper's architecture **and** the baselines
//! (pure Mobile IP, flat Cellular IP) — the [`WorldConfig`] flags select
//! which machinery is active, so comparisons differ only in the mechanism
//! under test.
//!
//! `World` is one flat struct; its `impl` is split by **who owns the
//! event** along Fig 4.1's cut — `backbone` (CN, HA), `access` (a
//! domain's tree, RSMC and radio), `mobile` (the nodes' own ticks),
//! `faults` (replicated) and the `wire` they all share — each module's
//! header naming its events and the columns it reads and writes; `audit`
//! checks what a world between events must satisfy. This file keeps the
//! struct, [`Ev`] and its dispatch, the replicated sweep, and launch /
//! twin / report.

mod access;
mod audit;
mod backbone;
mod build;
mod faults;
pub(crate) mod mn;
mod mobile;
pub mod shard;
mod wire;

pub use build::{DomainSpec, FlowKind, ModelId, WorldBuilder};
pub use shard::run_sharded;

use faults::FaultAction;
use mn::MnTable;

use crate::arena::{PacketArena, PacketRef};
use crate::handoff::{Candidate, HandoffEngine, HandoffType};
use crate::hierarchy::{DomainId, Hierarchy};
use crate::location::LocationDirectory;
use crate::messages::MnId;
use crate::mnld::Mnld;
use crate::report::SimReport;
use crate::rsmc::Rsmc;
use mtnet_cellularip::{CipNetwork, CipTimers, HandoffKind, SemisoftController};
use mtnet_mobileip::{ForeignAgent, HomeAgent};
use mtnet_mobility::Point;
use mtnet_net::{Addr, FlowId, NodeId, RouteCache, Topology};
use mtnet_radio::{CellId, CellMap, Measurement};
use mtnet_sim::{Context, FxHashMap, LaneId, Model, RngStream, SimDuration, SimTime, Simulator};
use mtnet_traffic::{ArrivalProcess, Cbr, FlowQos, OnOffVbr, ParetoWeb};

/// Architecture and protocol switches for one experiment arm.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Master seed for every random stream.
    pub seed: u64,
    /// Deploy macro cells (macro-tier present).
    pub has_macro: bool,
    /// Deploy micro cells (micro-tier present).
    pub has_micro: bool,
    /// RSMCs active (location cache + HA/CN notification, §4).
    pub rsmc_enabled: bool,
    /// RSMC notifies the CN as well as the HA (route optimization).
    pub notify_cn: bool,
    /// Pure Mobile IP mode: no Cellular IP at all, every BS is its own FA.
    pub mip_only: bool,
    /// Micro-tier handoff scheme (hard vs semisoft).
    pub handoff_kind: HandoffKind,
    /// Which §3.2 factors the decision engine uses.
    pub factors: crate::handoff::HandoffFactors,
    /// Decision thresholds.
    pub decision: crate::handoff::DecisionConfig,
    /// Cellular IP timers.
    pub cip_timers: CipTimers,
    /// Overrides the mobile node's route-update transmit period without
    /// touching the network's cache lifetimes — the paper's
    /// "route-update-time" is an MN knob, the cache timeout a network one.
    pub route_update_period: Option<SimDuration>,
    /// Mobility measurement period.
    pub move_sample: SimDuration,
    /// Location Message period (§3.1).
    pub location_period: SimDuration,
    /// Cell-table record time-limitation.
    pub table_lifetime: SimDuration,
    /// One-way air-interface latency (excluding serialization).
    pub air_delay: SimDuration,
    /// Radio retune time for a hard handoff.
    pub retune_delay: SimDuration,
    /// World-level aggregate QoS (metro scale): per-flow trackers skip
    /// their delay distribution and every delivered packet's delay
    /// streams into one constant-memory
    /// [`crate::report::AggregateQos`] accumulator instead. Loss, jitter
    /// and throughput stay per-flow either way.
    pub aggregate_qos: bool,
    /// Deterministic diurnal load curve stretching flow inter-arrival
    /// gaps off-peak. `None` (the default) leaves traffic untouched.
    pub load_curve: Option<LoadCurve>,
    /// Metro-tier admission semantics: nodes without traffic flows camp
    /// on their serving cell (paging-level attachment, Cellular IP's
    /// idle state) instead of holding one of the cell's traffic
    /// channels. Channel pools then track the *active* population only —
    /// a million idle subscribers no longer exhaust ~10^4 channels. Off
    /// by default: every node competes for a channel, the historical
    /// behaviour E1–E13 are pinned to.
    pub idle_camping: bool,
}

/// A commute-hour load curve: a pure function of simulated time that
/// multiplies flow inter-arrival gaps, full load at the rush-hour peak
/// (mid-period) and `off_peak_factor`-times-longer gaps at the trough.
///
/// Being a pure function of `now`, the curve is identical on every
/// thread and shard — determinism is untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadCurve {
    /// Length of one diurnal cycle (peak sits at half this).
    pub period: SimDuration,
    /// Gap multiplier at the trough; must be >= 1 (1 = flat).
    pub off_peak_factor: f64,
}

impl LoadCurve {
    /// The arrival-gap multiplier at `now`:
    /// `1 + (off_peak_factor - 1) · cos²(π·t/period)` — 1.0 at the
    /// mid-period peak, `off_peak_factor` at the period edges.
    pub fn gap_multiplier(&self, now: SimTime) -> f64 {
        let t = now.as_nanos() as f64 / self.period.as_nanos().max(1) as f64;
        let c = (std::f64::consts::PI * t).cos();
        1.0 + (self.off_peak_factor - 1.0) * c * c
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            has_macro: true,
            has_micro: true,
            rsmc_enabled: true,
            notify_cn: true,
            mip_only: false,
            handoff_kind: HandoffKind::default_semisoft(),
            factors: crate::handoff::HandoffFactors::all(),
            decision: crate::handoff::DecisionConfig::default(),
            cip_timers: CipTimers::default(),
            route_update_period: None,
            move_sample: SimDuration::from_millis(200),
            location_period: SimDuration::from_secs(2),
            table_lifetime: SimDuration::from_secs(6),
            air_delay: SimDuration::from_millis(2),
            retune_delay: SimDuration::from_millis(10),
            aggregate_qos: false,
            load_curve: None,
            idle_camping: false,
        }
    }
}

/// Per-domain protocol state.
#[derive(Debug, Clone)]
pub(crate) struct DomainState {
    pub(crate) id: DomainId,
    pub(crate) rsmc: Rsmc,
    pub(crate) fa: ForeignAgent,
    pub(crate) cip: CipNetwork,
    pub(crate) semisoft: SemisoftController,
    pub(crate) rsmc_node: NodeId,
    /// False while a fault-injected RSMC crash is outstanding: the dead
    /// RSMC answers no control traffic and tracks no locations until the
    /// standby takes over (plain gateway routing keeps working — the
    /// fault is control-plane death, not a line cut).
    pub(crate) rsmc_alive: bool,
}

/// An in-flight handoff (decided, radio not yet retuned).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingAttach {
    target: CellId,
    old: Option<CellId>,
    htype: Option<HandoffType>,
    decided_at: SimTime,
    /// False when the node is camping (idle, `idle_camping` worlds): the
    /// attach completes without occupying a traffic channel.
    holds_channel: bool,
}

/// Latency measurement awaiting its completion signal.
#[derive(Debug, Clone, Copy)]
struct PendingLatency {
    htype: HandoffType,
    decided_at: SimTime,
}

#[derive(Clone)]
enum FlowGen {
    Cbr(Cbr),
    Vbr(OnOffVbr),
    Web(ParetoWeb),
}

impl FlowGen {
    fn next(&mut self, rng: &mut RngStream) -> mtnet_traffic::Arrival {
        match self {
            FlowGen::Cbr(g) => g.next_arrival(rng),
            FlowGen::Vbr(g) => g.next_arrival(rng),
            FlowGen::Web(g) => g.next_arrival(rng),
        }
    }
}

#[derive(Clone)]
struct FlowSim {
    flow: FlowId,
    /// The flow's mobile node.
    mn: MnId,
    gen: FlowGen,
    qos: FlowQos,
    seq: u64,
    rng: RngStream,
}

/// Simulation events.
#[derive(Debug)]
pub enum Ev {
    /// A packet arrives at a wired node (`from` is the upstream node;
    /// `None` marks packets entering from the air interface or originated
    /// locally).
    Pkt {
        /// Node the packet arrived at.
        node: NodeId,
        /// Upstream node, if any.
        from: Option<NodeId>,
        /// The packet: an 8-byte generational handle into the world's
        /// [`PacketArena`] — events stay small and packet lifecycles
        /// never touch the allocator.
        pkt: PacketRef,
    },
    /// A downlink air transmission reaches a mobile node.
    AirDown {
        /// Destination node.
        mn: MnId,
        /// Transmitting cell.
        cell: CellId,
        /// The packet (an arena handle, as in [`Ev::Pkt`]).
        pkt: PacketRef,
    },
    /// Periodic mobility measurement for one node.
    MoveSample(MnId),
    /// Periodic uplink maintenance (route/paging updates, MIP upkeep).
    Uplink(MnId),
    /// Periodic Location Message (§3.1).
    LocationTick(MnId),
    /// Next packet of a flow.
    FlowNext(usize),
    /// Radio retune completes; the node attaches to its pending target.
    Attach(MnId),
    /// Periodic cache sweep.
    Sweep,
    /// A scheduled fault transition fires: the index into the world's
    /// compiled fault plan (see `World::install_fault_plan`).
    Fault(usize),
}

/// The simulation world (see module docs).
pub struct World {
    pub(crate) cfg: WorldConfig,
    pub(crate) topo: Topology,
    /// Min-delay route cache: one Dijkstra per source per topology
    /// generation, O(1) next hops afterwards (replaces the per-node
    /// longest-prefix routing tables on the wired fast path).
    pub(crate) routes: RouteCache,
    /// Prefix-owned address space (home network, per-domain subnets):
    /// destinations that are not topology nodes route toward the owner of
    /// the longest containing prefix with a usable route. Stored as one
    /// masked map `network → owner` per distinct prefix length, longest
    /// length first. Equal-length prefixes are disjoint, so probing the
    /// maps in order visits containing prefixes in exactly a
    /// longest-first scan's order — O(distinct lengths) per lookup instead
    /// of O(prefix count) (249 entries in a metro world, walked per
    /// forwarded hop).
    pub(crate) prefix_probe: Vec<(u32, FxHashMap<u32, NodeId>)>,
    pub(crate) cells: CellMap,
    /// BS node of each cell, indexed densely by cell id (per-packet hot).
    pub(crate) cell_node: Vec<Option<NodeId>>,
    /// Cell served by each BS node, indexed densely by node id.
    pub(crate) node_cell: Vec<Option<CellId>>,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) locdir: LocationDirectory,
    pub(crate) domains: Vec<DomainState>,
    /// Domain of each cell, indexed densely by cell id.
    pub(crate) cell_domain: Vec<Option<usize>>,
    /// Domain of each access-network node, indexed densely by node id.
    pub(crate) node_domain: Vec<Option<usize>>,
    /// RSMC address → domain index (the `iter().position()` scans this
    /// replaces ran per RSMC-addressed packet).
    pub(crate) rsmc_addr_domain: FxHashMap<Addr, usize>,
    /// RSMC/gateway node → domain index.
    pub(crate) rsmc_node_domain: FxHashMap<NodeId, usize>,
    pub(crate) ha: HomeAgent,
    /// The Internet core every domain's RSMC and the home network hang
    /// off (Fig 4.1).
    pub(crate) internet_node: NodeId,
    pub(crate) ha_node: NodeId,
    pub(crate) cn_node: NodeId,
    pub(crate) cn_addr: Addr,
    pub(crate) mnld: Mnld,
    /// Pure-Mobile-IP mode: one FA per BS.
    pub(crate) bs_fas: FxHashMap<CellId, ForeignAgent>,
    /// The mobile-node population, stored structure-of-arrays (one
    /// column per field, indexed by [`MnId`]); home addresses are
    /// arithmetic (`mn::home_addr`), so the per-hop `mn_of` probe is a
    /// few integer ops with no side index.
    pub(crate) mns: MnTable,
    flows: Vec<FlowSim>,
    /// FlowId → index into `flows`, so per-packet delivery is O(1).
    pub(crate) flow_index: FxHashMap<FlowId, usize>,
    /// CN's route-optimization state: the RSMC to tunnel to, a dense
    /// column indexed by [`MnId`] (a node the CN was never told about
    /// costs one `None`).
    cn_route: Vec<Option<Addr>>,
    engine: HandoffEngine,
    pending_latency: FxHashMap<MnId, PendingLatency>,
    next_packet_id: u64,
    /// Generational slab holding every packet in flight; events carry
    /// [`PacketRef`] handles into it. Allocation-free per packet once the
    /// slab has grown to the world's steady-state in-flight count.
    pub(crate) arena: PacketArena,
    /// Reused measurement buffer: one allocation for the whole run
    /// instead of one per mobility sample.
    measure_scratch: Vec<Measurement>,
    /// Reused handoff-candidate buffer (same lifecycle as
    /// `measure_scratch`).
    candidate_scratch: Vec<Candidate>,
    /// Members of the `MoveSample` wave being run, each with the
    /// position and speed sampled for it up front (`None`: a handoff is
    /// in flight, the node is not sampled). Empty between waves.
    move_wave: Vec<(MnId, Option<(Point, f64)>)>,
    /// Members of the `Uplink` wave being run. Empty between waves.
    uplink_wave: Vec<MnId>,
    /// Test-only wave oracle switch and counters.
    #[cfg(test)]
    pub(crate) wave_probe: WaveProbe,
    /// Compiled fault plan, time-sorted; `Ev::Fault(i)` indexes into it.
    /// Empty unless the spec's `faults` section scheduled something.
    pub(crate) fault_plan: Vec<(SimTime, FaultAction)>,
    /// Injected faults currently active (down edges applied minus restore
    /// edges applied); data drops while nonzero count as outage losses.
    active_faults: u32,
    /// Restore instants awaiting their first successful data delivery —
    /// the recovery-latency measurement points.
    pending_recovery: Vec<SimTime>,
    /// Sharded-execution context: `None` under the sequential engine,
    /// `Some` on either half of a world split by [`shard::run_sharded`]
    /// (switches `World::transmit` into diverting boundary crossings to
    /// the outbox).
    pub(crate) shard: Option<shard::ShardCtx>,
    /// Executions of replicated event classes (sweeps, fault edges) —
    /// the duplicates the sharded merge subtracts from the event count.
    /// Maintained (cheaply) under the sequential engine too, but unused
    /// there.
    pub(crate) replicated_events: u64,
    /// Per-[`Ev`]-variant dispatch costs, `Some` only under
    /// [`World::run_profiled`].
    evprof: Option<Box<EvProfile>>,
    /// The scheduler lanes the nodes' periodic timers re-arm on,
    /// registered by [`World::schedule_initial`].
    lanes: TickLanes,
    pub(crate) report: SimReport,
}

/// One scheduler lane per periodic timer of a node (see
/// [`mtnet_sim::Scheduler::add_lane`]): each is re-armed at a fixed
/// period, so its pending ticks queue FIFO in 16 bytes apiece.
#[derive(Debug, Clone, Copy, Default)]
struct TickLanes {
    move_sample: LaneId,
    /// A node that holds a channel: every route-update period.
    uplink: LaneId,
    /// A camping node: every paging period.
    uplink_camping: LaneId,
    location: LaneId,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("domains", &self.domains.len())
            .field("cells", &self.cells.len())
            .field("mns", &self.mns.len())
            .field("flows", &self.flows.len())
            .finish()
    }
}

impl Model for World {
    type Event = Ev;

    fn handle_event(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        let prof = self
            .evprof
            .is_some()
            .then(|| (EvProfile::slot(&event), std::time::Instant::now()));
        // How many events this dispatch handles: one, except for the tick
        // handlers, which take their same-instant ties and run the wave,
        // and a flow tick that runs its own zero-delay continuation.
        let mut members = 1;
        match event {
            Ev::Pkt { node, from, pkt } => self.handle_pkt(ctx, node, from, pkt),
            Ev::AirDown { mn, cell, pkt } => self.handle_air_down(ctx, mn, cell, pkt),
            Ev::MoveSample(mn) => members = self.handle_move_sample(ctx, mn),
            Ev::Uplink(mn) => members = self.handle_uplink(ctx, mn),
            Ev::LocationTick(mn) => self.handle_location_tick(ctx, mn),
            Ev::FlowNext(fidx) => members = self.handle_flow_next(ctx, fidx),
            Ev::Attach(mn) => self.handle_attach(ctx, mn),
            Ev::Sweep => self.handle_sweep(ctx),
            Ev::Fault(idx) => self.handle_fault(ctx, idx),
        }
        if let (Some((slot, t0)), Some(profile)) = (prof, self.evprof.as_mut()) {
            profile.record(slot, members, t0.elapsed());
        }
    }
}

// The parallel batch runner (`mtnet_sim::runner`) ships whole worlds to
// worker threads: a world is built from its config on one thread, run to
// completion there, and only the report crosses back. Nothing in the
// world may regress to `Rc`/`RefCell`/thread-local state.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
    assert_send::<WorldConfig>();
    assert_send::<SimReport>();
};

impl World {
    fn handle_sweep(&mut self, ctx: &mut Context<'_, Ev>) {
        // Sweeps are replicated on every shard (see `shard`).
        self.replicated_events += 1;
        let now = ctx.now();
        ctx.schedule_in(SimDuration::from_secs(5), Ev::Sweep);
        self.locdir.sweep(now);
        self.ha.expire(now);
        for d in &mut self.domains {
            d.cip.sweep(now);
            d.rsmc.sweep(now);
            d.semisoft.sweep(now);
            d.fa.expire(now);
        }
    }

    /// Largest population the historical linear stagger formulas are kept
    /// for, bit for bit. Every cataloged scenario (E1–E13) sits at or
    /// below this; larger worlds fold the stagger back into each node's
    /// own period so the first tick of node 10^6 is not parked days into
    /// the run.
    const LEGACY_STAGGER_MAX: usize = 250;

    /// Initial `(MoveSample, Uplink, LocationTick)` times for node `i`
    /// (see [`World::schedule_initial`]). A camping node gets no
    /// `LocationTick` at all (`None`) and staggers its uplink over the
    /// paging period instead of the route-update period — the O(idle)
    /// event mass runs at paging cadence, not signaling cadence.
    pub(crate) fn mn_start_times(&self, i: usize) -> (SimTime, SimTime, Option<SimTime>) {
        let camps = self.camps(i);
        let uplink = self.uplink_period(camps);
        let i = i as u64;
        if self.mns.len() <= Self::LEGACY_STAGGER_MAX {
            return (
                SimTime::from_millis(i * 7),
                SimTime::from_millis(100 + i * 13),
                (!camps).then(|| SimTime::from_millis(200 + i * 17)),
            );
        }
        // Metro scale: same prime strides, wrapped modulo each tick's own
        // period so every node's first tick lands inside the first cycle.
        let ms = |d: SimDuration| (d.as_nanos() / 1_000_000).max(1);
        let move_ms = ms(self.cfg.move_sample);
        let up_ms = ms(uplink);
        let loc_ms = ms(self.cfg.location_period);
        (
            SimTime::from_millis((i * 7) % move_ms),
            SimTime::from_millis(100 + (i * 13) % up_ms),
            (!camps).then(|| SimTime::from_millis(200 + (i * 17) % loc_ms)),
        )
    }

    /// Initial `FlowNext` time for flow `f`; see [`World::mn_start_times`].
    pub(crate) fn flow_start_time(&self, f: usize) -> SimTime {
        let f = f as u64;
        if self.mns.len() <= Self::LEGACY_STAGGER_MAX {
            SimTime::from_millis(500 + f * 11)
        } else {
            SimTime::from_millis(500 + (f * 11) % 2000)
        }
    }

    /// Runs the world for `duration` and extracts the report.
    pub fn run(self, duration: SimDuration) -> SimReport {
        let (world, events) = self.run_to(duration);
        world.finish_report(duration, events)
    }

    /// [`World::run`] with every dispatch timed (~50 ns of `Instant` each;
    /// a plain `run` pays one `Option` test): the same report, plus where
    /// the host time went by event variant.
    pub fn run_profiled(mut self, duration: SimDuration) -> (SimReport, EvProfile) {
        self.evprof = Some(Box::default());
        let (mut world, events) = self.run_to(duration);
        let profile = world.evprof.take().expect("switched on above");
        (world.finish_report(duration, events), *profile)
    }

    /// The world after `duration` on the sequential engine, and the
    /// events that took.
    fn run_to(self, duration: SimDuration) -> (World, u64) {
        let mut sim = self.launch();
        sim.run_until(SimTime::ZERO + duration);
        if cfg!(debug_assertions) {
            if let Err(e) = World::audit(&sim) {
                panic!("world audit failed at {:?}: {e}", sim.now());
            }
        }
        let events = sim.events_processed();
        (sim.into_model(), events)
    }

    /// The world on its simulator with every periodic process and fault
    /// edge scheduled, nothing run yet.
    fn launch(self) -> Simulator<World> {
        let mut sim = Simulator::new(self);
        World::schedule_initial(&mut sim, |_| true);
        sim
    }

    /// Registers the tick lanes and schedules the initial events `owns`
    /// accepts: the one spelling of the start-up program order, shared
    /// by the sequential engine (owns everything) and each half of a
    /// sharded world (owns its classes) — same-instant ties resolve by
    /// schedule order, so bit-exactness across engines depends on there
    /// being exactly one. Every simulator registers the same lanes in the
    /// same order.
    pub(crate) fn schedule_initial(sim: &mut Simulator<World>, owns: impl Fn(&Ev) -> bool) {
        let schedule = |sim: &mut Simulator<World>, at: SimTime, ev: Ev| {
            if owns(&ev) {
                sim.schedule_at(at, ev);
            }
        };
        let n_mns = sim.model().mns.len();
        let n_flows = sim.model().flows.len();
        let (cfg, world) = (sim.model().cfg, sim.model());
        let (uplink, uplink_camping) = (world.uplink_period(false), world.uplink_period(true));
        let lanes = TickLanes {
            move_sample: sim.add_lane(cfg.move_sample, |i| Ev::MoveSample(MnId(i))),
            uplink: sim.add_lane(uplink, |i| Ev::Uplink(MnId(i))),
            uplink_camping: sim.add_lane(uplink_camping, |i| Ev::Uplink(MnId(i))),
            location: sim.add_lane(cfg.location_period, |i| Ev::LocationTick(MnId(i))),
        };
        sim.model_mut().lanes = lanes;
        // Kick off periodic machinery.
        for i in 0..n_mns {
            let mn = MnId(i as u32);
            // Stagger start times so nodes do not move in lockstep.
            let (t_move, t_up, t_loc) = sim.model().mn_start_times(i);
            let uplink = sim.model().uplink_lane(i);
            let mut tick = |lane: LaneId, at: SimTime, ev: Ev| {
                if owns(&ev) {
                    sim.schedule_lane_at(lane, at, mn.0);
                }
            };
            tick(lanes.move_sample, t_move, Ev::MoveSample(mn));
            tick(uplink, t_up, Ev::Uplink(mn));
            if let Some(t_loc) = t_loc {
                tick(lanes.location, t_loc, Ev::LocationTick(mn));
            }
        }
        for f in 0..n_flows {
            let at = sim.model().flow_start_time(f);
            schedule(sim, at, Ev::FlowNext(f));
        }
        schedule(sim, SimTime::from_secs(5), Ev::Sweep);
        // Fault edges last: same-instant ties against periodic machinery
        // resolve by schedule order, which this fixes once for every run.
        for idx in 0..sim.model().fault_plan.len() {
            let at = sim.model().fault_plan[idx].0;
            schedule(sim, at, Ev::Fault(idx));
        }
    }

    /// Splits a world that has not run yet along Fig 4.1's seam: returns
    /// the **backbone half** and leaves `self` the **access half** (see
    /// [`shard`]). The deployment-sized infrastructure is cloned —
    /// replicated sweeps and fault edges keep it in step on both sides.
    /// What scales with subscribers lives on one side only: the twin's
    /// [`MnTable`] says who a row is and nothing else, and the columns
    /// only the backbone touches (`cn_route`, `mnld`) are moved out of
    /// `self`. Every run-time field of an unrun world is still empty, so
    /// the twin equals a second build wherever the backbone looks, and a
    /// read from the wrong side is an index panic, not stale data.
    pub(crate) fn backbone_twin(&mut self) -> World {
        World {
            cfg: self.cfg,
            topo: self.topo.clone(),
            routes: self.routes.clone(),
            prefix_probe: self.prefix_probe.clone(),
            cells: self.cells.clone(),
            cell_node: self.cell_node.clone(),
            node_cell: self.node_cell.clone(),
            hierarchy: self.hierarchy.clone(),
            locdir: self.locdir.clone(),
            domains: self.domains.clone(),
            cell_domain: self.cell_domain.clone(),
            node_domain: self.node_domain.clone(),
            rsmc_addr_domain: self.rsmc_addr_domain.clone(),
            rsmc_node_domain: self.rsmc_node_domain.clone(),
            ha: self.ha.clone(),
            internet_node: self.internet_node,
            ha_node: self.ha_node,
            cn_node: self.cn_node,
            cn_addr: self.cn_addr,
            mnld: std::mem::take(&mut self.mnld),
            bs_fas: self.bs_fas.clone(),
            mns: self.mns.identity_twin(),
            flows: self.flows.clone(),
            flow_index: self.flow_index.clone(),
            cn_route: std::mem::take(&mut self.cn_route),
            engine: self.engine.clone(),
            pending_latency: FxHashMap::default(),
            next_packet_id: 0,
            arena: PacketArena::new(),
            measure_scratch: Vec::new(),
            candidate_scratch: Vec::new(),
            move_wave: Vec::new(),
            uplink_wave: Vec::new(),
            #[cfg(test)]
            wave_probe: Default::default(),
            fault_plan: self.fault_plan.clone(),
            active_faults: 0,
            pending_recovery: Vec::new(),
            shard: None,
            replicated_events: 0,
            evprof: None,
            lanes: TickLanes::default(),
            report: self.report.clone(),
        }
    }

    /// Extracts the final report from a finished world: the shared tail
    /// of the sequential [`World::run`] and each half of a sharded one.
    fn finish_report(mut self, duration: SimDuration, events: u64) -> SimReport {
        self.report.duration = duration;
        self.report.events_processed = events;
        self.report.flows = self.flows.iter().map(|f| (f.flow, f.qos.clone())).collect();
        self.report
    }
}

/// What the wave tests need from inside a run: the switch that turns
/// the world into its own one-event-at-a-time oracle, and enough counts
/// to show the waves engaged.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct WaveProbe {
    /// Tick handlers take no ties: every wave has one member.
    pub(crate) take_no_ties: bool,
    pub(crate) move_waves: u64,
    pub(crate) move_members: u64,
    /// Members found with a handoff in flight (not sampled).
    pub(crate) move_members_in_flight: u64,
}

/// Host time per [`Ev`] variant over one [`World::run_profiled`];
/// `Display` renders the table. A dispatch of a tick variant is a whole
/// same-instant wave, so each row counts events and dispatches
/// separately: averages stay per event, the counts sum to
/// `events_processed`, and events ÷ dispatches is the mean wave length.
#[derive(Debug, Default, Clone)]
pub struct EvProfile {
    /// Per variant: its name, events, dispatches, nanoseconds.
    rows: [(&'static str, u64, u64, u64); 9],
}

impl EvProfile {
    /// `ev`'s row and name.
    fn slot(ev: &Ev) -> (usize, &'static str) {
        match ev {
            Ev::Pkt { .. } => (0, "Pkt"),
            Ev::AirDown { .. } => (1, "AirDown"),
            Ev::MoveSample(_) => (2, "MoveSample"),
            Ev::Uplink(_) => (3, "Uplink"),
            Ev::LocationTick(_) => (4, "LocationTick"),
            Ev::FlowNext(_) => (5, "FlowNext"),
            Ev::Attach(_) => (6, "Attach"),
            Ev::Sweep => (7, "Sweep"),
            Ev::Fault(_) => (8, "Fault"),
        }
    }

    /// Books one dispatch of the variant `slot` names that handled
    /// `events` events in `d`.
    fn record(&mut self, slot: (usize, &'static str), events: usize, d: std::time::Duration) {
        let row = &mut self.rows[slot.0];
        row.0 = slot.1;
        row.1 += events as u64;
        row.2 += 1;
        row.3 += d.as_nanos() as u64;
    }
}

impl std::fmt::Display for EvProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &(name, events, dispatches, ns) in self.rows.iter().filter(|r| r.1 > 0) {
            writeln!(
                f,
                "{name:<14} {events:>10}  total {:>8.3}s  avg {:>6}ns  wave {:>5.2}",
                ns as f64 / 1e9,
                ns / events,
                events as f64 / dispatches as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
