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

mod build;
pub(crate) mod mn;
pub mod shard;

pub use build::{DomainSpec, FlowKind, WorldBuilder};
pub use shard::run_sharded;

use mn::{MnHandle, MnTable};

use crate::arena::{PacketArena, PacketRef};
use crate::handoff::{
    classify, Candidate, CurrentAttachment, HandoffDecision, HandoffEngine, HandoffType,
};
use crate::hierarchy::{DomainId, Hierarchy};
use crate::location::LocationDirectory;
use crate::messages::{CipControl, MnId, MtMessage, Payload};
use crate::mnld::Mnld;
use crate::report::{DropCause, SimReport};
use crate::rsmc::Rsmc;
use crate::tier::Tier;
use mtnet_cellularip::{CipNetwork, CipTimers, HandoffKind, MnMode, SemisoftController};
use mtnet_mobileip::{
    AgentAdvertisement, ForeignAgent, HomeAgent, MipMessage, MnAction, RegistrationReply,
    RegistrationRequest,
};
use mtnet_mobility::Point;
use mtnet_net::{
    Addr, FlowId, LinkId, NodeId, PacketId, Prefix, RouteCache, Topology, TransmitOutcome,
    TunnelKind,
};
use mtnet_radio::{CallKind, CellId, CellKind, CellMap, Measurement};
use mtnet_sim::FxHashMap;
use mtnet_sim::{Context, Model, RngStream, SimDuration, SimTime, Simulator};
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
    /// Generation-checked reference to the flow's mobile node.
    mn: MnHandle,
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

/// One compiled fault transition. Spec-level schedules (windows, flap
/// series) expand into these concrete, time-sorted edges at build time,
/// once cell ids, link ids and domain indices exist.
#[derive(Debug, Clone)]
pub(crate) enum FaultAction {
    /// Administrative BS outage edge.
    Cell {
        /// Affected cell.
        cell: CellId,
        /// True takes the cell down, false restores it.
        down: bool,
    },
    /// Wired-uplink flap edge: both directions of the duplex pair.
    Link {
        /// Internet → RSMC direction.
        fwd: LinkId,
        /// RSMC → Internet direction.
        rev: LinkId,
        /// True downs the pair, false restores it.
        down: bool,
    },
    /// RSMC crash: the control plane dies and its soft state flushes.
    RsmcKill {
        /// Domain index.
        domain: usize,
    },
    /// Standby RSMC takeover: the control plane returns, cold.
    RsmcTakeover {
        /// Domain index.
        domain: usize,
    },
    /// Satellite eclipse edge over every satellite-tier cell.
    Eclipse {
        /// The satellite cells (captured at compile time).
        cells: Vec<CellId>,
        /// True starts the eclipse, false ends it.
        down: bool,
    },
}

/// The simulation world (see module docs).
pub struct World {
    pub(crate) cfg: WorldConfig,
    pub(crate) topo: Topology,
    /// Min-delay route cache: one Dijkstra per source per topology
    /// generation, O(1) next hops afterwards (replaces the per-node
    /// longest-prefix routing tables on the wired fast path).
    pub(crate) routes: RouteCache,
    /// Prefix-owned address space (home network, per-domain subnets),
    /// sorted longest prefix first: destinations that are not topology
    /// nodes route toward the owner of the longest containing prefix
    /// with a usable route. The hot path reads only the derived
    /// `prefix_probe`; the raw list feeds the routing-table equivalence
    /// tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) prefixes: Vec<(Prefix, NodeId)>,
    /// Per-length masked maps over `prefixes`, longest length first:
    /// `network → owner`. Equal-length prefixes are disjoint, so probing
    /// one map per distinct length in descending order visits containing
    /// prefixes in exactly the sorted scan's order — O(distinct lengths)
    /// per lookup instead of O(prefix count) (249 entries in a metro
    /// world, walked per forwarded hop).
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
    /// (switches `forward_wired` into diverting boundary crossings to
    /// the outbox).
    pub(crate) shard: Option<shard::ShardCtx>,
    /// Executions of replicated event classes (sweeps, fault edges) —
    /// the duplicates the sharded merge subtracts from the event count.
    /// Maintained (cheaply) under the sequential engine too, but unused
    /// there.
    pub(crate) replicated_events: u64,
    /// This world's share of the [`evprof`] totals, allocated by the
    /// first profiled dispatch and folded into the process-wide counters
    /// when the run ends.
    evprof: Option<Box<evprof::Counters>>,
    pub(crate) report: SimReport,
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

impl World {
    /// Wireless transmission time of `bytes` in `cell`: base air latency,
    /// serialization at the tier's rate, plus orbital propagation for the
    /// satellite tier (altitude / c).
    fn air_time(&self, cell: CellId, bytes: u32) -> SimDuration {
        let (rate, altitude) = self.cells.cell(cell).map_or((768_000, 0.0), |c| {
            (c.kind().data_rate_bps(), c.kind().altitude_m())
        });
        // Terrestrial cells skip the orbital-propagation term entirely
        // (`from_secs_f64(0.0)` is exactly zero, so the shortcut changes
        // no bits — it just spares a rounding per packet).
        let orbit = if altitude == 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(altitude / 299_792_458.0)
        };
        self.cfg.air_delay
            + SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / rate as f64)
            + orbit
    }

    fn alloc_packet(
        &mut self,
        flow: FlowId,
        seq: u64,
        src: Addr,
        dst: Addr,
        bytes: u32,
        now: SimTime,
        payload: Payload,
    ) -> PacketRef {
        self.next_packet_id += 1;
        self.arena.alloc(
            PacketId(self.next_packet_id),
            flow,
            seq,
            src,
            dst,
            bytes,
            now,
            payload,
        )
    }

    /// Sends a control packet from a wired node.
    fn send_control(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from_node: NodeId,
        src: Addr,
        dst: Addr,
        payload: Payload,
    ) {
        let bytes = payload.control_size_bytes();
        let pkt = self.alloc_packet(FlowId(0), 0, src, dst, bytes, ctx.now(), payload);
        self.report.signaling.control_bytes += u64::from(self.arena.get(pkt).wire_bytes());
        self.forward_wired(ctx, from_node, pkt);
    }

    /// Next wired hop out of `node` toward `dst`: exact node addresses
    /// route directly (the old host routes), other addresses via their
    /// containing prefixes' owners, longest first (the old prefix
    /// routes). Both resolve through the [`RouteCache`], so the per-hop
    /// cost is a couple of map lookups instead of a longest-prefix scan —
    /// with hop choices identical to the Dijkstra-built routing tables
    /// this replaces: the retired tables skipped a prefix whose owner was
    /// `node` itself or unreachable, letting *shorter* matching prefixes
    /// answer, so the walk here continues past such entries rather than
    /// giving up at the longest match (`prefixes` is sorted
    /// longest-first by `WorldBuilder::build`).
    fn wired_next_hop(&mut self, node: NodeId, dst: Addr) -> Option<NodeId> {
        if let Some(target) = self.topo.node_by_addr(dst) {
            if let Some(hop) = self.routes.next_hop(&self.topo, node, target) {
                return Some(hop);
            }
            // Unreachable host routes fell through to prefixes in the old
            // tables; preserve that.
        }
        for (mask, owners) in &self.prefix_probe {
            let Some(&owner) = owners.get(&(dst.0 & mask)) else {
                continue;
            };
            if owner == node {
                continue; // a prefix owner holds no route to its own space
            }
            if let Some(hop) = self.routes.next_hop(&self.topo, node, owner) {
                return Some(hop);
            }
        }
        None
    }

    /// Forwards a packet out of `node` toward its routing destination over
    /// the wired topology.
    fn forward_wired(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, pkt: PacketRef) {
        let (dst, bytes, is_data) = {
            let p = self.arena.get(pkt);
            (p.routing_dst(), p.wire_bytes(), p.payload.is_data())
        };
        let Some(next) = self.wired_next_hop(node, dst) else {
            if is_data {
                self.count_data_drop(DropCause::NoRoute);
            }
            self.arena.free(pkt);
            return;
        };
        let Some(link) = self.topo.link_between(node, next) else {
            if is_data {
                self.count_data_drop(DropCause::NoRoute);
            }
            self.arena.free(pkt);
            return;
        };
        match self
            .topo
            .link_mut(link)
            .expect("link exists")
            .transmit(ctx.now(), bytes)
        {
            TransmitOutcome::Delivered { at } => {
                self.arena.get_mut(pkt).record_hop();
                // Sharded execution: a hop to a node another shard owns
                // leaves this half entirely — the packet travels by
                // value through the outbox and lands in the owner's
                // queue at the next window edge (see `shard`).
                if self.shard.as_ref().is_some_and(|s| s.diverts(next)) {
                    let packet = self.arena.take(pkt);
                    self.shard
                        .as_mut()
                        .expect("checked above")
                        .outbox
                        .push(shard::Crossing {
                            at,
                            node: next,
                            from: node,
                            packet,
                        });
                    return;
                }
                ctx.schedule_at(
                    at,
                    Ev::Pkt {
                        node: next,
                        from: Some(node),
                        pkt,
                    },
                );
            }
            TransmitOutcome::Dropped => {
                if is_data {
                    self.count_data_drop(DropCause::QueueOverflow);
                }
                self.arena.free(pkt);
            }
        }
    }

    /// Transmits a packet over the air from `cell` toward `mn`.
    fn air_down(&mut self, ctx: &mut Context<'_, Ev>, cell: CellId, mn: MnId, pkt: PacketRef) {
        let delay = self.air_time(cell, self.arena.get(pkt).wire_bytes());
        ctx.schedule_at(ctx.now() + delay, Ev::AirDown { mn, cell, pkt });
    }

    /// Transmits an uplink packet from `mn` via its serving BS; the packet
    /// enters the wired world at the BS node with `from: None`.
    fn air_up(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, payload: Payload, dst: Addr) {
        let Some(cell) = self.mns.hot[mn.0 as usize].serving() else {
            return;
        };
        let src = self.mns.home[mn.0 as usize];
        let bytes = payload.control_size_bytes();
        let pkt = self.alloc_packet(FlowId(0), 0, src, dst, bytes, ctx.now(), payload);
        let wire = self.arena.get(pkt).wire_bytes();
        self.report.signaling.control_bytes += u64::from(wire);
        let delay = self.air_time(cell, wire);
        let bs = self.node_of_cell(cell);
        ctx.schedule_at(
            ctx.now() + delay,
            Ev::Pkt {
                node: bs,
                from: None,
                pkt,
            },
        );
    }

    fn domain_idx_of_cell(&self, cell: CellId) -> Option<usize> {
        self.cell_domain.get(cell.0 as usize).copied().flatten()
    }

    /// Domain index of an access-network node, if it belongs to one.
    fn domain_idx_of_node(&self, node: NodeId) -> Option<usize> {
        self.node_domain.get(node.0 as usize).copied().flatten()
    }

    /// The cell served by a BS node, if it hosts one.
    fn cell_of_node(&self, node: NodeId) -> Option<CellId> {
        self.node_cell.get(node.0 as usize).copied().flatten()
    }

    /// The BS node of a cell, if it has a radio deployment.
    fn bs_of_cell(&self, cell: CellId) -> Option<NodeId> {
        self.cell_node.get(cell.0 as usize).copied().flatten()
    }

    /// The BS node of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no radio deployment.
    fn node_of_cell(&self, cell: CellId) -> NodeId {
        self.bs_of_cell(cell).expect("cell has a BS node")
    }

    /// The MN id owning a (home) address. Probed multiple times per
    /// forwarded packet; home addresses are allocated arithmetically
    /// (`mn::home_addr`), so the probe is pure integer arithmetic with
    /// no per-world index.
    fn mn_of(&self, addr: Addr) -> Option<MnId> {
        mn::mn_of_home(addr, self.mns.len())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Compiles the spec's fault schedules into the time-sorted plan
    /// `World::run` turns into `Ev::Fault` events.
    ///
    /// Runs after the builder so the schedules resolve against concrete
    /// ids: cell outages to [`CellId`]s, link flaps to the domain's
    /// Internet ↔ RSMC duplex [`LinkId`] pair, eclipses to the built
    /// satellite-cell set. Flap jitter draws come from a child stream of
    /// the world seed, so the expanded plan is a pure function of
    /// `(spec, master seed)` — the determinism contract extends to
    /// faults unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a cell outage names a cell the world never built (domain
    /// indices are range-checked earlier by spec validation).
    pub(crate) fn install_fault_plan(&mut self, faults: &crate::spec::FaultSpec) {
        if faults.is_empty() {
            return;
        }
        fn at(secs: f64) -> SimTime {
            SimTime::ZERO + SimDuration::from_secs_f64(secs)
        }
        let mut plan: Vec<(SimTime, FaultAction)> = Vec::new();
        for o in &faults.cell_outages {
            let cell = CellId(o.cell);
            assert!(
                self.cells.cell(cell).is_some(),
                "fault.cell_outages names unknown cell {} (world has {})",
                o.cell,
                self.cells.len()
            );
            plan.push((at(o.start_s), FaultAction::Cell { cell, down: true }));
            plan.push((at(o.end_s), FaultAction::Cell { cell, down: false }));
        }
        let jitter_root = RngStream::from_seed(self.cfg.seed);
        for (i, f) in faults.link_flaps.iter().enumerate() {
            let rsmc_node = self.domains[f.domain as usize].rsmc_node;
            let fwd = self
                .topo
                .link_between(self.internet_node, rsmc_node)
                .expect("domain uplink exists");
            let rev = self
                .topo
                .link_between(rsmc_node, self.internet_node)
                .expect("domain uplink exists");
            let mut rng = jitter_root.child(&format!("faults/flap{i}"));
            for k in 0..f.count {
                let base = f.start_s + f64::from(k) * f.period_s;
                // Jitter < period * min(duty, 1-duty) (spec-validated), so
                // down_k < up_k < down_{k+1} always: edges stay paired.
                let down_at = base + rng.next_f64() * f.jitter_s;
                let up_at = base + f.duty * f.period_s + rng.next_f64() * f.jitter_s;
                plan.push((
                    at(down_at),
                    FaultAction::Link {
                        fwd,
                        rev,
                        down: true,
                    },
                ));
                plan.push((
                    at(up_at),
                    FaultAction::Link {
                        fwd,
                        rev,
                        down: false,
                    },
                ));
            }
        }
        for r in &faults.rsmc_failovers {
            let domain = r.domain as usize;
            plan.push((at(r.at_s), FaultAction::RsmcKill { domain }));
            if let Some(t) = r.takeover_s {
                plan.push((at(r.at_s + t), FaultAction::RsmcTakeover { domain }));
            }
        }
        if !faults.eclipses.is_empty() {
            let sats: Vec<CellId> = self
                .cells
                .cells()
                .filter(|c| c.kind() == CellKind::Satellite)
                .map(|c| c.id())
                .collect();
            for e in &faults.eclipses {
                plan.push((
                    at(e.start_s),
                    FaultAction::Eclipse {
                        cells: sats.clone(),
                        down: true,
                    },
                ));
                plan.push((
                    at(e.end_s),
                    FaultAction::Eclipse {
                        cells: sats.clone(),
                        down: false,
                    },
                ));
            }
        }
        // Stable sort: same-instant edges apply in category order
        // (cells, links, failovers, eclipses) — fixed, so deterministic.
        plan.sort_by_key(|(t, _)| *t);
        self.fault_plan = plan;
    }

    /// Applies one compiled fault edge. No-op edges (an already-down cell
    /// downed again by an overlapping window, an eclipse with no
    /// satellites) count nothing, which keeps the active-fault balance
    /// and the quiet-report guarantee exact.
    fn handle_fault(&mut self, ctx: &mut Context<'_, Ev>, idx: usize) {
        // Fault edges are replicated on every shard (see `shard`).
        self.replicated_events += 1;
        let now = ctx.now();
        let action = self.fault_plan[idx].1.clone();
        match action {
            FaultAction::Cell { cell, down } => {
                if self.cells.set_cell_down(cell, down) {
                    self.report.faults.cell_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
            FaultAction::Link { fwd, rev, down } => {
                // `set_link_up` bumps the topology generation on every
                // applied transition — including the restore, which is
                // what evicts route-cache trees resolved mid-outage.
                let a = self.topo.set_link_up(fwd, !down).expect("known link");
                let b = self.topo.set_link_up(rev, !down).expect("known link");
                if a || b {
                    self.report.faults.link_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
            FaultAction::RsmcKill { domain } => {
                if self.domains[domain].rsmc_alive {
                    self.domains[domain].rsmc_alive = false;
                    self.domains[domain].rsmc.flush();
                    self.report.faults.rsmc_kills += 1;
                    self.note_fault_edge(now, true);
                }
            }
            FaultAction::RsmcTakeover { domain } => {
                if !self.domains[domain].rsmc_alive {
                    self.domains[domain].rsmc_alive = true;
                    self.report.faults.rsmc_takeovers += 1;
                    self.note_fault_edge(now, false);
                }
            }
            FaultAction::Eclipse { cells, down } => {
                let mut changed = false;
                for cell in cells {
                    changed |= self.cells.set_cell_down(cell, down);
                }
                if changed {
                    self.report.faults.eclipse_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
        }
    }

    /// Bookkeeping common to every applied fault edge: down edges open
    /// the outage-attribution window, restore edges close it and arm a
    /// recovery-latency measurement.
    fn note_fault_edge(&mut self, now: SimTime, down: bool) {
        if down {
            self.active_faults += 1;
        } else {
            self.active_faults = self.active_faults.saturating_sub(1);
            self.pending_recovery.push(now);
        }
    }

    /// Records a data-packet drop, attributing it to the open fault
    /// window when one exists. Every drop in the world routes through
    /// here (or [`World::drop_packet`], which calls it).
    fn count_data_drop(&mut self, cause: DropCause) {
        if self.active_faults > 0 {
            self.report.faults.outage_drops += 1;
        }
        self.report.count_drop(cause);
    }

    // ------------------------------------------------------------------
    // Packet handling
    // ------------------------------------------------------------------

    fn handle_pkt(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        from: Option<NodeId>,
        pkt: PacketRef,
    ) {
        let node_addr = self.topo.addr_of(node);
        let node_didx = self.domain_idx_of_node(node);

        // 1. Tunnel exit?
        {
            let p = self.arena.get_mut(pkt);
            while p.encap.last().is_some_and(|h| h.outer_dst == node_addr) {
                p.decapsulate();
            }
        }
        let (dst, payload) = {
            let p = self.arena.get(pkt);
            (p.dst, p.payload)
        };

        // 2. Cellular IP uplink control climbing the tree refreshes caches
        //    at every node it passes — including the gateway it is
        //    addressed to, so this check precedes local consumption.
        if let Some(didx) = node_didx {
            if !self.cfg.mip_only {
                if let Payload::Cip(c) = payload {
                    self.handle_cip_climb(ctx, didx, node, from, c, pkt);
                    return;
                }
            }
        }

        // 3. Packet addressed to this node itself: protocol processing.
        if dst == node_addr {
            self.consume_at_node(ctx, node, pkt);
            return;
        }

        // 4. Packet for a mobile node inside an access network this node
        //    belongs to: Cellular IP downlink / uplink handling.
        if let Some(didx) = node_didx {
            if !self.cfg.mip_only {
                if self.mn_of(dst).is_some() {
                    self.forward_downlink(ctx, didx, node, pkt);
                    return;
                }
            } else if let Some(mn) = self.mn_of(dst) {
                // Pure Mobile IP: the BS delivers only to its own radio.
                let Some(cell) = self.cell_of_node(node) else {
                    self.forward_wired(ctx, node, pkt);
                    return;
                };
                if self.mns.hot[mn.0 as usize].serving() == Some(cell) {
                    self.air_down(ctx, cell, mn, pkt);
                } else {
                    if payload.is_data() {
                        self.count_data_drop(DropCause::NoRoute);
                    }
                    self.arena.free(pkt);
                }
                return;
            }
        }

        // 5. Plain wired forwarding.
        self.forward_wired(ctx, node, pkt);
    }

    /// Control processing for packets addressed to an infrastructure node.
    fn consume_at_node(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, pkt: PacketRef) {
        let now = ctx.now();
        // The packet ends here in every branch; only its payload (a small
        // `Copy` enum) is consulted. Release the slot up front.
        let payload = self.arena.get(pkt).payload;
        self.arena.free(pkt);
        if node == self.ha_node {
            match payload {
                Payload::Mip(MipMessage::Request(req)) => {
                    let reply = self.ha.process_registration(&req, now);
                    self.report.signaling.mip_requests += 1;
                    let ha_addr = self.ha.addr();
                    self.send_control(
                        ctx,
                        node,
                        ha_addr,
                        req.coa,
                        Payload::Mip(MipMessage::Reply(reply)),
                    );
                }
                Payload::Mt(MtMessage::RsmcNotify { mn, rsmc }) => {
                    // §4: the notification refreshes the HA's view without
                    // waiting for the full Mobile IP registration.
                    let synthetic = RegistrationRequest {
                        mn_home: mn,
                        coa: rsmc,
                        ha: self.ha.addr(),
                        lifetime: SimDuration::from_secs(300),
                        id: 0,
                    };
                    let _ = self.ha.process_registration(&synthetic, now);
                    if let (Some(didx), Some(mnid)) =
                        (self.rsmc_addr_domain.get(&rsmc).copied(), self.mn_of(mn))
                    {
                        let dom = self.domains[didx].id;
                        self.mnld.update(mnid, dom, rsmc, now);
                    }
                }
                Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }) => {
                    // Fig 3.3: the inter-domain (different upper) update
                    // travels via the home network, which records the move
                    // and "replies new location information to the
                    // original domain".
                    let mnid = self.mn_of(mn);
                    let prev_rsmc = mnid.and_then(|id| self.mnld.peek(id)).map(|e| e.rsmc);
                    if let (Some(didx), Some(mnid)) = (self.domain_idx_of_cell(new_cell), mnid) {
                        let new_rsmc = self.domains[didx].rsmc.addr();
                        let dom = self.domains[didx].id;
                        self.mnld.update(mnid, dom, new_rsmc, now);
                        let synthetic = RegistrationRequest {
                            mn_home: mn,
                            coa: new_rsmc,
                            ha: self.ha.addr(),
                            lifetime: SimDuration::from_secs(300),
                            id: 0,
                        };
                        let _ = self.ha.process_registration(&synthetic, now);
                        if let Some(prev) = prev_rsmc.filter(|&p| p != new_rsmc) {
                            let ha_addr = self.ha.addr();
                            self.report.signaling.update_messages += 1;
                            self.send_control(
                                ctx,
                                node,
                                ha_addr,
                                prev,
                                Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }),
                            );
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        if node == self.cn_node {
            if let Payload::Mt(MtMessage::RsmcNotify { mn, rsmc }) = payload {
                if let Some(mnid) = self.mn_of(mn) {
                    self.cn_route[mnid.0 as usize] = Some(rsmc);
                }
            }
            return;
        }
        // RSMC / gateway processing.
        if let Some(didx) = self.rsmc_node_domain.get(&node).copied() {
            if !self.domains[didx].rsmc_alive {
                // Crashed control plane: the box forwards as a plain
                // gateway (handled before we got here) but answers no
                // signaling until the standby takes over.
                return;
            }
            match payload {
                Payload::Mip(MipMessage::Request(req)) => {
                    // FA leg: relay to the HA or deny locally.
                    let result = self.domains[didx].fa.relay_registration(&req, now);
                    let fa_addr = self.domains[didx].fa.addr();
                    match result {
                        Ok(relayed) => {
                            self.send_control(
                                ctx,
                                node,
                                fa_addr,
                                relayed.ha,
                                Payload::Mip(MipMessage::Request(relayed)),
                            );
                        }
                        Err(denial) => {
                            self.deliver_control_to_mn(
                                ctx,
                                didx,
                                denial.mn_home,
                                Payload::Mip(MipMessage::Reply(denial)),
                            );
                        }
                    }
                }
                Payload::Mip(MipMessage::Reply(reply)) => {
                    self.report.signaling.mip_replies += 1;
                    let reply = self.domains[didx].fa.process_reply(&reply, now);
                    self.deliver_control_to_mn(
                        ctx,
                        didx,
                        reply.mn_home,
                        Payload::Mip(MipMessage::Reply(reply)),
                    );
                }
                Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }) => {
                    // This RSMC is the *old* domain of an inter-domain
                    // handoff: install a forwarding entry so in-flight
                    // packets chase the node to its new domain, and keep
                    // the record "a while until MN has completed handoff"
                    // (Fig 3.3).
                    if let Some(new_didx) = self.domain_idx_of_cell(new_cell) {
                        let new_rsmc = self.domains[new_didx].rsmc.addr();
                        if new_rsmc != self.domains[didx].rsmc.addr() {
                            self.domains[didx].fa.install_forward(mn, new_rsmc, now);
                        }
                    }
                    if let Some(mnid) = self.mn_of(mn) {
                        self.complete_latency_if(mnid, now, |t| t.is_inter_domain());
                    }
                }
                _ => {}
            }
            return;
        }
        // Pure Mobile IP: a BS acting as FA.
        if self.cfg.mip_only {
            if let Some(cell) = self.cell_of_node(node) {
                match payload {
                    Payload::Mip(MipMessage::Request(req)) => {
                        let result = self
                            .bs_fas
                            .get_mut(&cell)
                            .expect("FA exists per BS in mip-only mode")
                            .relay_registration(&req, now);
                        let fa_addr = self.topo.addr_of(node);
                        match result {
                            Ok(relayed) => self.send_control(
                                ctx,
                                node,
                                fa_addr,
                                relayed.ha,
                                Payload::Mip(MipMessage::Request(relayed)),
                            ),
                            Err(denial) => {
                                if let Some(mn) = self.mn_of(denial.mn_home) {
                                    let p = self.alloc_packet(
                                        FlowId(0),
                                        0,
                                        fa_addr,
                                        denial.mn_home,
                                        RegistrationReply::SIZE_BYTES,
                                        now,
                                        Payload::Mip(MipMessage::Reply(denial)),
                                    );
                                    self.air_down(ctx, cell, mn, p);
                                }
                            }
                        }
                    }
                    Payload::Mip(MipMessage::Reply(reply)) => {
                        self.report.signaling.mip_replies += 1;
                        let reply = self
                            .bs_fas
                            .get_mut(&cell)
                            .expect("FA exists")
                            .process_reply(&reply, now);
                        if let Some(mn) = self.mn_of(reply.mn_home) {
                            let src = self.topo.addr_of(node);
                            let p = self.alloc_packet(
                                FlowId(0),
                                0,
                                src,
                                reply.mn_home,
                                RegistrationReply::SIZE_BYTES,
                                now,
                                Payload::Mip(MipMessage::Reply(reply)),
                            );
                            self.air_down(ctx, cell, mn, p);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Sends a control message down a domain's access network to an MN.
    fn deliver_control_to_mn(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        mn_addr: Addr,
        payload: Payload,
    ) {
        let node = self.domains[didx].rsmc_node;
        let src = self.topo.addr_of(node);
        let bytes = payload.control_size_bytes();
        let pkt = self.alloc_packet(FlowId(0), 0, src, mn_addr, bytes, ctx.now(), payload);
        self.forward_downlink(ctx, didx, node, pkt);
    }

    /// Frees a packet that ends its life here, counting the drop when it
    /// carried application data.
    fn drop_packet(&mut self, pkt: PacketRef, cause: DropCause) {
        if self.arena.get(pkt).payload.is_data() {
            self.count_data_drop(cause);
        }
        self.arena.free(pkt);
    }

    /// Cellular IP uplink control (route/paging/semisoft updates) climbing
    /// from `node` toward the gateway, refreshing caches hop by hop.
    fn handle_cip_climb(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        node: NodeId,
        from: Option<NodeId>,
        control: CipControl,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        let came_from = from.unwrap_or(node);
        let gateway = self.domains[didx].cip.tree().gateway();
        match control {
            CipControl::RouteUpdate { mn, .. } | CipControl::Semisoft { mn } => {
                self.domains[didx]
                    .cip
                    .refresh_route_at(node, mn, came_from, now);
                // Semisoft: opening the bicast window when the update
                // passes the crossover between old and new attachments.
                if let CipControl::Semisoft { mn } = control {
                    if let Some(mnid) = self.mn_of(mn) {
                        let i = mnid.0 as usize;
                        let (old, target) = (self.mns.hot[i].serving(), self.mns.pending_target(i));
                        if let (Some(old), Some(target)) = (old, target) {
                            let old_node = self.node_of_cell(old);
                            let new_node = self.node_of_cell(target);
                            let tree = self.domains[didx].cip.tree();
                            if tree.contains(old_node)
                                && tree.contains(new_node)
                                && tree.crossover(old_node, new_node) == node
                            {
                                if let HandoffKind::Semisoft { delay } = self.cfg.handoff_kind {
                                    self.domains[didx]
                                        .semisoft
                                        .begin(mn, old_node, new_node, now, delay);
                                }
                            }
                        }
                    }
                }
                if node == gateway {
                    self.arena.free(pkt);
                    self.on_gateway_route_update(ctx, didx, mn, now);
                    // Intra-domain handoff completes when the repair
                    // reaches the gateway.
                    if let Some(mnid) = self.mn_of(mn) {
                        self.complete_latency_if(mnid, now, |t| !t.is_inter_domain());
                    }
                    return;
                }
            }
            CipControl::PagingUpdate { mn } => {
                self.domains[didx]
                    .cip
                    .refresh_paging_at(node, mn, came_from, now);
                if node == gateway {
                    self.arena.free(pkt);
                    return;
                }
            }
        }
        // Climb to the parent.
        let Some(parent) = self.domains[didx].cip.tree().parent(node) else {
            self.arena.free(pkt);
            return;
        };
        let Some(link) = self.topo.link_between(node, parent) else {
            self.arena.free(pkt);
            return;
        };
        let bytes = self.arena.get(pkt).wire_bytes();
        match self
            .topo
            .link_mut(link)
            .expect("link exists")
            .transmit(now, bytes)
        {
            TransmitOutcome::Delivered { at } => {
                ctx.schedule_at(
                    at,
                    Ev::Pkt {
                        node: parent,
                        from: Some(node),
                        pkt,
                    },
                );
            }
            TransmitOutcome::Dropped => self.arena.free(pkt),
        }
    }

    /// Gateway-level route-update processing: RSMC location refresh and
    /// HA/CN notifications.
    fn on_gateway_route_update(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        mn: Addr,
        now: SimTime,
    ) {
        if !self.cfg.rsmc_enabled || !self.domains[didx].rsmc_alive {
            return;
        }
        let Some(cell) = self.domains[didx]
            .cip
            .locate(mn, now)
            .and_then(|n| self.cell_of_node(n))
        else {
            return;
        };
        let targets = if self.cfg.notify_cn { 2 } else { 1 };
        let notifications = self.domains[didx]
            .rsmc
            .on_route_update(mn, cell, now, targets);
        if notifications.is_empty() {
            return;
        }
        self.report.signaling.rsmc_notifications += notifications.len() as u64;
        let rsmc_node = self.domains[didx].rsmc_node;
        let rsmc_addr = self.domains[didx].rsmc.addr();
        let ha_addr = self.ha.addr();
        self.send_control(
            ctx,
            rsmc_node,
            rsmc_addr,
            ha_addr,
            Payload::Mt(MtMessage::RsmcNotify {
                mn,
                rsmc: rsmc_addr,
            }),
        );
        if self.cfg.notify_cn {
            let cn = self.cn_addr;
            self.send_control(
                ctx,
                rsmc_node,
                rsmc_addr,
                cn,
                Payload::Mt(MtMessage::RsmcNotify {
                    mn,
                    rsmc: rsmc_addr,
                }),
            );
        }
    }

    /// Downlink forwarding inside an access network (gateway or BS).
    fn forward_downlink(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        node: NodeId,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        let mn_addr = self.arena.get(pkt).dst;
        let gateway = self.domains[didx].cip.tree().gateway();
        // A departed visitor with a forwarding entry: re-tunnel toward the
        // new domain instead of descending a dead branch (Fig 3.3's "keep
        // the record a while until MN has completed handoff").
        if node == gateway {
            if let Some(coa) = self.domains[didx].fa.forward_endpoint(mn_addr, now) {
                if coa != self.domains[didx].rsmc.addr() {
                    let own = self.domains[didx].rsmc.addr();
                    self.arena
                        .get_mut(pkt)
                        .encapsulate(own, coa, TunnelKind::SmoothHandoff);
                    self.forward_wired(ctx, node, pkt);
                    return;
                }
            }
        }
        let next = self.domains[didx].cip.next_hop(node, mn_addr, now);
        match next {
            Some(n) if n == node => {
                // Attach BS: deliver over the air (plus semisoft bicast
                // handled at the crossover below).
                if let Some(cell) = self.cell_of_node(node) {
                    if let Some(mn) = self.mn_of(mn_addr) {
                        self.air_down(ctx, cell, mn, pkt);
                        return;
                    }
                }
                self.drop_packet(pkt, DropCause::NoRoute);
            }
            Some(child) => {
                // Semisoft bicast: if this node is the crossover of an open
                // window, duplicate toward the old branch too.
                if let Some((old_bs, new_bs)) =
                    self.domains[didx].semisoft.bicast_targets(mn_addr, now)
                {
                    let tree = self.domains[didx].cip.tree();
                    if tree.contains(old_bs)
                        && tree.contains(new_bs)
                        && tree.crossover(old_bs, new_bs) == node
                    {
                        if old_bs == node {
                            // The crossover *is* the old attach BS (the new
                            // cell chains under the old one): the "old
                            // branch" is this BS's own air interface.
                            if let (Some(cell), Some(mnid)) =
                                (self.cell_of_node(node), self.mn_of(mn_addr))
                            {
                                let copy = self.arena.duplicate(pkt);
                                self.air_down(ctx, cell, mnid, copy);
                            }
                        } else {
                            // The cache points to the new branch; the
                            // duplicate follows the tree toward the old BS.
                            // Parent walk from the old BS finds this node's
                            // child on that branch without materializing
                            // the path.
                            let mut toward_old = None;
                            let mut cur = old_bs;
                            while let Some(parent) = tree.parent(cur) {
                                if parent == node {
                                    toward_old = Some(cur);
                                    break;
                                }
                                cur = parent;
                            }
                            if let Some(toward_old) = toward_old {
                                if toward_old != child {
                                    let copy = self.arena.duplicate(pkt);
                                    self.transmit_to_child(ctx, node, toward_old, copy);
                                }
                            }
                        }
                    }
                }
                self.transmit_to_child(ctx, node, child, pkt);
            }
            None => {
                // No routing state at this node.
                if node == gateway {
                    self.gateway_rescue(ctx, didx, node, pkt);
                } else {
                    self.drop_packet(pkt, DropCause::NoRoute);
                }
            }
        }
    }

    fn transmit_to_child(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        child: NodeId,
        pkt: PacketRef,
    ) {
        let Some(link) = self.topo.link_between(node, child) else {
            self.drop_packet(pkt, DropCause::NoRoute);
            return;
        };
        let bytes = self.arena.get(pkt).wire_bytes();
        match self
            .topo
            .link_mut(link)
            .expect("link exists")
            .transmit(ctx.now(), bytes)
        {
            TransmitOutcome::Delivered { at } => {
                self.arena.get_mut(pkt).record_hop();
                ctx.schedule_at(
                    at,
                    Ev::Pkt {
                        node: child,
                        from: Some(node),
                        pkt,
                    },
                );
            }
            TransmitOutcome::Dropped => {
                self.drop_packet(pkt, DropCause::QueueOverflow);
            }
        }
    }

    /// Gateway fallback when routing caches miss: the RSMC's combined
    /// location cache (if enabled), then paging.
    fn gateway_rescue(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        node: NodeId,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        let mn_addr = self.arena.get(pkt).dst;
        if self.cfg.rsmc_enabled && self.domains[didx].rsmc_alive {
            if let Some(cell) = self.domains[didx].rsmc.locate(mn_addr, now) {
                // Source-routed forward down the tree, delivered straight
                // over the located BS's air interface (the BS's own
                // routing cache lapsed along with the gateway's).
                if let Some(bs_node) = self.bs_of_cell(cell) {
                    if self.domains[didx].cip.tree().contains(bs_node) {
                        self.domains[didx].rsmc.count_forwarded();
                        let hops = self.domains[didx].cip.tree().depth(bs_node) as u64;
                        let delay = SimDuration::from_millis(2).saturating_mul(hops.max(1))
                            + self.air_time(cell, self.arena.get(pkt).wire_bytes());
                        if let Some(mn) = self.mn_of(mn_addr) {
                            ctx.schedule_at(now + delay, Ev::AirDown { mn, cell, pkt });
                            return;
                        }
                    }
                }
            }
        }
        // Paging (idle nodes).
        let outcome = self.domains[didx].cip.page(mn_addr, now);
        self.report.signaling.page_messages += outcome.messages() as u64;
        match outcome {
            mtnet_cellularip::PageOutcome::Directed { bs, .. } => {
                let hops = self.domains[didx].cip.tree().depth(bs) as u64;
                let cell = self.cell_of_node(bs);
                if let (Some(cell), Some(mn)) = (cell, self.mn_of(mn_addr)) {
                    let delay = SimDuration::from_millis(2).saturating_mul(hops.max(1))
                        + self.air_time(cell, self.arena.get(pkt).wire_bytes());
                    ctx.schedule_at(now + delay, Ev::AirDown { mn, cell, pkt });
                } else {
                    self.drop_packet(pkt, DropCause::NoRoute);
                }
            }
            mtnet_cellularip::PageOutcome::Flooded { .. } => {
                self.drop_packet(pkt, DropCause::Paging);
                // A flooded page wakes the node: it answers with a route
                // update so subsequent packets flow.
                if let Some(mnid) = self.mn_of(mn_addr) {
                    if self.mns.hot[mnid.0 as usize].serving().is_some() {
                        let dst = self.topo.addr_of(node);
                        self.report.signaling.route_updates += 1;
                        self.air_up(
                            ctx,
                            mnid,
                            Payload::Cip(CipControl::RouteUpdate {
                                mn: mn_addr,
                                came_from_bs: true,
                            }),
                            dst,
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Air interface
    // ------------------------------------------------------------------

    fn handle_air_down(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        cell: CellId,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        // The packet is consumed here on every path; pull the delivery-
        // relevant fields out and release the slot before the logic.
        let (payload, flow, seq, created_at, payload_bytes) = {
            let p = self.arena.get(pkt);
            (p.payload, p.flow, p.seq, p.created_at, p.payload_bytes)
        };
        self.arena.free(pkt);
        let i = mn.0 as usize;
        let (pos, _) = self.mns.sample(i, now);
        // Semisoft: the node effectively listens to both the old cell and
        // the pending target; FlowQos de-duplicates.
        let attached_ok = self.mns.hot[i].serving() == Some(cell)
            || self.mns.pending_target(i) == Some(cell) && !self.cfg.mip_only;
        // Radio truth: the transmission only lands if the node is actually
        // inside the cell's radio range right now (one distance pass for
        // the footprint check and the path loss).
        let radio_ok = self
            .cells
            .rssi_if_covered(cell, pos)
            .is_some_and(|rssi| rssi >= mtnet_radio::SENSITIVITY_DBM);
        let reachable = attached_ok && radio_ok;
        if !reachable {
            if payload.is_data() {
                self.count_data_drop(DropCause::WirelessDetached);
            }
            return;
        }
        match payload {
            Payload::Data => {
                let fidx = self.flow_index.get(&flow).copied();
                if let Some(fidx) = fidx {
                    if let Some(agg) = self.report.aggregate.as_mut() {
                        // Aggregate mode: the per-flow tracker stays
                        // compact; the delay streams into the world-level
                        // accumulator.
                        let q = &mut self.flows[fidx].qos;
                        if let Some(d) =
                            q.record_received_compact(seq, created_at, now, payload_bytes)
                        {
                            agg.record(d.as_millis_f64());
                        }
                    } else {
                        self.flows[fidx]
                            .qos
                            .record_received(seq, created_at, now, payload_bytes);
                    }
                }
                if let Some(active) = self.mns.active_mut(i) {
                    active.cip.touch(now);
                }
                // First delivered data packet after a restore closes every
                // armed recovery-latency measurement.
                if !self.pending_recovery.is_empty() {
                    for t in std::mem::take(&mut self.pending_recovery) {
                        self.report
                            .faults
                            .recovery_latency_ms
                            .record(now.saturating_since(t).as_millis_f64());
                    }
                }
            }
            Payload::Mip(MipMessage::Reply(reply)) => {
                if let Some(active) = self.mns.active_mut(i) {
                    let action = active.mip.on_reply(&reply, now);
                    debug_assert!(matches!(action, MnAction::None));
                }
                if reply.accepted() {
                    self.complete_latency_if(mn, now, |t| t.is_inter_domain());
                }
            }
            Payload::Mip(MipMessage::Advertisement(adv)) => {
                self.advertise(ctx, mn, &adv);
            }
            _ => {}
        }
    }

    /// Hands an agent advertisement to `mn`'s Mobile IP state machine and
    /// performs what it answers. A camping node has none and stays silent.
    fn advertise(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, adv: &AgentAdvertisement) {
        let now = ctx.now();
        if let Some(active) = self.mns.active_mut(mn.0 as usize) {
            let action = active.mip.on_advertisement(adv, now);
            self.perform_mn_action(ctx, mn, action);
        }
    }

    fn perform_mn_action(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, action: MnAction) {
        if let MnAction::SendRequest(req) = action {
            self.report.signaling.mip_requests += 1;
            if self.active_faults > 0 || !self.pending_recovery.is_empty() {
                self.report.faults.reregistrations += 1;
            }
            // In pure Mobile IP the FA is the serving BS itself; in the
            // multi-tier architecture it is the domain's RSMC. Either way
            // the request is addressed to the care-of address.
            self.air_up(ctx, mn, Payload::Mip(MipMessage::Request(req)), req.coa);
        }
    }

    fn complete_latency_if(&mut self, mn: MnId, now: SimTime, pred: impl Fn(HandoffType) -> bool) {
        let Some(pending) = self.pending_latency.get(&mn).copied() else {
            return;
        };
        if !pred(pending.htype) {
            return;
        }
        self.pending_latency.remove(&mn);
        let latency_ms = now.saturating_since(pending.decided_at).as_millis_f64();
        self.report
            .handoffs
            .latency_ms
            .entry(pending.htype)
            .or_default()
            .record(latency_ms);
    }

    // ------------------------------------------------------------------
    // Mobility and handoff
    // ------------------------------------------------------------------

    /// True when tick handlers may take their same-instant ties (always,
    /// outside the tests that run the one-event-at-a-time oracle).
    #[inline]
    fn takes_ties(&self) -> bool {
        #[cfg(test)]
        return !self.wave_probe.take_no_ties;
        #[cfg(not(test))]
        true
    }

    /// Wave front of the mobility sample. Metro worlds stagger their
    /// nodes over the millisecond grid (`World::mn_start_times`), so
    /// dozens of `MoveSample` events share every instant, every period,
    /// each landing on a hot row that has long left the cache — a miss
    /// waited out alone when handled one event at a time. The front
    /// takes the consecutive `MoveSample` ties that follow `first`,
    /// samples every member's own row in one pass (independent loads:
    /// the misses overlap), then runs the members in order. Returns the
    /// member count.
    ///
    /// Exact: a taken tie is the very next pop ([`Context::take_tie_if`]),
    /// a node occurs at most once in a wave, and sampling row `i` touches
    /// only row `i`'s cursor, model and RNG, which no other member's
    /// handler touches. A member with a handoff in flight is not sampled
    /// — its cursor and RNG stay put, as they do one event at a time —
    /// and the flag is only ever written by the node's own events.
    fn handle_move_sample(&mut self, ctx: &mut Context<'_, Ev>, first: MnId) -> usize {
        let now = ctx.now();
        let mut wave = std::mem::take(&mut self.move_wave);
        wave.push((first, None));
        if self.takes_ties() {
            while let Some(Ev::MoveSample(mn)) =
                ctx.take_tie_if(|ev| matches!(ev, Ev::MoveSample(_)))
            {
                wave.push((mn, None));
            }
        }
        for (mn, sampled) in &mut wave {
            let i = mn.0 as usize;
            if !self.mns.hot[i].handoff_in_flight() {
                *sampled = Some(self.mns.sample(i, now));
            }
        }
        debug_assert!(
            wave.iter()
                .enumerate()
                .all(|(k, (mn, _))| wave[..k].iter().all(|(other, _)| other != mn)),
            "a node occurs twice in one MoveSample wave"
        );
        #[cfg(test)]
        {
            self.wave_probe.move_waves += 1;
            self.wave_probe.move_members += wave.len() as u64;
            self.wave_probe.move_members_in_flight +=
                wave.iter().filter(|(_, s)| s.is_none()).count() as u64;
        }
        for &(mn, sampled) in &wave {
            self.move_sample_one(ctx, mn, sampled);
        }
        let members = wave.len();
        wave.clear();
        self.move_wave = wave;
        members
    }

    /// One node's mobility sample: re-arm, measure, decide. `sampled` is
    /// the node's position and speed at `now`, `None` while a handoff is
    /// in flight.
    fn move_sample_one(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        sampled: Option<(Point, f64)>,
    ) {
        ctx.schedule_in(self.cfg.move_sample, Ev::MoveSample(mn));
        let i = mn.0 as usize;
        // A handoff already in flight: wait for it to complete.
        let Some((pos, speed)) = sampled else {
            return;
        };
        // Candidate set restricted by the deployed tiers. Both buffers are
        // scratch space owned by the world: the measurement pass and the
        // candidate list cost no allocation per sample.
        let mut measurements = std::mem::take(&mut self.measure_scratch);
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        self.cells.measure_batch(pos, None, &mut measurements);
        candidates.clear();
        for meas in &measurements {
            let tier = Tier::of_cell(meas.kind);
            let allowed = match tier {
                Tier::Micro => self.cfg.has_micro,
                Tier::Macro => self.cfg.has_macro,
            };
            if allowed {
                candidates.push(Candidate {
                    cell: meas.cell,
                    tier,
                    rssi_dbm: meas.rssi_dbm,
                    free_ratio: meas.free_ratio,
                });
            }
        }
        self.measure_scratch = measurements;
        let current = self.mns.hot[i].serving().map(|cell| {
            let tier = Tier::of_cell(self.cells.cell(cell).expect("known cell").kind());
            let rssi = candidates
                .iter()
                .find(|c| c.cell == cell)
                .map(|c| c.rssi_dbm);
            CurrentAttachment {
                cell,
                tier,
                rssi_dbm: rssi,
            }
        });
        let decision = self.engine.decide(speed, current, &candidates);
        self.candidate_scratch = candidates;
        match decision {
            HandoffDecision::Stay => {}
            HandoffDecision::Outage => {
                self.report.handoffs.outage_samples += 1;
                // Coverage hole: the radio link is gone. Detach, release
                // the channel, and let Mobile IP know the link dropped.
                if self.mns.hot[i].serving().is_some() {
                    self.mns.hot[i].set_serving(None);
                    if let Some(active) = self.mns.active_mut(i) {
                        if let Some(held) = active.channel_cell.take() {
                            if let Some(c) = self.cells.cell_mut(held) {
                                c.channels_mut().release();
                            }
                        }
                        active.mip.on_link_lost();
                    }
                }
            }
            HandoffDecision::Handoff {
                target, fallback, ..
            } => {
                self.start_handoff(ctx, mn, target, fallback);
            }
        }
    }

    fn start_handoff(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        target: CellId,
        fallback: Option<CellId>,
    ) {
        let now = ctx.now();
        let old = self.mns.hot[mn.0 as usize].serving();
        let kind = if old.is_some() {
            CallKind::Handoff
        } else {
            CallKind::New
        };
        // Idle camping: a node with no traffic flows attaches at
        // paging level — no traffic channel, no admission, no
        // call-accounting. The channel pools stay sized by the active
        // population.
        let holds_channel = !(self.cfg.idle_camping && !self.mns.has_flow[mn.0 as usize]);
        // Admission at the target; §3.2 fallback to the other tier.
        let granted = if holds_channel {
            let mut admitted = None;
            for cand in [Some(target), fallback].into_iter().flatten() {
                let ok = self
                    .cells
                    .cell_mut(cand)
                    .expect("known cell")
                    .channels_mut()
                    .admit(kind)
                    .is_ok();
                if ok {
                    if admitted.is_none() && cand != target {
                        self.report.handoffs.fallback_used += 1;
                    }
                    admitted = Some(cand);
                    break;
                } else if cand == target {
                    self.report.handoffs.rejected += 1;
                }
            }
            let Some(granted) = admitted else {
                if kind == CallKind::New {
                    self.report.calls_blocked += 1;
                }
                return;
            };
            if kind == CallKind::New {
                self.report.calls_accepted += 1;
            }
            granted
        } else {
            target
        };
        // Handoff request + accept over the air. A camping node
        // re-associates silently (idle-state Cellular IP: no admission
        // exchange, no per-move signaling — the periodic paging update
        // is its only network traffic).
        if holds_channel {
            self.report.signaling.handoff_messages += 2;
            self.report.signaling.control_bytes += 48;
        }

        let htype = old.map(|o| classify(&self.hierarchy, o, granted));
        self.mns.begin_handoff(
            mn.0 as usize,
            PendingAttach {
                target: granted,
                old,
                htype,
                decided_at: now,
                holds_channel,
            },
        );

        // Semisoft (micro-tier targets in CIP architectures): notify the
        // new path before retuning.
        let semisoft_capable = holds_channel
            && !self.cfg.mip_only
            && old.is_some()
            && matches!(self.cfg.handoff_kind, HandoffKind::Semisoft { .. })
            && self.domain_idx_of_cell(granted).is_some()
            && old.and_then(|o| self.domain_idx_of_cell(o)) == self.domain_idx_of_cell(granted);
        let attach_delay = if semisoft_capable {
            let HandoffKind::Semisoft { delay } = self.cfg.handoff_kind else {
                unreachable!()
            };
            // The semisoft packet climbs from the new BS immediately.
            let mn_addr = self.mns.home[mn.0 as usize];
            let didx = self.domain_idx_of_cell(granted).expect("checked");
            let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
            let new_bs = self.node_of_cell(granted);
            let bytes = Payload::Cip(CipControl::Semisoft { mn: mn_addr }).control_size_bytes();
            let pkt = self.alloc_packet(
                FlowId(0),
                0,
                mn_addr,
                gw_addr,
                bytes,
                now,
                Payload::Cip(CipControl::Semisoft { mn: mn_addr }),
            );
            self.report.signaling.route_updates += 1;
            let air = self.air_time(granted, self.arena.get(pkt).wire_bytes());
            ctx.schedule_at(
                now + air,
                Ev::Pkt {
                    node: new_bs,
                    from: None,
                    pkt,
                },
            );
            delay
        } else {
            self.cfg.air_delay.saturating_mul(2) + self.cfg.retune_delay
        };
        ctx.schedule_at(now + attach_delay, Ev::Attach(mn));
    }

    fn handle_attach(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        let i = mn.0 as usize;
        let Some(pending) = self.mns.take_pending(i) else {
            return;
        };
        let target = pending.target;
        let old = pending.old;

        // Ping-pong accounting.
        if let Some((prev, left_at)) = self.mns.prev_cell[i] {
            if prev == target && now.saturating_since(left_at) < SimDuration::from_secs(5) {
                self.report.handoffs.ping_pong += 1;
            }
        }
        if let Some(active) = self.mns.active_mut(i) {
            // Release the old channel.
            if let Some(held) = active.channel_cell.take() {
                if let Some(c) = self.cells.cell_mut(held) {
                    c.channels_mut().release();
                }
            }
            if pending.holds_channel {
                active.channel_cell = Some(target);
            }
            active.cip.touch(now);
        }
        if let Some(o) = old {
            self.mns.prev_cell[i] = Some((o, now));
        }
        self.mns.hot[i].set_serving(Some(target));

        if let Some(htype) = pending.htype {
            *self.report.handoffs.completed.entry(htype).or_insert(0) += 1;
            // Camping re-associations send no route update, so their
            // latency window would never close — the signaling latency
            // metric is an active-set metric.
            if pending.holds_channel {
                self.pending_latency.insert(
                    mn,
                    PendingLatency {
                        htype,
                        decided_at: pending.decided_at,
                    },
                );
            }
        }

        // A camping node's attach completes here: the network learns of
        // it only through the periodic paging update (`handle_uplink`) —
        // no location messages, no route repair, no Mobile IP
        // registration, no inter-domain updates. That is the idle-state
        // contract that keeps per-move signaling and directory churn
        // proportional to the *active* population.
        if !pending.holds_channel {
            return;
        }

        let mn_addr = self.mns.home[i];
        let new_didx = self.domain_idx_of_cell(target);
        let old_didx = old.and_then(|o| self.domain_idx_of_cell(o));

        // Multi-tier location management (§3.1/§3.2 messages).
        if !self.cfg.mip_only {
            if old.is_some() {
                self.report.signaling.update_messages += 1;
                self.report.signaling.control_bytes += 32;
                self.locdir
                    .on_update_location(&self.hierarchy, mn_addr, target, now);
                // Macro→micro sends the delete "in the same time" (§3.2a);
                // we issue it for every tier change and micro→micro too,
                // matching Fig 3.4's message lists.
                if let Some(o) = old {
                    self.report.signaling.delete_messages += 1;
                    self.report.signaling.control_bytes += 32;
                    self.locdir.on_delete_location(mn_addr, o);
                }
            } else {
                self.locdir
                    .on_location_message(&self.hierarchy, mn_addr, target, now);
                self.report.signaling.location_messages += 1;
            }
            // Route repair from the new BS (this is where the hard-handoff
            // loss window starts closing).
            if let Some(didx) = new_didx {
                let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
                self.report.signaling.route_updates += 1;
                self.air_up(
                    ctx,
                    mn,
                    Payload::Cip(CipControl::RouteUpdate {
                        mn: mn_addr,
                        came_from_bs: true,
                    }),
                    gw_addr,
                );
                // RSMC authentication on first entry to the domain — a
                // crashed RSMC cannot authenticate; the standby redoes it
                // on the next attach after takeover. The proof lives on the
                // node's row as a (domain, epoch) pair; the RSMC only
                // publishes its epoch (bumped on flush), so auth state on
                // the RSMC side is O(1) rather than O(subscribers).
                if self.cfg.rsmc_enabled && self.domains[didx].rsmc_alive {
                    let epoch = self.domains[didx].rsmc.epoch();
                    let key = (didx as u32, epoch);
                    if let Some(active) = self.mns.active_mut(i) {
                        let auth = &mut active.auth;
                        if !auth.contains(&key) {
                            auth.retain(|&(d, _)| d != key.0);
                            auth.push(key);
                            let _auth_delay = self.domains[didx].rsmc.note_auth_performed();
                        }
                    }
                }
            }
        }

        // Mobile IP: (re-)registration when the care-of address changes —
        // inter-domain movement, initial attach, or every handoff in pure
        // Mobile IP mode.
        let coa_changed = self.cfg.mip_only && old != Some(target)
            || (!self.cfg.mip_only && new_didx != old_didx);
        if coa_changed {
            let adv = if self.cfg.mip_only {
                let bs_addr = self.topo.addr_of(self.node_of_cell(target));
                AgentAdvertisement {
                    agent: bs_addr,
                    coa: bs_addr,
                    max_lifetime: SimDuration::from_secs(300),
                    seq: 0,
                }
            } else {
                let didx = new_didx.expect("multi-tier cells always have a domain");
                let fa = self.domains[didx].fa.addr();
                AgentAdvertisement {
                    agent: fa,
                    coa: fa,
                    max_lifetime: SimDuration::from_secs(300),
                    seq: 0,
                }
            };
            self.advertise(ctx, mn, &adv);
        }

        // Inter-domain update messages (Figs 3.2/3.3): same-upper travels
        // over the shared upper BS link (cheap); different-upper detours
        // via the home network.
        if let (Some(ht), Some(new_didx), Some(old_didx)) = (pending.htype, new_didx, old_didx) {
            if ht.is_inter_domain() && !self.cfg.mip_only {
                let new_rsmc_node = self.domains[new_didx].rsmc_node;
                let new_rsmc_addr = self.domains[new_didx].rsmc.addr();
                let old_rsmc_addr = self.domains[old_didx].rsmc.addr();
                let msg = Payload::Mt(MtMessage::UpdateLocation {
                    mn: mn_addr,
                    new_cell: target,
                });
                self.report.signaling.update_messages += 1;
                let dst = if ht == HandoffType::InterDomainSameUpper {
                    // Fig 3.2: direct to the old domain; the min-delay path
                    // runs through the shared upper-layer BS.
                    old_rsmc_addr
                } else {
                    // Fig 3.3: "the most upper layer BS needs to deliver
                    // this message to home network of MN".
                    self.ha.addr()
                };
                self.send_control(ctx, new_rsmc_node, new_rsmc_addr, dst, msg);
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic maintenance
    // ------------------------------------------------------------------

    /// Wave front of the uplink tick: the same tie-taking as
    /// [`World::handle_move_sample`], with a first pass that only reads
    /// the columns the tick walks for each member so their misses
    /// overlap. The pass writes nothing, so the members run exactly as
    /// they would one event at a time. Returns the member count.
    fn handle_uplink(&mut self, ctx: &mut Context<'_, Ev>, first: MnId) -> usize {
        let mut wave = std::mem::take(&mut self.uplink_wave);
        wave.push(first);
        if self.takes_ties() {
            while let Some(Ev::Uplink(mn)) = ctx.take_tie_if(|ev| matches!(ev, Ev::Uplink(_))) {
                wave.push(mn);
            }
        }
        if wave.len() > 1 {
            for mn in &wave {
                self.mns.warm_uplink(mn.0 as usize);
            }
        }
        for &mn in &wave {
            self.uplink_one(ctx, mn);
        }
        let members = wave.len();
        wave.clear();
        self.uplink_wave = wave;
        members
    }

    fn uplink_one(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        let i = mn.0 as usize;
        // A camping node's uplink exists only to refresh its paging-area
        // state; ticking it faster than the paging period would burn
        // O(subscribers) events to do nothing (see `World::camps`).
        let period = if self.camps(i) {
            self.cfg.cip_timers.paging_update
        } else {
            self.cfg
                .route_update_period
                .unwrap_or(self.cfg.cip_timers.route_update)
        };
        ctx.schedule_in(period, Ev::Uplink(mn));
        let Some(cell) = self.mns.hot[i].serving() else {
            return;
        };
        let mn_addr = self.mns.home[i];
        // MIP retransmissions.
        let action = self
            .mns
            .active_mut(i)
            .map_or(MnAction::None, |a| a.mip.poll_retransmit(now));
        self.perform_mn_action(ctx, mn, action);
        // Periodic agent advertisements drive binding refresh: we fold the
        // advertisement into the maintenance tick (the MN state machine
        // only re-registers once the binding passes its half-life).
        let registered = self
            .mns
            .active(i)
            .is_some_and(|a| matches!(a.mip.state(), mtnet_mobileip::MnState::Registered { .. }));
        if registered {
            let fa_addr = if self.cfg.mip_only {
                self.bs_of_cell(cell).map(|n| self.topo.addr_of(n))
            } else {
                self.domain_idx_of_cell(cell)
                    .map(|didx| self.domains[didx].fa.addr())
            };
            if let Some(fa) = fa_addr {
                let adv = AgentAdvertisement {
                    agent: fa,
                    coa: fa,
                    max_lifetime: SimDuration::from_secs(300),
                    seq: 0,
                };
                self.advertise(ctx, mn, &adv);
            }
        }

        if self.cfg.mip_only {
            return;
        }
        let Some(didx) = self.domain_idx_of_cell(cell) else {
            return;
        };
        let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
        // Camping nodes are idle by construction (no flows): route
        // updates would advertise a data path nobody uses. Their CIP
        // mode can still read Active right after creation (the activity
        // timeout measures from t=0), so pin them to the paging branch.
        let mode = match self.mns.active(i) {
            Some(active) if !self.camps(i) => active.cip.mode(now),
            _ => MnMode::Idle,
        };
        match mode {
            MnMode::Active => {
                self.report.signaling.route_updates += 1;
                self.air_up(
                    ctx,
                    mn,
                    Payload::Cip(CipControl::RouteUpdate {
                        mn: mn_addr,
                        came_from_bs: true,
                    }),
                    gw_addr,
                );
            }
            MnMode::Idle => {
                let since = now.saturating_since(self.mns.last_paging_update[i]);
                if since >= self.cfg.cip_timers.paging_update {
                    self.mns.last_paging_update[i] = now;
                    self.report.signaling.paging_updates += 1;
                    self.air_up(
                        ctx,
                        mn,
                        Payload::Cip(CipControl::PagingUpdate { mn: mn_addr }),
                        gw_addr,
                    );
                }
            }
        }
    }

    fn handle_location_tick(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        ctx.schedule_in(self.cfg.location_period, Ev::LocationTick(mn));
        if self.cfg.mip_only {
            return;
        }
        let Some(cell) = self.mns.hot[mn.0 as usize].serving() else {
            return;
        };
        let mn_addr = self.mns.home[mn.0 as usize];
        self.report.signaling.location_messages += 1;
        self.report.signaling.control_bytes += 32;
        self.locdir
            .on_location_message(&self.hierarchy, mn_addr, cell, now);
    }

    /// Emits flow `fidx`'s next packet and schedules the one after.
    /// Returns how many events the call handled: two when it ran the
    /// packet's arrival at the CN itself.
    fn handle_flow_next(&mut self, ctx: &mut Context<'_, Ev>, fidx: usize) -> usize {
        let now = ctx.now();
        let (mn, flow_id, arrival) = {
            let f = &mut self.flows[fidx];
            let arrival = f.gen.next(&mut f.rng);
            (f.mn, f.flow, arrival)
        };
        // Diurnal load: stretch the gap by the curve's multiplier at the
        // current instant (a pure function of `now` — deterministic).
        let gap = match self.cfg.load_curve {
            Some(curve) => SimDuration::from_nanos(
                (arrival.gap.as_nanos() as f64 * curve.gap_multiplier(now)) as u64,
            ),
            None => arrival.gap,
        };
        ctx.schedule_in(gap, Ev::FlowNext(fidx));
        let Some(mn) = self.mns.resolve(mn) else {
            return 1;
        };
        let mn_addr = self.mns.home[mn.0 as usize];
        let seq = {
            let f = &mut self.flows[fidx];
            let s = f.seq;
            f.seq += 1;
            f.qos.record_sent(s, now, arrival.bytes);
            s
        };
        let cn = self.cn_addr;
        let pkt = self.alloc_packet(flow_id, seq, cn, mn_addr, arrival.bytes, now, Payload::Data);
        // CN route optimization: tunnel straight to the last notified RSMC.
        if let Some(rsmc) = self.cn_route[mn.0 as usize] {
            self.arena
                .get_mut(pkt)
                .encapsulate(cn, rsmc, TunnelKind::Rsmc);
        }
        // The packet enters at the CN at this same instant. When nothing
        // else is queued for it the run loop would pop that event straight
        // back: claim it and run it here instead.
        let node = self.cn_node;
        if ctx.claim_now() {
            self.dispatch_pkt(ctx, node, None, pkt);
            return 2;
        }
        ctx.schedule_now(Ev::Pkt {
            node,
            from: None,
            pkt,
        });
        1
    }

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

    // ------------------------------------------------------------------
    // Packet entry from the CN / HA path (special-cased nodes)
    // ------------------------------------------------------------------

    /// Pre-routing at the home agent: intercept + tunnel packets for
    /// registered mobile nodes (Fig 2.2 step 2a).
    fn ha_intercept(&mut self, pkt: PacketRef, now: SimTime) {
        let dst = {
            let p = self.arena.get(pkt);
            if p.is_encapsulated() {
                return;
            }
            p.dst
        };
        if let Some(coa) = self.ha.tunnel_endpoint_counted(dst, now) {
            let ha = self.ha.addr();
            self.arena
                .get_mut(pkt)
                .encapsulate(ha, coa, TunnelKind::HomeAgent);
        }
    }

    /// The [`Ev::Pkt`] arm of event dispatch.
    fn dispatch_pkt(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        from: Option<NodeId>,
        pkt: PacketRef,
    ) {
        // Home-agent interception happens as the packet transits the HA
        // router.
        if node == self.ha_node && self.mn_of(self.arena.get(pkt).dst).is_some() {
            self.ha_intercept(pkt, ctx.now());
            // If no binding exists the packet has nowhere to go.
            if !self.arena.get(pkt).is_encapsulated() {
                self.drop_packet(pkt, DropCause::NoBinding);
                return;
            }
            self.forward_wired(ctx, node, pkt);
            return;
        }
        self.handle_pkt(ctx, node, from, pkt);
    }
}

impl Model for World {
    type Event = Ev;

    fn handle_event(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        let prof = evprof::enabled().then(|| (evprof::slot(&event), std::time::Instant::now()));
        // How many events this dispatch handles: one, except for the tick
        // handlers, which take their same-instant ties and run the wave,
        // and a flow tick that runs its own zero-delay continuation.
        let mut members = 1;
        match event {
            Ev::Pkt { node, from, pkt } => self.dispatch_pkt(ctx, node, from, pkt),
            Ev::AirDown { mn, cell, pkt } => self.handle_air_down(ctx, mn, cell, pkt),
            Ev::MoveSample(mn) => members = self.handle_move_sample(ctx, mn),
            Ev::Uplink(mn) => members = self.handle_uplink(ctx, mn),
            Ev::LocationTick(mn) => self.handle_location_tick(ctx, mn),
            Ev::FlowNext(fidx) => members = self.handle_flow_next(ctx, fidx),
            Ev::Attach(mn) => self.handle_attach(ctx, mn),
            Ev::Sweep => self.handle_sweep(ctx),
            Ev::Fault(idx) => self.handle_fault(ctx, idx),
        }
        if let Some((slot, t0)) = prof {
            self.evprof
                .get_or_insert_with(Box::default)
                .record(slot, members, t0.elapsed());
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
    /// Largest population the historical linear stagger formulas are kept
    /// for, bit for bit. Every cataloged scenario (E1–E13) sits at or
    /// below this; larger worlds fold the stagger back into each node's
    /// own period so the first tick of node 10^6 is not parked days into
    /// the run.
    const LEGACY_STAGGER_MAX: usize = 250;

    /// True when node `i` camps: under [`WorldConfig::idle_camping`] a
    /// node that sources no traffic flow attends no channel, sends no
    /// location messages and ticks its uplink at the *paging-update*
    /// cadence — the network's per-idle-subscriber cost is one paging
    /// message per paging period, nothing else.
    pub(crate) fn camps(&self, i: usize) -> bool {
        self.cfg.idle_camping && !self.mns.has_flow[i]
    }

    /// Initial `(MoveSample, Uplink, LocationTick)` times for node `i`
    /// (see [`World::schedule_initial`]). A camping node gets no
    /// `LocationTick` at all (`None`) and staggers its uplink over the
    /// paging period instead of the route-update period — the O(idle)
    /// event mass runs at paging cadence, not signaling cadence.
    pub(crate) fn mn_start_times(&self, i: usize) -> (SimTime, SimTime, Option<SimTime>) {
        let camps = self.camps(i);
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
        let up_ms = if camps {
            ms(self.cfg.cip_timers.paging_update)
        } else {
            ms(self
                .cfg
                .route_update_period
                .unwrap_or(self.cfg.cip_timers.route_update))
        };
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
        let mut sim = self.launch();
        sim.run_until(SimTime::ZERO + duration);
        let events = sim.events_processed();
        sim.into_model().finish_report(duration, events)
    }

    /// The world on its simulator with every periodic process and fault
    /// edge scheduled, nothing run yet.
    fn launch(self) -> Simulator<World> {
        let mut sim = Simulator::new(self);
        World::schedule_initial(&mut sim, |_| true);
        sim
    }

    /// Schedules the initial events `owns` accepts: the one spelling of
    /// the start-up program order, shared by the sequential engine (owns
    /// everything) and each half of a sharded world (owns its classes) —
    /// same-instant ties resolve by schedule order, so bit-exactness
    /// across engines depends on there being exactly one.
    pub(crate) fn schedule_initial(sim: &mut Simulator<World>, owns: impl Fn(&Ev) -> bool) {
        let schedule = |sim: &mut Simulator<World>, at: SimTime, ev: Ev| {
            if owns(&ev) {
                sim.schedule_at(at, ev);
            }
        };
        // Kick off periodic machinery.
        let n_mns = sim.model().mns.len();
        let n_flows = sim.model().flows.len();
        for i in 0..n_mns {
            let mn = MnId(i as u32);
            // Stagger start times so nodes do not move in lockstep.
            let (t_move, t_up, t_loc) = sim.model().mn_start_times(i);
            schedule(sim, t_move, Ev::MoveSample(mn));
            schedule(sim, t_up, Ev::Uplink(mn));
            if let Some(t_loc) = t_loc {
                schedule(sim, t_loc, Ev::LocationTick(mn));
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
            prefixes: self.prefixes.clone(),
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
            report: self.report.clone(),
        }
    }

    /// Extracts the final report from a finished world: the shared tail
    /// of the sequential [`World::run`] and each half of a sharded one.
    fn finish_report(mut self, duration: SimDuration, events: u64) -> SimReport {
        if let Some(counters) = self.evprof.take() {
            counters.fold();
        }
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

#[cfg(test)]
mod tests;

/// Opt-in event-handler profiling: set `MTNET_EVPROF=1` and every
/// dispatch accumulates wall time into a per-variant bucket;
/// [`evprof::report`] renders the totals. A dispatch of a tick variant
/// is a whole same-instant wave, so each bucket counts events and
/// dispatches separately: averages stay per event, the counts sum to
/// `events_processed`, and events ÷ dispatches is the mean wave length.
/// Process-global (the counters sum across worlds), ~50ns of `Instant`
/// overhead per dispatch when enabled, a single cached-bool test when
/// not — the tool of first resort when a metro-scale run's wall time
/// needs explaining. A world books into counters of its own and adds
/// them to the totals once, when it finishes — the halves of a sharded
/// world would otherwise pass the totals' cache lines back and forth.
#[doc(hidden)]
pub mod evprof {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    const N: usize = 10;
    static COUNT: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
    static DISPATCHES: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
    static NANOS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
    static ON: OnceLock<bool> = OnceLock::new();

    /// One world's counts, per variant slot.
    #[derive(Default)]
    pub(crate) struct Counters {
        count: [u64; N],
        dispatches: [u64; N],
        nanos: [u64; N],
    }

    impl Counters {
        /// Books one dispatch that handled `events` events in `d`.
        pub(crate) fn record(&mut self, slot: usize, events: usize, d: std::time::Duration) {
            self.count[slot] += events as u64;
            self.dispatches[slot] += 1;
            self.nanos[slot] += d.as_nanos() as u64;
        }

        /// Adds this world's counts to the process-wide totals.
        pub(crate) fn fold(&self) {
            for i in 0..N {
                COUNT[i].fetch_add(self.count[i], Ordering::Relaxed);
                DISPATCHES[i].fetch_add(self.dispatches[i], Ordering::Relaxed);
                NANOS[i].fetch_add(self.nanos[i], Ordering::Relaxed);
            }
        }
    }

    /// One of the two environment variables the workspace reads, and the
    /// only one a library crate reads: a hidden diagnostic has no
    /// argument path to arrive by until ROADMAP's perf-ledger item (b)
    /// turns it into `experiments --profile`.
    pub(crate) fn enabled() -> bool {
        *ON.get_or_init(|| std::env::var_os("MTNET_EVPROF").is_some())
    }

    pub(crate) fn slot(ev: &super::Ev) -> usize {
        match ev {
            super::Ev::Pkt { .. } => 0,
            super::Ev::AirDown { .. } => 1,
            super::Ev::MoveSample(_) => 2,
            super::Ev::Uplink(_) => 3,
            super::Ev::LocationTick(_) => 4,
            super::Ev::FlowNext(_) => 5,
            super::Ev::Attach(_) => 6,
            super::Ev::Sweep => 7,
            super::Ev::Fault(_) => 8,
        }
    }

    pub fn report() -> String {
        const NAMES: [&str; N] = [
            "Pkt",
            "AirDown",
            "MoveSample",
            "Uplink",
            "LocationTick",
            "FlowNext",
            "Attach",
            "Sweep",
            "Fault",
            "?",
        ];
        let mut out = String::new();
        for i in 0..N {
            let c = COUNT[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let ns = NANOS[i].load(Ordering::Relaxed);
            let waves = DISPATCHES[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{:<14} {:>10}  total {:>8.3}s  avg {:>6}ns  wave {:>5.2}\n",
                NAMES[i],
                c,
                ns as f64 / 1e9,
                ns / c,
                c as f64 / waves as f64
            ));
        }
        out
    }
}
