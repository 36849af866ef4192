//! Construction of a [`World`] from a declarative specification.
//!
//! The builder materializes, consistently with each other:
//! the wired topology (Fig 4.1), the radio cell map (Fig 2.1), the
//! multi-tier hierarchy with its cell tables (Fig 3.1), per-domain
//! Cellular IP trees and RSMCs, Mobile IP entities, and the mobile-node
//! population with its multimedia flows.

use super::mn::{MnActive, MnTable, NO_CELL};
use super::{DomainState, World, WorldConfig};
use crate::hierarchy::Hierarchy;
use crate::location::LocationDirectory;
use crate::messages::MnId;
use crate::mnld::Mnld;
use crate::report::SimReport;
use crate::rsmc::Rsmc;
use mtnet_cellularip::{CipConfig, CipNetwork};
use mtnet_mobileip::{ForeignAgent, HomeAgent};
use mtnet_mobility::{MobilityModel, Point};
use mtnet_net::{Addr, FlowId, LinkConfig, NodeId, Prefix, Topology};
use mtnet_radio::{Cell, CellId, CellKind, CellMap};
use mtnet_sim::{FxHashMap, RngStream, SimDuration};
use mtnet_traffic::{Cbr, OnOffVbr, ParetoWeb};

/// The kind of multimedia flow to attach to a mobile node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowKind {
    /// 64 kbit/s CBR voice.
    Voice,
    /// On/off VBR video (384 kbit/s peak).
    Video,
    /// Heavy-tailed web browsing.
    Web,
}

/// A mobility model registered with [`WorldBuilder::add_model`]: any
/// number of nodes can walk it (see [`WorldBuilder::add_mn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ModelId(u32);

/// One domain to deploy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DomainSpec {
    /// Center of the domain's macro cell.
    pub center: Point,
    /// Number of micro cells in the domain's street row.
    pub n_micro: usize,
    /// Spacing between adjacent micro BSs, meters.
    pub micro_spacing: f64,
    /// Tier of the street-row cells: [`CellKind::Micro`] for the paper's
    /// geometry, [`CellKind::Pico`] for dense-urban in-building rows.
    /// Either way the row is micro-tier-managed (Cellular IP).
    pub micro_kind: CellKind,
    /// Domains sharing a region id share an upper-layer macro BS
    /// (`R3` in Fig 3.1) — required for the Fig 3.2 same-upper case.
    pub region: Option<u32>,
    /// Deploy this domain's macro radio cell (set `false` to model rural
    /// macro coverage holes; the hierarchy slot still exists).
    pub macro_radio: bool,
    /// Make this domain a satellite overlay: one satellite-tier cell
    /// (Fig 2.1's outermost ring) instead of a terrestrial macro, no
    /// micro row. Satellite coverage is macro-tier-managed (Mobile IP).
    pub satellite: bool,
}

impl Default for DomainSpec {
    fn default() -> Self {
        DomainSpec {
            center: Point::new(1500.0, 1500.0),
            n_micro: 4,
            micro_spacing: 400.0,
            micro_kind: CellKind::Micro,
            region: None,
            macro_radio: true,
            satellite: false,
        }
    }
}

/// Builds [`World`]s by hand: [`crate::spec::ScenarioSpec::build`] and
/// this crate's tests are its only callers.
pub(crate) struct WorldBuilder {
    cfg: WorldConfig,
    topo: Topology,
    cells: CellMap,
    hierarchy: Hierarchy,
    domains: Vec<DomainState>,
    cell_node: FxHashMap<CellId, NodeId>,
    node_cell: FxHashMap<NodeId, CellId>,
    cell_domain: FxHashMap<CellId, usize>,
    node_domain: FxHashMap<NodeId, usize>,
    region_upper: FxHashMap<u32, (CellId, NodeId)>,
    prefixes: Vec<(Prefix, NodeId)>,
    internet_node: NodeId,
    ha_node: NodeId,
    cn_node: NodeId,
    ha: HomeAgent,
    cn_addr: Addr,
    bs_fas: FxHashMap<CellId, ForeignAgent>,
    mns: MnTable,
    flows: Vec<super::FlowSim>,
    next_cell: u32,
    master_rng: RngStream,
}

impl WorldBuilder {
    /// Starts a world: Internet core, home network (HA), correspondent
    /// node.
    pub fn new(cfg: WorldConfig) -> Self {
        let mut topo = Topology::new();
        let internet_node = topo.add_node("1.0.0.1".parse().expect("static addr"));
        let ha_addr: Addr = "10.0.0.1".parse().expect("static addr");
        let ha_node = topo.add_node(ha_addr);
        let cn_addr: Addr = "30.0.0.2".parse().expect("static addr");
        let cn_node = topo.add_node(cn_addr);
        // Home network sits a realistic WAN distance away; the CN is a
        // well-connected server.
        topo.connect(
            internet_node,
            ha_node,
            LinkConfig {
                propagation: SimDuration::from_millis(15),
                ..LinkConfig::wide_area()
            },
        );
        topo.connect(
            internet_node,
            cn_node,
            LinkConfig {
                propagation: SimDuration::from_millis(5),
                ..LinkConfig::backbone()
            },
        );
        // The HA owns all of 10/8, so every arithmetic home address is
        // home at any population; nothing else is allocated there.
        let home_prefix: Prefix = "10.0.0.0/8".parse().expect("static prefix");
        let ha = HomeAgent::new(ha_addr, home_prefix);
        WorldBuilder {
            master_rng: RngStream::from_seed(cfg.seed),
            cfg,
            topo,
            cells: CellMap::without_shadowing(),
            hierarchy: Hierarchy::new(),
            domains: Vec::new(),
            cell_node: FxHashMap::default(),
            node_cell: FxHashMap::default(),
            cell_domain: FxHashMap::default(),
            node_domain: FxHashMap::default(),
            region_upper: FxHashMap::default(),
            prefixes: vec![(home_prefix, ha_node)],
            internet_node,
            ha_node,
            cn_node,
            ha,
            cn_addr,
            bs_fas: FxHashMap::default(),
            mns: MnTable::default(),
            flows: Vec::new(),
            next_cell: 0,
        }
    }

    fn alloc_cell(&mut self) -> CellId {
        // The mobile-node hot row stores the serving cell with one id
        // reserved for "detached".
        assert!(
            self.next_cell != NO_CELL,
            "cell id space exhausted: {NO_CELL} is reserved"
        );
        let id = CellId(self.next_cell);
        self.next_cell += 1;
        id
    }

    /// Deploys one domain: RSMC/gateway, macro cell (if the architecture
    /// has a macro tier), a row of micro cells (if it has a micro tier),
    /// wired per Fig 4.1: RSMC under the Internet, BS tree under the RSMC.
    pub fn add_domain(&mut self, spec: DomainSpec) -> usize {
        let didx = self.domains.len();
        let d = u8::try_from(didx).expect("at most 256 domains: the address plan is 20.<d>.x.x");
        let prefix: Prefix = Prefix::new(Addr::from_octets(20, d, 0, 0), 16);
        let rsmc_addr = Addr::from_octets(20, d, 0, 1);
        let rsmc_node = self.topo.add_node(rsmc_addr);
        self.topo
            .connect(self.internet_node, rsmc_node, LinkConfig::wide_area());
        self.prefixes.push((prefix, rsmc_node));
        self.node_domain.insert(rsmc_node, didx);

        let mut cip = CipNetwork::new(
            rsmc_node,
            CipConfig {
                timers: self.cfg.cip_timers,
            },
        );

        // Upper-layer BS shared by the region (Fig 3.2's common R3).
        let upper_cell = spec.region.map(|r| {
            if let Some(&(cell, node)) = self.region_upper.get(&r) {
                // Wire this domain's RSMC to the existing upper BS.
                self.topo.connect(node, rsmc_node, LinkConfig::backbone());
                cell
            } else {
                let cell = self.alloc_cell();
                let r8 = u8::try_from(r).expect("region ids are domain indices");
                let node = self.topo.add_node(Addr::from_octets(21, r8, 0, 1));
                self.topo.connect(node, rsmc_node, LinkConfig::backbone());
                self.hierarchy.add_upper_macro(cell);
                self.region_upper.insert(r, (cell, node));
                cell
            }
        });

        // Top macro cell of the domain (always present in the hierarchy;
        // present as a radio cell only when the macro tier is deployed).
        let macro_cell = self.alloc_cell();
        let domain_id = self.hierarchy.add_domain(macro_cell, upper_cell);
        self.cell_domain.insert(macro_cell, didx);
        let kind = if spec.satellite {
            CellKind::Satellite
        } else {
            CellKind::Macro
        };
        let bs_parent_node = if self.cfg.arch.has_macro() && spec.macro_radio {
            let macro_node = self.topo.add_node(Addr::from_octets(20, d, 0, 10));
            self.topo
                .connect(rsmc_node, macro_node, LinkConfig::backbone());
            cip.add_bs(macro_node, rsmc_node);
            self.cells
                .add(Cell::new(macro_cell, kind, spec.center, macro_node));
            self.cell_node.insert(macro_cell, macro_node);
            self.node_cell.insert(macro_node, macro_cell);
            self.node_domain.insert(macro_node, didx);
            if self.cfg.arch.mip_only() {
                self.bs_fas
                    .insert(macro_cell, ForeignAgent::new(self.topo.addr_of(macro_node)));
            }
            macro_node
        } else {
            rsmc_node
        };

        // Micro cells: a street row; even cells attach to the macro (or
        // gateway), odd cells chain under their left neighbour — giving
        // the two-level micro tiers of Fig 3.1 and non-trivial crossover
        // base stations. Satellite overlays carry no micro row.
        if self.cfg.arch.has_micro() && !spec.satellite {
            let span = spec.micro_spacing * (spec.n_micro.saturating_sub(1)) as f64;
            let x0 = spec.center.x - span / 2.0;
            let mut prev: Option<(CellId, NodeId)> = None;
            for i in 0..spec.n_micro {
                let cell = self.alloc_cell();
                let pos = Point::new(x0 + i as f64 * spec.micro_spacing, spec.center.y);
                let host = u8::try_from(i + 1).expect("at most 255 street-row cells per domain");
                let node = self.topo.add_node(Addr::from_octets(20, d, 1, host));
                let (parent_cell, parent_node) = match (i % 2, prev) {
                    (1, Some(p)) => p,
                    _ => (macro_cell, bs_parent_node),
                };
                self.topo.connect(parent_node, node, LinkConfig::access());
                cip.add_bs(node, parent_node);
                let hierarchy_parent = if self.hierarchy.contains(parent_cell)
                    && self.hierarchy.domain_of(parent_cell).is_some()
                {
                    parent_cell
                } else {
                    macro_cell
                };
                self.hierarchy.add_micro(cell, hierarchy_parent);
                self.cells.add(Cell::new(cell, spec.micro_kind, pos, node));
                self.cell_node.insert(cell, node);
                self.node_cell.insert(node, cell);
                self.node_domain.insert(node, didx);
                self.cell_domain.insert(cell, didx);
                prev = Some((cell, node));
            }
        }

        self.domains.push(DomainState {
            id: domain_id,
            rsmc: Rsmc::new(rsmc_addr),
            fa: ForeignAgent::new(rsmc_addr),
            cip,
            semisoft: mtnet_cellularip::SemisoftController::new(),
            rsmc_node,
            rsmc_alive: true,
        });
        didx
    }

    /// Sizes the per-node tables for `n` more [`WorldBuilder::add_mn`]
    /// calls. Optional, but a builder that knows its population should
    /// say so: the tables then allocate once instead of doubling (and
    /// copying) their way up.
    pub fn reserve_mns(&mut self, n: usize) {
        // Without idle camping every node gets an active row; with it,
        // who camps is only known once each node's flows are.
        let active = if self.cfg.idle_camping { 0 } else { n };
        self.mns.reserve(n, active);
    }

    /// Registers a mobility model for [`WorldBuilder::add_mn`]. A model
    /// is a parameter set, not a walker: nodes that move alike (a
    /// domain's pedestrians) should share one, and each keeps only its
    /// start, RNG stream and progress in its own row.
    pub fn add_model(&mut self, model: Box<dyn MobilityModel + Send>) -> ModelId {
        ModelId(self.mns.add_model(model))
    }

    /// Adds a mobile node walking `model` from `start`, with the given
    /// flows. Home addresses are arithmetic (dense, 250 per /24 from
    /// 10.0.2.1 — see `mn::home_addr`) inside the HA's 10.0.0.0/8.
    ///
    /// # Panics
    ///
    /// Panics if `model` was not registered with this builder.
    pub fn add_mn(&mut self, model: ModelId, start: Point, flows: &[FlowKind]) -> MnId {
        let idx = u32::try_from(self.mns.len()).expect("node ids are u32");
        let home = super::mn::home_addr(idx);
        // A node that camps (`World::camps`) is its idle row alone.
        let camps = self.cfg.idle_camping && flows.is_empty();
        let active = (!camps).then(|| MnActive::new(home, self.ha.addr(), self.cfg.cip_timers));
        let rng = self.master_rng.child(format_args!("mn{idx}/mobility"));
        let id = self.mns.push(model.0, start, rng, active);
        if !flows.is_empty() {
            self.mns.has_flow[id.0 as usize] = true;
        }
        for kind in flows {
            let fidx = self.flows.len() as u64;
            let gen = match kind {
                FlowKind::Voice => super::FlowGen::Cbr(Cbr::voice()),
                FlowKind::Video => super::FlowGen::Vbr(OnOffVbr::video()),
                FlowKind::Web => super::FlowGen::Web(ParetoWeb::browsing()),
            };
            self.flows.push(super::FlowSim {
                flow: FlowId(fidx + 1),
                mn: id,
                gen,
                qos: mtnet_traffic::FlowQos::new(),
                seq: 0,
                rng: self.master_rng.child(format_args!("flow{fidx}/traffic")),
            });
        }
        id
    }

    /// Finalizes the persistent lookup indices and produces the world.
    pub fn build(self) -> World {
        let locdir = LocationDirectory::new(&self.hierarchy, self.cfg.table_lifetime);
        // Dense per-id tables for the per-packet lookups: ids are small
        // and contiguous, so array reads beat map probes on the hot path.
        fn dense<T: Copy>(n: usize, entries: impl Iterator<Item = (usize, T)>) -> Vec<Option<T>> {
            let mut v = vec![None; n];
            for (i, t) in entries {
                v[i] = Some(t);
            }
            v
        }
        let n_nodes = self.topo.node_count();
        let n_cells = self.next_cell as usize;
        let cell_node = dense(
            n_cells,
            self.cell_node.iter().map(|(c, &n)| (c.0 as usize, n)),
        );
        let node_cell = dense(
            n_nodes,
            self.node_cell.iter().map(|(n, &c)| (n.0 as usize, c)),
        );
        let cell_domain = dense(
            n_cells,
            self.cell_domain.iter().map(|(c, &d)| (c.0 as usize, d)),
        );
        let node_domain = dense(
            n_nodes,
            self.node_domain.iter().map(|(n, &d)| (n.0 as usize, d)),
        );
        let engine = crate::handoff::HandoffEngine::new(
            crate::handoff::DecisionConfig::default(),
            self.cfg.factors,
        );
        // Longest prefix first, so `World::wired_next_hop` can take the
        // first containing prefix with a usable route — the same
        // most-specific-wins-with-fall-through order the per-node LPM
        // tables implemented. The sort is stable and equal-length
        // prefixes are disjoint, so ties cannot change answers.
        let mut prefixes = self.prefixes;
        prefixes.sort_by(|a, b| b.0.len().cmp(&a.0.len()));
        // Persistent O(1) indices for the per-packet scans: the domain of
        // an RSMC address / gateway node and the slot of a flow id never
        // change after build.
        let rsmc_addr_domain = self
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.rsmc.addr(), i))
            .collect();
        let rsmc_node_domain = self
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.rsmc_node, i))
            .collect();
        let flow_index = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| (f.flow, i))
            .collect();
        // Per-length masked maps mirroring the sorted scan (see
        // `World::prefix_probe`): one `(mask, network → owner)` pair per
        // distinct prefix length, longest first.
        let mut prefix_probe: Vec<(u32, FxHashMap<u32, NodeId>)> = Vec::new();
        for &(p, owner) in &prefixes {
            let mask = if p.len() == 0 {
                0
            } else {
                u32::MAX << (32 - p.len())
            };
            match prefix_probe.last_mut() {
                Some((m, owners)) if *m == mask => {
                    owners.insert(p.network().0 & mask, owner);
                }
                _ => {
                    let mut owners = FxHashMap::default();
                    owners.insert(p.network().0 & mask, owner);
                    prefix_probe.push((mask, owners));
                }
            }
        }
        let cn_route = vec![None; self.mns.len()];
        let mut report = SimReport::default();
        if self.cfg.aggregate_qos {
            report.aggregate = Some(crate::report::AggregateQos::new());
        }
        World {
            cfg: self.cfg,
            topo: self.topo,
            routes: mtnet_net::RouteCache::new(),
            prefix_probe,
            cells: self.cells,
            cell_node,
            node_cell,
            hierarchy: self.hierarchy,
            locdir,
            domains: self.domains,
            cell_domain,
            node_domain,
            rsmc_addr_domain,
            rsmc_node_domain,
            ha: self.ha,
            internet_node: self.internet_node,
            ha_node: self.ha_node,
            cn_node: self.cn_node,
            cn_addr: self.cn_addr,
            mnld: Mnld::new(),
            bs_fas: self.bs_fas,
            mns: self.mns,
            flows: self.flows,
            flow_index,
            cn_route,
            engine,
            pending_latency: FxHashMap::default(),
            next_packet_id: 0,
            arena: crate::arena::PacketArena::new(),
            measure_scratch: Vec::new(),
            candidate_scratch: Vec::new(),
            move_wave: Vec::new(),
            uplink_wave: Vec::new(),
            #[cfg(test)]
            wave_probe: Default::default(),
            fault_plan: Vec::new(),
            active_faults: 0,
            pending_recovery: Vec::new(),
            shard: None,
            replicated_events: 0,
            evprof: None,
            lanes: Default::default(),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cell id space exhausted")]
    fn the_detached_sentinel_is_never_deployed_as_a_cell() {
        let mut b = WorldBuilder::new(WorldConfig::default());
        b.next_cell = NO_CELL;
        b.add_domain(DomainSpec::default());
    }
}
