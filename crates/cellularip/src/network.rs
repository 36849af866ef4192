//! The assembled Cellular IP access network: tree + per-node caches.

use crate::cache::SoftStateCache;
use crate::state::CipTimers;
use crate::tree::CipTree;
use mtnet_net::{Addr, NodeId};
use mtnet_sim::SimTime;

/// Static configuration of a Cellular IP network.
#[derive(Debug, Clone, Copy, Default)]
pub struct CipConfig {
    /// Protocol timers (route/paging update periods, active timeout).
    pub timers: CipTimers,
}

/// Outcome of paging an idle mobile node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOutcome {
    /// Paging caches pinpointed the node: page sent down one path of the
    /// given length (in hops), to the returned base station.
    Directed {
        /// The BS whose paging-cache chain located the node.
        bs: NodeId,
        /// Hops traversed from the gateway.
        hops: usize,
    },
    /// No paging state: the page floods to every base station.
    Flooded {
        /// Number of base stations paged.
        paged_bs: usize,
    },
}

impl PageOutcome {
    /// Number of page messages transmitted (overhead metric).
    pub fn messages(&self) -> usize {
        match self {
            PageOutcome::Directed { hops, .. } => *hops,
            PageOutcome::Flooded { paged_bs } => *paged_bs,
        }
    }
}

/// A Cellular IP access network: the BS tree plus the distributed
/// routing and paging caches, driven by route-/paging-update packets.
///
/// Per the protocol, *data* packets from a mobile node refresh routing
/// caches exactly like route-update packets do — use
/// [`CipNetwork::route_update`] for both.
#[derive(Debug, Clone)]
pub struct CipNetwork {
    tree: CipTree,
    config: CipConfig,
    /// Per-node routing cache: mn → next hop downlink (the node itself
    /// means "deliver over the air here"). Indexed densely by `NodeId`
    /// (`None` for ids outside this access network), so the per-packet
    /// next-hop probe is an array read instead of a map lookup.
    route_caches: Vec<Option<SoftStateCache<Addr, NodeId>>>,
    /// Per-node paging cache (coarser lifetime), same dense layout.
    paging_caches: Vec<Option<SoftStateCache<Addr, NodeId>>>,
    /// Reused uplink-path buffer for the per-update climb loops
    /// (route/paging updates arrive per active node per period — with
    /// reuse they never touch the allocator after warm-up).
    path_scratch: Vec<NodeId>,
    route_update_messages: u64,
    paging_update_messages: u64,
}

impl CipNetwork {
    /// Creates a network with only the gateway.
    pub fn new(gateway: NodeId, config: CipConfig) -> Self {
        let mut net = CipNetwork {
            tree: CipTree::new(gateway),
            config,
            route_caches: Vec::new(),
            paging_caches: Vec::new(),
            path_scratch: Vec::new(),
            route_update_messages: 0,
            paging_update_messages: 0,
        };
        net.install_caches(gateway);
        net
    }

    fn install_caches(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.route_caches.len() <= idx {
            self.route_caches.resize_with(idx + 1, || None);
            self.paging_caches.resize_with(idx + 1, || None);
        }
        self.route_caches[idx] = Some(SoftStateCache::new(
            self.config.timers.route_cache_lifetime(),
        ));
        self.paging_caches[idx] = Some(SoftStateCache::new(
            self.config.timers.paging_cache_lifetime(),
        ));
    }

    fn route_cache(&self, node: NodeId) -> Option<&SoftStateCache<Addr, NodeId>> {
        self.route_caches.get(node.0 as usize)?.as_ref()
    }

    fn route_cache_mut(&mut self, node: NodeId) -> Option<&mut SoftStateCache<Addr, NodeId>> {
        self.route_caches.get_mut(node.0 as usize)?.as_mut()
    }

    fn paging_cache(&self, node: NodeId) -> Option<&SoftStateCache<Addr, NodeId>> {
        self.paging_caches.get(node.0 as usize)?.as_ref()
    }

    fn paging_cache_mut(&mut self, node: NodeId) -> Option<&mut SoftStateCache<Addr, NodeId>> {
        self.paging_caches.get_mut(node.0 as usize)?.as_mut()
    }

    /// Adds a base station under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if the tree invariants are violated (see [`CipTree::add_bs`]).
    pub fn add_bs(&mut self, bs: NodeId, parent: NodeId) {
        self.tree.add_bs(bs, parent);
        self.install_caches(bs);
    }

    /// The underlying tree.
    pub fn tree(&self) -> &CipTree {
        &self.tree
    }

    /// The configuration.
    pub fn config(&self) -> &CipConfig {
        &self.config
    }

    /// Processes a route-update (or uplink data) packet from `mn` attached
    /// at `bs`: refreshes the mn→downlink mapping at every node on the
    /// uplink path. Returns the number of cache refreshes (= path length).
    ///
    /// # Panics
    ///
    /// Panics if `bs` is not in the tree.
    pub fn route_update(&mut self, mn: Addr, bs: NodeId, now: SimTime) -> usize {
        self.route_update_messages += 1;
        let mut path = std::mem::take(&mut self.path_scratch);
        self.tree.uplink_path_into(bs, &mut path);
        let mut came_from = bs; // at the attach BS the mapping is itself
        for &node in &path {
            self.route_cache_mut(node)
                .expect("cache exists for every tree node")
                .refresh(mn, came_from, now);
            came_from = node;
        }
        let len = path.len();
        self.path_scratch = path;
        len
    }

    /// Processes a paging-update packet from an idle `mn` at `bs`.
    pub fn paging_update(&mut self, mn: Addr, bs: NodeId, now: SimTime) -> usize {
        self.paging_update_messages += 1;
        let mut path = std::mem::take(&mut self.path_scratch);
        self.tree.uplink_path_into(bs, &mut path);
        let mut came_from = bs;
        for &node in &path {
            self.paging_cache_mut(node)
                .expect("cache exists for every tree node")
                .refresh(mn, came_from, now);
            came_from = node;
        }
        let len = path.len();
        self.path_scratch = path;
        len
    }

    /// Refreshes the routing-cache mapping `mn → came_from` at a single
    /// node — used by packet-level simulations where the route-update
    /// packet climbs the tree hop by hop with real link delays (so the
    /// crossover BS learns the new path only after the propagation time
    /// that determines the hard-handoff loss window).
    ///
    /// `came_from == node` marks `node` as the attach BS.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the tree.
    pub fn refresh_route_at(&mut self, node: NodeId, mn: Addr, came_from: NodeId, now: SimTime) {
        self.route_cache_mut(node)
            .expect("unknown node")
            .refresh(mn, came_from, now);
    }

    /// Per-node paging-cache refresh; see [`CipNetwork::refresh_route_at`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the tree.
    pub fn refresh_paging_at(&mut self, node: NodeId, mn: Addr, came_from: NodeId, now: SimTime) {
        self.paging_cache_mut(node)
            .expect("unknown node")
            .refresh(mn, came_from, now);
    }

    /// Resolves the downlink path gateway → attach BS for `mn` using live
    /// routing-cache entries. `None` if any hop has expired (the packet
    /// would be dropped or trigger paging).
    pub fn downlink_path(&self, mn: Addr, now: SimTime) -> Option<Vec<NodeId>> {
        let mut path = vec![self.tree.gateway()];
        let mut cur = self.tree.gateway();
        loop {
            let next = *self.route_cache(cur)?.get(&mn, now)?;
            if next == cur {
                return Some(path); // cur is the attach BS
            }
            path.push(next);
            cur = next;
        }
    }

    /// The base station `mn` is currently routed to, if routing state is
    /// live. Allocation-free chain walk (the gateway-rescue and page
    /// paths call this per rescued packet — see [`CipNetwork::downlink_path`]
    /// for the materialized variant).
    pub fn locate(&self, mn: Addr, now: SimTime) -> Option<NodeId> {
        let mut cur = self.tree.gateway();
        loop {
            let next = *self.route_cache(cur)?.get(&mn, now)?;
            if next == cur {
                return Some(cur); // cur is the attach BS
            }
            cur = next;
        }
    }

    /// The next downlink hop for `mn` at `node` (`Some(node)` itself means
    /// deliver over the air).
    pub fn next_hop(&self, node: NodeId, mn: Addr, now: SimTime) -> Option<NodeId> {
        self.route_cache(node)?.get(&mn, now).copied()
    }

    /// Clears the routing state for `mn` along the uplink path of `bs`
    /// (explicit teardown after a handoff, if the scheme uses one).
    pub fn clear_route(&mut self, mn: Addr, bs: NodeId) {
        let mut path = std::mem::take(&mut self.path_scratch);
        self.tree.uplink_path_into(bs, &mut path);
        for &node in &path {
            if let Some(c) = self.route_cache_mut(node) {
                c.remove(&mn);
            }
        }
        self.path_scratch = path;
    }

    /// Pages an idle `mn`: follows paging caches from the gateway; if the
    /// chain breaks, the page floods to all base stations.
    pub fn page(&self, mn: Addr, now: SimTime) -> PageOutcome {
        let mut cur = self.tree.gateway();
        let mut hops = 0;
        loop {
            let next = self
                .paging_cache(cur)
                .and_then(|c| c.get(&mn, now))
                .copied();
            match next {
                Some(n) if n == cur => return PageOutcome::Directed { bs: cur, hops },
                Some(n) => {
                    cur = n;
                    hops += 1;
                }
                None => {
                    return PageOutcome::Flooded {
                        paged_bs: self.tree.bs_count(),
                    };
                }
            }
        }
    }

    /// Sweeps every cache; returns total evictions.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let mut evicted = 0;
        for c in self.route_caches.iter_mut().flatten() {
            evicted += c.sweep(now);
        }
        for c in self.paging_caches.iter_mut().flatten() {
            evicted += c.sweep(now);
        }
        evicted
    }

    /// `(route_updates, paging_updates)` message counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.route_update_messages, self.paging_update_messages)
    }

    /// Total live routing-cache entries across all nodes (state-size
    /// metric).
    pub fn total_route_entries(&self, now: SimTime) -> usize {
        self.route_caches
            .iter()
            .flatten()
            .map(|c| c.live_count(now))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// gateway(0) ── 1 ── 3, 4 ; 2 ── 5
    fn net() -> CipNetwork {
        let mut n = CipNetwork::new(NodeId(0), CipConfig::default());
        n.add_bs(NodeId(1), NodeId(0));
        n.add_bs(NodeId(2), NodeId(0));
        n.add_bs(NodeId(3), NodeId(1));
        n.add_bs(NodeId(4), NodeId(1));
        n.add_bs(NodeId(5), NodeId(2));
        n
    }

    #[test]
    fn route_update_installs_full_path() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        let refreshes = n.route_update(mn, NodeId(3), SimTime::ZERO);
        assert_eq!(refreshes, 3); // 3, 1, 0
        assert_eq!(
            n.downlink_path(mn, SimTime::from_millis(500)),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
        assert_eq!(n.locate(mn, SimTime::from_millis(500)), Some(NodeId(3)));
        assert_eq!(n.next_hop(NodeId(3), mn, SimTime::ZERO), Some(NodeId(3)));
    }

    #[test]
    fn routing_state_expires_without_refresh() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.route_update(mn, NodeId(3), SimTime::ZERO);
        let lifetime = CipTimers::default().route_cache_lifetime();
        assert!(n.downlink_path(mn, SimTime::ZERO + lifetime).is_none());
        assert_eq!(n.total_route_entries(SimTime::ZERO + lifetime), 0);
    }

    #[test]
    fn periodic_refresh_keeps_path_alive() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        let period = CipTimers::default().route_update;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            n.route_update(mn, NodeId(3), t);
            t += period;
        }
        assert!(n.downlink_path(mn, t).is_some());
        assert_eq!(n.counters().0, 10);
    }

    #[test]
    fn handoff_switches_downlink_path() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.route_update(mn, NodeId(3), SimTime::ZERO);
        // Hard handoff: route update from the new BS re-points the
        // crossover (node 1).
        n.route_update(mn, NodeId(4), SimTime::from_millis(100));
        assert_eq!(
            n.downlink_path(mn, SimTime::from_millis(200)),
            Some(vec![NodeId(0), NodeId(1), NodeId(4)])
        );
        // The stale mapping at the old BS (3) remains until expiry but is
        // unreachable from the gateway.
        assert_eq!(
            n.next_hop(NodeId(3), mn, SimTime::from_millis(200)),
            Some(NodeId(3))
        );
    }

    #[test]
    fn clear_route_removes_mappings() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.route_update(mn, NodeId(3), SimTime::ZERO);
        n.clear_route(mn, NodeId(3));
        assert!(n.downlink_path(mn, SimTime::ZERO).is_none());
    }

    #[test]
    fn paging_directed_when_cache_live() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.paging_update(mn, NodeId(5), SimTime::ZERO);
        let outcome = n.page(mn, SimTime::from_secs(30));
        assert_eq!(
            outcome,
            PageOutcome::Directed {
                bs: NodeId(5),
                hops: 2
            }
        );
        assert_eq!(outcome.messages(), 2);
    }

    #[test]
    fn paging_floods_without_state() {
        let n = net();
        let outcome = n.page(addr("20.0.9.9"), SimTime::ZERO);
        assert_eq!(outcome, PageOutcome::Flooded { paged_bs: 5 });
        assert_eq!(outcome.messages(), 5);
    }

    #[test]
    fn paging_outlives_routing() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.route_update(mn, NodeId(3), SimTime::ZERO);
        n.paging_update(mn, NodeId(3), SimTime::ZERO);
        // Long after routing state died, paging still finds the node.
        let t = SimTime::from_secs(30);
        assert!(n.downlink_path(mn, t).is_none());
        assert!(matches!(n.page(mn, t), PageOutcome::Directed { bs, .. } if bs == NodeId(3)));
    }

    #[test]
    fn sweep_counts_evictions() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        n.route_update(mn, NodeId(3), SimTime::ZERO);
        // 3 route entries die; paging untouched.
        assert_eq!(n.sweep(SimTime::from_secs(10)), 3);
    }

    #[test]
    fn per_node_refresh_builds_path_incrementally() {
        let mut n = net();
        let mn = addr("20.0.1.9");
        // Hop-by-hop: BS 3 first, then its parent, then the gateway.
        n.refresh_route_at(NodeId(3), mn, NodeId(3), SimTime::ZERO);
        assert!(
            n.downlink_path(mn, SimTime::ZERO).is_none(),
            "gateway not yet updated"
        );
        n.refresh_route_at(NodeId(1), mn, NodeId(3), SimTime::from_millis(5));
        n.refresh_route_at(NodeId(0), mn, NodeId(1), SimTime::from_millis(10));
        assert_eq!(
            n.downlink_path(mn, SimTime::from_millis(11)),
            Some(vec![NodeId(0), NodeId(1), NodeId(3)])
        );
        // Paging variant.
        n.refresh_paging_at(NodeId(0), mn, NodeId(1), SimTime::from_millis(10));
        assert!(n.page(mn, SimTime::from_millis(11)).messages() > 0);
    }

    #[test]
    fn two_nodes_coexist() {
        let mut n = net();
        let a = addr("20.0.1.1");
        let b = addr("20.0.1.2");
        n.route_update(a, NodeId(3), SimTime::ZERO);
        n.route_update(b, NodeId(5), SimTime::ZERO);
        let t = SimTime::from_millis(1);
        assert_eq!(n.locate(a, t), Some(NodeId(3)));
        assert_eq!(n.locate(b, t), Some(NodeId(5)));
        assert_eq!(n.total_route_entries(t), 6);
    }
}
