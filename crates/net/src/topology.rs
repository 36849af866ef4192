//! Network topology: a directed graph of nodes and links, with shortest
//! paths for auto-populating routing tables.

use crate::addr::{Addr, Prefix};
use crate::link::{Link, LinkConfig};
use crate::routing::RoutingTable;
use mtnet_sim::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a node (router, host, base station…) in a [`Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a unidirectional link in a [`Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Errors returned by [`Topology`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a node id that was never added.
    UnknownNode(NodeId),
    /// Referenced a link id that was never added.
    UnknownLink(LinkId),
    /// No link connects the two nodes in the requested direction.
    NoLink(NodeId, NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::NoLink(a, b) => write!(f, "no link from {a} to {b}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
struct NodeEntry {
    addr: Addr,
    /// Outgoing adjacency: (neighbor, link id).
    out: Vec<(NodeId, LinkId)>,
}

#[derive(Debug, Clone)]
struct LinkEntry {
    from: NodeId,
    to: NodeId,
    link: Link,
}

/// A directed graph of nodes and [`Link`]s.
///
/// The topology owns the mutable link state (queues, statistics); the
/// simulation asks it to transmit packets hop by hop. Shortest paths (by
/// propagation delay) can be computed to fill [`RoutingTable`]s, or — on
/// hot paths — served O(1) from a [`crate::RouteCache`] keyed to this
/// topology's [`generation`](Topology::generation).
///
/// ```
/// use mtnet_net::{Topology, LinkConfig, Addr};
/// let mut topo = Topology::new();
/// let a = topo.add_node("10.0.0.1".parse().unwrap());
/// let b = topo.add_node("10.0.0.2".parse().unwrap());
/// topo.connect(a, b, LinkConfig::backbone());
/// assert_eq!(topo.next_hop_on_path(a, b), Some(b));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<NodeEntry>,
    links: Vec<LinkEntry>,
    /// Structure version: bumped by every mutation that can change
    /// shortest paths — node/link additions and administrative up/down
    /// transitions (see [`set_link_up`](Topology::set_link_up)) — so
    /// shortest-path caches can invalidate lazily. Link *traffic* state
    /// (queues, stats) is not structure — it never affects Dijkstra
    /// weights.
    generation: u64,
    /// O(1) reverse index for [`node_by_addr`](Topology::node_by_addr);
    /// first-added node wins on duplicate addresses.
    by_addr: FxHashMap<Addr, NodeId>,
    /// O(1) index for [`link_between`](Topology::link_between);
    /// first-added link wins on parallel edges (matching the adjacency
    /// scan it replaces — hub nodes in metro worlds have hundreds of
    /// out-links, and the lookup sits on the per-hop forwarding path).
    by_pair: FxHashMap<(NodeId, NodeId), LinkId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Structure version. Any mutation that can change shortest paths
    /// (adding nodes or links, taking a link down or up) bumps it;
    /// [`crate::RouteCache`] compares generations to invalidate lazily.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Adds a node with the given address; returns its id.
    pub fn add_node(&mut self, addr: Addr) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeEntry {
            addr,
            out: Vec::new(),
        });
        self.by_addr.entry(addr).or_insert(id);
        self.generation += 1;
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The address assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn addr_of(&self, node: NodeId) -> Addr {
        self.nodes[node.0 as usize].addr
    }

    /// Finds the node owning `addr`, if any (O(1); the first-added node
    /// wins if an address was reused).
    pub fn node_by_addr(&self, addr: Addr) -> Option<NodeId> {
        self.by_addr.get(&addr).copied()
    }

    /// Adds a unidirectional link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        assert!((from.0 as usize) < self.nodes.len(), "unknown node {from}");
        assert!((to.0 as usize) < self.nodes.len(), "unknown node {to}");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkEntry {
            from,
            to,
            link: Link::new(config),
        });
        self.nodes[from.0 as usize].out.push((to, id));
        self.by_pair.entry((from, to)).or_insert(id);
        self.generation += 1;
        id
    }

    /// Adds a duplex connection (two unidirectional links with the same
    /// config). Returns `(forward, reverse)` link ids.
    pub fn connect(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        (self.add_link(a, b, config), self.add_link(b, a, config))
    }

    /// The link from `from` to `to`, if one exists (O(1); the
    /// first-added link wins if parallel edges exist).
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.by_pair.get(&(from, to)).copied()
    }

    /// Mutable access to a link's queue/statistics state.
    pub fn link_mut(&mut self, id: LinkId) -> Result<&mut Link, TopologyError> {
        self.links
            .get_mut(id.0 as usize)
            .map(|e| &mut e.link)
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// Shared access to a link.
    pub fn link(&self, id: LinkId) -> Result<&Link, TopologyError> {
        self.links
            .get(id.0 as usize)
            .map(|e| &e.link)
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// Sets a link's administrative state, bumping the topology
    /// generation on every **actual** transition — down *and*, crucially,
    /// back up. Routes resolved while the link was down are just as stale
    /// after restoration as routes resolved before the failure; a bump on
    /// both edges of the window keeps [`crate::RouteCache`] honest in each
    /// direction. Returns whether the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownLink`] for an id that was never
    /// added.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) -> Result<bool, TopologyError> {
        let entry = self
            .links
            .get_mut(id.0 as usize)
            .ok_or(TopologyError::UnknownLink(id))?;
        if entry.link.is_up() == up {
            return Ok(false);
        }
        entry.link.set_up(up);
        self.generation += 1;
        Ok(true)
    }

    /// Endpoints of a link as `(from, to)`.
    pub fn link_endpoints(&self, id: LinkId) -> Result<(NodeId, NodeId), TopologyError> {
        self.links
            .get(id.0 as usize)
            .map(|e| (e.from, e.to))
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// Outgoing neighbors of a node.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .get(node.0 as usize)
            .into_iter()
            .flat_map(|n| n.out.iter().map(|&(to, _)| to))
    }

    /// Dijkstra from `src`, weighted by link propagation delay (nanos),
    /// returning the predecessor map.
    pub(crate) fn dijkstra(&self, src: NodeId) -> Vec<Option<(u64, NodeId)>> {
        // dist/pred indexed by node id; pred[src] = src.
        let n = self.nodes.len();
        let mut best: Vec<Option<(u64, NodeId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best[src.0 as usize] = Some((0, src));
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            match best[u.0 as usize] {
                Some((bd, _)) if bd < d => continue,
                _ => {}
            }
            for &(v, lid) in &self.nodes[u.0 as usize].out {
                let link = &self.links[lid.0 as usize].link;
                if !link.is_up() {
                    continue; // downed links carry no routes
                }
                let w = link.config().propagation.as_nanos().max(1);
                let nd = d.saturating_add(w);
                let better = match best[v.0 as usize] {
                    None => true,
                    Some((bd, _)) => nd < bd,
                };
                if better {
                    best[v.0 as usize] = Some((nd, u));
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        best
    }

    /// First hop on the min-delay path `src → dst`, or `None` if
    /// unreachable (or `src == dst`).
    pub fn next_hop_on_path(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst {
            return None;
        }
        let best = self.dijkstra(src);
        // Walk predecessors back from dst to src.
        let mut cur = dst;
        loop {
            let (_, pred) = best[cur.0 as usize]?;
            if pred == src {
                return Some(cur);
            }
            if pred == cur {
                return None; // src unreachable marker
            }
            cur = pred;
        }
    }

    /// Number of hops on the min-delay path, or `None` if unreachable.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let best = self.dijkstra(src);
        let mut cur = dst;
        let mut hops = 0;
        loop {
            let (_, pred) = best[cur.0 as usize]?;
            hops += 1;
            if pred == src {
                return Some(hops);
            }
            cur = pred;
        }
    }

    /// Builds a complete host-route routing table for `node`: one `/32`
    /// route per other node via the min-delay first hop, plus routes for
    /// any `(prefix, owner)` pairs given in `prefixes`.
    pub fn build_routing_table(&self, node: NodeId, prefixes: &[(Prefix, NodeId)]) -> RoutingTable {
        let mut table = RoutingTable::new();
        let best = self.dijkstra(node);
        let first_hop = |dst: NodeId| -> Option<NodeId> {
            if dst == node {
                return None;
            }
            let mut cur = dst;
            loop {
                let (_, pred) = best[cur.0 as usize]?;
                if pred == node {
                    return Some(cur);
                }
                cur = pred;
            }
        };
        for (i, other) in self.nodes.iter().enumerate() {
            let dst = NodeId(i as u32);
            if let Some(hop) = first_hop(dst) {
                table.insert(Prefix::host(other.addr), hop);
            }
        }
        for &(prefix, owner) in prefixes {
            if owner == node {
                continue;
            }
            if let Some(hop) = first_hop(owner) {
                table.insert(prefix, hop);
            }
        }
        table
    }

    /// Resets all link queues and statistics.
    pub fn reset_links(&mut self) {
        for e in &mut self.links {
            e.link.reset();
        }
    }

    /// Minimum propagation delay over links whose endpoints `group`
    /// assigns to different groups — the conservative lookahead of a
    /// partitioned simulation: nothing executed in one group can reach
    /// another sooner than this. Administrative link state is ignored
    /// (a downed boundary link may come back up mid-window), and queue
    /// and transmission delays only ever *add* to propagation, so the
    /// bound is safe. `None` when no link crosses the partition.
    pub fn min_cross_partition_delay(
        &self,
        group: impl Fn(NodeId) -> u32,
    ) -> Option<mtnet_sim::SimDuration> {
        self.links
            .iter()
            .filter(|e| group(e.from) != group(e.to))
            .map(|e| e.link.config().propagation)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtnet_sim::SimDuration;

    fn addr(i: u8) -> Addr {
        Addr::from_octets(10, 0, 0, i)
    }

    /// a - b - c line plus a slow direct a-c path.
    fn line_plus_slow_direct() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        let c = t.add_node(addr(3));
        let fast = LinkConfig {
            propagation: SimDuration::from_millis(1),
            ..LinkConfig::backbone()
        };
        let slow = LinkConfig {
            propagation: SimDuration::from_millis(50),
            ..LinkConfig::backbone()
        };
        t.connect(a, b, fast);
        t.connect(b, c, fast);
        t.connect(a, c, slow);
        (t, a, b, c)
    }

    #[test]
    fn add_and_query_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.addr_of(a), addr(1));
        assert_eq!(t.node_by_addr(addr(1)), Some(a));
        assert_eq!(t.node_by_addr(addr(9)), None);
    }

    #[test]
    fn connect_creates_duplex() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        let (f, r) = t.connect(a, b, LinkConfig::backbone());
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.link_endpoints(f).unwrap(), (a, b));
        assert_eq!(t.link_endpoints(r).unwrap(), (b, a));
        assert_eq!(t.link_between(a, b), Some(f));
        assert_eq!(t.link_between(b, a), Some(r));
    }

    #[test]
    fn dijkstra_prefers_low_delay_multihop() {
        let (t, a, b, c) = line_plus_slow_direct();
        // 2 ms via b beats 50 ms direct.
        assert_eq!(t.next_hop_on_path(a, c), Some(b));
        assert_eq!(t.hop_count(a, c), Some(2));
    }

    #[test]
    fn next_hop_self_is_none() {
        let (t, a, _, _) = line_plus_slow_direct();
        assert_eq!(t.next_hop_on_path(a, a), None);
        assert_eq!(t.hop_count(a, a), Some(0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        // no links
        assert_eq!(t.next_hop_on_path(a, b), None);
        assert_eq!(t.hop_count(a, b), None);
    }

    #[test]
    fn directed_link_is_one_way() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        t.add_link(a, b, LinkConfig::backbone());
        assert_eq!(t.next_hop_on_path(a, b), Some(b));
        assert_eq!(t.next_hop_on_path(b, a), None);
    }

    #[test]
    fn routing_tables_route_everywhere() {
        let (t, a, b, c) = line_plus_slow_direct();
        let table = t.build_routing_table(a, &[]);
        assert_eq!(table.lookup(addr(2)), Some(b));
        assert_eq!(table.lookup(addr(3)), Some(b), "should prefer fast path");
        // No route to self.
        assert_eq!(table.lookup(addr(1)), None);
        assert_eq!(t.build_routing_table(c, &[]).lookup(addr(1)), Some(b));
    }

    #[test]
    fn routing_table_includes_prefix_owners() {
        let (t, a, b, c) = line_plus_slow_direct();
        let home: Prefix = "192.168.0.0/16".parse().unwrap();
        let table = t.build_routing_table(a, &[(home, c)]);
        assert_eq!(table.lookup("192.168.4.4".parse().unwrap()), Some(b));
        // Owner's own table skips its own prefix.
        let own = t.build_routing_table(c, &[(home, c)]);
        assert_eq!(own.lookup("192.168.4.4".parse().unwrap()), None);
    }

    #[test]
    fn link_mut_and_errors() {
        let (mut t, ..) = line_plus_slow_direct();
        assert!(t.link_mut(LinkId(0)).is_ok());
        assert_eq!(
            t.link_mut(LinkId(999)).unwrap_err(),
            TopologyError::UnknownLink(LinkId(999))
        );
        let e = TopologyError::NoLink(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("no link"));
    }

    #[test]
    fn downed_link_is_routed_around_and_restored() {
        let (mut t, a, b, c) = line_plus_slow_direct();
        // Fast path a-b-c wins while healthy.
        assert_eq!(t.next_hop_on_path(a, c), Some(b));
        let ab = t.link_between(a, b).unwrap();
        assert!(t.set_link_up(ab, false).unwrap());
        // Only the slow direct path remains.
        assert_eq!(t.next_hop_on_path(a, c), Some(c));
        assert!(t.set_link_up(ab, true).unwrap());
        assert_eq!(t.next_hop_on_path(a, c), Some(b));
    }

    #[test]
    fn set_link_up_bumps_generation_on_both_transitions_only() {
        let (mut t, a, b, _) = line_plus_slow_direct();
        let ab = t.link_between(a, b).unwrap();
        let g0 = t.generation();
        // No-op transitions must not invalidate caches.
        assert!(!t.set_link_up(ab, true).unwrap());
        assert_eq!(t.generation(), g0);
        assert!(t.set_link_up(ab, false).unwrap());
        assert_eq!(t.generation(), g0 + 1);
        assert!(!t.set_link_up(ab, false).unwrap());
        assert_eq!(t.generation(), g0 + 1);
        // The restore edge bumps too: routes resolved during the outage
        // are stale the moment the link returns.
        assert!(t.set_link_up(ab, true).unwrap());
        assert_eq!(t.generation(), g0 + 2);
        assert!(matches!(
            t.set_link_up(LinkId(999), false),
            Err(TopologyError::UnknownLink(_))
        ));
    }

    #[test]
    fn fully_partitioned_node_is_unreachable() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        let (f, r) = t.connect(a, b, LinkConfig::backbone());
        t.set_link_up(f, false).unwrap();
        t.set_link_up(r, false).unwrap();
        assert_eq!(t.next_hop_on_path(a, b), None);
        assert_eq!(t.hop_count(a, b), None);
    }

    #[test]
    fn min_cross_partition_delay_picks_the_boundary_minimum() {
        let (t, a, _, _) = line_plus_slow_direct();
        // Put `a` alone in group 1: crossings are a-b (1 ms, duplex) and
        // a-c (50 ms, duplex).
        let d = t.min_cross_partition_delay(|n| u32::from(n == a));
        assert_eq!(d, Some(SimDuration::from_millis(1)));
        // Everything in one group: no crossing.
        assert_eq!(t.min_cross_partition_delay(|_| 0), None);
    }

    #[test]
    fn reset_links_clears_stats() {
        let (mut t, a, b, _) = line_plus_slow_direct();
        let lid = t.link_between(a, b).unwrap();
        t.link_mut(lid)
            .unwrap()
            .transmit(mtnet_sim::SimTime::ZERO, 100);
        assert_eq!(t.link(lid).unwrap().stats().tx_packets, 1);
        t.reset_links();
        assert_eq!(t.link(lid).unwrap().stats().tx_packets, 0);
    }
}
