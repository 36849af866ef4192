//! Generation-keyed shortest-path cache: one Dijkstra per source per
//! topology version, O(1) queries afterwards.
//!
//! [`Topology::next_hop_on_path`] re-runs a full Dijkstra on every call —
//! fine for building routing tables once, ruinous when a simulation asks
//! for the next hop of every packet at every router. [`RouteCache`]
//! computes each source's predecessor tree **once per topology
//! generation** ([`Topology::generation`] is bumped on any node/link
//! addition) and then answers `next_hop` / `path_delay` with two array
//! reads. Results are bit-identical to the naive methods: both
//! derive from the same predecessor array, so even tie-breaks between
//! equal-cost paths agree.

use crate::topology::{NodeId, Topology};
use mtnet_sim::SimDuration;

/// Per-source shortest-path answers, flattened for O(1) lookup.
#[derive(Debug, Clone)]
struct SourceTree {
    /// First hop on the min-delay path to each destination (`None` when
    /// unreachable or the destination is the source itself).
    first_hop: Vec<Option<NodeId>>,
    /// Hop count to each destination; `u32::MAX` marks unreachable.
    hops: Vec<u32>,
    /// Total propagation delay in nanoseconds; `u64::MAX` marks
    /// unreachable.
    delay_ns: Vec<u64>,
}

impl SourceTree {
    /// Builds the flattened tree from one Dijkstra pass, resolving every
    /// destination's first hop with memoized predecessor walks (O(n)
    /// total).
    fn build(topo: &Topology, src: NodeId) -> SourceTree {
        let best = topo.dijkstra(src);
        let n = best.len();
        let mut tree = SourceTree {
            first_hop: vec![None; n],
            hops: vec![u32::MAX; n],
            delay_ns: vec![u64::MAX; n],
        };
        let s = src.0 as usize;
        tree.hops[s] = 0;
        tree.delay_ns[s] = 0;
        let mut stack = Vec::new();
        for dst in 0..n {
            if tree.hops[dst] != u32::MAX || best[dst].is_none() {
                continue; // already resolved, or unreachable
            }
            // Climb predecessors until hitting a resolved node (the source
            // counts: hops[src] = 0), stacking the unresolved chain.
            debug_assert!(stack.is_empty());
            let mut cur = dst;
            while tree.hops[cur] == u32::MAX {
                stack.push(cur);
                let (_, pred) = best[cur].expect("reachable chain");
                cur = pred.0 as usize;
            }
            // Unwind: each stacked node is one hop past its predecessor.
            while let Some(node) = stack.pop() {
                let (dist, pred) = best[node].expect("reachable chain");
                let p = pred.0 as usize;
                tree.hops[node] = tree.hops[p] + 1;
                tree.delay_ns[node] = dist;
                tree.first_hop[node] = if p == s {
                    Some(NodeId(node as u32))
                } else {
                    tree.first_hop[p]
                };
            }
        }
        tree
    }
}

/// A lazily-built, lazily-invalidated cache of min-delay routes.
///
/// Holds one flattened predecessor tree per source node, built on first use and
/// discarded wholesale when the [`Topology::generation`] it was built
/// against no longer matches — so callers never have to remember to
/// invalidate, and an unchanged topology pays each source's Dijkstra
/// exactly once.
///
/// ```
/// use mtnet_net::{Addr, LinkConfig, RouteCache, Topology};
/// let mut topo = Topology::new();
/// let a = topo.add_node("10.0.0.1".parse().unwrap());
/// let b = topo.add_node("10.0.0.2".parse().unwrap());
/// let c = topo.add_node("10.0.0.3".parse().unwrap());
/// topo.connect(a, b, LinkConfig::backbone());
/// topo.connect(b, c, LinkConfig::backbone());
/// let mut routes = RouteCache::new();
/// assert_eq!(routes.next_hop(&topo, a, c), Some(b));
/// // Mutating the topology invalidates the cache on the next query.
/// let d = topo.add_node("10.0.0.4".parse().unwrap());
/// topo.connect(c, d, LinkConfig::backbone());
/// assert_eq!(routes.next_hop(&topo, a, d), Some(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    /// Topology generation the cached trees were built against.
    generation: u64,
    /// `trees[src]`, built on demand.
    trees: Vec<Option<SourceTree>>,
}

impl RouteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Returns the source tree for `src`, (re)building as needed.
    fn tree(&mut self, topo: &Topology, src: NodeId) -> &SourceTree {
        if self.generation != topo.generation() || self.trees.len() != topo.node_count() {
            self.generation = topo.generation();
            self.trees.clear();
            self.trees.resize(topo.node_count(), None);
        }
        let slot = &mut self.trees[src.0 as usize];
        slot.get_or_insert_with(|| SourceTree::build(topo, src))
    }

    /// First hop on the min-delay path `src → dst`; `None` when
    /// unreachable or `src == dst`. Identical to
    /// [`Topology::next_hop_on_path`], amortized O(1).
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn next_hop(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.tree(topo, src).first_hop[dst.0 as usize]
    }

    /// Total propagation delay of the min-delay path (`Some(0)` when
    /// `src == dst`); `None` when unreachable. Amortized O(1).
    ///
    /// # Panics
    ///
    /// Panics if either node is unknown.
    pub fn path_delay(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        match self.tree(topo, src).delay_ns[dst.0 as usize] {
            u64::MAX => None,
            ns => Some(SimDuration::from_nanos(ns)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::Addr;
    use mtnet_sim::SimDuration;

    fn addr(i: u8) -> Addr {
        Addr::from_octets(10, 0, 0, i)
    }

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
    fn matches_naive_next_hop_and_hop_count() {
        let (t, ..) = line_plus_slow_direct();
        let mut cache = RouteCache::new();
        for s in 0..t.node_count() as u32 {
            for d in 0..t.node_count() as u32 {
                let (s, d) = (NodeId(s), NodeId(d));
                assert_eq!(cache.next_hop(&t, s, d), t.next_hop_on_path(s, d));
            }
        }
    }

    #[test]
    fn path_delay_prefers_fast_multihop() {
        let (t, a, _, c) = line_plus_slow_direct();
        let mut cache = RouteCache::new();
        assert_eq!(
            cache.path_delay(&t, a, c),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(cache.path_delay(&t, a, a), Some(SimDuration::ZERO));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        let mut cache = RouteCache::new();
        assert_eq!(cache.next_hop(&t, a, b), None);
        assert_eq!(cache.path_delay(&t, a, b), None);
    }

    #[test]
    fn mutation_invalidates_lazily() {
        let mut t = Topology::new();
        let a = t.add_node(addr(1));
        let b = t.add_node(addr(2));
        let mut cache = RouteCache::new();
        assert_eq!(cache.next_hop(&t, a, b), None);
        // New structure, same cache object: answers must track it.
        t.connect(a, b, LinkConfig::backbone());
        assert_eq!(cache.next_hop(&t, a, b), Some(b));
        let c = t.add_node(addr(3));
        t.connect(b, c, LinkConfig::backbone());
        assert_eq!(cache.next_hop(&t, a, c), Some(b));
    }

    #[test]
    fn routes_resolved_during_an_outage_do_not_survive_restoration() {
        // Regression: the cache tree built *while* a link is down encodes
        // the detour. If restoring the link failed to bump the topology
        // generation, those stale detour next-hops would be served
        // forever. Both edges of the down window must invalidate.
        let (mut t, a, b, c) = line_plus_slow_direct();
        let mut cache = RouteCache::new();
        assert_eq!(cache.next_hop(&t, a, c), Some(b));
        let ab = t.link_between(a, b).unwrap();
        t.set_link_up(ab, false).unwrap();
        // Resolved mid-outage: the slow direct link is all that's left.
        assert_eq!(cache.next_hop(&t, a, c), Some(c));
        t.set_link_up(ab, true).unwrap();
        // Restoration must evict the detour tree: fresh Dijkstra agrees.
        assert_eq!(cache.next_hop(&t, a, c), t.next_hop_on_path(a, c));
        assert_eq!(cache.next_hop(&t, a, c), Some(b));
        assert_eq!(
            cache.path_delay(&t, a, c),
            Some(SimDuration::from_millis(2))
        );
    }

    #[test]
    fn caches_one_tree_per_source() {
        let (t, a, b, _) = line_plus_slow_direct();
        let mut cache = RouteCache::new();
        let cached = |c: &RouteCache| c.trees.iter().filter(|t| t.is_some()).count();
        assert_eq!(cached(&cache), 0);
        cache.next_hop(&t, a, b);
        cache.next_hop(&t, a, NodeId(2));
        assert_eq!(cached(&cache), 1, "one source queried twice");
        cache.next_hop(&t, b, a);
        assert_eq!(cached(&cache), 2);
    }
}
