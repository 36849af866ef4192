//! The base-station tree of a Cellular IP access network.

use mtnet_net::NodeId;

/// The wired tree of base stations rooted at the gateway router
/// (paper Fig 2.3). All routing in Cellular IP is along this tree:
/// uplink packets climb to the gateway; downlink packets follow
/// routing-cache mappings from the gateway down.
#[derive(Debug, Clone)]
pub struct CipTree {
    gateway: NodeId,
    /// child → parent, indexed densely by node id (`None` for the
    /// gateway and for nodes outside the tree) — parent/contains probes
    /// are per-hop hot in the packet simulation.
    parents: Vec<Option<NodeId>>,
    /// Number of registered base stations.
    bs_count: usize,
}

impl CipTree {
    /// Creates a tree containing only the gateway.
    pub fn new(gateway: NodeId) -> Self {
        CipTree {
            gateway,
            parents: Vec::new(),
            bs_count: 0,
        }
    }

    /// The gateway (root).
    pub fn gateway(&self) -> NodeId {
        self.gateway
    }

    /// Adds a base station under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `bs` already exists, equals the gateway, or `parent` is
    /// not in the tree.
    pub fn add_bs(&mut self, bs: NodeId, parent: NodeId) {
        assert_ne!(bs, self.gateway, "gateway cannot be re-added");
        assert!(self.parent(bs).is_none(), "duplicate base station {bs}");
        assert!(
            parent == self.gateway || self.parent(parent).is_some(),
            "parent {parent} not in tree"
        );
        let idx = bs.0 as usize;
        if self.parents.len() <= idx {
            self.parents.resize(idx + 1, None);
        }
        self.parents[idx] = Some(parent);
        self.bs_count += 1;
    }

    /// True if `node` is the gateway or a registered BS.
    pub fn contains(&self, node: NodeId) -> bool {
        node == self.gateway || self.parent(node).is_some()
    }

    /// Number of base stations (excluding the gateway).
    pub fn bs_count(&self) -> usize {
        self.bs_count
    }

    /// The parent of `bs` (`None` for the gateway or unknown nodes).
    pub fn parent(&self, bs: NodeId) -> Option<NodeId> {
        self.parents.get(bs.0 as usize).copied().flatten()
    }

    /// Depth of `bs` (gateway = 0). Allocation-free parent walk.
    ///
    /// # Panics
    ///
    /// Panics if `bs` is not in the tree.
    pub fn depth(&self, bs: NodeId) -> usize {
        assert!(self.contains(bs), "unknown base station {bs}");
        let mut depth = 0;
        let mut cur = bs;
        while let Some(p) = self.parent(cur) {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// The **crossover base station** between the paths of `old` and `new`:
    /// the deepest node common to both uplink paths (paper Fig 2.4 —
    /// "the common branch node between the old and new base stations").
    /// Classic two-pointer LCA walk — no allocation, this runs per bicast
    /// packet while a semisoft window is open.
    ///
    /// # Panics
    ///
    /// Panics if either node is not in the tree.
    pub fn crossover(&self, old: NodeId, new: NodeId) -> NodeId {
        let (mut a, mut b) = (old, new);
        let mut da = self.depth(a);
        let mut db = self.depth(b);
        while da > db {
            a = self.parent(a).expect("depth counted");
            da -= 1;
        }
        while db > da {
            b = self.parent(b).expect("depth counted");
            db -= 1;
        }
        while a != b {
            a = self.parent(a).expect("gateway is always common");
            b = self.parent(b).expect("gateway is always common");
        }
        a
    }

    /// Hops from `bs` up to `ancestor` (0 if equal).
    ///
    /// # Panics
    ///
    /// Panics if `ancestor` is not on the uplink path of `bs`.
    pub fn hops_to_ancestor(&self, bs: NodeId, ancestor: NodeId) -> usize {
        assert!(self.contains(bs), "unknown base station {bs}");
        let mut hops = 0;
        let mut cur = bs;
        while cur != ancestor {
            cur = self.parent(cur).expect("not an ancestor");
            hops += 1;
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// gateway(0) ── 1 ── 3
    ///           │      └ 4
    ///           └ 2 ── 5
    fn tree() -> CipTree {
        let mut t = CipTree::new(NodeId(0));
        t.add_bs(NodeId(1), NodeId(0));
        t.add_bs(NodeId(2), NodeId(0));
        t.add_bs(NodeId(3), NodeId(1));
        t.add_bs(NodeId(4), NodeId(1));
        t.add_bs(NodeId(5), NodeId(2));
        t
    }

    #[test]
    fn crossover_siblings_is_parent() {
        let t = tree();
        // 3 and 4 share parent 1 — the textbook Fig 2.4 case.
        assert_eq!(t.crossover(NodeId(3), NodeId(4)), NodeId(1));
    }

    #[test]
    fn crossover_distant_is_gateway() {
        let t = tree();
        assert_eq!(t.crossover(NodeId(3), NodeId(5)), NodeId(0));
    }

    #[test]
    fn crossover_with_self_or_ancestor() {
        let t = tree();
        assert_eq!(t.crossover(NodeId(3), NodeId(3)), NodeId(3));
        assert_eq!(t.crossover(NodeId(3), NodeId(1)), NodeId(1));
    }

    #[test]
    fn hops_to_ancestor() {
        let t = tree();
        assert_eq!(t.hops_to_ancestor(NodeId(3), NodeId(1)), 1);
        assert_eq!(t.hops_to_ancestor(NodeId(3), NodeId(0)), 2);
        assert_eq!(t.hops_to_ancestor(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    #[should_panic(expected = "not an ancestor")]
    fn hops_to_non_ancestor_panics() {
        tree().hops_to_ancestor(NodeId(3), NodeId(2));
    }

    #[test]
    fn contains_and_counts() {
        let t = tree();
        assert!(t.contains(NodeId(0)));
        assert!(t.contains(NodeId(5)));
        assert!(!t.contains(NodeId(99)));
        assert_eq!(t.bs_count(), 5);
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.depth(NodeId(3)), 2);
        assert_eq!(t.depth(NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_bs_rejected() {
        let mut t = tree();
        t.add_bs(NodeId(3), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "not in tree")]
    fn orphan_parent_rejected() {
        let mut t = tree();
        t.add_bs(NodeId(9), NodeId(42));
    }
}
