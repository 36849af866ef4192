//! Longest-prefix-match forwarding tables.

use crate::addr::{Addr, Prefix};
use crate::topology::NodeId;
use std::collections::HashMap;

/// A longest-prefix-match routing table mapping prefixes to next-hop nodes.
///
/// Entries are stored per prefix length, so lookup scans at most 33 buckets
/// from most- to least-specific — simple and obviously right, which is its
/// job: no simulation path forwards through it. It is the reference model
/// `route_cache_matches_routing_tables` (`mtnet_core`'s world tests) holds
/// `World::wired_next_hop` against, and `lpm_most_specific_wins`
/// (`tests/properties.rs`) pins its own longest-prefix rule.
///
/// ```
/// use mtnet_net::{Prefix, RoutingTable, NodeId};
/// let mut t = RoutingTable::new();
/// t.insert("0.0.0.0/0".parse().unwrap(), NodeId(0));
/// t.insert("10.0.0.0/8".parse().unwrap(), NodeId(1));
/// assert_eq!(t.lookup("10.9.9.9".parse().unwrap()), Some(NodeId(1)));
/// assert_eq!(t.lookup("8.8.8.8".parse().unwrap()), Some(NodeId(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// buckets[len] maps canonical network address -> next hop.
    buckets: Vec<HashMap<Addr, NodeId>>,
}

impl RoutingTable {
    /// Creates an empty table (no default route).
    pub fn new() -> Self {
        RoutingTable {
            buckets: (0..=32).map(|_| HashMap::new()).collect(),
        }
    }

    /// Inserts or replaces a route. Returns the previous next hop, if any.
    pub fn insert(&mut self, prefix: Prefix, next_hop: NodeId) -> Option<NodeId> {
        self.buckets[prefix.len() as usize].insert(prefix.network(), next_hop)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Addr) -> Option<NodeId> {
        for len in (0..=32u8).rev() {
            let network = Prefix::new(dst, len).network();
            if let Some(&hop) = self.buckets[len as usize].get(&network) {
                return Some(hop);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }
    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.insert(pfx("10.0.0.0/8"), NodeId(1));
        t.insert(pfx("10.1.0.0/16"), NodeId(2));
        t.insert(pfx("10.1.2.0/24"), NodeId(3));
        assert_eq!(t.lookup(addr("10.1.2.3")), Some(NodeId(3)));
        assert_eq!(t.lookup(addr("10.1.9.9")), Some(NodeId(2)));
        assert_eq!(t.lookup(addr("10.200.0.1")), Some(NodeId(1)));
        assert_eq!(t.lookup(addr("11.0.0.1")), None);
    }

    #[test]
    fn host_route_beats_subnet() {
        let mut t = RoutingTable::new();
        t.insert(pfx("10.0.0.0/8"), NodeId(1));
        t.insert(Prefix::host(addr("10.5.5.5")), NodeId(9));
        assert_eq!(t.lookup(addr("10.5.5.5")), Some(NodeId(9)));
        assert_eq!(t.lookup(addr("10.5.5.6")), Some(NodeId(1)));
    }

    #[test]
    fn default_route_catches_all() {
        let mut t = RoutingTable::new();
        t.insert(pfx("0.0.0.0/0"), NodeId(7));
        assert_eq!(t.lookup(addr("1.2.3.4")), Some(NodeId(7)));
        assert_eq!(t.lookup(addr("255.255.255.255")), Some(NodeId(7)));
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut t = RoutingTable::new();
        assert_eq!(t.insert(pfx("10.0.0.0/8"), NodeId(1)), None);
        assert_eq!(t.insert(pfx("10.0.0.0/8"), NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.lookup(addr("10.0.0.1")), Some(NodeId(2)));
    }

    #[test]
    fn non_canonical_prefix_still_matches() {
        let mut t = RoutingTable::new();
        // Host bits set; Prefix::new canonicalizes.
        t.insert(Prefix::new(addr("10.1.2.3"), 16), NodeId(4));
        assert_eq!(t.lookup(addr("10.1.99.99")), Some(NodeId(4)));
    }
}
