//! The distributed location directory: per-BS cell tables plus the
//! Location Message propagation and lookup procedures of §3.1.

use crate::hierarchy::Hierarchy;
use crate::tables::{CellTable, TableHit};
use crate::tier::Tier;
use mtnet_net::Addr;
use mtnet_radio::CellId;
use mtnet_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Result of a hierarchical location lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// The next cell toward the node, as recorded at the answering BS.
    pub toward: CellId,
    /// How many levels above the querying BS the answer was found
    /// (0 = at the querying BS itself).
    pub levels_climbed: usize,
    /// Which table answered.
    pub hit: TableHit,
}

/// All cell tables of a deployment, maintained by Location / Update /
/// Delete Location Messages exactly as §3.1 prescribes.
///
/// Records follow the paper's Fig 3.1 walkthrough: a node `X` served by
/// micro cell `B` (with chain `B → A → R1 → R3`) leaves records
/// `(X, B)` at `B`, `(X, B)` at `A`, `(X, A)` at `R1` and `(X, R1)` at
/// `R3` — each BS remembers the *child cell leading toward the node*.
#[derive(Debug, Clone)]
pub struct LocationDirectory {
    tables: HashMap<CellId, CellTable>,
    lifetime: SimDuration,
    location_messages: u64,
    update_messages: u64,
    delete_messages: u64,
}

impl LocationDirectory {
    /// Creates tables for every cell in the hierarchy, with the given
    /// record time-limitation.
    pub fn new(hierarchy: &Hierarchy, lifetime: SimDuration) -> Self {
        let mut tables = HashMap::new();
        for domain in hierarchy.domains() {
            for cell in hierarchy.cells_in_domain(domain.id) {
                tables.insert(cell, Self::table_for(hierarchy, cell, lifetime));
            }
            if let Some(upper) = domain.upper {
                tables
                    .entry(upper)
                    .or_insert_with(|| Self::table_for(hierarchy, upper, lifetime));
            }
        }
        LocationDirectory {
            tables,
            lifetime,
            location_messages: 0,
            update_messages: 0,
            delete_messages: 0,
        }
    }

    fn table_for(hierarchy: &Hierarchy, cell: CellId, lifetime: SimDuration) -> CellTable {
        match hierarchy.tier_of(cell) {
            Tier::Micro => CellTable::for_micro_bs(lifetime),
            Tier::Macro => CellTable::for_macro_bs(lifetime),
        }
    }

    /// The configured record lifetime.
    pub fn lifetime(&self) -> SimDuration {
        self.lifetime
    }

    /// Records a *Location Message* from `mn` served by `serving`,
    /// refreshing the record at the serving BS and at every ancestor up to
    /// the hierarchy root.
    ///
    /// Returns the number of tables refreshed (signaling cost).
    ///
    /// # Panics
    ///
    /// Panics if `serving` is not in the hierarchy.
    pub fn on_location_message(
        &mut self,
        hierarchy: &Hierarchy,
        mn: Addr,
        serving: CellId,
        now: SimTime,
    ) -> usize {
        self.location_messages += 1;
        self.propagate(hierarchy, mn, serving, now)
    }

    /// Records an *Update Location Message* (post-handoff); same
    /// propagation as a Location Message.
    pub fn on_update_location(
        &mut self,
        hierarchy: &Hierarchy,
        mn: Addr,
        new_cell: CellId,
        now: SimTime,
    ) -> usize {
        self.update_messages += 1;
        self.propagate(hierarchy, mn, new_cell, now)
    }

    fn propagate(
        &mut self,
        hierarchy: &Hierarchy,
        mn: Addr,
        serving: CellId,
        now: SimTime,
    ) -> usize {
        let chain = hierarchy.chain_up(serving);
        let serving_tier = hierarchy.tier_of(serving);
        let mut refreshed = 0;
        // chain[0] = serving records (mn, serving); ancestor i records
        // (mn, chain[i-1]).
        for (i, &cell) in chain.iter().enumerate() {
            let toward = if i == 0 { serving } else { chain[i - 1] };
            let Some(table) = self.tables.get_mut(&cell) else {
                continue;
            };
            // Records sourced from a micro-tier serving cell live in
            // micro_tables; macro-tier attachments go to macro_tables
            // (micro BSs only ever see micro-tier records).
            match (serving_tier, table.has_macro_table()) {
                (Tier::Micro, _) => table.record_micro(mn, toward, now),
                (Tier::Macro, true) => table.record_macro(mn, toward, now),
                (Tier::Macro, false) => table.record_micro(mn, toward, now),
            }
            refreshed += 1;
        }
        refreshed
    }

    /// Processes a *Delete Location Message*: erases the old BS's record
    /// of the node's direct attachment. Records the concurrent Update
    /// Location Message already replaced (the old BS lying on the new
    /// chain) survive — see [`CellTable::delete_attachment`].
    pub fn on_delete_location(&mut self, mn: Addr, old_cell: CellId) {
        self.delete_messages += 1;
        if let Some(t) = self.tables.get_mut(&old_cell) {
            t.delete_attachment(mn, old_cell);
        }
    }

    /// The paper's tracking procedure: the querying BS searches its own
    /// cell table (micro_table before macro_table); on a miss the query
    /// climbs to the parent BS, and so on. Returns where the node was
    /// found, or `None` if no BS on the chain knows it.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not in the hierarchy.
    pub fn locate(
        &mut self,
        hierarchy: &Hierarchy,
        mn: Addr,
        from: CellId,
        now: SimTime,
    ) -> Option<Located> {
        for (levels, cell) in hierarchy.chain_up(from).into_iter().enumerate() {
            if let Some(table) = self.tables.get_mut(&cell) {
                if let Some(hit) = table.lookup(mn, now) {
                    return Some(Located {
                        toward: hit.cell(),
                        levels_climbed: levels,
                        hit,
                    });
                }
            }
        }
        None
    }

    /// Follows table records downward from `start` to the serving cell —
    /// the full resolution a packet would take. `None` on a broken chain.
    pub fn resolve_serving_cell(
        &mut self,
        mn: Addr,
        start: CellId,
        now: SimTime,
    ) -> Option<CellId> {
        let mut cur = start;
        // Bounded walk: a table chain can never be deeper than the table
        // count; anything longer means a routing loop.
        for _ in 0..=self.tables.len() {
            let hit = self.tables.get_mut(&cur)?.lookup(mn, now)?;
            let next = hit.cell();
            if next == cur {
                return Some(cur);
            }
            cur = next;
        }
        None
    }

    /// Access to one BS's table (statistics).
    pub fn table(&self, cell: CellId) -> Option<&CellTable> {
        self.tables.get(&cell)
    }

    /// Evicts expired records everywhere; returns total evictions.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.tables.values_mut().map(|t| t.sweep(now)).sum()
    }

    /// `(location, update, delete)` message counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.location_messages,
            self.update_messages,
            self.delete_messages,
        )
    }

    /// Total records currently stored across all tables.
    pub fn total_records(&self) -> usize {
        self.tables
            .values()
            .map(|t| {
                let (a, b) = t.sizes();
                a + b
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// Fig 3.1: R3(100) over R1(101), R2(102); A(1)←B(2),C(3) in d1;
    /// D(4)←E(5),F(6) in d2.
    fn fig31() -> Hierarchy {
        let mut h = Hierarchy::new();
        let r3 = h.add_upper_macro(CellId(100));
        h.add_domain(CellId(101), Some(r3));
        h.add_domain(CellId(102), Some(r3));
        h.add_micro(CellId(1), CellId(101));
        h.add_micro(CellId(2), CellId(1));
        h.add_micro(CellId(3), CellId(1));
        h.add_micro(CellId(4), CellId(102));
        h.add_micro(CellId(5), CellId(4));
        h.add_micro(CellId(6), CellId(4));
        h
    }

    fn dir(h: &Hierarchy) -> LocationDirectory {
        LocationDirectory::new(h, SimDuration::from_secs(6))
    }

    #[test]
    fn fig31_walkthrough_records() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        // X served by B(2): B, A, R1, R3 refreshed (4 tables).
        let refreshed = d.on_location_message(&h, x, CellId(2), SimTime::ZERO);
        assert_eq!(refreshed, 4);
        let t = SimTime::from_secs(1);
        // Check the exact records the paper lists.
        assert_eq!(d.locate(&h, x, CellId(2), t).unwrap().toward, CellId(2)); // (X,B) at B
        let at_a = d.locate(&h, x, CellId(1), t).unwrap();
        assert_eq!(at_a.toward, CellId(2)); // (X,B) at A
        let at_r1 = d.locate(&h, x, CellId(101), t).unwrap();
        assert_eq!(at_r1.toward, CellId(1)); // (X,A) at R1
        let at_r3 = d.locate(&h, x, CellId(100), t).unwrap();
        assert_eq!(at_r3.toward, CellId(101)); // (X,R1) at R3
    }

    #[test]
    fn lookup_climbs_on_miss() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        d.on_location_message(&h, x, CellId(2), SimTime::ZERO);
        // Query from sibling C(3): miss at C, miss at A? No — A has (X,B).
        let found = d.locate(&h, x, CellId(3), SimTime::from_secs(1)).unwrap();
        assert_eq!(found.levels_climbed, 1, "answered by parent A");
        assert_eq!(found.toward, CellId(2));
        // Query from the other domain: climbs to R3.
        let far = d.locate(&h, x, CellId(6), SimTime::from_secs(1)).unwrap();
        assert_eq!(far.levels_climbed, 3);
        assert_eq!(far.toward, CellId(101));
    }

    #[test]
    fn resolve_serving_cell_follows_chain() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        d.on_location_message(&h, x, CellId(2), SimTime::ZERO);
        // From R3 the chain R3→R1→A→B resolves to the serving cell B.
        assert_eq!(
            d.resolve_serving_cell(x, CellId(100), SimTime::from_secs(1)),
            Some(CellId(2))
        );
    }

    #[test]
    fn records_expire_without_refresh() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        d.on_location_message(&h, x, CellId(2), SimTime::ZERO);
        assert!(d.locate(&h, x, CellId(2), SimTime::from_secs(7)).is_none());
        assert!(d.sweep(SimTime::from_secs(7)) >= 4);
        assert_eq!(d.total_records(), 0);
    }

    #[test]
    fn update_location_moves_the_chain() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        d.on_location_message(&h, x, CellId(2), SimTime::ZERO);
        // Handoff B→C (Fig 3.4 micro-micro): update from C, delete at B.
        d.on_update_location(&h, x, CellId(3), SimTime::from_secs(1));
        d.on_delete_location(x, CellId(2));
        let t = SimTime::from_secs(2);
        assert_eq!(d.resolve_serving_cell(x, CellId(100), t), Some(CellId(3)));
        assert!(d.locate(&h, x, CellId(2), t).map(|l| l.levels_climbed) > Some(0));
        assert_eq!(d.counters(), (1, 1, 1));
    }

    #[test]
    fn macro_attachment_uses_macro_table() {
        let h = fig31();
        let mut d = dir(&h);
        let y = addr("10.0.2.2");
        // Y served directly by macro R1 (Fig 3.4 micro→macro case).
        d.on_location_message(&h, y, CellId(101), SimTime::ZERO);
        let hit = d.locate(&h, y, CellId(101), SimTime::from_secs(1)).unwrap();
        assert_eq!(hit.hit.tier(), Tier::Macro, "macro_table answered");
        assert_eq!(hit.toward, CellId(101));
    }

    #[test]
    fn micro_hit_before_macro_hit() {
        let h = fig31();
        let mut d = dir(&h);
        let x = addr("10.0.2.1");
        // Both a micro-sourced and macro-sourced record exist at R1.
        d.on_location_message(&h, x, CellId(101), SimTime::ZERO); // macro rec
        d.on_location_message(&h, x, CellId(2), SimTime::ZERO); // micro rec
        let hit = d.locate(&h, x, CellId(101), SimTime::from_secs(1)).unwrap();
        assert_eq!(hit.hit.tier(), Tier::Micro, "paper's order: micro first");
    }

    #[test]
    fn unknown_node_not_found() {
        let h = fig31();
        let mut d = dir(&h);
        assert!(d
            .locate(&h, addr("9.9.9.9"), CellId(2), SimTime::ZERO)
            .is_none());
        assert!(d
            .resolve_serving_cell(addr("9.9.9.9"), CellId(100), SimTime::ZERO)
            .is_none());
    }
}
