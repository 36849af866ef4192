//! The paper's cell tables: `micro_table` and `macro_table` (§3.1).
//!
//! Every micro-cell BS keeps a `micro_table`; every macro-cell BS keeps a
//! `macro_table` **and** the micro-tier records of cells under its control
//! region. Records map a mobile node to the cell that (from this BS's
//! viewpoint) leads toward it, and are soft state: refreshed by Location
//! Messages, erased after a time limit.

use crate::tier::Tier;
use mtnet_cellularip::SoftStateCache;
use mtnet_net::Addr;
use mtnet_radio::CellId;
use mtnet_sim::{SimDuration, SimTime};

/// Which table a lookup hit — the paper's lookup order is micro first,
/// then macro ("Macro-cell will search its micro_table first, if not find,
/// its macro_table will be searched").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableHit {
    /// Found in the micro_table.
    Micro(CellId),
    /// Found in the macro_table.
    Macro(CellId),
}

impl TableHit {
    /// The located cell regardless of table.
    pub fn cell(&self) -> CellId {
        match self {
            TableHit::Micro(c) | TableHit::Macro(c) => *c,
        }
    }

    /// The tier of the table that answered.
    pub fn tier(&self) -> Tier {
        match self {
            TableHit::Micro(_) => Tier::Micro,
            TableHit::Macro(_) => Tier::Macro,
        }
    }
}

/// The cell table(s) held by one base station.
///
/// A micro BS has only the micro table; a macro BS has both. Both tables
/// share the same record shape (mn → cell) and time-limitation rule.
///
/// ```
/// use mtnet_core::tables::CellTable;
/// use mtnet_radio::CellId;
/// use mtnet_sim::{SimDuration, SimTime};
///
/// let mut t = CellTable::for_macro_bs(SimDuration::from_secs(6));
/// let mn: mtnet_net::Addr = "10.0.2.1".parse().unwrap();
/// t.record_micro(mn, CellId(3), SimTime::ZERO);
/// let hit = t.lookup(mn, SimTime::from_secs(2)).unwrap();
/// assert_eq!(hit.cell(), CellId(3));
/// ```
#[derive(Debug, Clone)]
pub struct CellTable {
    micro: SoftStateCache<Addr, CellId>,
    /// `None` for micro-tier base stations.
    macro_: Option<SoftStateCache<Addr, CellId>>,
    lookups: u64,
    micro_hits: u64,
    macro_hits: u64,
    misses: u64,
}

impl CellTable {
    /// Table set for a micro-cell BS (micro_table only).
    pub fn for_micro_bs(lifetime: SimDuration) -> Self {
        CellTable {
            micro: SoftStateCache::new(lifetime),
            macro_: None,
            lookups: 0,
            micro_hits: 0,
            macro_hits: 0,
            misses: 0,
        }
    }

    /// Table set for a macro-cell BS (micro_table + macro_table).
    pub fn for_macro_bs(lifetime: SimDuration) -> Self {
        CellTable {
            micro: SoftStateCache::new(lifetime),
            macro_: Some(SoftStateCache::new(lifetime)),
            lookups: 0,
            micro_hits: 0,
            macro_hits: 0,
            misses: 0,
        }
    }

    /// True if this BS also keeps a macro_table.
    pub fn has_macro_table(&self) -> bool {
        self.macro_.is_some()
    }

    /// Records/refreshes a micro-tier location `(mn, cell)` at `now` —
    /// e.g. `(X, B)` in the paper's Fig 3.1 walkthrough.
    pub fn record_micro(&mut self, mn: Addr, cell: CellId, now: SimTime) {
        self.micro.refresh(mn, cell, now);
    }

    /// Records/refreshes a macro-tier location.
    ///
    /// # Panics
    ///
    /// Panics if called on a micro-BS table (it has no macro_table).
    pub fn record_macro(&mut self, mn: Addr, cell: CellId, now: SimTime) {
        self.macro_
            .as_mut()
            .expect("micro BS has no macro_table")
            .refresh(mn, cell, now);
    }

    /// Deletes the record for `mn` only if it still marks a *direct
    /// attachment* at `here` (the stored cell equals this BS itself).
    ///
    /// This is the correct semantics for the paper's "Update Location
    /// Message … and a Delete Location Message … in the same time"
    /// (§3.2a): when the old BS lies on the new chain (macro→micro under
    /// the same macro), the concurrent update has already replaced the
    /// record with a downstream pointer, which must survive the delete.
    pub fn delete_attachment(&mut self, mn: Addr, here: CellId) {
        if self.micro.get_even_stale(&mn) == Some(&here) {
            self.micro.remove(&mn);
        }
        if let Some(m) = self.macro_.as_mut() {
            if m.get_even_stale(&mn) == Some(&here) {
                m.remove(&mn);
            }
        }
    }

    /// Looks up `mn` in the paper's order: micro_table first, then
    /// macro_table. Records hit/miss statistics.
    pub fn lookup(&mut self, mn: Addr, now: SimTime) -> Option<TableHit> {
        self.lookups += 1;
        if let Some(&cell) = self.micro.get(&mn, now) {
            self.micro_hits += 1;
            return Some(TableHit::Micro(cell));
        }
        if let Some(m) = self.macro_.as_ref() {
            if let Some(&cell) = m.get(&mn, now) {
                self.macro_hits += 1;
                return Some(TableHit::Macro(cell));
            }
        }
        self.misses += 1;
        None
    }

    /// Evicts expired records from both tables; returns how many.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let mut n = self.micro.sweep(now);
        if let Some(m) = self.macro_.as_mut() {
            n += m.sweep(now);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn mn() -> Addr {
        addr("10.0.2.9")
    }

    /// A few Location Message periods.
    const LIFETIME: SimDuration = SimDuration::from_secs(6);

    #[test]
    fn micro_bs_has_no_macro_table() {
        let t = CellTable::for_micro_bs(LIFETIME);
        assert!(!t.has_macro_table());
        assert!(t.micro.get_even_stale(&mn()).is_none());
    }

    #[test]
    #[should_panic(expected = "no macro_table")]
    fn micro_bs_rejects_macro_records() {
        let mut t = CellTable::for_micro_bs(LIFETIME);
        t.record_macro(mn(), CellId(1), SimTime::ZERO);
    }

    #[test]
    fn lookup_order_micro_first() {
        let mut t = CellTable::for_macro_bs(LIFETIME);
        t.record_macro(mn(), CellId(7), SimTime::ZERO);
        t.record_micro(mn(), CellId(3), SimTime::ZERO);
        let hit = t.lookup(mn(), SimTime::from_secs(1)).unwrap();
        assert_eq!(
            hit,
            TableHit::Micro(CellId(3)),
            "micro_table searched first"
        );
        assert_eq!(hit.tier(), Tier::Micro);
    }

    #[test]
    fn macro_table_is_fallback() {
        let mut t = CellTable::for_macro_bs(LIFETIME);
        t.record_macro(mn(), CellId(7), SimTime::ZERO);
        let hit = t.lookup(mn(), SimTime::from_secs(1)).unwrap();
        assert_eq!(hit, TableHit::Macro(CellId(7)));
        assert_eq!(hit.cell(), CellId(7));
        let stats = (t.lookups, t.micro_hits, t.macro_hits, t.misses);
        assert_eq!(stats, (1, 0, 1, 0));
    }

    #[test]
    fn records_expire_per_time_limitation() {
        let mut t = CellTable::for_macro_bs(SimDuration::from_secs(4));
        t.record_micro(mn(), CellId(3), SimTime::ZERO);
        assert!(t.lookup(mn(), SimTime::from_secs(3)).is_some());
        assert!(
            t.lookup(mn(), SimTime::from_secs(4)).is_none(),
            "record erased"
        );
        assert_eq!(t.misses, 1, "miss counted");
    }

    #[test]
    fn refresh_keeps_record_alive() {
        let mut t = CellTable::for_micro_bs(SimDuration::from_secs(4));
        for s in [0u64, 3, 6, 9] {
            t.record_micro(mn(), CellId(3), SimTime::from_secs(s));
        }
        assert!(t.lookup(mn(), SimTime::from_secs(12)).is_some());
    }

    #[test]
    fn delete_erases_both_tables() {
        // A node attached directly to this macro BS has its own cell in
        // both tables; the Delete Location Message clears both.
        let here = CellId(7);
        let mut t = CellTable::for_macro_bs(LIFETIME);
        t.record_micro(mn(), here, SimTime::ZERO);
        t.record_macro(mn(), here, SimTime::ZERO);
        t.delete_attachment(mn(), here);
        assert!(t.lookup(mn(), SimTime::ZERO).is_none());
        assert!(t.micro.get_even_stale(&mn()).is_none());
        let macro_ = t.macro_.as_ref().expect("a macro BS's table");
        assert!(macro_.get_even_stale(&mn()).is_none());
    }

    #[test]
    fn sweep_cleans_both_tables() {
        let mut t = CellTable::for_macro_bs(SimDuration::from_secs(2));
        t.record_micro(mn(), CellId(3), SimTime::ZERO);
        t.record_macro(addr("10.0.2.8"), CellId(7), SimTime::ZERO);
        assert_eq!(t.sweep(SimTime::from_secs(5)), 2);
    }

    #[test]
    fn update_replaces_cell() {
        let mut t = CellTable::for_micro_bs(LIFETIME);
        t.record_micro(mn(), CellId(3), SimTime::ZERO);
        t.record_micro(mn(), CellId(4), SimTime::from_secs(1));
        assert_eq!(
            t.lookup(mn(), SimTime::from_secs(2)).unwrap().cell(),
            CellId(4)
        );
    }
}
