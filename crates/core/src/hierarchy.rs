//! The multi-tier base-station hierarchy and its domains (§3.1, Fig 3.1).
//!
//! Macro cells form a small tree (the paper's example: `R3` on the upper
//! level, `R1`/`R2` below it); micro cells hang under macro cells (and may
//! chain under other micro cells — "micro-cells may be located on same
//! level or distinguished on more than one levels"). A **domain** is the
//! coverage of one macro-tier subtree (`R1`'s subtree is one domain,
//! `R2`'s another); inter-domain handoffs are classified by whether the two
//! domains share an upper-layer BS (Fig 3.2) or not (Fig 3.3).

use crate::tier::Tier;
use mtnet_radio::CellId;
use mtnet_sim::FxHashMap;
use std::fmt;

/// Identifier of a domain (one macro-tier coverage area).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain{}", self.0)
    }
}

/// One domain: a top macro BS plus everything under it.
#[derive(Debug, Clone)]
pub struct Domain {
    /// The domain id.
    pub id: DomainId,
    /// The domain's top macro cell (`R1`/`R2` in Fig 3.1). Nothing reads
    /// it; it goes once the benchmark's `setup_s` no longer moves with the
    /// size of what a world allocates (ROADMAP item 8).
    pub top_macro: CellId,
    /// The shared upper-layer BS above this domain, if any (`R3`).
    pub upper: Option<CellId>,
}

#[derive(Debug, Clone, Copy)]
struct CellEntry {
    tier: Tier,
    parent: Option<CellId>,
    domain: Option<DomainId>,
}

/// The assembled hierarchy.
///
/// ```
/// use mtnet_core::hierarchy::Hierarchy;
/// use mtnet_core::tier::Tier;
/// use mtnet_radio::CellId;
///
/// // Fig 3.1: R3 over R1 and R2; micros A,B under R1.
/// let mut h = Hierarchy::new();
/// let r3 = h.add_upper_macro(CellId(100));
/// let d1 = h.add_domain(CellId(101), Some(r3));
/// let a = h.add_micro(CellId(1), CellId(101));
/// let _b = h.add_micro(CellId(2), a);
/// assert_eq!(h.domain_of(CellId(2)), Some(d1));
/// assert_eq!(h.chain_up(CellId(2)), vec![CellId(2), CellId(1), CellId(101), CellId(100)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    cells: FxHashMap<CellId, CellEntry>,
    domains: Vec<Domain>,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Hierarchy::default()
    }

    /// Registers an upper-layer macro BS (the paper's `R3`) that sits above
    /// one or more domains but belongs to none.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell ids.
    pub fn add_upper_macro(&mut self, cell: CellId) -> CellId {
        self.insert(
            cell,
            CellEntry {
                tier: Tier::Macro,
                parent: None,
                domain: None,
            },
        );
        cell
    }

    /// Creates a domain rooted at `top_macro`, optionally under a shared
    /// upper BS.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell ids or an unknown `upper`.
    pub fn add_domain(&mut self, top_macro: CellId, upper: Option<CellId>) -> DomainId {
        if let Some(u) = upper {
            assert!(self.cells.contains_key(&u), "unknown upper BS {u}");
        }
        let id = DomainId(self.domains.len() as u32);
        self.insert(
            top_macro,
            CellEntry {
                tier: Tier::Macro,
                parent: upper,
                domain: Some(id),
            },
        );
        self.domains.push(Domain {
            id,
            top_macro,
            upper,
        });
        id
    }

    /// Adds a micro cell under a macro or micro parent of some domain.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown or outside any domain.
    pub fn add_micro(&mut self, cell: CellId, parent: CellId) -> CellId {
        let p = self.cells.get(&parent).expect("unknown parent");
        let domain = p.domain.expect("parent must belong to a domain");
        self.insert(
            cell,
            CellEntry {
                tier: Tier::Micro,
                parent: Some(parent),
                domain: Some(domain),
            },
        );
        cell
    }

    fn insert(&mut self, cell: CellId, entry: CellEntry) {
        let prev = self.cells.insert(cell, entry);
        assert!(prev.is_none(), "duplicate cell {cell}");
    }

    /// True if the cell is registered.
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.contains_key(&cell)
    }

    /// The tier of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is unknown.
    pub fn tier_of(&self, cell: CellId) -> Tier {
        self.cells[&cell].tier
    }

    /// The parent BS of a cell (None for roots).
    pub fn parent(&self, cell: CellId) -> Option<CellId> {
        self.cells.get(&cell).and_then(|e| e.parent)
    }

    /// The domain a cell belongs to (None for upper-layer BSs).
    pub fn domain_of(&self, cell: CellId) -> Option<DomainId> {
        self.cells.get(&cell).and_then(|e| e.domain)
    }

    /// Domain metadata.
    ///
    /// # Panics
    ///
    /// Panics if the domain id is unknown.
    pub fn domain(&self, id: DomainId) -> &Domain {
        &self.domains[id.0 as usize]
    }

    /// All domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The chain from a cell up to the hierarchy root, inclusive — the
    /// propagation path of a Location Message ("MNs need to send a Location
    /// Message to the most upper layer of macro-tier", §3.1).
    ///
    /// # Panics
    ///
    /// Panics if the cell is unknown.
    pub fn chain_up(&self, cell: CellId) -> Vec<CellId> {
        assert!(self.contains(cell), "unknown cell {cell}");
        let mut chain = vec![cell];
        let mut cur = cell;
        while let Some(p) = self.parent(cur) {
            chain.push(p);
            cur = p;
        }
        chain
    }

    /// True if the two domains share an upper-layer BS — distinguishing
    /// Fig 3.2 (same upper) from Fig 3.3 (different upper) inter-domain
    /// handoffs.
    pub fn same_upper(&self, a: DomainId, b: DomainId) -> bool {
        match (self.domain(a).upper, self.domain(b).upper) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// All cells of a domain, in id order.
    pub fn cells_in_domain(&self, id: DomainId) -> Vec<CellId> {
        let mut v: Vec<CellId> = self
            .cells
            .iter()
            .filter(|(_, e)| e.domain == Some(id))
            .map(|(c, _)| *c)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig 3.1:
    /// R3(100) over R1(101) and R2(102);
    /// micros A(1)←B(2),C(3) under R1; D(4)←E(5),F(6) under R2.
    fn fig31() -> (Hierarchy, DomainId, DomainId) {
        let mut h = Hierarchy::new();
        let r3 = h.add_upper_macro(CellId(100));
        let d1 = h.add_domain(CellId(101), Some(r3));
        let d2 = h.add_domain(CellId(102), Some(r3));
        h.add_micro(CellId(1), CellId(101)); // A
        h.add_micro(CellId(2), CellId(1)); // B under A
        h.add_micro(CellId(3), CellId(1)); // C under A
        h.add_micro(CellId(4), CellId(102)); // D
        h.add_micro(CellId(5), CellId(4)); // E
        h.add_micro(CellId(6), CellId(4)); // F
        (h, d1, d2)
    }

    #[test]
    fn chain_up_matches_paper_example() {
        let (h, ..) = fig31();
        // X in B: location propagates B → A → R1 → R3.
        assert_eq!(
            h.chain_up(CellId(2)),
            vec![CellId(2), CellId(1), CellId(101), CellId(100)]
        );
    }

    #[test]
    fn domains_and_tiers() {
        let (h, d1, d2) = fig31();
        assert_eq!(h.domain_of(CellId(2)), Some(d1));
        assert_eq!(h.domain_of(CellId(6)), Some(d2));
        assert_eq!(h.domain_of(CellId(100)), None, "upper BS is domainless");
        assert_eq!(h.tier_of(CellId(2)), Tier::Micro);
        assert_eq!(h.tier_of(CellId(101)), Tier::Macro);
    }

    #[test]
    fn same_upper_detection() {
        let (mut h, d1, d2) = fig31();
        assert!(h.same_upper(d1, d2), "R1 and R2 share R3");
        // A third, unrelated domain without an upper BS.
        let d3 = h.add_domain(CellId(103), None);
        assert!(!h.same_upper(d1, d3));
        assert!(!h.same_upper(d3, d3), "no upper at all");
    }

    #[test]
    fn cells_in_domain_sorted() {
        let (h, d1, _) = fig31();
        assert_eq!(
            h.cells_in_domain(d1),
            vec![CellId(1), CellId(2), CellId(3), CellId(101)]
        );
    }

    #[test]
    fn domain_metadata() {
        let (h, d1, _) = fig31();
        let dom = h.domain(d1);
        assert_eq!(dom.top_macro, CellId(101));
        assert_eq!(dom.upper, Some(CellId(100)));
        assert_eq!(h.domains().len(), 2);
        assert_eq!(h.cells.len(), 9);
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_rejected() {
        let (mut h, ..) = fig31();
        h.add_micro(CellId(2), CellId(1));
    }

    #[test]
    fn display_ids() {
        assert_eq!(DomainId(1).to_string(), "domain1");
    }
}
