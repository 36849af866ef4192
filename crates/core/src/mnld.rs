//! The Mobile Node Location Database (Fig 4.1's MNLD): the home network's
//! coarse, domain-granularity view of where every subscriber is.
//!
//! The MNLD complements the HA's binding cache: bindings are per care-of
//! address and expire quickly; the MNLD keeps the last-known domain and
//! RSMC for each node, which the home network uses to answer "which domain
//! should this location query go to" and to tell an inter-domain movement
//! from a refresh.
//!
//! Records are keyed by the dense [`MnId`] and stored in a flat column
//! that grows to the highest id ever reported — an `Option<MnldEntry>`
//! row per node instead of the former `HashMap<Addr, _>`: at metro scale
//! (10^6 subscribers) the column is one contiguous ~24 MB allocation with
//! O(1) branch-free probes, and a node that never roams costs exactly its
//! (empty) row.

use crate::hierarchy::DomainId;
use crate::messages::MnId;
use mtnet_net::Addr;
use mtnet_sim::SimTime;

/// One MNLD record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnldEntry {
    /// The domain last reported for the node.
    pub domain: DomainId,
    /// The RSMC serving that domain.
    pub rsmc: Addr,
    /// When the record was last updated.
    pub updated_at: SimTime,
}

/// The location database.
#[derive(Debug, Default)]
pub struct Mnld {
    /// Dense per-node records, indexed by [`MnId`]; grows on demand.
    entries: Vec<Option<MnldEntry>>,
}

impl Mnld {
    /// Creates an empty database.
    pub fn new() -> Self {
        Mnld::default()
    }

    /// Records that `mn` is now in `domain` behind `rsmc`. Returns `true`
    /// if this was a *domain change* (an inter-domain movement).
    pub fn update(&mut self, mn: MnId, domain: DomainId, rsmc: Addr, now: SimTime) -> bool {
        let idx = mn.0 as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        let slot = &mut self.entries[idx];
        let changed = slot.is_none_or(|e| e.domain != domain);
        *slot = Some(MnldEntry {
            domain,
            rsmc,
            updated_at: now,
        });
        changed
    }

    /// Looks up the last-known location of `mn`.
    pub fn query(&self, mn: MnId) -> Option<MnldEntry> {
        self.entries.get(mn.0 as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn first_update_is_a_domain_change() {
        let mut m = Mnld::new();
        assert!(m.query(MnId(0)).is_none());
        assert!(m.update(MnId(0), DomainId(0), addr("20.0.0.1"), SimTime::ZERO));
        assert_eq!(m.query(MnId(0)).map(|e| e.domain), Some(DomainId(0)));
    }

    #[test]
    fn same_domain_refresh_is_not_a_change() {
        let mut m = Mnld::new();
        assert!(m.update(MnId(0), DomainId(0), addr("20.0.0.1"), SimTime::ZERO));
        assert!(!m.update(
            MnId(0),
            DomainId(0),
            addr("20.0.0.1"),
            SimTime::from_secs(5)
        ));
        assert!(m.update(
            MnId(0),
            DomainId(1),
            addr("20.1.0.1"),
            SimTime::from_secs(9)
        ));
    }

    #[test]
    fn query_answers_hits_and_misses() {
        let mut m = Mnld::new();
        m.update(MnId(0), DomainId(0), addr("20.0.0.1"), SimTime::ZERO);
        let e = m.query(MnId(0)).unwrap();
        assert_eq!(e.domain, DomainId(0));
        assert_eq!(e.rsmc, addr("20.0.0.1"));
        assert!(m.query(MnId(99)).is_none());
    }

    #[test]
    fn updated_at_tracks_latest() {
        let mut m = Mnld::new();
        m.update(MnId(0), DomainId(0), addr("20.0.0.1"), SimTime::ZERO);
        m.update(
            MnId(0),
            DomainId(0),
            addr("20.0.0.1"),
            SimTime::from_secs(7),
        );
        assert_eq!(m.query(MnId(0)).unwrap().updated_at, SimTime::from_secs(7));
    }

    #[test]
    fn a_high_id_leaves_the_rows_below_it_empty() {
        let mut m = Mnld::new();
        // A high id grows the column, but only its own row holds a record.
        assert!(m.update(MnId(1000), DomainId(2), addr("20.2.0.1"), SimTime::ZERO));
        assert!(m.update(MnId(1000), DomainId(3), addr("20.3.0.1"), SimTime::ZERO));
        assert_eq!(m.query(MnId(1000)).map(|e| e.domain), Some(DomainId(3)));
        assert!((0..1000).all(|i| m.query(MnId(i)).is_none()));
        assert!(m.query(MnId(1001)).is_none());
    }
}
