//! The Mobile Node Location Database (Fig 4.1's MNLD): the home network's
//! coarse, domain-granularity view of where every subscriber is.
//!
//! The MNLD complements the HA's binding cache: bindings are per care-of
//! address and expire quickly; the MNLD keeps the last-known domain and
//! RSMC for each node, which the home network uses to answer "which domain
//! should this location query go to" and to tell an inter-domain movement
//! from a refresh.
//!
//! Records are keyed by [`MnId`] in a hash map holding one per node that
//! has reported, so the database is O(nodes the home network has heard
//! from), not O(population). In the benchmark's `metro_busy` world (the
//! E14 shape at 200 000 nodes) only voice nodes reach the HA, with 280
//! reports per run, while a column grown to the highest id reported had
//! reserved 320 064 rows (7.7 MB); at 10^6 subscribers it held ~24 MB.
//! So few probes gain nothing from a column's branch-free index, and
//! nothing iterates the map, so its order cannot reach a report.

use crate::hierarchy::DomainId;
use crate::messages::MnId;
use mtnet_net::Addr;
use mtnet_sim::{FxHashMap, SimTime};

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
    /// One record per node that has reported.
    entries: FxHashMap<MnId, MnldEntry>,
}

impl Mnld {
    /// Creates an empty database.
    pub fn new() -> Self {
        Mnld::default()
    }

    /// Records that `mn` is now in `domain` behind `rsmc`. Returns `true`
    /// if this was a *domain change* (an inter-domain movement).
    pub fn update(&mut self, mn: MnId, domain: DomainId, rsmc: Addr, now: SimTime) -> bool {
        let entry = MnldEntry {
            domain,
            rsmc,
            updated_at: now,
        };
        self.entries
            .insert(mn, entry)
            .is_none_or(|e| e.domain != domain)
    }

    /// Looks up the last-known location of `mn`.
    pub fn query(&self, mn: MnId) -> Option<MnldEntry> {
        self.entries.get(&mn).copied()
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
        assert!(m.update(MnId(1000), DomainId(2), addr("20.2.0.1"), SimTime::ZERO));
        assert!(m.update(MnId(1000), DomainId(3), addr("20.3.0.1"), SimTime::ZERO));
        assert_eq!(m.query(MnId(1000)).map(|e| e.domain), Some(DomainId(3)));
        assert!((0..1000).all(|i| m.query(MnId(i)).is_none()));
        assert!(m.query(MnId(1001)).is_none());
        assert_eq!(m.entries.len(), 1);
    }

    /// The dense column the map replaced: one `Option` row per id up to
    /// the highest reported, the reference the map must answer like.
    #[derive(Default)]
    struct Column(Vec<Option<MnldEntry>>);

    impl Column {
        fn update(&mut self, mn: MnId, domain: DomainId, rsmc: Addr, now: SimTime) -> bool {
            let idx = mn.0 as usize;
            if idx >= self.0.len() {
                self.0.resize(idx + 1, None);
            }
            let slot = &mut self.0[idx];
            let changed = slot.is_none_or(|e| e.domain != domain);
            *slot = Some(MnldEntry {
                domain,
                rsmc,
                updated_at: now,
            });
            changed
        }

        fn query(&self, mn: MnId) -> Option<MnldEntry> {
            self.0.get(mn.0 as usize).copied().flatten()
        }
    }

    #[test]
    fn random_traffic_answers_like_the_dense_column() {
        for seed in 0..8 {
            let mut rng = mtnet_sim::RngStream::from_seed(seed);
            let (mut map, mut column) = (Mnld::new(), Column::default());
            for step in 0..2_000u64 {
                // Few domains and a small id range, so refreshes, domain
                // changes and misses all occur; every 50th id is far out.
                let mn = if step % 50 == 0 {
                    MnId(rng.uniform_u64(100_000) as u32)
                } else {
                    MnId(rng.uniform_u64(300) as u32)
                };
                if rng.chance(0.5) {
                    let d = rng.uniform_u64(4) as u32;
                    let rsmc = Addr::from_octets(20, d as u8, 0, 1 + rng.uniform_u64(2) as u8);
                    let now = SimTime::from_millis(step);
                    assert_eq!(
                        map.update(mn, DomainId(d), rsmc, now),
                        column.update(mn, DomainId(d), rsmc, now),
                        "seed {seed} step {step}: update of {mn:?}"
                    );
                } else {
                    assert_eq!(
                        map.query(mn),
                        column.query(mn),
                        "seed {seed} step {step}: query of {mn:?}"
                    );
                }
            }
        }
    }
}
