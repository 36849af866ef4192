//! Soft-state mappings: the primitive under routing caches, paging caches
//! and the paper's `micro_table`/`macro_table`.

use mtnet_sim::FxHashMap;
use mtnet_sim::{SimDuration, SimTime};
use std::hash::Hash;

/// A map whose entries expire unless refreshed within a lifetime.
///
/// This is exactly the paper's rule for cell tables (§3.1): *"All records
/// in micro_table and macro_table have a specific time-limitation. Over the
/// limit time and does not have any location information from this MN, the
/// location record of the MN will be erased."* — and likewise Cellular IP's
/// routing-cache rule.
///
/// ```
/// use mtnet_cellularip::SoftStateCache;
/// use mtnet_sim::{SimDuration, SimTime};
///
/// let mut cache = SoftStateCache::new(SimDuration::from_secs(3));
/// cache.refresh("mn1", 42, SimTime::ZERO);
/// assert_eq!(cache.get(&"mn1", SimTime::from_secs(2)), Some(&42));
/// assert_eq!(cache.get(&"mn1", SimTime::from_secs(3)), None); // expired
/// ```
#[derive(Debug, Clone)]
pub struct SoftStateCache<K, V> {
    lifetime: SimDuration,
    entries: FxHashMap<K, (V, SimTime)>,
    refreshes: u64,
    expirations: u64,
}

impl<K: Eq + Hash + Clone, V> SoftStateCache<K, V> {
    /// Creates a cache whose entries live `lifetime` past their last
    /// refresh.
    ///
    /// # Panics
    ///
    /// Panics if `lifetime` is zero.
    pub fn new(lifetime: SimDuration) -> Self {
        assert!(!lifetime.is_zero(), "soft state needs a positive lifetime");
        SoftStateCache {
            lifetime,
            entries: FxHashMap::default(),
            refreshes: 0,
            expirations: 0,
        }
    }

    /// Inserts or refreshes an entry at `now`. Returns the previous value
    /// if one existed (expired or not).
    pub fn refresh(&mut self, key: K, value: V, now: SimTime) -> Option<V> {
        self.refreshes += 1;
        self.entries.insert(key, (value, now)).map(|(v, _)| v)
    }

    /// The live value for `key` at `now`, if present and unexpired.
    pub fn get(&self, key: &K, now: SimTime) -> Option<&V> {
        self.entries
            .get(key)
            .filter(|(_, at)| now.saturating_since(*at) < self.lifetime)
            .map(|(v, _)| v)
    }

    /// Like [`SoftStateCache::get`] without the expiry check — for
    /// inspecting stale state in tests and statistics.
    pub fn get_even_stale(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _)| v)
    }

    /// Removes an entry outright (the paper's "Delete Location Message").
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(v, _)| v)
    }

    /// Drops every entry at once — a node crash losing its soft state
    /// wholesale. The refresh/expiration counters survive: they describe
    /// the run, not the box.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Evicts entries that expired before `now`; returns how many.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let lifetime = self.lifetime;
        let before = self.entries.len();
        self.entries
            .retain(|_, (_, at)| now.saturating_since(*at) < lifetime);
        let evicted = before - self.entries.len();
        self.expirations += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cache() -> SoftStateCache<&'static str, u32> {
        SoftStateCache::new(SimDuration::from_secs(5))
    }

    #[test]
    fn refresh_and_get() {
        let mut c = cache();
        assert_eq!(c.refresh("a", 1, secs(0)), None);
        assert_eq!(c.get(&"a", secs(4)), Some(&1));
        assert_eq!(c.refresh("a", 2, secs(4)), Some(1));
        assert_eq!(c.get(&"a", secs(8)), Some(&2), "refresh extends life");
    }

    #[test]
    fn expiry_boundary_exclusive() {
        let mut c = cache();
        c.refresh("a", 1, secs(10));
        assert!(c.get(&"a", secs(14)).is_some());
        assert!(c.get(&"a", secs(15)).is_none(), "lifetime is exclusive");
        assert_eq!(c.get_even_stale(&"a"), Some(&1), "stale entry still stored");
    }

    #[test]
    fn sweep_evicts_and_counts() {
        let mut c = cache();
        c.refresh("a", 1, secs(0));
        c.refresh("b", 2, secs(3));
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.sweep(secs(6)), 1); // a dead, b alive
        assert_eq!(c.entries.len(), 1);
        assert_eq!((c.refreshes, c.expirations), (2, 1));
    }

    #[test]
    fn remove_is_immediate() {
        let mut c = cache();
        c.refresh("a", 1, secs(0));
        assert_eq!(c.remove(&"a"), Some(1));
        assert_eq!(c.get(&"a", secs(0)), None);
        assert!(c.entries.is_empty());
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut c = cache();
        c.refresh("a", 1, secs(0));
        c.refresh("b", 2, secs(1));
        c.sweep(secs(5)); // "a" expires: counters now (2, 1)
        c.clear();
        assert!(c.entries.is_empty());
        assert_eq!(c.get(&"b", secs(1)), None);
        assert_eq!(
            (c.refreshes, c.expirations),
            (2, 1),
            "history survives the crash"
        );
    }

    #[test]
    fn live_count_vs_len() {
        let mut c = cache();
        c.refresh("a", 1, secs(0));
        c.refresh("b", 2, secs(4));
        assert_eq!(c.entries.len(), 2);
        let live = ["a", "b"].iter().filter(|k| c.get(k, secs(6)).is_some());
        assert_eq!(live.count(), 1);
    }

    #[test]
    #[should_panic(expected = "positive lifetime")]
    fn zero_lifetime_rejected() {
        SoftStateCache::<u8, u8>::new(SimDuration::ZERO);
    }
}
