//! The Resource Switching Management Center (§4, Fig 4.1).
//!
//! "RSMC is a control center that combines gateway router and cache of BS,
//! which can store the location information of MN, forward data packets to
//! MN, and authenticate identity of MN. […] RSMC will update the location
//! information of MN after got this packet, and send a message to notify
//! HA and CN."
//!
//! In the reproduction the RSMC *is* the domain's Cellular IP gateway node;
//! this type holds the added value over a plain gateway: the combined
//! location cache (outliving fine-grained routing caches), the
//! authentication epoch, and the HA/CN notification generator.
//!
//! Authentication is **epoch-tagged** rather than registry-backed: the
//! RSMC publishes an [`epoch`](Rsmc::epoch) that bumps on every
//! [`flush`](Rsmc::flush), and each mobile node records which
//! `(domain, epoch)` it last authenticated against on its own table row.
//! The observable behaviour is identical to the old per-RSMC
//! `HashSet<Addr>` registry (authenticate once per node per domain,
//! re-authenticate after a crash/failover flush) but the RSMC itself
//! holds O(1) auth state instead of O(subscribers-ever-seen).

use crate::messages::MtMessage;
use mtnet_cellularip::SoftStateCache;
use mtnet_net::Addr;
use mtnet_radio::CellId;
use mtnet_sim::{SimDuration, SimTime};

/// Per-domain RSMC state.
#[derive(Debug, Clone)]
pub struct Rsmc {
    addr: Addr,
    /// Combined gateway/BS location cache: MN → serving cell. Lifetime is
    /// long (paging-scale), so the RSMC can still place a node whose
    /// routing caches lapsed.
    location: SoftStateCache<Addr, CellId>,
    /// Authentication epoch; bumped on flush so outstanding per-node
    /// authentications (tagged with the old epoch) become invalid.
    auth_epoch: u32,
    /// Correspondents to notify per MN is decided by the caller; the RSMC
    /// counts the notifications it generates.
    notifications_sent: u64,
    auth_performed: u64,
    packets_forwarded: u64,
}

impl Rsmc {
    /// Location-cache lifetime: long enough to outlive routing caches (it
    /// doubles as the paging anchor).
    pub const LOCATION_LIFETIME: SimDuration = SimDuration::from_secs(180);

    /// One-time authentication processing delay (identity verification).
    pub const AUTH_DELAY: SimDuration = SimDuration::from_millis(5);

    /// Creates the RSMC at the given (gateway) address.
    pub fn new(addr: Addr) -> Self {
        Rsmc {
            addr,
            location: SoftStateCache::new(Self::LOCATION_LIFETIME),
            auth_epoch: 0,
            notifications_sent: 0,
            auth_performed: 0,
            packets_forwarded: 0,
        }
    }

    /// The RSMC's address (also the domain's care-of address).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The current authentication epoch. A node whose recorded epoch for
    /// this domain differs must (re-)authenticate and charge
    /// [`Rsmc::AUTH_DELAY`].
    pub fn epoch(&self) -> u32 {
        self.auth_epoch
    }

    /// Counts one identity verification actually performed (the caller
    /// decided the node's recorded epoch was stale). Returns the
    /// processing delay to charge.
    pub fn note_auth_performed(&mut self) -> SimDuration {
        self.auth_performed += 1;
        Self::AUTH_DELAY
    }

    /// Processes a route-update arrival for `mn` now served by `cell`
    /// (§4: "RSMC will update the location information of MN after got
    /// this packet, and send a message to notify HA and CN").
    ///
    /// Returns the notifications to transmit — empty when the serving cell
    /// did not change (movement inside the same cell needs no notify).
    pub fn on_route_update(
        &mut self,
        mn: Addr,
        cell: CellId,
        now: SimTime,
        notify_targets: usize,
    ) -> Vec<MtMessage> {
        let prev = self.location.get_even_stale(&mn).copied();
        self.location.refresh(mn, cell, now);
        if prev == Some(cell) {
            return Vec::new();
        }
        self.notifications_sent += notify_targets as u64;
        vec![
            MtMessage::RsmcNotify {
                mn,
                rsmc: self.addr
            };
            notify_targets
        ]
    }

    /// Crash/failover flush (fault injection): the RSMC loses its combined
    /// location cache and invalidates every outstanding authentication
    /// (by bumping the epoch), exactly as a cold standby taking over
    /// would start. The statistics counters survive — they describe the
    /// run, not the box.
    pub fn flush(&mut self) {
        self.location.clear();
        self.auth_epoch += 1;
    }

    /// The cell currently (or recently) serving `mn`, if the location
    /// cache still holds it.
    pub fn locate(&self, mn: Addr, now: SimTime) -> Option<CellId> {
        self.location.get(&mn, now).copied()
    }

    /// Counts a data packet forwarded toward an MN.
    pub fn count_forwarded(&mut self) {
        self.packets_forwarded += 1;
    }

    /// Evicts expired location entries; returns how many.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.location.sweep(now)
    }

    /// Number of nodes with live location entries at `now`.
    pub fn tracked(&self, now: SimTime) -> usize {
        self.location.live_count(now)
    }

    /// `(notifications, authentications, packets_forwarded)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.notifications_sent,
            self.auth_performed,
            self.packets_forwarded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn rsmc() -> Rsmc {
        Rsmc::new(addr("20.0.0.1"))
    }

    #[test]
    fn auth_epoch_drives_once_per_mn_semantics() {
        let mut r = rsmc();
        assert_eq!(r.epoch(), 0);
        // A node with a stale recorded epoch authenticates and is charged.
        assert_eq!(r.note_auth_performed(), Rsmc::AUTH_DELAY);
        assert_eq!(r.counters().1, 1);
        // The epoch is stable across ordinary operation, so a node whose
        // recorded epoch matches skips authentication entirely (the world
        // compares epochs and never calls note_auth_performed again).
        assert_eq!(r.epoch(), 0);
    }

    #[test]
    fn route_update_notifies_on_cell_change_only() {
        let mut r = rsmc();
        let mn = addr("10.0.2.1");
        let n1 = r.on_route_update(mn, CellId(3), SimTime::ZERO, 2);
        assert_eq!(n1.len(), 2, "HA + CN notified on first sighting");
        assert!(matches!(n1[0], MtMessage::RsmcNotify { .. }));
        // Same cell refresh: silent.
        let n2 = r.on_route_update(mn, CellId(3), SimTime::from_secs(1), 2);
        assert!(n2.is_empty());
        // Cell change: notify again.
        let n3 = r.on_route_update(mn, CellId(4), SimTime::from_secs(2), 2);
        assert_eq!(n3.len(), 2);
        assert_eq!(r.counters().0, 4);
    }

    #[test]
    fn location_cache_answers_and_expires() {
        let mut r = rsmc();
        let mn = addr("10.0.2.1");
        r.on_route_update(mn, CellId(3), SimTime::ZERO, 0);
        assert_eq!(r.locate(mn, SimTime::from_secs(100)), Some(CellId(3)));
        assert_eq!(r.locate(mn, SimTime::from_secs(180)), None, "expired");
        assert_eq!(r.tracked(SimTime::from_secs(100)), 1);
        assert_eq!(r.sweep(SimTime::from_secs(180)), 1);
    }

    #[test]
    fn flush_loses_state_but_not_history() {
        let mut r = rsmc();
        let mn = addr("10.0.2.1");
        r.note_auth_performed();
        r.on_route_update(mn, CellId(3), SimTime::ZERO, 2);
        let epoch_before = r.epoch();
        r.flush();
        assert_ne!(r.epoch(), epoch_before, "outstanding auths invalidated");
        assert_eq!(r.locate(mn, SimTime::ZERO), None, "location cache gone");
        assert_eq!(r.counters().0, 2, "notification history survives");
        assert_eq!(r.counters().1, 1, "auth history survives");
        // The standby re-learns from scratch: next sighting notifies again.
        assert_eq!(r.note_auth_performed(), Rsmc::AUTH_DELAY);
        assert_eq!(r.on_route_update(mn, CellId(3), SimTime::ZERO, 2).len(), 2);
    }

    #[test]
    fn forward_counter() {
        let mut r = rsmc();
        r.count_forwarded();
        r.count_forwarded();
        assert_eq!(r.counters().2, 2);
    }

    #[test]
    fn addr_accessor() {
        assert_eq!(rsmc().addr(), addr("20.0.0.1"));
    }
}
