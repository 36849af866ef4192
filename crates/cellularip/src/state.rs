//! Per-mobile-node Cellular IP state: active vs idle, and the three
//! protocol timers.

use mtnet_sim::{SimDuration, SimTime};

/// The three Cellular IP timers (paper §2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CipTimers {
    /// How often an **active** node transmits route-update packets
    /// ("route-update-time"). Must be shorter than the routing-cache
    /// lifetime or mappings flap.
    pub route_update: SimDuration,
    /// How often an **idle** node transmits paging-update packets
    /// ("paging-update-time"). Much longer than `route_update` — that gap
    /// is the protocol's whole energy/overhead win.
    pub paging_update: SimDuration,
    /// How long after the last data packet a node stays active
    /// ("active-state-timeout").
    pub active_timeout: SimDuration,
}

impl Default for CipTimers {
    /// Values in the range the Cellular IP papers use: 1 s route updates,
    /// 60 s paging updates, 5 s active timeout.
    fn default() -> Self {
        CipTimers {
            route_update: SimDuration::from_secs(1),
            paging_update: SimDuration::from_secs(60),
            active_timeout: SimDuration::from_secs(5),
        }
    }
}

impl CipTimers {
    /// Routing-cache lifetime consistent with these timers (a small
    /// multiple of the refresh period, as the protocol requires).
    pub fn route_cache_lifetime(&self) -> SimDuration {
        self.route_update.saturating_mul(3)
    }

    /// Paging-cache lifetime consistent with these timers.
    pub fn paging_cache_lifetime(&self) -> SimDuration {
        self.paging_update.saturating_mul(3)
    }
}

/// Whether a node currently maintains routing-cache state (active) or only
/// paging-cache state (idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnMode {
    /// Sending/receiving recently: routing caches are kept fresh.
    Active,
    /// No data for `active_timeout`: only coarse paging state remains.
    Idle,
}

/// Tracks one mobile node's CIP mode transitions.
///
/// ```
/// use mtnet_cellularip::{MnCipState, CipTimers, MnMode};
/// use mtnet_sim::SimTime;
///
/// let timers = CipTimers::default();
/// let mut s = MnCipState::new(timers, SimTime::ZERO);
/// assert_eq!(s.mode(SimTime::from_secs(1)), MnMode::Active);
/// // 5 s of silence → idle
/// assert_eq!(s.mode(SimTime::from_secs(6)), MnMode::Idle);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MnCipState {
    timers: CipTimers,
    last_data: SimTime,
}

impl MnCipState {
    /// Creates a node considered active as of `now` (it just attached).
    pub fn new(timers: CipTimers, now: SimTime) -> Self {
        MnCipState {
            timers,
            last_data: now,
        }
    }

    /// Records data activity (sent or received) at `now`.
    pub fn touch(&mut self, now: SimTime) {
        self.last_data = self.last_data.max(now);
    }

    /// True while within `active_timeout` of the last data packet.
    pub fn is_active(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_data) < self.timers.active_timeout
    }

    /// Current mode.
    pub fn mode(&self, now: SimTime) -> MnMode {
        if self.is_active(now) {
            MnMode::Active
        } else {
            MnMode::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn default_timers_sane() {
        let t = CipTimers::default();
        assert!(t.route_update < t.active_timeout);
        assert!(t.active_timeout < t.paging_update);
        assert!(t.route_cache_lifetime() > t.route_update);
        assert!(t.paging_cache_lifetime() > t.paging_update);
    }

    #[test]
    fn active_until_timeout() {
        let s = MnCipState::new(CipTimers::default(), secs(0));
        assert!(s.is_active(secs(4)));
        assert!(!s.is_active(secs(5)));
        assert_eq!(s.mode(secs(10)), MnMode::Idle);
    }

    #[test]
    fn touch_extends_activity() {
        let mut s = MnCipState::new(CipTimers::default(), secs(0));
        s.touch(secs(4));
        assert!(s.is_active(secs(8)));
        assert!(!s.is_active(secs(9)));
    }

    #[test]
    fn touch_never_moves_backwards() {
        let mut s = MnCipState::new(CipTimers::default(), secs(10));
        s.touch(secs(5)); // out-of-order event
        assert!(s.is_active(secs(14)), "later activity must not be erased");
    }
}
