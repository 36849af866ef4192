//! Channel pools with guard-channel admission control.
//!
//! Handoff calls are admitted as long as *any* channel is free; new calls
//! are admitted only while more than `guard` channels remain. Reserving a
//! few channels for handoffs is the classic way multi-tier systems keep
//! forced-termination probability below new-call blocking probability —
//! dropping an ongoing multimedia session is far worse for QoS than
//! rejecting a new one (paper §3.2 factor 3, refs [6][7]).

use std::fmt;

/// Whether an admission request is a brand-new call or an ongoing call
/// being handed off into this cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// A call being set up from scratch.
    New,
    /// An ongoing call arriving via handoff (gets guard-channel priority).
    Handoff,
}

/// Admission failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// A new call found only guard channels free.
    Blocked,
    /// A handoff call found no channel at all.
    Dropped,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Blocked => write!(f, "new call blocked: only guard channels free"),
            AdmitError::Dropped => write!(f, "handoff dropped: no free channel"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A base station's traffic channels with guard-channel reservation.
///
/// ```
/// use mtnet_radio::{ChannelPool, CallKind};
/// let mut pool = ChannelPool::new(3, 1);
/// pool.admit(CallKind::New).unwrap();
/// pool.admit(CallKind::New).unwrap();
/// // Only the guard channel remains: new calls block, handoffs succeed.
/// assert!(pool.admit(CallKind::New).is_err());
/// assert!(pool.admit(CallKind::Handoff).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPool {
    total: u32,
    guard: u32,
    in_use: u32,
    // Outcome counters for blocking/dropping statistics.
    new_admitted: u64,
    new_blocked: u64,
    handoff_admitted: u64,
    handoff_dropped: u64,
}

impl ChannelPool {
    /// Creates a pool of `total` channels, `guard` of which are reserved
    /// for handoff admissions.
    ///
    /// # Panics
    ///
    /// Panics if `guard >= total` or `total == 0`.
    pub fn new(total: u32, guard: u32) -> Self {
        assert!(total > 0, "a pool needs at least one channel");
        assert!(
            guard < total,
            "guard channels must leave room for new calls"
        );
        ChannelPool {
            total,
            guard,
            in_use: 0,
            new_admitted: 0,
            new_blocked: 0,
            handoff_admitted: 0,
            handoff_dropped: 0,
        }
    }

    /// Channels currently free.
    pub fn free(&self) -> u32 {
        self.total - self.in_use
    }

    /// Free fraction in `[0, 1]`.
    pub fn free_ratio(&self) -> f64 {
        f64::from(self.free()) / f64::from(self.total)
    }

    /// True if a request of `kind` would currently be admitted.
    pub fn can_admit(&self, kind: CallKind) -> bool {
        match kind {
            CallKind::New => self.free() > self.guard,
            CallKind::Handoff => self.free() > 0,
        }
    }

    /// Attempts to allocate one channel.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Blocked`] for new calls when only guard channels
    /// remain; [`AdmitError::Dropped`] for handoffs when nothing is free.
    pub fn admit(&mut self, kind: CallKind) -> Result<(), AdmitError> {
        if self.can_admit(kind) {
            self.in_use += 1;
            match kind {
                CallKind::New => self.new_admitted += 1,
                CallKind::Handoff => self.handoff_admitted += 1,
            }
            Ok(())
        } else {
            match kind {
                CallKind::New => {
                    self.new_blocked += 1;
                    Err(AdmitError::Blocked)
                }
                CallKind::Handoff => {
                    self.handoff_dropped += 1;
                    Err(AdmitError::Dropped)
                }
            }
        }
    }

    /// Releases one channel (call ended or handed off away).
    ///
    /// # Panics
    ///
    /// Panics if no channels are in use (double release is a logic error).
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "release with no channels in use");
        self.in_use -= 1;
    }

    /// Fraction of new-call attempts blocked.
    pub fn blocking_probability(&self) -> f64 {
        let attempts = self.new_admitted + self.new_blocked;
        if attempts == 0 {
            0.0
        } else {
            self.new_blocked as f64 / attempts as f64
        }
    }

    /// Fraction of handoff attempts dropped.
    pub fn drop_probability(&self) -> f64 {
        let attempts = self.handoff_admitted + self.handoff_dropped;
        if attempts == 0 {
            0.0
        } else {
            self.handoff_dropped as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_until_guard() {
        let mut p = ChannelPool::new(5, 2);
        // 3 new calls fit (5 - 2 guard).
        for _ in 0..3 {
            p.admit(CallKind::New).unwrap();
        }
        assert_eq!(p.admit(CallKind::New), Err(AdmitError::Blocked));
        assert_eq!(p.in_use, 3);
        // Handoffs can use the guard channels.
        p.admit(CallKind::Handoff).unwrap();
        p.admit(CallKind::Handoff).unwrap();
        assert_eq!(p.admit(CallKind::Handoff), Err(AdmitError::Dropped));
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn release_frees_capacity() {
        let mut p = ChannelPool::new(2, 1);
        p.admit(CallKind::New).unwrap();
        assert!(!p.can_admit(CallKind::New));
        p.release();
        assert!(p.can_admit(CallKind::New));
        assert_eq!(p.free_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "no channels in use")]
    fn double_release_panics() {
        let mut p = ChannelPool::new(2, 1);
        p.release();
    }

    #[test]
    fn probabilities() {
        let mut p = ChannelPool::new(2, 1);
        p.admit(CallKind::New).unwrap(); // 1 admitted
        let _ = p.admit(CallKind::New); // blocked
        let _ = p.admit(CallKind::New); // blocked
        p.admit(CallKind::Handoff).unwrap();
        let _ = p.admit(CallKind::Handoff); // dropped
        assert!((p.blocking_probability() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.drop_probability(), 0.5);
    }

    #[test]
    fn zero_attempts_probabilities() {
        let p = ChannelPool::new(2, 1);
        assert_eq!(p.blocking_probability(), 0.0);
        assert_eq!(p.drop_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_total_rejected() {
        ChannelPool::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "leave room")]
    fn guard_ge_total_rejected() {
        ChannelPool::new(4, 4);
    }

    #[test]
    fn handoff_priority_lowers_drop_rate() {
        // With guard channels, under identical load, handoffs should see
        // less rejection than new calls. Simulate a saturating load.
        let mut p = ChannelPool::new(10, 3);
        let mut new_rejects = 0;
        let mut ho_rejects = 0;
        for i in 0..100 {
            if i % 4 == 0 && p.in_use > 0 {
                p.release();
            }
            if i % 2 == 0 {
                if p.admit(CallKind::New).is_err() {
                    new_rejects += 1;
                }
            } else if p.admit(CallKind::Handoff).is_err() {
                ho_rejects += 1;
            }
        }
        assert!(
            ho_rejects < new_rejects,
            "handoff rejects {ho_rejects} !< new rejects {new_rejects}"
        );
    }

    #[test]
    fn error_display() {
        assert!(AdmitError::Blocked.to_string().contains("blocked"));
        assert!(AdmitError::Dropped.to_string().contains("dropped"));
    }
}
