//! Point-to-point link model: bandwidth, propagation delay, drop-tail queue.
//!
//! The model is the classic event-driven "virtual busy time" formulation:
//! a packet arriving at time `t` begins serialization at
//! `max(t, busy_until)`; if the implied queueing delay exceeds the
//! configured queue capacity the packet is dropped (drop-tail). No per-queue
//! events are needed, which keeps the simulator's event count proportional
//! to packets, not to queue operations.

use mtnet_sim::{SimDuration, SimTime};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// Signal propagation delay.
    pub propagation: SimDuration,
    /// Queue capacity in bytes (drop-tail beyond this backlog).
    pub queue_bytes: u32,
}

impl LinkConfig {
    /// A typical wired backbone link: 100 Mbit/s, 2 ms, 64 KiB queue.
    pub fn backbone() -> Self {
        LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_millis(2),
            queue_bytes: 64 * 1024,
        }
    }

    /// A typical access link: 10 Mbit/s, 1 ms, 32 KiB queue.
    pub fn access() -> Self {
        LinkConfig {
            bandwidth_bps: 10_000_000,
            propagation: SimDuration::from_millis(1),
            queue_bytes: 32 * 1024,
        }
    }

    /// A wide-area Internet path (e.g. foreign domain → home network):
    /// 45 Mbit/s, 25 ms, 128 KiB queue.
    pub fn wide_area() -> Self {
        LinkConfig {
            bandwidth_bps: 45_000_000,
            propagation: SimDuration::from_millis(25),
            queue_bytes: 128 * 1024,
        }
    }

    /// Serialization time for `bytes` on this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        assert!(self.bandwidth_bps > 0, "link bandwidth must be positive");
        // Fast path in u64: `bytes * 8e9` fits easily for real packet
        // sizes (up to ~2.3 GB); the u128 route covers the rest with the
        // same exact integer result.
        if bytes < (1 << 31) {
            SimDuration::from_nanos(u64::from(bytes) * 8_000_000_000 / self.bandwidth_bps)
        } else {
            let nanos = (u128::from(bytes) * 8 * 1_000_000_000) / u128::from(self.bandwidth_bps);
            SimDuration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64)
        }
    }
}

/// Per-link transmission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and (eventually) delivered.
    pub tx_packets: u64,
    /// Bytes accepted.
    pub tx_bytes: u64,
    /// Packets dropped by the drop-tail queue.
    pub dropped_packets: u64,
}

/// The outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// Accepted; will arrive at the far end at the given instant.
    Delivered {
        /// Arrival time at the remote end of the link.
        at: SimTime,
    },
    /// Dropped by the full drop-tail queue.
    Dropped,
}

/// A unidirectional link. Construct two for a duplex connection.
///
/// ```
/// use mtnet_net::{Link, LinkConfig, TransmitOutcome};
/// use mtnet_sim::{SimTime, SimDuration};
///
/// let mut link = Link::new(LinkConfig {
///     bandwidth_bps: 8_000_000,             // 1 byte/us
///     propagation: SimDuration::from_millis(1),
///     queue_bytes: 10_000,
/// });
/// match link.transmit(SimTime::ZERO, 1000) {
///     TransmitOutcome::Delivered { at } => {
///         // 1000 us serialization + 1 ms propagation
///         assert_eq!(at, SimTime::from_millis(2));
///     }
///     TransmitOutcome::Dropped => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    /// `config.serialization(config.queue_bytes)`, precomputed: the
    /// drop-tail threshold is consulted on every transmit and is a pure
    /// function of the static config.
    max_backlog: SimDuration,
    busy_until: SimTime,
    stats: LinkStats,
    /// Administrative state: a downed link (fault injection) refuses all
    /// traffic until restored.
    up: bool,
}

impl Link {
    /// Creates an idle link.
    ///
    /// # Panics
    ///
    /// Panics if the configured bandwidth is zero.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.bandwidth_bps > 0, "link bandwidth must be positive");
        Link {
            config,
            max_backlog: config.serialization(config.queue_bytes),
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
            up: true,
        }
    }

    /// Whether the link is administratively up (links start up; fault
    /// injection takes them down and back).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Sets the administrative state. A downed link drops every offered
    /// packet; routing must be recomputed by the owner (see
    /// [`crate::Topology::set_link_up`], which also bumps the topology
    /// generation).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Instantaneous backlog (queueing delay a new arrival would see) at
    /// `now`.
    fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Offers a packet of `wire_bytes` to the link at time `now`.
    ///
    /// Returns the delivery time at the far end, or `Dropped` if the
    /// drop-tail queue is full.
    pub fn transmit(&mut self, now: SimTime, wire_bytes: u32) -> TransmitOutcome {
        if !self.up {
            self.stats.dropped_packets += 1;
            return TransmitOutcome::Dropped;
        }
        let max_backlog = self.max_backlog;
        let backlog = self.backlog(now);
        if backlog > max_backlog {
            self.stats.dropped_packets += 1;
            return TransmitOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        let done = start + self.config.serialization(wire_bytes);
        self.busy_until = done;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += u64::from(wire_bytes);
        TransmitOutcome::Delivered {
            at: done + self.config.propagation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_mbps() -> Link {
        // 1 Mbit/s => 1000 bytes takes 8 ms.
        Link::new(LinkConfig {
            bandwidth_bps: 1_000_000,
            propagation: SimDuration::from_millis(5),
            queue_bytes: 3000,
        })
    }

    #[test]
    fn idle_link_delivery_time() {
        let mut l = one_mbps();
        match l.transmit(SimTime::ZERO, 1000) {
            TransmitOutcome::Delivered { at } => {
                assert_eq!(at, SimTime::from_millis(13)); // 8 ser + 5 prop
            }
            TransmitOutcome::Dropped => panic!("dropped on idle link"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = one_mbps();
        let t0 = SimTime::ZERO;
        let TransmitOutcome::Delivered { at: a1 } = l.transmit(t0, 1000) else {
            panic!()
        };
        let TransmitOutcome::Delivered { at: a2 } = l.transmit(t0, 1000) else {
            panic!()
        };
        // Second packet serializes after the first: 16 ms + 5 ms.
        assert_eq!(a1, SimTime::from_millis(13));
        assert_eq!(a2, SimTime::from_millis(21));
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut l = one_mbps(); // queue 3000 bytes => 24 ms max backlog
        let t0 = SimTime::ZERO;
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.transmit(t0, 1000) {
                TransmitOutcome::Delivered { .. } => delivered += 1,
                TransmitOutcome::Dropped => dropped += 1,
            }
        }
        assert!(dropped > 0, "expected drops");
        assert!(delivered >= 3, "queue should hold several packets");
        assert_eq!(l.stats.dropped_packets, dropped);
        assert_eq!(l.stats.tx_packets, delivered);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = one_mbps();
        for _ in 0..4 {
            l.transmit(SimTime::ZERO, 1000);
        }
        // After enough time the backlog clears and packets flow again.
        let later = SimTime::from_millis(100);
        assert_eq!(l.backlog(later), SimDuration::ZERO);
        assert!(matches!(
            l.transmit(later, 1000),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn serialization_math() {
        let c = LinkConfig::backbone();
        // 100 Mbit/s: 1250 bytes = 100 us
        assert_eq!(c.serialization(1250), SimDuration::from_micros(100));
        assert_eq!(c.serialization(0), SimDuration::ZERO);
    }

    #[test]
    fn presets_are_sane() {
        for c in [
            LinkConfig::backbone(),
            LinkConfig::access(),
            LinkConfig::wide_area(),
        ] {
            assert!(c.bandwidth_bps > 0);
            assert!(!c.propagation.is_zero());
            assert!(c.queue_bytes > 0);
        }
    }

    #[test]
    fn down_link_drops_everything_until_restored() {
        let mut l = one_mbps();
        assert!(l.is_up());
        l.set_up(false);
        assert!(!l.is_up());
        assert_eq!(l.transmit(SimTime::ZERO, 100), TransmitOutcome::Dropped);
        assert_eq!(l.stats.dropped_packets, 1);
        assert_eq!(l.stats.tx_packets, 0);
        l.set_up(true);
        assert!(matches!(
            l.transmit(SimTime::from_millis(1), 100),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Link::new(LinkConfig {
            bandwidth_bps: 0,
            propagation: SimDuration::ZERO,
            queue_bytes: 1,
        });
    }
}
