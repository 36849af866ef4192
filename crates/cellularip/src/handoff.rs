//! Hard and semisoft handoff semantics (paper §2.2.2, Fig 2.4).

use crate::tree::CipTree;
use mtnet_net::{Addr, NodeId};
use mtnet_sim::FxHashMap;
use mtnet_sim::{SimDuration, SimTime};

/// Which Cellular IP handoff scheme a node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// Hard handoff: the node abruptly retunes to the new BS and sends a
    /// route-update from there. Packets already descending the old path
    /// below the crossover BS are lost for roughly the MN↔crossover
    /// round-trip time (the paper's own characterization).
    Hard,
    /// Semisoft handoff: the node first sends a *semisoft packet* to the
    /// new BS (creating the new mapping and starting a bicast at the
    /// crossover), keeps listening to the old BS for the semisoft delay,
    /// then retunes. Loss approaches zero at the cost of duplicated
    /// packets during the window.
    Semisoft {
        /// How long the crossover bicasts to both paths.
        delay: SimDuration,
    },
}

impl HandoffKind {
    /// The default semisoft delay used by the Cellular IP papers (~100 ms).
    pub fn default_semisoft() -> Self {
        HandoffKind::Semisoft {
            delay: SimDuration::from_millis(100),
        }
    }

    /// Expected packet-loss window for this scheme given the tree geometry
    /// and per-hop one-way latency.
    ///
    /// * Hard: round trip between the new BS and the crossover BS — the
    ///   time the old downlink branch keeps swallowing packets after the
    ///   radio retunes ("equal to the round-trip time between the MN and
    ///   the crossover base station", Fig 2.4).
    /// * Semisoft: zero if the semisoft delay covers the route-update
    ///   propagation to the crossover, else the uncovered remainder.
    pub fn loss_window(
        &self,
        tree: &CipTree,
        old_bs: NodeId,
        new_bs: NodeId,
        per_hop: SimDuration,
    ) -> SimDuration {
        let crossover = tree.crossover(old_bs, new_bs);
        let hops_up = tree.hops_to_ancestor(new_bs, crossover) as u64;
        let round_trip = per_hop.saturating_mul(2 * hops_up);
        match self {
            HandoffKind::Hard => round_trip,
            HandoffKind::Semisoft { delay } => round_trip - *delay, // saturating
        }
    }
}

/// Tracks nodes in their semisoft (bicast) window so the crossover BS can
/// duplicate downlink packets to both the old and new branches.
#[derive(Debug, Clone, Default)]
pub struct SemisoftController {
    /// mn → (old_bs, new_bs, window_end)
    windows: FxHashMap<Addr, (NodeId, NodeId, SimTime)>,
    bicasts: u64,
}

impl SemisoftController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        SemisoftController::default()
    }

    /// Opens a bicast window for `mn` moving `old_bs → new_bs`, lasting
    /// `delay` from `now`.
    pub fn begin(
        &mut self,
        mn: Addr,
        old_bs: NodeId,
        new_bs: NodeId,
        now: SimTime,
        delay: SimDuration,
    ) {
        self.windows.insert(mn, (old_bs, new_bs, now + delay));
    }

    /// If `mn` is inside a bicast window at `now`, returns `(old_bs,
    /// new_bs)` — the crossover should send a copy down each branch.
    /// Counts the bicast for overhead accounting.
    pub fn bicast_targets(&mut self, mn: Addr, now: SimTime) -> Option<(NodeId, NodeId)> {
        if self.windows.is_empty() {
            // Every downlink hop probes this; skip the hash while no
            // handoff is in flight (the overwhelmingly common case).
            return None;
        }
        let (old, new, end) = *self.windows.get(&mn)?;
        if now >= end {
            self.windows.remove(&mn);
            return None;
        }
        self.bicasts += 1;
        Some((old, new))
    }

    /// Drops windows that ended before `now`; returns how many.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.windows.len();
        self.windows.retain(|_, (_, _, end)| now < *end);
        before - self.windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// gateway(0) ── 1 ── 3, 4 ; 2 ── 5
    fn tree() -> CipTree {
        let mut t = CipTree::new(NodeId(0));
        t.add_bs(NodeId(1), NodeId(0));
        t.add_bs(NodeId(2), NodeId(0));
        t.add_bs(NodeId(3), NodeId(1));
        t.add_bs(NodeId(4), NodeId(1));
        t.add_bs(NodeId(5), NodeId(2));
        t
    }

    fn addr() -> Addr {
        "20.0.0.9".parse().unwrap()
    }

    #[test]
    fn hard_loss_window_scales_with_crossover_distance() {
        let t = tree();
        let hop = SimDuration::from_millis(5);
        // Siblings: crossover is the shared parent, 1 hop up → 10 ms RTT.
        assert_eq!(
            HandoffKind::Hard.loss_window(&t, NodeId(3), NodeId(4), hop),
            SimDuration::from_millis(10)
        );
        // Across the tree: crossover is the gateway, 2 hops up → 20 ms.
        assert_eq!(
            HandoffKind::Hard.loss_window(&t, NodeId(3), NodeId(5), hop),
            SimDuration::from_millis(20)
        );
    }

    #[test]
    fn semisoft_covers_loss_when_delay_sufficient() {
        let t = tree();
        let hop = SimDuration::from_millis(5);
        let semisoft = HandoffKind::default_semisoft();
        assert_eq!(
            semisoft.loss_window(&t, NodeId(3), NodeId(5), hop),
            SimDuration::ZERO
        );
        // Tiny delay leaves a remainder.
        let tight = HandoffKind::Semisoft {
            delay: SimDuration::from_millis(4),
        };
        assert_eq!(
            tight.loss_window(&t, NodeId(3), NodeId(4), hop),
            SimDuration::from_millis(6)
        );
    }

    #[test]
    fn semisoft_always_at_most_hard() {
        let t = tree();
        let hop = SimDuration::from_millis(7);
        for (a, b) in [(3u32, 4u32), (3, 5), (4, 5), (1, 5)] {
            let hard = HandoffKind::Hard.loss_window(&t, NodeId(a), NodeId(b), hop);
            let semi = HandoffKind::default_semisoft().loss_window(&t, NodeId(a), NodeId(b), hop);
            assert!(semi <= hard, "{a}->{b}: semisoft {semi} > hard {hard}");
        }
    }

    #[test]
    fn bicast_window_lifecycle() {
        let mut c = SemisoftController::new();
        c.begin(
            addr(),
            NodeId(3),
            NodeId(4),
            SimTime::ZERO,
            SimDuration::from_millis(100),
        );
        assert_eq!(c.windows.len(), 1);
        assert_eq!(
            c.bicast_targets(addr(), SimTime::from_millis(50)),
            Some((NodeId(3), NodeId(4)))
        );
        assert_eq!(c.bicasts, 1);
        // Past the window: no bicast, entry garbage-collected.
        assert_eq!(c.bicast_targets(addr(), SimTime::from_millis(100)), None);
        assert_eq!(c.windows.len(), 0);
    }

    #[test]
    fn unknown_mn_no_bicast() {
        let mut c = SemisoftController::new();
        assert_eq!(c.bicast_targets(addr(), SimTime::ZERO), None);
        assert_eq!(c.bicasts, 0);
    }

    #[test]
    fn sweep_expires_windows() {
        let mut c = SemisoftController::new();
        c.begin(
            addr(),
            NodeId(3),
            NodeId(4),
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        assert_eq!(c.sweep(SimTime::from_millis(5)), 0);
        assert_eq!(c.sweep(SimTime::from_millis(10)), 1);
    }
}
