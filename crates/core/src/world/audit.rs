//! What a world at rest must satisfy, checked from the pending-event set
//! ([`mtnet_sim::Simulator::for_each_pending`], heap and tick lanes
//! alike) and the node table. The sequential engine runs it at the end
//! of every run in a debug build.
//!
//! * **Timers** (owned by `mobile`): every node has exactly one pending
//!   [`Ev::MoveSample`] and one [`Ev::Uplink`], and one
//!   [`Ev::LocationTick`] exactly when it does not camp. Each handler
//!   re-arms its own timer and nothing else schedules one, so a missing
//!   tick is a node that stopped moving or signalling and a second one a
//!   node that would run twice per period.
//! * **Handoff flags** (owned by `mobile`): a row's hot
//!   `handoff_in_flight` flag is set exactly when the payload map holds
//!   a handoff for it, so the flagged rows are as many as the payloads.
//!   The handoff path reads the flag and probes the map only when it is
//!   set, so a flag left standing or a payload left behind would go
//!   unseen there.
//! * **Wire** (owned by `wire`): the arena's live count equals the packet
//!   handles held by pending [`Ev::Pkt`] and [`Ev::AirDown`] events.
//!   Those are the only holders between events: no handler parks a
//!   packet in a buffer of its own, and a sharded half's outbox carries
//!   packets by value, outside the arena.

use super::{Ev, World};
use crate::messages::MnId;
use mtnet_sim::Simulator;

/// A law [`World::audit`] found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AuditError {
    /// Node `mn` has `found` pending `timer` ticks where it should have
    /// `want`.
    Ticks {
        mn: MnId,
        timer: &'static str,
        found: u32,
        want: u32,
    },
    /// Node `mn`'s handoff-in-flight flag reads `flag`, but the payload
    /// map holds an entry for it exactly when it reads the opposite.
    HandoffFlag { mn: MnId, flag: bool },
    /// `flagged` rows are in a handoff; the payload map holds `payloads`.
    HandoffPayloads { flagged: usize, payloads: usize },
    /// The arena holds `live` packets; pending events hold `held`.
    Packets { live: usize, held: usize },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Ticks {
                mn,
                timer,
                found,
                want,
            } => write!(f, "node {} has {found} pending {timer}, want {want}", mn.0),
            AuditError::HandoffFlag { mn, flag } => write!(
                f,
                "node {} has its handoff flag {}, but {} handoff payload",
                mn.0,
                if *flag { "set" } else { "clear" },
                if *flag { "no" } else { "a" }
            ),
            AuditError::HandoffPayloads { flagged, payloads } => write!(
                f,
                "{flagged} rows are flagged in a handoff, the payload map holds {payloads}"
            ),
            AuditError::Packets { live, held } => write!(
                f,
                "the arena holds {live} live packets, pending events {held}"
            ),
        }
    }
}

/// The timers [`World::audit`] counts, in its column order.
const TIMERS: [&str; 3] = ["MoveSample", "Uplink", "LocationTick"];

impl World {
    /// Checks the laws in the module docs on a world between events;
    /// the first broken one names the node or the counts.
    pub(crate) fn audit(sim: &Simulator<World>) -> Result<(), AuditError> {
        let world = sim.model();
        let mut ticks = vec![[0u32; 3]; world.mns.len()];
        let mut held = 0;
        sim.for_each_pending(|ev| match *ev {
            Ev::MoveSample(mn) => ticks[mn.0 as usize][0] += 1,
            Ev::Uplink(mn) => ticks[mn.0 as usize][1] += 1,
            Ev::LocationTick(mn) => ticks[mn.0 as usize][2] += 1,
            Ev::Pkt { .. } | Ev::AirDown { .. } => held += 1,
            _ => {}
        });
        for (i, found) in ticks.iter().enumerate() {
            let want = [1, 1, u32::from(!world.camps(i))];
            for k in 0..TIMERS.len() {
                if found[k] != want[k] {
                    return Err(AuditError::Ticks {
                        mn: MnId(i as u32),
                        timer: TIMERS[k],
                        found: found[k],
                        want: want[k],
                    });
                }
            }
        }
        let mns = &world.mns;
        let mut flagged = 0;
        for i in 0..mns.len() {
            let flag = mns.hot[i].handoff_in_flight();
            if flag != mns.has_payload(i) {
                let mn = MnId(i as u32);
                return Err(AuditError::HandoffFlag { mn, flag });
            }
            flagged += usize::from(flag);
        }
        let payloads = mns.payloads();
        if flagged != payloads {
            return Err(AuditError::HandoffPayloads { flagged, payloads });
        }
        let live = world.arena.live();
        if live != held {
            return Err(AuditError::Packets { live, held });
        }
        Ok(())
    }
}
