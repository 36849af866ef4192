//! Structure-of-arrays storage for the mobile-node population: an
//! **idle row** for every subscriber, an **active row** only for the
//! nodes that do not camp.
//!
//! The paper's Cellular IP side rests on one asymmetry: an idle node
//! costs the network a paging update per period and nothing else (§2.2,
//! §3.1). The table is that asymmetry in memory. A metro-scale world
//! holds ~10^6 mobile nodes, and under `WorldConfig::idle_camping` all
//! but the few that source a flow *camp* (`World::camps`, fixed at
//! build): they move, re-associate silently and send a paging update —
//! they never hold a channel, register with Mobile IP, authenticate at an
//! RSMC or consult their Cellular IP mode.
//!
//! * **The idle row** is what a camping node's own events touch, one
//!   `Vec` per field indexed by the dense [`MnId`]: the [`MnHot`] line,
//!   the cold [`MnMotion`] triple, `prev_cell`, `last_paging_update`,
//!   `has_flow`, and a `u32` slot into the active rows. Every subscriber
//!   has one; it is all an idle subscriber has — 133 B.
//! * **The model table** holds the distinct mobility models, boxed, once
//!   each. A model is an immutable parameter set (an area, a speed range,
//!   a pause): the 200 000 pedestrians of a metro world walk 50 of them,
//!   one per domain. What makes one walker differ from another is its
//!   own — its start point (the hot row's cursor stands there until the
//!   first sample), its RNG stream and one phase word (in [`MnMotion`],
//!   beside the model's index). No row owns a model.
//! * **The active row** ([`MnActive`]) is the protocol kit — the Mobile
//!   IP state machine, the Cellular IP timers, the channel the node
//!   occupies, its RSMC authentications — in one dense `Vec` that gets an
//!   entry at `WorldBuilder::add_mn` exactly when the node does not camp.
//!   [`MnTable::active`] / [`MnTable::active_mut`] hand back `None` for a
//!   camping row and the handlers skip: a camping node's Mobile IP state
//!   never leaves `Home`/`Searching`, its CIP activity stamp is never
//!   read, and channel and authentication are only written past
//!   `handle_attach`'s camping return, so nothing observable is lost. A
//!   world where nobody camps (every E1–E13 world) is fully dense, slot
//!   `i` = row `i`.
//! * **The in-flight handoff payload** is needed by camping nodes too,
//!   but lives for milliseconds: it sits in a small map keyed by node,
//!   read only when the hot row's flag says there is one.
//!
//! Within the idle row, columns are split by *when* they are read. On a
//! metro world every event lands on a node whose state has long left the
//! cache, so a handler pays one memory round trip per column it walks —
//! and a chain of dependent loads (row → heap block → heap block) pays
//! them one after another. Everything the common-case move sample needs
//! from the node — the current mobility leg, the serving cell, whether a
//! handoff is in flight — is therefore one 64-byte, 64-byte-aligned
//! [`MnHot`] row: one cache line, no pointer to chase. The model's index,
//! the phase word and the RNG stream sit together in the cold
//! [`MnMotion`] column that only a leg rollover reads, and the few shared
//! models it points into stay cached.
//!
//! Three further rules keep the table a memory diet rather than just a
//! transpose:
//!
//! * **Columns are sized once.** [`MnTable::reserve`] takes the
//!   population before the first row: a 64-byte-aligned `Vec` cannot
//!   grow in place, so unreserved pushes would copy the hot column at
//!   every doubling. (The active rows grow by doubling: their count is
//!   only known once every node's flows are.)
//! * **Inactive nodes carry only their row.** Every per-MN map the world
//!   used to key by *home address* (CN route cache, MNLD, RSMC auth
//!   registry) is either a dense column here or epoch-tagged per-row
//!   state — nothing grows O(subscribers) on the side.
//! * **Addresses are arithmetic.** Home addresses are allocated densely
//!   (250 per /24 starting at 10.0.2.1), so `MnId` ↔ `Addr` conversion
//!   is a handful of integer ops in both directions — no column, no map,
//!   no 256-slot octet index, no per-/24 cap.

use super::PendingAttach;
use crate::messages::MnId;
use mtnet_cellularip::{CipTimers, MnCipState};
use mtnet_mobileip::MobileNode;
use mtnet_mobility::{Leg, LegCursor, MobilityModel, Point};
use mtnet_net::Addr;
use mtnet_radio::CellId;
use mtnet_sim::{FxHashMap, RngStream, SimTime};

/// Home addresses per /24 subnet (the last octet runs 1..=250, matching
/// the historical single-subnet allocator bit for bit).
const MN_PER_SUBNET: u32 = 250;

/// First home address, 10.0.2.1 — subnet octets count up from here.
const MN_BASE: u32 = (10 << 24) | (2 << 8) | 1;

/// Largest population whose home addresses fit the default 10.0.0.0/16
/// home prefix (subnet octet pairs 10.0.2.x .. 10.0.255.x). Beyond this
/// the builder widens the home prefix to 10.0.0.0/8.
pub(crate) const MAX_SLASH16_MNS: usize = 254 * MN_PER_SUBNET as usize;

/// Home address of the `idx`-th mobile node. Dense: 250 nodes per /24,
/// subnets counting up from 10.0.2.0/24 (identical to the historical
/// allocator for the first 250 nodes).
pub(crate) fn home_addr(idx: u32) -> Addr {
    let subnet = 2 + idx / MN_PER_SUBNET;
    Addr::from_octets(
        10,
        (subnet >> 8) as u8,
        (subnet & 0xFF) as u8,
        (idx % MN_PER_SUBNET) as u8 + 1,
    )
}

/// Inverse of [`home_addr`]: the node owning `addr` in a population of
/// `count`, or `None` for any address outside the allocated range. Pure
/// arithmetic — this runs several times per forwarded packet.
pub(crate) fn mn_of_home(addr: Addr, count: usize) -> Option<MnId> {
    let off = addr.0.wrapping_sub(MN_BASE);
    let rem = off & 0xFF;
    if rem >= MN_PER_SUBNET {
        return None; // last octet outside 1..=250, or below the base
    }
    let idx = (u64::from(off) >> 8) * u64::from(MN_PER_SUBNET) + u64::from(rem);
    (idx < count as u64).then(|| MnId(idx as u32))
}

/// [`MnHot::serving`]'s "not attached" encoding. `WorldBuilder` never
/// deploys a cell with this id.
pub(crate) const NO_CELL: u32 = u32::MAX;

/// Everything a move sample reads from its node, in one cache line.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct MnHot {
    /// The mobility leg covering the latest sample.
    cursor: LegCursor,
    /// Serving cell id, [`NO_CELL`] when detached (`Option<CellId>` would
    /// spend 8 bytes and push the row past the line).
    serving: u32,
    /// True while a handoff is decided but the radio has not retuned:
    /// exactly when `MnTable::in_flight` holds the payload for this row.
    handoff_in_flight: bool,
}

const _: () = assert!(std::mem::size_of::<MnHot>() == 64 && std::mem::align_of::<MnHot>() == 64);

impl MnHot {
    /// The serving cell, `None` when detached.
    #[inline]
    pub(crate) fn serving(&self) -> Option<CellId> {
        (self.serving != NO_CELL).then_some(CellId(self.serving))
    }

    #[inline]
    pub(crate) fn set_serving(&mut self, cell: Option<CellId>) {
        debug_assert_ne!(cell, Some(CellId(NO_CELL)), "cell id collides with NO_CELL");
        self.serving = cell.map_or(NO_CELL, |c| c.0);
    }

    #[inline]
    pub(crate) fn handoff_in_flight(&self) -> bool {
        self.handoff_in_flight
    }
}

/// What a leg rollover needs and nothing else does: which shared model
/// the node walks, its progress through it and its private random
/// stream.
pub(crate) struct MnMotion {
    rng: RngStream,
    /// Index into [`MnTable::models`].
    model: u32,
    /// The node's phase word (see [`MobilityModel::next_leg`]).
    phase: u32,
}

const _: () = assert!(std::mem::size_of::<MnMotion>() == 40);

/// A row's model as its cursor sees it. The row's index is read only
/// when the cursor pulls a leg, so a sample inside the current leg reads
/// the hot row alone, as it did when the row owned its model.
struct RowModel<'a> {
    models: &'a [Box<dyn MobilityModel + Send>],
    index: &'a u32,
}

impl RowModel<'_> {
    fn get(&self) -> &dyn MobilityModel {
        &*self.models[*self.index as usize]
    }
}

impl MobilityModel for RowModel<'_> {
    fn next_leg(&self, current: Point, phase: &mut u32, rng: &mut RngStream) -> Leg {
        self.get().next_leg(current, phase, rng)
    }

    fn start(&self) -> Point {
        self.get().start()
    }
}

/// The protocol state of a node that does not camp (see module docs).
#[derive(Debug)]
pub(crate) struct MnActive {
    pub(crate) mip: MobileNode,
    pub(crate) cip: MnCipState,
    /// Cell whose channel pool this node currently occupies.
    pub(crate) channel_cell: Option<CellId>,
    /// `(domain index, RSMC epoch)` pairs this node holds a valid
    /// authentication for — at most one entry per visited domain. This
    /// replaces the RSMCs' O(subscribers) `HashSet<Addr>` registries:
    /// the RSMC only publishes its epoch (bumped on flush), the proof of
    /// authentication rides on the node's own row.
    pub(crate) auth: Vec<(u32, u32)>,
}

impl MnActive {
    /// The protocol state of a node that has done nothing yet: at home
    /// with home agent `ha`, CIP timers started at t = 0.
    pub(crate) fn new(home: Addr, ha: Addr, timers: CipTimers) -> Self {
        MnActive {
            mip: MobileNode::new(home, ha),
            cip: MnCipState::new(timers, SimTime::ZERO),
            channel_cell: None,
            auth: Vec::new(),
        }
    }
}

/// [`MnTable::slot`]'s "camps, no active row" encoding.
const NO_SLOT: u32 = u32::MAX;

/// The mobile-node population: one column per access pattern for the
/// idle row, one dense `Vec` of active rows (see module docs).
///
/// Columns are `pub(crate)` and accessed positionally (`mns.hot[i]`);
/// distinct columns borrow independently, which is exactly what the
/// split-borrow sites (leg cursor + its model and RNG stream) need.
#[derive(Default)]
pub(crate) struct MnTable {
    /// The distinct mobility models, each shared by every row that walks
    /// it (see module docs).
    models: Vec<Box<dyn MobilityModel + Send>>,
    pub(crate) hot: Vec<MnHot>,
    motion: Vec<MnMotion>,
    /// Cell id the node most recently left and when, for ping-pong
    /// detection: [`NO_CELL`] until it first leaves one (16 B, where
    /// `Option<(CellId, SimTime)>` spends 24).
    pub(crate) prev_cell: Vec<(u32, SimTime)>,
    pub(crate) last_paging_update: Vec<SimTime>,
    /// True when the node sources at least one traffic flow. Under
    /// `WorldConfig::idle_camping` only these nodes go through channel
    /// admission — the idle majority camps without holding a channel.
    pub(crate) has_flow: Vec<bool>,
    /// Index of the row's [`MnActive`] in `active`, [`NO_SLOT`] for a
    /// camping row.
    slot: Vec<u32>,
    active: Vec<MnActive>,
    /// Payload of each in-flight handoff; holds a row's entry exactly
    /// when its hot row's flag is set. Written only through
    /// [`MnTable::begin_handoff`] and [`MnTable::take_pending`], never
    /// iterated.
    in_flight: FxHashMap<MnId, PendingAttach>,
}

impl MnTable {
    /// The population, on either half of a split world (`has_flow` is
    /// the one column the [`MnTable::identity_twin`] carries).
    pub(crate) fn len(&self) -> usize {
        self.has_flow.len()
    }

    /// Sizes every idle-row column for `additional` more rows, and the
    /// active rows for the `active` of them the caller knows will not
    /// camp.
    pub(crate) fn reserve(&mut self, additional: usize, active: usize) {
        self.hot.reserve(additional);
        self.motion.reserve(additional);
        self.prev_cell.reserve(additional);
        self.last_paging_update.reserve(additional);
        self.has_flow.reserve(additional);
        self.slot.reserve(additional);
        self.active.reserve(active);
    }

    /// Adds a model rows can walk; returns its index.
    pub(crate) fn add_model(&mut self, model: Box<dyn MobilityModel + Send>) -> u32 {
        self.models.push(model);
        u32::try_from(self.models.len() - 1).expect("model ids are u32")
    }

    /// Appends a row walking model `model` from `start`; the caller
    /// supplies the state columns, the bookkeeping columns start empty.
    /// `active` is the node's protocol state, `None` for a node that
    /// camps.
    pub(crate) fn push(
        &mut self,
        model: u32,
        start: Point,
        rng: RngStream,
        active: Option<MnActive>,
    ) -> MnId {
        assert!(
            (model as usize) < self.models.len(),
            "model {model} was never added"
        );
        let id = MnId(self.len() as u32);
        self.hot.push(MnHot {
            cursor: LegCursor::at(start),
            serving: NO_CELL,
            handoff_in_flight: false,
        });
        self.motion.push(MnMotion {
            rng,
            model,
            phase: 0,
        });
        self.prev_cell.push((NO_CELL, SimTime::ZERO));
        self.last_paging_update.push(SimTime::ZERO);
        self.has_flow.push(false);
        self.slot.push(match active {
            Some(active) => {
                self.active.push(active);
                self.active.len() as u32 - 1
            }
            None => NO_SLOT,
        });
        id
    }

    /// Row `i`'s protocol state, `None` when the node camps ([`NO_SLOT`]
    /// lies past the end of any `active`, so the bounds check is the
    /// camping test).
    #[inline]
    pub(crate) fn active(&self, i: usize) -> Option<&MnActive> {
        self.active.get(self.slot[i] as usize)
    }

    /// Mutable [`MnTable::active`].
    #[inline]
    pub(crate) fn active_mut(&mut self, i: usize) -> Option<&mut MnActive> {
        self.active.get_mut(self.slot[i] as usize)
    }

    /// The dense-table oracle: gives every camping row the active row it
    /// would have had if nobody camped. The handlers then run their
    /// protocol-state arms for camping nodes too, and a run must not be
    /// able to tell.
    #[cfg(test)]
    pub(crate) fn densify(&mut self, ha: Addr, timers: CipTimers) {
        for i in 0..self.len() {
            if self.slot[i] == NO_SLOT {
                self.slot[i] = self.active.len() as u32;
                self.active
                    .push(MnActive::new(home_addr(i as u32), ha, timers));
            }
        }
    }

    /// The table the backbone half of a split world holds (see
    /// [`World::backbone_twin`](super::World::backbone_twin)): how many
    /// rows there are and which source a flow (who a row is follows from
    /// its index), and no other column. Mobility (the model table
    /// included), attachment and protocol state stay on the access half
    /// alone.
    pub(crate) fn identity_twin(&self) -> MnTable {
        MnTable {
            has_flow: self.has_flow.clone(),
            ..MnTable::default()
        }
    }

    /// Position and speed (m/s) of row `i` at `now` — one hot-row read
    /// unless the leg rolls over.
    #[inline]
    pub(crate) fn sample(&mut self, i: usize, now: SimTime) -> (Point, f64) {
        let MnMotion { rng, model, phase } = &mut self.motion[i];
        let model = RowModel {
            models: &self.models,
            index: model,
        };
        self.hot[i].cursor.sample(now, &model, phase, rng)
    }

    /// Reads, and only reads, the columns an uplink tick walks for row
    /// `i`, so a wave can overlap its members' cache misses before
    /// running them.
    #[inline]
    pub(crate) fn warm_uplink(&self, i: usize) {
        std::hint::black_box((
            self.has_flow[i],
            self.hot[i].serving,
            self.active(i).map(|a| a.mip.state()),
            self.last_paging_update[i],
        ));
    }

    /// Whether the payload map holds an entry for row `i` — what the
    /// flag audits compare the hot row to.
    #[cfg(test)]
    pub(crate) fn has_payload(&self, i: usize) -> bool {
        self.in_flight.contains_key(&MnId(i as u32))
    }

    /// How many handoff payloads the map holds.
    #[cfg(test)]
    pub(crate) fn payloads(&self) -> usize {
        self.in_flight.len()
    }

    /// How many rows have protocol state.
    #[cfg(test)]
    pub(crate) fn active_rows(&self) -> usize {
        self.active.len()
    }

    /// How many distinct models the rows walk.
    #[cfg(test)]
    pub(crate) fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Heap bytes the table holds: every column's capacity × element
    /// size, the shared models, and what the active rows and the payload
    /// map own.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        fn column<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        column(&self.models)
            + self
                .models
                .iter()
                .map(|m| std::mem::size_of_val(&**m))
                .sum::<usize>()
            + column(&self.hot)
            + column(&self.motion)
            + column(&self.prev_cell)
            + column(&self.last_paging_update)
            + column(&self.has_flow)
            + column(&self.slot)
            + column(&self.active)
            + self.active.iter().map(|a| column(&a.auth)).sum::<usize>()
            + self.in_flight.capacity() * std::mem::size_of::<(MnId, PendingAttach)>()
    }

    /// Row `i`'s leg cursor, phase word and RNG stream, rendered for
    /// equality checks.
    #[cfg(test)]
    pub(crate) fn motion_state(&self, i: usize) -> String {
        let m = &self.motion[i];
        format!("{:?} {} {:?}", self.hot[i].cursor, m.phase, m.rng)
    }

    /// Records a decided handoff for row `i`: flag and payload together.
    pub(crate) fn begin_handoff(&mut self, i: usize, pending: PendingAttach) {
        let replaced = self.in_flight.insert(MnId(i as u32), pending);
        debug_assert_eq!(self.hot[i].handoff_in_flight, replaced.is_some());
        self.hot[i].handoff_in_flight = true;
    }

    /// Completes row `i`'s in-flight handoff, if any: clears the flag and
    /// hands back the payload.
    pub(crate) fn take_pending(&mut self, i: usize) -> Option<PendingAttach> {
        if !self.hot[i].handoff_in_flight {
            return None;
        }
        self.hot[i].handoff_in_flight = false;
        let pending = self.in_flight.remove(&MnId(i as u32));
        debug_assert!(pending.is_some(), "row {i}: flag set without a payload");
        pending
    }

    /// Target cell of row `i`'s in-flight handoff. Probes the payload
    /// map only when the hot row says there is an entry.
    #[inline]
    pub(crate) fn pending_target(&self, i: usize) -> Option<CellId> {
        if !self.hot[i].handoff_in_flight {
            return None;
        }
        self.in_flight.get(&MnId(i as u32)).map(|p| p.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_addresses_match_the_legacy_single_subnet_allocator() {
        for idx in 0..250u32 {
            assert_eq!(
                home_addr(idx),
                Addr::from_octets(10, 0, 2, (idx % 250) as u8 + 1),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn home_addr_round_trips_at_metro_scale() {
        let count = 1_000_000usize;
        for idx in [0u32, 1, 249, 250, 251, 63_499, 63_500, 999_999] {
            let addr = home_addr(idx);
            assert_eq!(
                mn_of_home(addr, count),
                Some(MnId(idx)),
                "idx {idx} -> {addr}"
            );
        }
    }

    #[test]
    fn foreign_addresses_resolve_to_none() {
        let count = 1_000_000usize;
        for s in [
            "10.0.0.1", // the HA
            "10.0.2.0", // subnet base, last octet 0 is never allocated
            "1.0.0.1",  // internet core
            "20.0.0.1", // an RSMC
            "30.0.0.2", // the CN
            "21.3.0.1", // an upper BS
            "9.255.255.255",
        ] {
            let addr: Addr = s.parse().unwrap();
            assert_eq!(mn_of_home(addr, count), None, "{s}");
        }
        // In range only while the population covers it.
        assert_eq!(mn_of_home(home_addr(250), 250), None);
        assert_eq!(mn_of_home(home_addr(250), 251), Some(MnId(250)));
    }

    #[test]
    fn slash16_capacity_boundary() {
        // The last /16-resident address is 10.0.255.250.
        let last = home_addr(MAX_SLASH16_MNS as u32 - 1);
        assert_eq!(last, "10.0.255.250".parse().unwrap());
        let first_outside = home_addr(MAX_SLASH16_MNS as u32);
        assert_eq!(first_outside, "10.1.0.1".parse().unwrap());
    }

    /// A row parked at the origin on the table's first model, added on
    /// first use.
    fn push_parked(t: &mut MnTable, active: Option<MnActive>) -> MnId {
        if t.models.is_empty() {
            t.add_model(Box::new(mtnet_mobility::Stationary::new(Point::ORIGIN)));
        }
        t.push(0, Point::ORIGIN, RngStream::from_seed(1), active)
    }

    fn push_row(t: &mut MnTable) -> MnId {
        let home = home_addr(t.len() as u32);
        let ha = "10.0.0.1".parse().unwrap();
        push_parked(t, Some(MnActive::new(home, ha, CipTimers::default())))
    }

    fn push_camping_row(t: &mut MnTable) -> MnId {
        push_parked(t, None)
    }

    #[test]
    fn a_camping_row_has_no_protocol_state_until_densified() {
        let mut t = MnTable::default();
        let a = push_row(&mut t).0 as usize;
        let b = push_camping_row(&mut t).0 as usize;
        let c = push_row(&mut t).0 as usize;
        assert!(t.active(a).is_some() && t.active(c).is_some());
        assert!(t.active(b).is_none() && t.active_mut(b).is_none());
        assert_eq!(t.active_rows(), 2);
        // Active rows are per node, not shared.
        t.active_mut(c).unwrap().channel_cell = Some(CellId(7));
        assert_eq!(t.active(a).unwrap().channel_cell, None);
        assert_eq!(t.active(c).unwrap().channel_cell, Some(CellId(7)));
        t.densify("10.0.0.1".parse().unwrap(), CipTimers::default());
        assert_eq!(t.active_rows(), 3);
        assert_eq!(t.active(b).unwrap().mip.home_addr(), home_addr(b as u32));
        assert_eq!(t.active(c).unwrap().channel_cell, Some(CellId(7)));
    }

    #[test]
    #[should_panic(expected = "model 1 was never added")]
    fn a_row_walks_a_model_the_table_holds() {
        let mut t = MnTable::default();
        push_camping_row(&mut t);
        t.push(1, Point::ORIGIN, RngStream::from_seed(1), None);
    }

    /// The diet's tier-1 tripwire: an all-camping population of
    /// pedestrians sharing one random-waypoint model — the row a metro
    /// world pays for 200 000 times — costs its idle row and nothing
    /// else: 133 B by today's column sizes (64 hot + 40 motion + 16
    /// prev_cell + 8 paging stamp + 4 slot + 1 flag). A boxed model per
    /// row (16 B pointer + the model) or the protocol kit this table used
    /// to give every row (200 B) cannot come back under the budget.
    #[test]
    fn an_idle_row_fits_its_byte_budget() {
        use mtnet_mobility::{RandomWaypoint, Rect, SpeedClass};
        let n = 10_000;
        let mut t = MnTable::default();
        t.reserve(n, 0);
        let walk = RandomWaypoint::new(Rect::square(1600.0), SpeedClass::Pedestrian)
            .with_pause(mtnet_sim::SimDuration::from_secs(10));
        let model = t.add_model(Box::new(walk.clone()));
        for k in 0..n {
            let start = Point::new(k as f64 % 1600.0, 250.0);
            t.push(model, start, RngStream::from_seed(k as u64), None);
        }
        let per_row = t.heap_bytes() / n;
        assert!(per_row <= 144, "{per_row} B per idle row");
        let boxed =
            std::mem::size_of::<Box<dyn MobilityModel + Send>>() + std::mem::size_of_val(&walk);
        assert!(per_row + boxed > 144, "a boxed model per row would fit");
        assert!(per_row + std::mem::size_of::<MnActive>() > 144);
        // And a metro world builds one model per domain, not per node.
        let metro = crate::spec::ScenarioSpec::metro_smoke();
        let world = metro.build(42);
        assert_eq!(world.mns.len(), 10_000);
        assert_eq!(world.mns.model_count(), metro.n_domains as usize);
    }

    #[test]
    fn serving_cell_round_trips_up_to_the_sentinel() {
        let mut t = MnTable::default();
        let i = push_row(&mut t).0 as usize;
        assert_eq!(t.hot[i].serving(), None, "rows start detached");
        for id in [0, 1, 2357, NO_CELL - 1] {
            t.hot[i].set_serving(Some(CellId(id)));
            assert_eq!(t.hot[i].serving(), Some(CellId(id)));
        }
        t.hot[i].set_serving(None);
        assert_eq!(t.hot[i].serving(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "collides with NO_CELL")]
    fn the_sentinel_is_not_a_cell() {
        let mut t = MnTable::default();
        let i = push_row(&mut t).0 as usize;
        t.hot[i].set_serving(Some(CellId(NO_CELL)));
    }

    #[test]
    fn a_reserved_table_never_moves_its_aligned_column() {
        let mut t = MnTable::default();
        t.reserve(1000, 1000);
        let hot = t.hot.as_ptr();
        for _ in 0..1000 {
            push_row(&mut t);
        }
        assert_eq!(t.hot.as_ptr(), hot, "the aligned column never moved");
        assert_eq!(t.hot.as_ptr() as usize % 64, 0);
    }
}
