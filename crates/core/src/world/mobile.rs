//! The mobile nodes below Fig 4.1: a node's own periodic events — the
//! mobility sample and its §3.2 handoff decision, the attach completing
//! a handoff, the uplink maintenance tick, the §3.1 Location Message —
//! and the Mobile IP state machine they drive.
//!
//! **Owner:** the access half (`shard::ACCESS`): [`Ev::MoveSample`],
//! [`Ev::Uplink`], [`Ev::LocationTick`], [`Ev::Attach`].
//! **Reads:** `cfg`, `topo` (addresses), `hierarchy`, `engine`,
//! `cell_node`, `cell_domain`, `domains[d].{rsmc_node, rsmc_alive, fa}`,
//! `ha`, `mns.has_flow`, `active_faults`, `pending_recovery`.
//! **Writes:** every other `mns` column, `cells` (channel pools),
//! `locdir`, `domains[d].rsmc` (authentication count), `pending_latency`,
//! the scratch and wave buffers, `report.{handoffs, signaling, calls_*,
//! faults.reregistrations}`.

use super::mn::{self, MnActive};
use super::{Ev, PendingAttach, PendingLatency, World};
use crate::handoff::{classify, Candidate, CurrentAttachment, HandoffDecision, HandoffType};
use crate::messages::{CipControl, MnId, MtMessage, Payload};
use crate::tier::Tier;
use mtnet_cellularip::MnMode;
use mtnet_mobileip::{AgentAdvertisement, MipMessage, MnAction, MnState};
use mtnet_mobility::Point;
use mtnet_net::Addr;
use mtnet_radio::{CallKind, CellId, CellMap};
use mtnet_sim::{Context, LaneId, SimDuration};

impl World {
    /// True when node `i` camps: under
    /// [`WorldConfig::idle_camping`](super::WorldConfig::idle_camping) a
    /// node that sources no traffic flow attends no channel, sends no
    /// location messages and ticks its uplink at the *paging-update*
    /// cadence — the network's per-idle-subscriber cost is one paging
    /// message per paging period, nothing else.
    pub(crate) fn camps(&self, i: usize) -> bool {
        self.cfg.idle_camping && !self.mns.has_flow[i]
    }

    /// How often a node's uplink ticks when it `camps` or not. A camping
    /// node's uplink exists only to refresh its paging-area state;
    /// ticking it faster than the paging period would burn
    /// O(subscribers) events to do nothing.
    pub(super) fn uplink_period(&self, camps: bool) -> SimDuration {
        if camps {
            self.cfg.cip_timers.paging_update
        } else {
            self.cfg
                .route_update_period
                .unwrap_or(self.cfg.cip_timers.route_update)
        }
    }

    /// The lane node `i`'s uplink ticks on.
    pub(super) fn uplink_lane(&self, i: usize) -> LaneId {
        if self.camps(i) {
            self.lanes.uplink_camping
        } else {
            self.lanes.uplink
        }
    }

    /// True when tick handlers may take their same-instant ties (always,
    /// outside the tests that run the one-event-at-a-time oracle).
    #[inline]
    fn takes_ties(&self) -> bool {
        #[cfg(test)]
        return !self.wave_probe.take_no_ties;
        #[cfg(not(test))]
        true
    }

    /// Wave front of the mobility sample. Metro worlds stagger their
    /// nodes over the millisecond grid (`World::mn_start_times`), so
    /// dozens of `MoveSample` events share every instant, every period,
    /// each landing on a hot row that has long left the cache — a miss
    /// waited out alone when handled one event at a time. The front
    /// takes the consecutive `MoveSample` ties that follow `first`,
    /// samples every member's own row in one pass (independent loads:
    /// the misses overlap), then runs the members in order. Returns the
    /// member count.
    ///
    /// Exact: a taken tie is the very next pop ([`Context::take_tie_if`]),
    /// a node occurs at most once in a wave, and sampling row `i` touches
    /// only row `i`'s cursor, model and RNG, which no other member's
    /// handler touches. A member with a handoff in flight is not sampled
    /// — its cursor and RNG stay put, as they do one event at a time —
    /// and the flag is only ever written by the node's own events.
    pub(super) fn handle_move_sample(&mut self, ctx: &mut Context<'_, Ev>, first: MnId) -> usize {
        let now = ctx.now();
        let mut wave = std::mem::take(&mut self.move_wave);
        wave.push((first, None));
        if self.takes_ties() {
            while let Some(Ev::MoveSample(mn)) =
                ctx.take_tie_if(|ev| matches!(ev, Ev::MoveSample(_)))
            {
                wave.push((mn, None));
            }
        }
        for (mn, sampled) in &mut wave {
            let i = mn.0 as usize;
            if !self.mns.hot[i].handoff_in_flight() {
                *sampled = Some(self.mns.sample(i, now));
            }
        }
        debug_assert!(
            wave.iter()
                .enumerate()
                .all(|(k, (mn, _))| wave[..k].iter().all(|(other, _)| other != mn)),
            "a node occurs twice in one MoveSample wave"
        );
        #[cfg(test)]
        {
            self.wave_probe.move_waves += 1;
            self.wave_probe.move_members += wave.len() as u64;
            self.wave_probe.move_members_in_flight +=
                wave.iter().filter(|(_, s)| s.is_none()).count() as u64;
        }
        for &(mn, sampled) in &wave {
            self.move_sample_one(ctx, mn, sampled);
        }
        let members = wave.len();
        wave.clear();
        self.move_wave = wave;
        members
    }

    /// One node's mobility sample: re-arm, measure, decide. `sampled` is
    /// the node's position and speed at `now`, `None` while a handoff is
    /// in flight. A sample whose `Stay` [`World::stay_certified`] proves
    /// skips the scan; a debug build runs the scan anyway and checks it.
    fn move_sample_one(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        sampled: Option<(Point, f64)>,
    ) {
        ctx.rearm(self.lanes.move_sample, mn.0);
        let i = mn.0 as usize;
        // A handoff already in flight: wait for it to complete.
        let Some((pos, speed)) = sampled else {
            return;
        };
        #[cfg(test)]
        {
            self.wave_probe.move_members_attached += u64::from(self.mns.hot[i].serving().is_some());
        }
        if self.stay_certified(i, pos, speed) {
            debug_assert_eq!(
                self.decide_sample(i, pos, speed),
                HandoffDecision::Stay,
                "a certified Stay of node {i} at {pos:?} is not the scan's decision"
            );
            #[cfg(test)]
            {
                self.wave_probe.move_members_certified += 1;
            }
            if let Some(profile) = self.evprof.as_deref_mut() {
                profile.certified += 1;
            }
            return;
        }
        match self.decide_sample(i, pos, speed) {
            HandoffDecision::Stay => {}
            HandoffDecision::Outage => {
                self.report.handoffs.outage_samples += 1;
                // Coverage hole: the radio link is gone. Detach, release
                // the channel, and let Mobile IP know the link dropped.
                if self.mns.hot[i].serving().is_some() {
                    self.mns.hot[i].set_serving(None);
                    if let Some(active) = self.mns.active_mut(i) {
                        release_channel(active, &mut self.cells);
                        active.mip.on_link_lost();
                    }
                }
            }
            HandoffDecision::Handoff {
                target, fallback, ..
            } => {
                self.start_handoff(ctx, mn, target, fallback);
            }
        }
    }

    /// True when the §3.2 decision for node `i` at `pos` moving at
    /// `speed` is provably `Stay` without measuring: the engine's
    /// [`StayGuard`](crate::handoff::StayGuard) for its serving cell, checked by
    /// [`CellMap::certifies_stay`] from squared distances alone.
    fn stay_certified(&self, i: usize, pos: Point, speed: f64) -> bool {
        let Some(serving) = self.mns.hot[i].serving() else {
            return false;
        };
        let cell = self.cells.cell(serving).expect("known cell");
        let arch = self.cfg.arch;
        let Some(guard) = self.engine.stay_guard(
            speed,
            Tier::of_cell(cell.kind()),
            cell.free_resource_ratio(),
            |tier| arch.deploys(tier),
        ) else {
            return false;
        };
        self.cells.certifies_stay(
            serving,
            pos,
            guard.floor_dbm,
            |kind| Tier::of_cell(kind) == guard.rivals,
            |kind| guard.silent == Some(Tier::of_cell(kind)),
        )
    }

    /// The full §3.2 decision for node `i` at `pos` moving at `speed`:
    /// measure every audible cell, keep the deployed tiers' cells as
    /// candidates, decide against the serving cell. Both buffers are
    /// scratch space owned by the world, so a sample allocates nothing.
    fn decide_sample(&mut self, i: usize, pos: Point, speed: f64) -> HandoffDecision {
        let mut measurements = std::mem::take(&mut self.measure_scratch);
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        self.cells.measure_batch(pos, None, &mut measurements);
        candidates.clear();
        for meas in &measurements {
            let tier = Tier::of_cell(meas.kind);
            if self.cfg.arch.deploys(tier) {
                candidates.push(Candidate {
                    cell: meas.cell,
                    tier,
                    rssi_dbm: meas.rssi_dbm,
                    free_ratio: meas.free_ratio,
                });
            }
        }
        self.measure_scratch = measurements;
        let current = self.mns.hot[i].serving().map(|cell| {
            let tier = Tier::of_cell(self.cells.cell(cell).expect("known cell").kind());
            let rssi = candidates
                .iter()
                .find(|c| c.cell == cell)
                .map(|c| c.rssi_dbm);
            CurrentAttachment {
                cell,
                tier,
                rssi_dbm: rssi,
            }
        });
        let decision = self.engine.decide(speed, current, &candidates);
        self.candidate_scratch = candidates;
        decision
    }

    fn start_handoff(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        target: CellId,
        fallback: Option<CellId>,
    ) {
        let now = ctx.now();
        let old = self.mns.hot[mn.0 as usize].serving();
        let kind = if old.is_some() {
            CallKind::Handoff
        } else {
            CallKind::New
        };
        // Idle camping: a node with no traffic flows attaches at
        // paging level — no traffic channel, no admission, no
        // call-accounting. The channel pools stay sized by the active
        // population.
        let holds_channel = !self.camps(mn.0 as usize);
        // Admission at the target; §3.2 fallback to the other tier.
        let granted = if holds_channel {
            let mut admitted = None;
            for cand in [Some(target), fallback].into_iter().flatten() {
                let ok = self
                    .cells
                    .cell_mut(cand)
                    .expect("known cell")
                    .channels_mut()
                    .admit(kind)
                    .is_ok();
                if ok {
                    if admitted.is_none() && cand != target {
                        self.report.handoffs.fallback_used += 1;
                    }
                    admitted = Some(cand);
                    break;
                } else if cand == target {
                    self.report.handoffs.rejected += 1;
                }
            }
            let Some(granted) = admitted else {
                if kind == CallKind::New {
                    self.report.calls_blocked += 1;
                }
                return;
            };
            if kind == CallKind::New {
                self.report.calls_accepted += 1;
            }
            granted
        } else {
            target
        };
        // Handoff request + accept over the air. A camping node
        // re-associates silently (idle-state Cellular IP: no admission
        // exchange, no per-move signaling — the periodic paging update
        // is its only network traffic).
        if holds_channel {
            self.report.signaling.handoff_messages += 2;
            self.report.signaling.control_bytes += 48;
        }

        let htype = old.map(|o| classify(&self.hierarchy, o, granted));
        self.mns.begin_handoff(
            mn.0 as usize,
            PendingAttach {
                target: granted,
                old,
                htype,
                decided_at: now,
                holds_channel,
            },
        );

        // Semisoft (a handoff inside one domain of a CIP architecture):
        // notify the new path before retuning.
        let attach_delay = match (self.cfg.semisoft(), self.domain_idx_of_cell(granted)) {
            (Some(delay), Some(didx))
                if holds_channel && old.and_then(|o| self.domain_idx_of_cell(o)) == Some(didx) =>
            {
                // The semisoft packet climbs from the new BS immediately.
                let mn_addr = mn::home_addr(mn.0);
                let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
                let new_bs = self.node_of_cell(granted);
                let pkt = self.alloc_control(
                    mn_addr,
                    gw_addr,
                    now,
                    Payload::Cip(CipControl::Semisoft { mn: mn_addr }),
                );
                self.report.signaling.route_updates += 1;
                let air = self.air_time(granted, self.arena.get(pkt).wire_bytes());
                ctx.schedule_at(
                    now + air,
                    Ev::Pkt {
                        node: new_bs,
                        from: None,
                        pkt,
                    },
                );
                delay
            }
            _ => super::AIR_DELAY.saturating_mul(2) + super::RETUNE_DELAY,
        };
        ctx.schedule_at(now + attach_delay, Ev::Attach(mn));
    }

    pub(super) fn handle_attach(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        let i = mn.0 as usize;
        let Some(pending) = self.mns.take_pending(i) else {
            return;
        };
        let target = pending.target;
        let old = pending.old;

        // Ping-pong accounting (`NO_CELL`, "never left one", is no target).
        let (prev, left_at) = self.mns.prev_cell[i];
        if prev == target.0 && now.saturating_since(left_at) < SimDuration::from_secs(5) {
            self.report.handoffs.ping_pong += 1;
        }
        if let Some(active) = self.mns.active_mut(i) {
            release_channel(active, &mut self.cells);
            if pending.holds_channel {
                active.channel_cell = Some(target);
            }
            active.cip.touch(now);
        }
        if let Some(o) = old {
            self.mns.prev_cell[i] = (o.0, now);
        }
        self.mns.hot[i].set_serving(Some(target));

        if let Some(htype) = pending.htype {
            *self.report.handoffs.completed.entry(htype).or_insert(0) += 1;
            // Camping re-associations send no route update, so their
            // latency window would never close — the signaling latency
            // metric is an active-set metric.
            if pending.holds_channel {
                self.pending_latency.insert(
                    mn,
                    PendingLatency {
                        htype,
                        decided_at: pending.decided_at,
                    },
                );
            }
        }

        // A camping node's attach completes here: the network learns of
        // it only through the periodic paging update (`handle_uplink`) —
        // no location messages, no route repair, no Mobile IP
        // registration, no inter-domain updates. That is the idle-state
        // contract that keeps per-move signaling and directory churn
        // proportional to the *active* population.
        if !pending.holds_channel {
            return;
        }

        let mn_addr = mn::home_addr(mn.0);
        let new_didx = self.domain_idx_of_cell(target);
        let old_didx = old.and_then(|o| self.domain_idx_of_cell(o));

        // Multi-tier location management (§3.1/§3.2 messages).
        if !self.cfg.arch.mip_only() {
            if let Some(o) = old {
                self.report.signaling.update_messages += 1;
                self.report.signaling.control_bytes += 32;
                self.locdir
                    .on_location_message(&self.hierarchy, mn_addr, target, now);
                // Macro→micro sends the delete "in the same time" (§3.2a);
                // we issue it for every tier change and micro→micro too,
                // matching Fig 3.4's message lists.
                self.report.signaling.delete_messages += 1;
                self.report.signaling.control_bytes += 32;
                self.locdir.on_delete_location(mn_addr, o);
            } else {
                self.locdir
                    .on_location_message(&self.hierarchy, mn_addr, target, now);
                self.report.signaling.location_messages += 1;
            }
            // Route repair from the new BS (this is where the hard-handoff
            // loss window starts closing).
            if let Some(didx) = new_didx {
                self.send_route_update(ctx, mn, didx);
                // RSMC authentication on first entry to the domain — a
                // crashed RSMC cannot authenticate; the standby redoes it
                // on the next attach after takeover. The proof lives on the
                // node's row as a (domain, epoch) pair; the RSMC only
                // publishes its epoch (bumped on flush), so auth state on
                // the RSMC side is O(1) rather than O(subscribers).
                if self.cfg.arch.rsmc() && self.domains[didx].rsmc_alive {
                    let epoch = self.domains[didx].rsmc.epoch();
                    let key = (didx as u32, epoch);
                    if let Some(active) = self.mns.active_mut(i) {
                        let auth = &mut active.auth;
                        if !auth.contains(&key) {
                            auth.retain(|&(d, _)| d != key.0);
                            auth.push(key);
                            let _auth_delay = self.domains[didx].rsmc.note_auth_performed();
                        }
                    }
                }
            }
        }

        // Mobile IP: (re-)registration when the care-of address changes —
        // inter-domain movement, initial attach, or every handoff in pure
        // Mobile IP mode.
        let coa_changed = self.cfg.arch.mip_only() && old != Some(target)
            || (!self.cfg.arch.mip_only() && new_didx != old_didx);
        if coa_changed {
            let agent = self
                .agent_of_cell(target)
                .expect("a deployed cell has its BS, a multi-tier cell its domain");
            self.advertise_agent(ctx, mn, agent);
        }

        // Inter-domain update messages (Figs 3.2/3.3): same-upper travels
        // over the shared upper BS link (cheap); different-upper detours
        // via the home network.
        if let (Some(ht), Some(new_didx), Some(old_didx)) = (pending.htype, new_didx, old_didx) {
            if ht.is_inter_domain() && !self.cfg.arch.mip_only() {
                let new_rsmc_node = self.domains[new_didx].rsmc_node;
                let new_rsmc_addr = self.domains[new_didx].rsmc.addr();
                let old_rsmc_addr = self.domains[old_didx].rsmc.addr();
                let msg = Payload::Mt(MtMessage::UpdateLocation {
                    mn: mn_addr,
                    new_cell: target,
                });
                self.report.signaling.update_messages += 1;
                let dst = if ht == HandoffType::InterDomainSameUpper {
                    // Fig 3.2: direct to the old domain; the min-delay path
                    // runs through the shared upper-layer BS.
                    old_rsmc_addr
                } else {
                    // Fig 3.3: "the most upper layer BS needs to deliver
                    // this message to home network of MN".
                    self.ha.addr()
                };
                self.send_control(ctx, new_rsmc_node, new_rsmc_addr, dst, msg);
            }
        }
    }

    /// The foreign agent a node in `cell` hears: in pure Mobile IP the
    /// serving BS itself, in the multi-tier architecture the domain's
    /// RSMC. Its address is the care-of address either way.
    fn agent_of_cell(&self, cell: CellId) -> Option<Addr> {
        if self.cfg.arch.mip_only() {
            self.bs_of_cell(cell).map(|n| self.topo.addr_of(n))
        } else {
            self.domain_idx_of_cell(cell)
                .map(|didx| self.domains[didx].fa.addr())
        }
    }

    /// Has `mn` hear `agent`'s advertisement (every agent offers its own
    /// address as care-of address) and performs what its Mobile IP state
    /// machine answers. A camping node has none and stays silent.
    fn advertise_agent(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, agent: Addr) {
        let adv = AgentAdvertisement { agent, coa: agent };
        let now = ctx.now();
        if let Some(active) = self.mns.active_mut(mn.0 as usize) {
            let action = active.mip.on_advertisement(&adv, now);
            self.perform_mn_action(ctx, mn, action);
        }
    }

    fn perform_mn_action(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, action: MnAction) {
        if let MnAction::SendRequest(req) = action {
            self.report.signaling.mip_requests += 1;
            if self.active_faults > 0 || !self.pending_recovery.is_empty() {
                self.report.faults.reregistrations += 1;
            }
            // The request is addressed to the care-of address: the
            // agent the node heard (see `agent_of_cell`).
            self.air_up(ctx, mn, Payload::Mip(MipMessage::Request(req)), req.coa);
        }
    }

    /// Wave front of the uplink tick: the same tie-taking as
    /// [`World::handle_move_sample`], with a first pass that only reads
    /// the columns the tick walks for each member so their misses
    /// overlap. The pass writes nothing, so the members run exactly as
    /// they would one event at a time. Returns the member count.
    pub(super) fn handle_uplink(&mut self, ctx: &mut Context<'_, Ev>, first: MnId) -> usize {
        let mut wave = std::mem::take(&mut self.uplink_wave);
        wave.push(first);
        if self.takes_ties() {
            while let Some(Ev::Uplink(mn)) = ctx.take_tie_if(|ev| matches!(ev, Ev::Uplink(_))) {
                wave.push(mn);
            }
        }
        if wave.len() > 1 {
            for mn in &wave {
                self.mns.warm_uplink(mn.0 as usize);
            }
        }
        for &mn in &wave {
            self.uplink_one(ctx, mn);
        }
        let members = wave.len();
        wave.clear();
        self.uplink_wave = wave;
        members
    }

    fn uplink_one(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        let i = mn.0 as usize;
        ctx.rearm(self.uplink_lane(i), mn.0);
        let Some(cell) = self.mns.hot[i].serving() else {
            return;
        };
        // MIP retransmissions.
        let action = self
            .mns
            .active_mut(i)
            .map_or(MnAction::None, |a| a.mip.poll_retransmit(now));
        self.perform_mn_action(ctx, mn, action);
        // Periodic agent advertisements drive binding refresh: we fold the
        // advertisement into the maintenance tick (the MN state machine
        // only re-registers once the binding passes its half-life).
        let registered = self
            .mns
            .active(i)
            .is_some_and(|a| matches!(a.mip.state(), MnState::Registered { .. }));
        if registered {
            if let Some(agent) = self.agent_of_cell(cell) {
                self.advertise_agent(ctx, mn, agent);
            }
        }

        if self.cfg.arch.mip_only() {
            return;
        }
        let Some(didx) = self.domain_idx_of_cell(cell) else {
            return;
        };
        // Camping nodes are idle by construction (no flows): route
        // updates would advertise a data path nobody uses. Their CIP
        // mode can still read Active right after creation (the activity
        // timeout measures from t=0), so pin them to the paging branch.
        let mode = match self.mns.active(i) {
            Some(active) if !self.camps(i) => active.cip.mode(now),
            _ => MnMode::Idle,
        };
        match mode {
            MnMode::Active => self.send_route_update(ctx, mn, didx),
            MnMode::Idle => {
                let since = now.saturating_since(self.mns.last_paging_update[i]);
                if since >= self.cfg.cip_timers.paging_update {
                    self.mns.last_paging_update[i] = now;
                    self.report.signaling.paging_updates += 1;
                    let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
                    let update = CipControl::PagingUpdate {
                        mn: mn::home_addr(mn.0),
                    };
                    self.air_up(ctx, mn, Payload::Cip(update), gw_addr);
                }
            }
        }
    }

    /// `mn` sends a route update toward domain `didx`'s gateway through
    /// its serving BS.
    pub(super) fn send_route_update(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId, didx: usize) {
        let gw_addr = self.topo.addr_of(self.domains[didx].rsmc_node);
        let update = CipControl::RouteUpdate {
            mn: mn::home_addr(mn.0),
        };
        self.report.signaling.route_updates += 1;
        self.air_up(ctx, mn, Payload::Cip(update), gw_addr);
    }

    pub(super) fn handle_location_tick(&mut self, ctx: &mut Context<'_, Ev>, mn: MnId) {
        let now = ctx.now();
        ctx.rearm(self.lanes.location, mn.0);
        if self.cfg.arch.mip_only() {
            return;
        }
        let Some(cell) = self.mns.hot[mn.0 as usize].serving() else {
            return;
        };
        self.report.signaling.location_messages += 1;
        self.report.signaling.control_bytes += 32;
        self.locdir
            .on_location_message(&self.hierarchy, mn::home_addr(mn.0), cell, now);
    }
}

/// Gives back the traffic channel `active` holds, if it holds one.
fn release_channel(active: &mut MnActive, cells: &mut CellMap) {
    if let Some(held) = active.channel_cell.take() {
        if let Some(c) = cells.cell_mut(held) {
            c.channels_mut().release();
        }
    }
}
