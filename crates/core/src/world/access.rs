//! The access side of Fig 4.1: a domain's Cellular IP tree and its RSMC —
//! updates climbing to the gateway, downlink descent with semisoft
//! bicast, gateway rescue, RSMC and foreign-agent control — and the last
//! hop over the air.
//!
//! **Owner:** the access half (`shard::ACCESS`): [`Ev::Pkt`] at a domain
//! node, [`Ev::AirDown`].
//! **Reads:** `cfg`, `topo` (addresses), `cells`, `node_cell`,
//! `cell_node`, `cell_domain`, `rsmc_node_domain`, `mns.hot`,
//! `flow_index`, `ha` / `cn_addr` (notification targets).
//! **Writes:** `domains[d].{cip, semisoft, rsmc, fa}`, `bs_fas`,
//! `mns.{motion, active}`, `flows[f].qos` (receive side),
//! `pending_latency`, `pending_recovery`, `report.{signaling,
//! handoffs.latency_ms, aggregate, faults.recovery_latency_ms}`.

use super::{Ev, World};
use crate::arena::PacketRef;
use crate::handoff::HandoffType;
use crate::messages::{CipControl, MnId, MtMessage, Payload};
use crate::report::DropCause;
use mtnet_cellularip::{HandoffKind, PageOutcome};
use mtnet_mobileip::{ForeignAgent, MipMessage, MnAction};
use mtnet_net::{Addr, NodeId, TunnelKind};
use mtnet_radio::CellId;
use mtnet_sim::{Context, SimDuration, SimTime};

impl World {
    /// Cellular IP uplink control (route/paging/semisoft updates) climbing
    /// from `node` toward the gateway, refreshing caches hop by hop.
    pub(super) fn handle_cip_climb(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        node: NodeId,
        from: Option<NodeId>,
        control: CipControl,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        let came_from = from.unwrap_or(node);
        // The node whose route the update repairs; a paging update
        // repairs none.
        let routed = match control {
            CipControl::RouteUpdate { mn, .. } | CipControl::Semisoft { mn } => {
                self.domains[didx]
                    .cip
                    .refresh_route_at(node, mn, came_from, now);
                Some(mn)
            }
            CipControl::PagingUpdate { mn } => {
                self.domains[didx]
                    .cip
                    .refresh_paging_at(node, mn, came_from, now);
                None
            }
        };
        // Semisoft: opening the bicast window when the update passes the
        // crossover between old and new attachments.
        if let CipControl::Semisoft { mn } = control {
            if let Some(mnid) = self.mn_of(mn) {
                let i = mnid.0 as usize;
                let (old, target) = (self.mns.hot[i].serving(), self.mns.pending_target(i));
                if let (Some(old), Some(target)) = (old, target) {
                    let old_node = self.node_of_cell(old);
                    let new_node = self.node_of_cell(target);
                    let tree = self.domains[didx].cip.tree();
                    if tree.contains(old_node)
                        && tree.contains(new_node)
                        && tree.crossover(old_node, new_node) == node
                    {
                        if let HandoffKind::Semisoft { delay } = self.cfg.handoff_kind {
                            self.domains[didx]
                                .semisoft
                                .begin(mn, old_node, new_node, now, delay);
                        }
                    }
                }
            }
        }
        let tree = self.domains[didx].cip.tree();
        if node == tree.gateway() {
            // The update has done its work: consumed.
            self.arena.free(pkt);
            if let Some(mn) = routed {
                self.on_gateway_route_update(ctx, didx, mn, now);
                // Intra-domain handoff completes when the repair
                // reaches the gateway.
                if let Some(mnid) = self.mn_of(mn) {
                    self.complete_latency_if(mnid, now, |t| !t.is_inter_domain());
                }
            }
            return;
        }
        match tree.parent(node) {
            Some(parent) => self.transmit(ctx, node, parent, pkt),
            None => self.drop_packet(pkt, DropCause::NoRoute),
        }
    }

    /// Gateway-level route-update processing: RSMC location refresh and
    /// HA/CN notifications.
    fn on_gateway_route_update(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        mn: Addr,
        now: SimTime,
    ) {
        if !self.cfg.rsmc_enabled || !self.domains[didx].rsmc_alive {
            return;
        }
        let Some(cell) = self.domains[didx]
            .cip
            .locate(mn, now)
            .and_then(|n| self.cell_of_node(n))
        else {
            return;
        };
        let targets = if self.cfg.notify_cn { 2 } else { 1 };
        let notifications = self.domains[didx]
            .rsmc
            .on_route_update(mn, cell, now, targets);
        self.report.signaling.rsmc_notifications += notifications.len() as u64;
        let rsmc_node = self.domains[didx].rsmc_node;
        let rsmc_addr = self.domains[didx].rsmc.addr();
        // One notification per target, the HA's first.
        for (msg, dst) in notifications
            .into_iter()
            .zip([self.ha.addr(), self.cn_addr])
        {
            self.send_control(ctx, rsmc_node, rsmc_addr, dst, Payload::Mt(msg));
        }
    }

    /// Downlink forwarding inside an access network (gateway or BS).
    pub(super) fn forward_downlink(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        didx: usize,
        node: NodeId,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        let mn_addr = self.arena.get(pkt).dst;
        let gateway = self.domains[didx].cip.tree().gateway();
        // A departed visitor with a forwarding entry: re-tunnel toward the
        // new domain instead of descending a dead branch (Fig 3.3's "keep
        // the record a while until MN has completed handoff").
        if node == gateway {
            if let Some(coa) = self.domains[didx].fa.forward_endpoint(mn_addr, now) {
                let own = self.domains[didx].rsmc.addr();
                if coa != own {
                    self.arena
                        .get_mut(pkt)
                        .encapsulate(own, coa, TunnelKind::SmoothHandoff);
                    self.forward_wired(ctx, node, pkt);
                    return;
                }
            }
        }
        let next = self.domains[didx].cip.next_hop(node, mn_addr, now);
        match next {
            Some(n) if n == node => {
                // Attach BS: deliver over the air (plus semisoft bicast
                // handled at the crossover below).
                if let Some(cell) = self.cell_of_node(node) {
                    if let Some(mn) = self.mn_of(mn_addr) {
                        self.air_down(ctx, cell, mn, pkt, SimDuration::ZERO);
                        return;
                    }
                }
                self.drop_packet(pkt, DropCause::NoRoute);
            }
            Some(child) => {
                // Semisoft bicast: if this node is the crossover of an open
                // window, duplicate toward the old branch too.
                if let Some((old_bs, new_bs)) =
                    self.domains[didx].semisoft.bicast_targets(mn_addr, now)
                {
                    let tree = self.domains[didx].cip.tree();
                    if tree.contains(old_bs)
                        && tree.contains(new_bs)
                        && tree.crossover(old_bs, new_bs) == node
                    {
                        if old_bs == node {
                            // The crossover *is* the old attach BS (the new
                            // cell chains under the old one): the "old
                            // branch" is this BS's own air interface.
                            if let (Some(cell), Some(mnid)) =
                                (self.cell_of_node(node), self.mn_of(mn_addr))
                            {
                                let copy = self.arena.duplicate(pkt);
                                self.air_down(ctx, cell, mnid, copy, SimDuration::ZERO);
                            }
                        } else {
                            // The cache points to the new branch; the
                            // duplicate follows the tree toward the old BS.
                            // Parent walk from the old BS finds this node's
                            // child on that branch without materializing
                            // the path.
                            let mut toward_old = None;
                            let mut cur = old_bs;
                            while let Some(parent) = tree.parent(cur) {
                                if parent == node {
                                    toward_old = Some(cur);
                                    break;
                                }
                                cur = parent;
                            }
                            if let Some(toward_old) = toward_old {
                                if toward_old != child {
                                    let copy = self.arena.duplicate(pkt);
                                    self.transmit(ctx, node, toward_old, copy);
                                }
                            }
                        }
                    }
                }
                self.transmit(ctx, node, child, pkt);
            }
            None => {
                // No routing state at this node.
                if node == gateway {
                    self.gateway_rescue(ctx, didx, pkt);
                } else {
                    self.drop_packet(pkt, DropCause::NoRoute);
                }
            }
        }
    }

    /// Gateway fallback when routing caches miss: the RSMC's combined
    /// location cache (if enabled), then paging. Either way the packet is
    /// source-routed down the tree, 2 ms a hop, and delivered straight
    /// over the located BS's air interface (the BS's own routing cache
    /// lapsed along with the gateway's).
    fn gateway_rescue(&mut self, ctx: &mut Context<'_, Ev>, didx: usize, pkt: PacketRef) {
        let now = ctx.now();
        let mn_addr = self.arena.get(pkt).dst;
        let descent = |world: &World, bs: NodeId| {
            let hops = world.domains[didx].cip.tree().depth(bs) as u64;
            SimDuration::from_millis(2).saturating_mul(hops.max(1))
        };
        if self.cfg.rsmc_enabled && self.domains[didx].rsmc_alive {
            if let Some(cell) = self.domains[didx].rsmc.locate(mn_addr, now) {
                if let Some(bs) = self.bs_of_cell(cell) {
                    if self.domains[didx].cip.tree().contains(bs) {
                        self.domains[didx].rsmc.count_forwarded();
                        if let Some(mn) = self.mn_of(mn_addr) {
                            self.air_down(ctx, cell, mn, pkt, descent(self, bs));
                            return;
                        }
                    }
                }
            }
        }
        // Paging (idle nodes).
        let outcome = self.domains[didx].cip.page(mn_addr, now);
        self.report.signaling.page_messages += outcome.messages() as u64;
        match outcome {
            PageOutcome::Directed { bs, .. } => {
                match (self.cell_of_node(bs), self.mn_of(mn_addr)) {
                    (Some(cell), Some(mn)) => {
                        self.air_down(ctx, cell, mn, pkt, descent(self, bs));
                    }
                    _ => self.drop_packet(pkt, DropCause::NoRoute),
                }
            }
            PageOutcome::Flooded { .. } => {
                self.drop_packet(pkt, DropCause::Paging);
                // A flooded page wakes the node: it answers with a route
                // update so subsequent packets flow.
                if let Some(mnid) = self.mn_of(mn_addr) {
                    if self.mns.hot[mnid.0 as usize].serving().is_some() {
                        self.send_route_update(ctx, mnid, didx);
                    }
                }
            }
        }
    }

    /// The foreign agent at `node`: the domain's at an RSMC, the BS's
    /// own in pure Mobile IP, none anywhere else.
    fn fa_at(&mut self, node: NodeId) -> Option<&mut ForeignAgent> {
        if let Some(&didx) = self.rsmc_node_domain.get(&node) {
            return Some(&mut self.domains[didx].fa);
        }
        let cell = self.cell_of_node(node).filter(|_| self.cfg.mip_only)?;
        Some(
            self.bs_fas
                .get_mut(&cell)
                .expect("FA exists per BS in mip-only mode"),
        )
    }

    /// Control processing at an access-network node: the RSMC's (and
    /// gateway's) own messages, and the foreign-agent leg of a Mobile IP
    /// registration wherever the FA sits.
    pub(super) fn consume_at_access(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        payload: Payload,
    ) {
        let now = ctx.now();
        let rsmc_of = self.rsmc_node_domain.get(&node).copied();
        if rsmc_of.is_some_and(|didx| !self.domains[didx].rsmc_alive) {
            // Crashed control plane: the box forwards as a plain
            // gateway (handled before we got here) but answers no
            // signaling until the standby takes over.
            return;
        }
        match (payload, rsmc_of) {
            (Payload::Mip(MipMessage::Request(req)), _) => {
                // FA leg: relay to the HA or deny locally.
                let Some(fa) = self.fa_at(node) else { return };
                let result = fa.relay_registration(&req, now);
                let fa_addr = fa.addr();
                match result {
                    Ok(relayed) => self.send_control(
                        ctx,
                        node,
                        fa_addr,
                        relayed.ha,
                        Payload::Mip(MipMessage::Request(relayed)),
                    ),
                    Err(denial) => self.deliver_control_to_mn(
                        ctx,
                        node,
                        denial.mn_home,
                        Payload::Mip(MipMessage::Reply(denial)),
                    ),
                }
            }
            (Payload::Mip(MipMessage::Reply(reply)), _) => {
                let Some(fa) = self.fa_at(node) else { return };
                let reply = fa.process_reply(&reply, now);
                self.report.signaling.mip_replies += 1;
                self.deliver_control_to_mn(
                    ctx,
                    node,
                    reply.mn_home,
                    Payload::Mip(MipMessage::Reply(reply)),
                );
            }
            (Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }), Some(didx)) => {
                // This RSMC is the *old* domain of an inter-domain
                // handoff: install a forwarding entry so in-flight
                // packets chase the node to its new domain, and keep
                // the record "a while until MN has completed handoff"
                // (Fig 3.3).
                if let Some(new_didx) = self.domain_idx_of_cell(new_cell) {
                    let new_rsmc = self.domains[new_didx].rsmc.addr();
                    if new_rsmc != self.domains[didx].rsmc.addr() {
                        self.domains[didx].fa.install_forward(mn, new_rsmc, now);
                    }
                }
                if let Some(mnid) = self.mn_of(mn) {
                    self.complete_latency_if(mnid, now, |t| t.is_inter_domain());
                }
            }
            _ => {}
        }
    }

    /// Sends a control message from the FA at `node` to a visiting MN:
    /// down the domain's access network from an RSMC, straight over its
    /// own air interface from a BS (pure Mobile IP has no tree to
    /// descend).
    fn deliver_control_to_mn(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        mn_addr: Addr,
        payload: Payload,
    ) {
        let src = self.topo.addr_of(node);
        if let Some(&didx) = self.rsmc_node_domain.get(&node) {
            let pkt = self.alloc_control(src, mn_addr, ctx.now(), payload);
            self.forward_downlink(ctx, didx, node, pkt);
        } else if let (Some(cell), Some(mn)) = (self.cell_of_node(node), self.mn_of(mn_addr)) {
            let pkt = self.alloc_control(src, mn_addr, ctx.now(), payload);
            self.air_down(ctx, cell, mn, pkt, SimDuration::ZERO);
        }
    }

    pub(super) fn handle_air_down(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        cell: CellId,
        pkt: PacketRef,
    ) {
        let now = ctx.now();
        // The packet is consumed here on every path; pull the delivery-
        // relevant fields out and release the slot before the logic.
        let (payload, flow, seq, created_at, payload_bytes) = {
            let p = self.arena.get(pkt);
            (p.payload, p.flow, p.seq, p.created_at, p.payload_bytes)
        };
        self.arena.free(pkt);
        let i = mn.0 as usize;
        let (pos, _) = self.mns.sample(i, now);
        // Semisoft: the node effectively listens to both the old cell and
        // the pending target; FlowQos de-duplicates.
        let attached_ok = self.mns.hot[i].serving() == Some(cell)
            || self.mns.pending_target(i) == Some(cell) && !self.cfg.mip_only;
        // Radio truth: the transmission only lands if the node is actually
        // inside the cell's radio range right now (one distance pass for
        // the footprint check and the path loss).
        let radio_ok = self
            .cells
            .rssi_if_covered(cell, pos)
            .is_some_and(|rssi| rssi >= mtnet_radio::SENSITIVITY_DBM);
        if !(attached_ok && radio_ok) {
            if payload.is_data() {
                self.count_data_drop(DropCause::WirelessDetached);
            }
            return;
        }
        match payload {
            Payload::Data => {
                let fidx = self.flow_index.get(&flow).copied();
                if let Some(fidx) = fidx {
                    if let Some(agg) = self.report.aggregate.as_mut() {
                        // Aggregate mode: the per-flow tracker stays
                        // compact; the delay streams into the world-level
                        // accumulator.
                        let q = &mut self.flows[fidx].qos;
                        if let Some(d) =
                            q.record_received_compact(seq, created_at, now, payload_bytes)
                        {
                            agg.record(d.as_millis_f64());
                        }
                    } else {
                        self.flows[fidx]
                            .qos
                            .record_received(seq, created_at, now, payload_bytes);
                    }
                }
                if let Some(active) = self.mns.active_mut(i) {
                    active.cip.touch(now);
                }
                // First delivered data packet after a restore closes every
                // armed recovery-latency measurement.
                if !self.pending_recovery.is_empty() {
                    for t in std::mem::take(&mut self.pending_recovery) {
                        self.report
                            .faults
                            .recovery_latency_ms
                            .record(now.saturating_since(t).as_millis_f64());
                    }
                }
            }
            Payload::Mip(MipMessage::Reply(reply)) => {
                if let Some(active) = self.mns.active_mut(i) {
                    let action = active.mip.on_reply(&reply, now);
                    debug_assert!(matches!(action, MnAction::None));
                }
                if reply.accepted() {
                    self.complete_latency_if(mn, now, |t| t.is_inter_domain());
                }
            }
            Payload::Mip(MipMessage::Advertisement(adv)) => {
                self.advertise(ctx, mn, &adv);
            }
            _ => {}
        }
    }

    /// Closes `mn`'s armed handoff-latency measurement (opened by
    /// `handle_attach`) when its type satisfies `pred`.
    fn complete_latency_if(&mut self, mn: MnId, now: SimTime, pred: impl Fn(HandoffType) -> bool) {
        let Some(pending) = self.pending_latency.get(&mn).copied() else {
            return;
        };
        if !pred(pending.htype) {
            return;
        }
        self.pending_latency.remove(&mn);
        let latency_ms = now.saturating_since(pending.decided_at).as_millis_f64();
        self.report
            .handoffs
            .latency_ms
            .entry(pending.htype)
            .or_default()
            .record(latency_ms);
    }
}
