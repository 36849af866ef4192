//! The wire every owner shares: the one way onto a link
//! ([`World::transmit`]), onto the air ([`World::air_down`]) and out of
//! the arena undelivered ([`World::drop_packet`]), and the per-node
//! pipeline every [`Ev::Pkt`] runs before an owner's handler takes over.
//!
//! **Owner:** whichever half owns the node the packet is at.
//! **Reads:** `cfg`, `prefix_probe`, `cells`, `cell_node`, `node_cell`,
//! `cell_domain`, `node_domain`, `mns.hot`, `ha_node`, `cn_node`, `shard`.
//! **Writes:** `arena`, `next_packet_id`, `routes` (cache fill), `topo`
//! (link queues), `shard.outbox`, `report.signaling.control_bytes`.

use super::{mn, shard, Ev, World};
use crate::arena::PacketRef;
use crate::messages::{MnId, Payload};
use crate::report::DropCause;
use mtnet_net::{Addr, FlowId, NodeId, PacketId, TransmitOutcome};
use mtnet_radio::CellId;
use mtnet_sim::{Context, SimDuration, SimTime};

impl World {
    /// Wireless transmission time of `bytes` in `cell`: base air latency,
    /// serialization at the tier's rate, plus orbital propagation for the
    /// satellite tier (altitude / c).
    pub(super) fn air_time(&self, cell: CellId, bytes: u32) -> SimDuration {
        let (rate, altitude) = self.cells.cell(cell).map_or((768_000, 0.0), |c| {
            (c.kind().data_rate_bps(), c.kind().altitude_m())
        });
        // Terrestrial cells skip the orbital-propagation term entirely
        // (`from_secs_f64(0.0)` is exactly zero, so the shortcut changes
        // no bits — it just spares a rounding per packet).
        let orbit = if altitude == 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(altitude / 299_792_458.0)
        };
        self.cfg.air_delay
            + SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / rate as f64)
            + orbit
    }

    pub(super) fn alloc_packet(
        &mut self,
        flow: FlowId,
        seq: u64,
        src: Addr,
        dst: Addr,
        bytes: u32,
        now: SimTime,
        payload: Payload,
    ) -> PacketRef {
        self.next_packet_id += 1;
        self.arena.alloc(
            PacketId(self.next_packet_id),
            flow,
            seq,
            src,
            dst,
            bytes,
            now,
            payload,
        )
    }

    /// A control packet carrying `payload`, sized by it.
    pub(super) fn alloc_control(
        &mut self,
        src: Addr,
        dst: Addr,
        now: SimTime,
        payload: Payload,
    ) -> PacketRef {
        let bytes = payload.control_size_bytes();
        self.alloc_packet(FlowId(0), 0, src, dst, bytes, now, payload)
    }

    /// Sends a control packet from a wired node.
    pub(super) fn send_control(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from_node: NodeId,
        src: Addr,
        dst: Addr,
        payload: Payload,
    ) {
        let pkt = self.alloc_control(src, dst, ctx.now(), payload);
        self.report.signaling.control_bytes += u64::from(self.arena.get(pkt).wire_bytes());
        self.forward_wired(ctx, from_node, pkt);
    }

    /// Next wired hop out of `node` toward `dst`: an exact node address
    /// routes directly, any other address toward the owner of its longest
    /// containing prefix — both through the [`mtnet_net::RouteCache`]. Hop
    /// choices equal the Dijkstra-built routing tables' (the tests' oracle):
    /// those skip a prefix whose owner is `node` itself or unreachable and
    /// let a *shorter* matching prefix answer, so the walk continues past
    /// such entries (`prefix_probe` runs longest first).
    pub(super) fn wired_next_hop(&mut self, node: NodeId, dst: Addr) -> Option<NodeId> {
        if let Some(target) = self.topo.node_by_addr(dst) {
            if let Some(hop) = self.routes.next_hop(&self.topo, node, target) {
                return Some(hop);
            }
            // An unreachable host route falls through to the prefixes.
        }
        for (mask, owners) in &self.prefix_probe {
            let Some(&owner) = owners.get(&(dst.0 & mask)) else {
                continue;
            };
            if owner == node {
                continue; // a prefix owner holds no route to its own space
            }
            if let Some(hop) = self.routes.next_hop(&self.topo, node, owner) {
                return Some(hop);
            }
        }
        None
    }

    /// Forwards a packet out of `node` toward its routing destination over
    /// the wired topology.
    pub(super) fn forward_wired(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        pkt: PacketRef,
    ) {
        let dst = self.arena.get(pkt).routing_dst();
        match self.wired_next_hop(node, dst) {
            Some(next) => self.transmit(ctx, node, next, pkt),
            None => self.drop_packet(pkt, DropCause::NoRoute),
        }
    }

    /// Offers `pkt` to the link from `from` to its neighbour `to` — the
    /// one way onto a wire, whether the hop was routed, climbs a Cellular
    /// IP tree or descends one. A missing link or a full queue drops the
    /// packet with its cause.
    pub(super) fn transmit(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        from: NodeId,
        to: NodeId,
        pkt: PacketRef,
    ) {
        let Some(link) = self.topo.link_between(from, to) else {
            self.drop_packet(pkt, DropCause::NoRoute);
            return;
        };
        let bytes = self.arena.get(pkt).wire_bytes();
        let link = self.topo.link_mut(link).expect("link exists");
        let TransmitOutcome::Delivered { at } = link.transmit(ctx.now(), bytes) else {
            self.drop_packet(pkt, DropCause::QueueOverflow);
            return;
        };
        self.arena.get_mut(pkt).record_hop();
        // Sharded execution: a hop to a node another shard owns leaves
        // this half entirely — the packet travels by value through the
        // outbox and lands in the owner's queue at the next window edge
        // (see `shard`).
        if let Some(half) = self.shard.as_mut().filter(|s| s.diverts(to)) {
            let packet = self.arena.take(pkt);
            half.outbox.push(shard::Crossing {
                at,
                node: to,
                from,
                packet,
            });
            return;
        }
        ctx.schedule_at(
            at,
            Ev::Pkt {
                node: to,
                from: Some(from),
                pkt,
            },
        );
    }

    /// Transmits a packet over the air from `cell` toward `mn`, after it
    /// has spent `wired` on its way to the cell's BS (zero at the BS
    /// itself; gateway rescue's source-routed descent otherwise).
    pub(super) fn air_down(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        cell: CellId,
        mn: MnId,
        pkt: PacketRef,
        wired: SimDuration,
    ) {
        let delay = wired + self.air_time(cell, self.arena.get(pkt).wire_bytes());
        ctx.schedule_at(ctx.now() + delay, Ev::AirDown { mn, cell, pkt });
    }

    /// Transmits an uplink packet from `mn` via its serving BS; the packet
    /// enters the wired world at the BS node with `from: None`.
    pub(super) fn air_up(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        mn: MnId,
        payload: Payload,
        dst: Addr,
    ) {
        let Some(cell) = self.mns.hot[mn.0 as usize].serving() else {
            return;
        };
        let pkt = self.alloc_control(mn::home_addr(mn.0), dst, ctx.now(), payload);
        let wire = self.arena.get(pkt).wire_bytes();
        self.report.signaling.control_bytes += u64::from(wire);
        let delay = self.air_time(cell, wire);
        let bs = self.node_of_cell(cell);
        ctx.schedule_at(
            ctx.now() + delay,
            Ev::Pkt {
                node: bs,
                from: None,
                pkt,
            },
        );
    }

    pub(super) fn domain_idx_of_cell(&self, cell: CellId) -> Option<usize> {
        self.cell_domain.get(cell.0 as usize).copied().flatten()
    }

    /// Domain index of an access-network node, if it belongs to one.
    pub(super) fn domain_idx_of_node(&self, node: NodeId) -> Option<usize> {
        self.node_domain.get(node.0 as usize).copied().flatten()
    }

    /// The cell served by a BS node, if it hosts one.
    pub(super) fn cell_of_node(&self, node: NodeId) -> Option<CellId> {
        self.node_cell.get(node.0 as usize).copied().flatten()
    }

    /// The BS node of a cell, if it has a radio deployment.
    pub(super) fn bs_of_cell(&self, cell: CellId) -> Option<NodeId> {
        self.cell_node.get(cell.0 as usize).copied().flatten()
    }

    /// The BS node of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no radio deployment.
    pub(super) fn node_of_cell(&self, cell: CellId) -> NodeId {
        self.bs_of_cell(cell).expect("cell has a BS node")
    }

    /// The MN id owning a (home) address. Probed multiple times per
    /// forwarded packet; home addresses are allocated arithmetically
    /// (`mn::home_addr`), so the probe is pure integer arithmetic with
    /// no per-world index.
    pub(super) fn mn_of(&self, addr: Addr) -> Option<MnId> {
        mn::mn_of_home(addr, self.mns.len())
    }

    /// Frees a packet that ends its life undelivered, counting the drop
    /// when it carried application data: the one exit from the arena that
    /// is not a consumption ([`World::consume_at_node`], a Cellular IP
    /// update reaching its gateway, [`World::handle_air_down`]).
    pub(super) fn drop_packet(&mut self, pkt: PacketRef, cause: DropCause) {
        if self.arena.get(pkt).payload.is_data() {
            self.count_data_drop(cause);
        }
        self.arena.free(pkt);
    }

    /// The [`Ev::Pkt`] arm of event dispatch: a packet arrives at `node`.
    pub(super) fn handle_pkt(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        from: Option<NodeId>,
        pkt: PacketRef,
    ) {
        // 0. Home-agent interception happens as the packet transits the HA
        //    router.
        if node == self.ha_node && self.mn_of(self.arena.get(pkt).dst).is_some() {
            self.ha_intercept(ctx, pkt);
            return;
        }
        let node_addr = self.topo.addr_of(node);
        let node_didx = self.domain_idx_of_node(node);

        // 1. Tunnel exit?
        {
            let p = self.arena.get_mut(pkt);
            while p.encap.last().is_some_and(|h| h.outer_dst == node_addr) {
                p.decapsulate();
            }
        }
        let (dst, payload) = {
            let p = self.arena.get(pkt);
            (p.dst, p.payload)
        };

        // 2. Cellular IP uplink control climbing the tree refreshes caches
        //    at every node it passes — including the gateway it is
        //    addressed to, so this check precedes local consumption.
        if let Some(didx) = node_didx {
            if !self.cfg.mip_only {
                if let Payload::Cip(c) = payload {
                    self.handle_cip_climb(ctx, didx, node, from, c, pkt);
                    return;
                }
            }
        }

        // 3. Packet addressed to this node itself: protocol processing.
        if dst == node_addr {
            self.consume_at_node(ctx, node, pkt);
            return;
        }

        // 4. Packet for a mobile node inside an access network this node
        //    belongs to: Cellular IP downlink / uplink handling.
        if let Some(didx) = node_didx {
            if !self.cfg.mip_only {
                if self.mn_of(dst).is_some() {
                    self.forward_downlink(ctx, didx, node, pkt);
                    return;
                }
            } else if let Some(mn) = self.mn_of(dst) {
                // Pure Mobile IP: the BS delivers only to its own radio.
                let Some(cell) = self.cell_of_node(node) else {
                    self.forward_wired(ctx, node, pkt);
                    return;
                };
                if self.mns.hot[mn.0 as usize].serving() == Some(cell) {
                    self.air_down(ctx, cell, mn, pkt, SimDuration::ZERO);
                } else {
                    self.drop_packet(pkt, DropCause::NoRoute);
                }
                return;
            }
        }

        // 5. Plain wired forwarding.
        self.forward_wired(ctx, node, pkt);
    }

    /// Control processing for packets addressed to an infrastructure
    /// node: the packet ends here whoever the node is, and only its
    /// payload (a small `Copy` enum) goes on to the node's owner.
    fn consume_at_node(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, pkt: PacketRef) {
        let payload = self.arena.get(pkt).payload;
        self.arena.free(pkt);
        if node == self.ha_node {
            self.consume_at_ha(ctx, payload);
        } else if node == self.cn_node {
            self.consume_at_cn(payload);
        } else {
            self.consume_at_access(ctx, node, payload);
        }
    }
}
