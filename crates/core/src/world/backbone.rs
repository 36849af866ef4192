//! The backbone side of Fig 4.1: the correspondent node with its flow
//! generators and route optimisation, the home agent with its bindings,
//! interception and the MNLD it keeps current.
//!
//! **Owner:** the backbone half (`shard::BACKBONE`), exactly what
//! `shard::into_half` schedules there: [`Ev::FlowNext`], [`Ev::Pkt`] at
//! the CN and the HA (the Internet core between them only forwards).
//! **Reads:** `cfg.load_curve`, `ha_node`, `cn_node`, `cn_addr`,
//! `rsmc_addr_domain`, `cell_domain`, `domains[d].{id, rsmc}` (address).
//! **Writes:** `flows[f]` (send side), `cn_route`, `ha`, `mnld`,
//! `report.signaling.{mip_requests, update_messages}`.

use super::{mn, Ev, World};
use crate::arena::PacketRef;
use crate::messages::{MtMessage, Payload};
use crate::report::DropCause;
use mtnet_mobileip::{MipMessage, RegistrationRequest};
use mtnet_net::{Addr, TunnelKind};
use mtnet_sim::{Context, SimDuration, SimTime};

impl World {
    /// Emits flow `fidx`'s next packet and schedules the one after.
    /// Returns how many events the call handled: two when it ran the
    /// packet's arrival at the CN itself.
    pub(super) fn handle_flow_next(&mut self, ctx: &mut Context<'_, Ev>, fidx: usize) -> usize {
        let now = ctx.now();
        let f = &mut self.flows[fidx];
        let arrival = f.gen.next(&mut f.rng);
        let (mn, flow_id, seq) = (f.mn, f.flow, f.seq);
        f.seq += 1;
        f.qos.record_sent(seq, now, arrival.bytes);
        // Diurnal load: stretch the gap by the curve's multiplier at the
        // current instant (a pure function of `now` — deterministic).
        let gap = match self.cfg.load_curve {
            Some(curve) => SimDuration::from_nanos(
                (arrival.gap.as_nanos() as f64 * curve.gap_multiplier(now)) as u64,
            ),
            None => arrival.gap,
        };
        ctx.schedule_in(gap, Ev::FlowNext(fidx));
        let cn = self.cn_addr;
        let mn_addr = mn::home_addr(mn.0);
        let pkt = self.alloc_packet(flow_id, seq, cn, mn_addr, arrival.bytes, now, Payload::Data);
        // CN route optimization: tunnel straight to the last notified RSMC.
        if let Some(rsmc) = self.cn_route[mn.0 as usize] {
            self.arena
                .get_mut(pkt)
                .encapsulate(cn, rsmc, TunnelKind::Rsmc);
        }
        // The packet enters at the CN at this same instant. When nothing
        // else is queued for it the run loop would pop that event straight
        // back: claim it and run it here instead.
        let node = self.cn_node;
        if ctx.claim_now() {
            self.handle_pkt(ctx, node, None, pkt);
            return 2;
        }
        ctx.schedule_now(Ev::Pkt {
            node,
            from: None,
            pkt,
        });
        1
    }

    /// Control addressed to the CN: an RSMC's notification points the
    /// node's route at that RSMC.
    pub(super) fn consume_at_cn(&mut self, payload: Payload) {
        if let Payload::Mt(MtMessage::RsmcNotify { mn, rsmc }) = payload {
            if let Some(mnid) = self.mn_of(mn) {
                self.cn_route[mnid.0 as usize] = Some(rsmc);
            }
        }
    }

    /// Control addressed to the home agent.
    pub(super) fn consume_at_ha(&mut self, ctx: &mut Context<'_, Ev>, payload: Payload) {
        let now = ctx.now();
        let ha_addr = self.ha.addr();
        match payload {
            Payload::Mip(MipMessage::Request(req)) => {
                let reply = self.ha.process_registration(&req, now);
                self.report.signaling.mip_requests += 1;
                self.send_control(
                    ctx,
                    self.ha_node,
                    ha_addr,
                    req.coa,
                    Payload::Mip(MipMessage::Reply(reply)),
                );
            }
            Payload::Mt(MtMessage::RsmcNotify { mn, rsmc }) => {
                // §4: the notification refreshes the HA's view without
                // waiting for the full Mobile IP registration.
                self.ha_rebind(mn, rsmc, now);
                if let (Some(didx), Some(mnid)) =
                    (self.rsmc_addr_domain.get(&rsmc).copied(), self.mn_of(mn))
                {
                    let dom = self.domains[didx].id;
                    self.mnld.update(mnid, dom, rsmc, now);
                }
            }
            Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }) => {
                // Fig 3.3: the inter-domain (different upper) update
                // travels via the home network, which records the move
                // and "replies new location information to the
                // original domain".
                let mnid = self.mn_of(mn);
                let prev_rsmc = mnid.and_then(|id| self.mnld.query(id)).map(|e| e.rsmc);
                if let (Some(didx), Some(mnid)) = (self.domain_idx_of_cell(new_cell), mnid) {
                    let new_rsmc = self.domains[didx].rsmc.addr();
                    let dom = self.domains[didx].id;
                    self.mnld.update(mnid, dom, new_rsmc, now);
                    self.ha_rebind(mn, new_rsmc, now);
                    if let Some(prev) = prev_rsmc.filter(|&p| p != new_rsmc) {
                        self.report.signaling.update_messages += 1;
                        self.send_control(
                            ctx,
                            self.ha_node,
                            ha_addr,
                            prev,
                            Payload::Mt(MtMessage::UpdateLocation { mn, new_cell }),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Points the HA's binding for `mn` at `coa` on the network's word
    /// rather than the node's: a registration the HA writes for itself,
    /// answered to nobody.
    fn ha_rebind(&mut self, mn: Addr, coa: Addr, now: SimTime) {
        let synthetic = RegistrationRequest {
            mn_home: mn,
            coa,
            ha: self.ha.addr(),
            lifetime: SimDuration::from_secs(300),
            id: 0,
        };
        let _ = self.ha.process_registration(&synthetic, now);
    }

    /// A packet for a mobile node transits the HA router: intercept it
    /// and tunnel it to the node's binding (Fig 2.2 step 2a). Without a
    /// binding the packet has nowhere to go.
    pub(super) fn ha_intercept(&mut self, ctx: &mut Context<'_, Ev>, pkt: PacketRef) {
        let (dst, tunneled) = {
            let p = self.arena.get(pkt);
            (p.dst, p.is_encapsulated())
        };
        if !tunneled {
            let Some(coa) = self.ha.tunnel_endpoint(dst, ctx.now()) else {
                self.drop_packet(pkt, DropCause::NoBinding);
                return;
            };
            let ha = self.ha.addr();
            self.arena
                .get_mut(pkt)
                .encapsulate(ha, coa, TunnelKind::HomeAgent);
        }
        self.forward_wired(ctx, self.ha_node, pkt);
    }
}
