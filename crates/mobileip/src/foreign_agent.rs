//! The Foreign Agent: visitor list, registration relay, detunneling, and
//! smooth-handoff forwarding.

use crate::messages::{RegistrationReply, RegistrationRequest, ReplyCode};
use mtnet_net::Addr;
use mtnet_sim::FxHashMap;
use mtnet_sim::{SimDuration, SimTime};

/// One visitor-list entry at a foreign agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitorEntry {
    /// When the entry was installed/refreshed.
    pub registered_at: SimTime,
    /// Granted lifetime (from the HA's reply).
    pub lifetime: SimDuration,
    /// Pending (not yet replied) registration id, if any.
    pub pending_id: Option<u64>,
}

impl VisitorEntry {
    /// True if the visitor registration is confirmed and unexpired.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.pending_id.is_none() && now.saturating_since(self.registered_at) < self.lifetime
    }
}

/// A Foreign Agent (paper §2.2.1): offers its own address as care-of
/// address, relays registrations, detunnels HA traffic, and — for smooth
/// handoff (ref \[5]) — forwards packets for recently departed visitors to
/// their new care-of address.
#[derive(Debug, Clone)]
pub struct ForeignAgent {
    addr: Addr,
    max_visitors: usize,
    /// Never read (the world builds its own advertisements), like
    /// `adv_seq`. Both go once the benchmark's `setup_s` no longer moves
    /// with the size of what a world allocates (ROADMAP item 8).
    #[allow(dead_code)]
    max_lifetime: SimDuration,
    #[allow(dead_code)]
    adv_seq: u64,
    visitors: FxHashMap<Addr, VisitorEntry>,
    /// Departed visitors whose traffic we still forward: MN → (new CoA,
    /// installed-at). Entries live for `forward_lifetime`.
    forwards: FxHashMap<Addr, (Addr, SimTime)>,
    forward_lifetime: SimDuration,
    relayed_requests: u64,
    forwarded_packets: u64,
}

impl ForeignAgent {
    /// Default visitor-list capacity.
    pub const DEFAULT_MAX_VISITORS: usize = 1024;
    /// Default maximum lifetime advertised.
    pub const DEFAULT_MAX_LIFETIME: SimDuration = SimDuration::from_secs(300);
    /// Default smooth-handoff forwarding lifetime.
    pub const DEFAULT_FORWARD_LIFETIME: SimDuration = SimDuration::from_secs(5);

    /// Creates a foreign agent whose care-of address is `addr`.
    pub fn new(addr: Addr) -> Self {
        ForeignAgent {
            addr,
            max_visitors: Self::DEFAULT_MAX_VISITORS,
            max_lifetime: Self::DEFAULT_MAX_LIFETIME,
            adv_seq: 0,
            visitors: FxHashMap::default(),
            forwards: FxHashMap::default(),
            forward_lifetime: Self::DEFAULT_FORWARD_LIFETIME,
            relayed_requests: 0,
            forwarded_packets: 0,
        }
    }

    /// This agent's (care-of) address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Handles a registration request from a mobile node. On success the
    /// request should be relayed to the HA (returned as `Ok`); on local
    /// denial a reply is produced directly (returned as `Err`).
    pub fn relay_registration(
        &mut self,
        req: &RegistrationRequest,
        now: SimTime,
    ) -> Result<RegistrationRequest, RegistrationReply> {
        let is_known = self.visitors.contains_key(&req.mn_home);
        if !is_known && self.visitors.len() >= self.max_visitors {
            return Err(RegistrationReply {
                mn_home: req.mn_home,
                code: ReplyCode::DeniedFaBusy,
                lifetime: SimDuration::ZERO,
                id: req.id,
            });
        }
        self.visitors.insert(
            req.mn_home,
            VisitorEntry {
                registered_at: now,
                lifetime: SimDuration::ZERO,
                pending_id: Some(req.id),
            },
        );
        self.relayed_requests += 1;
        Ok(*req)
    }

    /// Handles a registration reply coming back from the HA; finalizes the
    /// visitor entry and returns the reply to forward to the MN.
    pub fn process_reply(&mut self, reply: &RegistrationReply, now: SimTime) -> RegistrationReply {
        if let Some(entry) = self.visitors.get_mut(&reply.mn_home) {
            if entry.pending_id == Some(reply.id) {
                if reply.accepted() && !reply.lifetime.is_zero() {
                    entry.pending_id = None;
                    entry.registered_at = now;
                    entry.lifetime = reply.lifetime;
                } else {
                    self.visitors.remove(&reply.mn_home);
                }
            }
        }
        *reply
    }

    /// Installs a smooth-handoff forward: packets arriving for `mn` are
    /// re-tunneled to `new_coa` (paper ref \[5]). Removes the visitor
    /// entry.
    pub fn install_forward(&mut self, mn: Addr, new_coa: Addr, now: SimTime) {
        self.visitors.remove(&mn);
        self.forwards.insert(mn, (new_coa, now));
    }

    /// If a forward exists for `mn`, returns the new CoA to re-tunnel to
    /// and counts the forwarded packet.
    pub fn forward_endpoint(&mut self, mn: Addr, now: SimTime) -> Option<Addr> {
        if self.forwards.is_empty() {
            // Probed for every downlink packet crossing the gateway; skip
            // the hash while no smooth-handoff forward is installed (the
            // overwhelmingly common case).
            return None;
        }
        let (coa, installed) = *self.forwards.get(&mn)?;
        if now.saturating_since(installed) >= self.forward_lifetime {
            self.forwards.remove(&mn);
            return None;
        }
        self.forwarded_packets += 1;
        Some(coa)
    }

    /// Evicts expired visitors and forwards. Returns `(visitors_evicted,
    /// forwards_evicted)`.
    pub fn expire(&mut self, now: SimTime) -> (usize, usize) {
        let v_before = self.visitors.len();
        self.visitors
            .retain(|_, v| v.pending_id.is_some() || v.is_active(now));
        let f_before = self.forwards.len();
        let fl = self.forward_lifetime;
        self.forwards
            .retain(|_, (_, at)| now.saturating_since(*at) < fl);
        (
            v_before - self.visitors.len(),
            f_before - self.forwards.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn fa() -> ForeignAgent {
        ForeignAgent::new(addr("20.0.0.1"))
    }

    /// True if `mn` is a confirmed, unexpired visitor — i.e. detunneled
    /// packets for it can be delivered on the local link.
    fn has_visitor(f: &ForeignAgent, mn: Addr, now: SimTime) -> bool {
        f.visitors.get(&mn).is_some_and(|v| v.is_active(now))
    }

    fn req(home: &str, id: u64) -> RegistrationRequest {
        RegistrationRequest {
            mn_home: addr(home),
            coa: addr("20.0.0.1"),
            ha: addr("10.0.0.1"),
            lifetime: SimDuration::from_secs(100),
            id,
        }
    }

    fn ok_reply(home: &str, id: u64) -> RegistrationReply {
        RegistrationReply {
            mn_home: addr(home),
            code: ReplyCode::Accepted,
            lifetime: SimDuration::from_secs(100),
            id,
        }
    }

    #[test]
    fn registration_lifecycle() {
        let mut f = fa();
        let relayed = f
            .relay_registration(&req("10.0.0.9", 1), SimTime::ZERO)
            .unwrap();
        assert_eq!(relayed.coa, addr("20.0.0.1"));
        // Pending entries are not active yet.
        assert!(!has_visitor(&f, addr("10.0.0.9"), SimTime::ZERO));
        f.process_reply(&ok_reply("10.0.0.9", 1), SimTime::from_millis(40));
        assert!(has_visitor(&f, addr("10.0.0.9"), SimTime::from_secs(1)));
        assert_eq!(f.visitors.len(), 1);
        assert_eq!(f.relayed_requests, 1);
    }

    #[test]
    fn denied_reply_removes_pending_entry() {
        let mut f = fa();
        f.relay_registration(&req("10.0.0.9", 2), SimTime::ZERO)
            .unwrap();
        let denial = RegistrationReply {
            mn_home: addr("10.0.0.9"),
            code: ReplyCode::DeniedUnknownHome,
            lifetime: SimDuration::ZERO,
            id: 2,
        };
        f.process_reply(&denial, SimTime::ZERO);
        assert_eq!(f.visitors.len(), 0);
    }

    #[test]
    fn mismatched_reply_id_ignored() {
        let mut f = fa();
        f.relay_registration(&req("10.0.0.9", 3), SimTime::ZERO)
            .unwrap();
        f.process_reply(&ok_reply("10.0.0.9", 999), SimTime::ZERO);
        // Still pending — stale reply must not activate the visitor.
        assert!(!has_visitor(&f, addr("10.0.0.9"), SimTime::ZERO));
        assert!(f.visitors[&addr("10.0.0.9")].pending_id.is_some());
    }

    #[test]
    fn visitor_expires() {
        let mut f = fa();
        f.relay_registration(&req("10.0.0.9", 4), SimTime::ZERO)
            .unwrap();
        f.process_reply(&ok_reply("10.0.0.9", 4), SimTime::ZERO);
        assert!(has_visitor(&f, addr("10.0.0.9"), SimTime::from_secs(99)));
        assert!(!has_visitor(&f, addr("10.0.0.9"), SimTime::from_secs(101)));
        let (v, _) = f.expire(SimTime::from_secs(101));
        assert_eq!(v, 1);
    }

    #[test]
    fn capacity_denial() {
        let mut f = fa();
        f.max_visitors = 1;
        f.relay_registration(&req("10.0.0.8", 5), SimTime::ZERO)
            .unwrap();
        let denied = f
            .relay_registration(&req("10.0.0.9", 6), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(denied.code, ReplyCode::DeniedFaBusy);
        // Re-registration of the same visitor is allowed at capacity.
        assert!(f
            .relay_registration(&req("10.0.0.8", 7), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn smooth_handoff_forwarding() {
        let mut f = fa();
        f.relay_registration(&req("10.0.0.9", 8), SimTime::ZERO)
            .unwrap();
        f.process_reply(&ok_reply("10.0.0.9", 8), SimTime::ZERO);
        // MN moves: binding update installs a forward.
        f.install_forward(addr("10.0.0.9"), addr("30.0.0.1"), SimTime::from_secs(10));
        assert!(!has_visitor(&f, addr("10.0.0.9"), SimTime::from_secs(10)));
        assert_eq!(
            f.forward_endpoint(addr("10.0.0.9"), SimTime::from_secs(11)),
            Some(addr("30.0.0.1"))
        );
        assert_eq!(f.forwarded_packets, 1);
        // Forward expires after its lifetime.
        assert_eq!(
            f.forward_endpoint(addr("10.0.0.9"), SimTime::from_secs(16)),
            None
        );
        // And the entry was garbage-collected by the failed lookup.
        assert_eq!(
            f.forward_endpoint(addr("10.0.0.9"), SimTime::from_secs(11)),
            None
        );
    }

    #[test]
    fn expire_cleans_forwards() {
        let mut f = fa();
        f.install_forward(addr("10.0.0.9"), addr("30.0.0.1"), SimTime::ZERO);
        let (_, fw) = f.expire(SimTime::from_secs(10));
        assert_eq!(fw, 1);
    }
}
