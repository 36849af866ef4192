//! The Home Agent: binding cache and tunnel decisions.

use crate::messages::{RegistrationReply, RegistrationRequest, ReplyCode};
use mtnet_net::{Addr, Prefix};
use mtnet_sim::FxHashMap;
use mtnet_sim::{SimDuration, SimTime};

/// One mobility binding: home address → care-of address, with lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Binding {
    /// Registered care-of address.
    coa: Addr,
    /// When the binding was (re-)registered.
    registered_at: SimTime,
    /// Granted lifetime.
    lifetime: SimDuration,
}

impl Binding {
    /// True if the binding is still valid at `now`.
    fn is_valid(&self, now: SimTime) -> bool {
        now.saturating_since(self.registered_at) < self.lifetime
    }
}

/// A Home Agent (paper §2.2.1): a router on the mobile node's home link
/// that tracks each MN's current care-of address and tunnels intercepted
/// packets there.
#[derive(Debug, Clone)]
pub struct HomeAgent {
    addr: Addr,
    home_prefix: Prefix,
    bindings: FxHashMap<Addr, Binding>,
}

impl HomeAgent {
    /// Maximum registration lifetime granted (RFC default scale).
    pub const MAX_LIFETIME: SimDuration = SimDuration::from_secs(300);

    /// Creates a home agent at `addr` serving `home_prefix`.
    pub fn new(addr: Addr, home_prefix: Prefix) -> Self {
        HomeAgent {
            addr,
            home_prefix,
            bindings: FxHashMap::default(),
        }
    }

    /// This agent's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Processes a registration request, updating the binding cache.
    ///
    /// Deregistrations (lifetime 0) remove the binding. Requests for
    /// addresses outside the home prefix are denied. Lifetimes are clamped
    /// to the agent maximum (the reply carries the granted value, which is
    /// how the RFC signals clamping).
    pub fn process_registration(
        &mut self,
        req: &RegistrationRequest,
        now: SimTime,
    ) -> RegistrationReply {
        if !self.home_prefix.contains(req.mn_home) {
            return RegistrationReply {
                mn_home: req.mn_home,
                code: ReplyCode::DeniedUnknownHome,
                lifetime: SimDuration::ZERO,
                id: req.id,
            };
        }
        if req.is_deregistration() {
            self.bindings.remove(&req.mn_home);
            return RegistrationReply {
                mn_home: req.mn_home,
                code: ReplyCode::Accepted,
                lifetime: SimDuration::ZERO,
                id: req.id,
            };
        }
        let granted = req.lifetime.min(Self::MAX_LIFETIME);
        self.bindings.insert(
            req.mn_home,
            Binding {
                coa: req.coa,
                registered_at: now,
                lifetime: granted,
            },
        );
        RegistrationReply {
            mn_home: req.mn_home,
            code: ReplyCode::Accepted,
            lifetime: granted,
            id: req.id,
        }
    }

    /// If the HA should intercept a packet for `dst` at `now`, returns the
    /// care-of address to tunnel it to. `None` means "the MN is home (or
    /// unknown) — deliver normally".
    pub fn tunnel_endpoint(&self, dst: Addr, now: SimTime) -> Option<Addr> {
        self.bindings
            .get(&dst)
            .filter(|b| b.is_valid(now))
            .map(|b| b.coa)
    }

    /// Removes bindings that expired before `now`. Returns how many were
    /// evicted.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.bindings.len();
        self.bindings.retain(|_, b| b.is_valid(now));
        before - self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn ha() -> HomeAgent {
        HomeAgent::new(addr("10.0.0.1"), "10.0.0.0/16".parse().unwrap())
    }

    fn request(home: &str, coa: &str, lifetime_secs: u64, id: u64) -> RegistrationRequest {
        RegistrationRequest {
            mn_home: addr(home),
            coa: addr(coa),
            ha: addr("10.0.0.1"),
            lifetime: SimDuration::from_secs(lifetime_secs),
            id,
        }
    }

    #[test]
    fn accepts_and_tunnels() {
        let mut h = ha();
        let reply = h.process_registration(&request("10.0.0.9", "20.0.0.1", 100, 1), SimTime::ZERO);
        assert!(reply.accepted());
        assert_eq!(reply.id, 1);
        assert_eq!(
            h.tunnel_endpoint(addr("10.0.0.9"), SimTime::from_secs(50)),
            Some(addr("20.0.0.1"))
        );
        // Other home addresses are not intercepted.
        assert_eq!(h.tunnel_endpoint(addr("10.0.0.10"), SimTime::ZERO), None);
    }

    #[test]
    fn denies_foreign_home_address() {
        let mut h = ha();
        let reply = h.process_registration(&request("99.0.0.1", "20.0.0.1", 100, 2), SimTime::ZERO);
        assert_eq!(reply.code, ReplyCode::DeniedUnknownHome);
        assert_eq!(h.bindings.len(), 0);
    }

    #[test]
    fn lifetime_clamped_to_max() {
        let mut h = ha();
        let reply =
            h.process_registration(&request("10.0.0.9", "20.0.0.1", 10_000, 3), SimTime::ZERO);
        assert!(reply.accepted());
        assert_eq!(reply.lifetime, HomeAgent::MAX_LIFETIME);
        // Binding honors the clamped lifetime.
        assert_eq!(
            h.tunnel_endpoint(addr("10.0.0.9"), SimTime::from_secs(301)),
            None
        );
    }

    #[test]
    fn binding_expires() {
        let mut h = ha();
        h.process_registration(&request("10.0.0.9", "20.0.0.1", 100, 4), SimTime::ZERO);
        assert!(h
            .tunnel_endpoint(addr("10.0.0.9"), SimTime::from_secs(99))
            .is_some());
        assert!(h
            .tunnel_endpoint(addr("10.0.0.9"), SimTime::from_secs(100))
            .is_none());
        assert_eq!(h.expire(SimTime::from_secs(100)), 1);
        assert_eq!(h.bindings.len(), 0);
    }

    #[test]
    fn reregistration_replaces_coa() {
        let mut h = ha();
        h.process_registration(&request("10.0.0.9", "20.0.0.1", 100, 5), SimTime::ZERO);
        h.process_registration(
            &request("10.0.0.9", "30.0.0.1", 100, 6),
            SimTime::from_secs(10),
        );
        assert_eq!(
            h.tunnel_endpoint(addr("10.0.0.9"), SimTime::from_secs(50)),
            Some(addr("30.0.0.1"))
        );
        assert_eq!(h.bindings.len(), 1);
    }

    #[test]
    fn deregistration_removes_binding() {
        let mut h = ha();
        h.process_registration(&request("10.0.0.9", "20.0.0.1", 100, 7), SimTime::ZERO);
        let dereg = request("10.0.0.9", "10.0.0.9", 0, 8);
        let reply = h.process_registration(&dereg, SimTime::from_secs(1));
        assert!(reply.accepted());
        assert_eq!(h.bindings.len(), 0);
    }

    #[test]
    fn accessors() {
        let h = ha();
        assert_eq!(h.addr(), addr("10.0.0.1"));
        assert!(h.home_prefix.contains(addr("10.0.255.255")));
        assert_eq!(h.bindings.len(), 0);
    }
}
