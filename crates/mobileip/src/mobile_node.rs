//! The mobile node's Mobile IP state machine: agent discovery, movement
//! detection, registration with retransmission.

use crate::messages::{AgentAdvertisement, RegistrationReply, RegistrationRequest};
use mtnet_net::Addr;
use mtnet_sim::{SimDuration, SimTime};

/// Registration state of a mobile node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnState {
    /// On the home link; no care-of address needed.
    Home,
    /// Heard no usable agent yet (or lost the old one).
    Searching,
    /// Sent a registration; awaiting the reply.
    Registering {
        /// Care-of address being registered.
        coa: Addr,
        /// Outstanding request id.
        id: u64,
        /// When the request was (last) sent.
        sent_at: SimTime,
        /// Retransmissions performed so far.
        attempts: u32,
    },
    /// Registration confirmed.
    Registered {
        /// Confirmed care-of address.
        coa: Addr,
        /// When the binding expires.
        expires_at: SimTime,
    },
}

/// What the protocol asks its driver to do after an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnAction {
    /// Nothing to transmit.
    None,
    /// Send this registration request toward the advertised agent.
    SendRequest(RegistrationRequest),
}

/// Mobile node protocol entity (paper §2.2.1 procedures, step 1).
///
/// Movement detection is advertisement-based: when an advertisement from a
/// *different* agent arrives, or the current agent's advertisements stop
/// (lifetime expiry), the node re-registers.
#[derive(Debug, Clone)]
pub struct MobileNode {
    home_addr: Addr,
    ha_addr: Addr,
    state: MnState,
    current_agent: Option<Addr>,
    next_id: u64,
    desired_lifetime: SimDuration,
    retransmit_timeout: SimDuration,
    max_attempts: u32,
}

impl MobileNode {
    /// Default requested registration lifetime.
    pub const DEFAULT_LIFETIME: SimDuration = SimDuration::from_secs(300);
    /// Initial retransmission timeout.
    pub const DEFAULT_RETRANSMIT: SimDuration = SimDuration::from_secs(1);
    /// Give up after this many attempts and fall back to `Searching`.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 5;

    /// Creates a node that considers itself at home.
    pub fn new(home_addr: Addr, ha_addr: Addr) -> Self {
        MobileNode {
            home_addr,
            ha_addr,
            state: MnState::Home,
            current_agent: None,
            next_id: 1,
            desired_lifetime: Self::DEFAULT_LIFETIME,
            retransmit_timeout: Self::DEFAULT_RETRANSMIT,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> MnState {
        self.state
    }

    fn make_request(&mut self, coa: Addr, now: SimTime) -> RegistrationRequest {
        let id = self.next_id;
        self.next_id += 1;
        self.state = MnState::Registering {
            coa,
            id,
            sent_at: now,
            attempts: 0,
        };
        RegistrationRequest {
            mn_home: self.home_addr,
            coa,
            ha: self.ha_addr,
            lifetime: self.desired_lifetime,
            id,
        }
    }

    /// Processes an agent advertisement heard on the current link
    /// (paper step 1(a) → 1(b)).
    pub fn on_advertisement(&mut self, adv: &AgentAdvertisement, now: SimTime) -> MnAction {
        let same_agent = self.current_agent == Some(adv.agent);
        match self.state {
            // New agent, or nothing registered: register via this agent.
            MnState::Home | MnState::Searching => {
                self.current_agent = Some(adv.agent);
                MnAction::SendRequest(self.make_request(adv.coa, now))
            }
            MnState::Registering { .. } if !same_agent => {
                // Moved mid-registration: restart with the new agent.
                self.current_agent = Some(adv.agent);
                MnAction::SendRequest(self.make_request(adv.coa, now))
            }
            MnState::Registered { coa, expires_at } => {
                if !same_agent {
                    // Movement detected: handoff to the new agent.
                    self.current_agent = Some(adv.agent);
                    MnAction::SendRequest(self.make_request(adv.coa, now))
                } else if expires_at.saturating_since(now) < self.desired_lifetime / 2 {
                    // Same agent, binding past half-life: refresh early so
                    // the binding never lapses (standard practice).
                    let _ = coa;
                    MnAction::SendRequest(self.make_request(adv.coa, now))
                } else {
                    MnAction::None
                }
            }
            MnState::Registering { .. } => MnAction::None,
        }
    }

    /// Processes a registration reply (paper step 1(c)).
    pub fn on_reply(&mut self, reply: &RegistrationReply, now: SimTime) -> MnAction {
        let MnState::Registering { coa, id, .. } = self.state else {
            return MnAction::None; // stale reply
        };
        if reply.id != id || reply.mn_home != self.home_addr {
            return MnAction::None;
        }
        if reply.accepted() {
            self.state = MnState::Registered {
                coa,
                expires_at: now + reply.lifetime,
            };
        } else {
            self.state = MnState::Searching;
            self.current_agent = None;
        }
        MnAction::None
    }

    /// Drives retransmission: call periodically. Re-sends the outstanding
    /// request after the timeout, falling back to `Searching` after
    /// `max_attempts`.
    pub fn poll_retransmit(&mut self, now: SimTime) -> MnAction {
        let MnState::Registering {
            coa,
            id,
            sent_at,
            attempts,
        } = self.state
        else {
            return MnAction::None;
        };
        if now.saturating_since(sent_at) < self.retransmit_timeout {
            return MnAction::None;
        }
        if attempts + 1 >= self.max_attempts {
            self.state = MnState::Searching;
            self.current_agent = None;
            return MnAction::None;
        }
        self.state = MnState::Registering {
            coa,
            id,
            sent_at: now,
            attempts: attempts + 1,
        };
        MnAction::SendRequest(RegistrationRequest {
            mn_home: self.home_addr,
            coa,
            ha: self.ha_addr,
            lifetime: self.desired_lifetime,
            id,
        })
    }

    /// Signals loss of the current link (e.g. left coverage): state drops
    /// to `Searching` so the next advertisement triggers registration.
    pub fn on_link_lost(&mut self) {
        self.state = MnState::Searching;
        self.current_agent = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ReplyCode;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// The confirmed care-of address, if registered and valid at `now`.
    fn coa(m: &MobileNode, now: SimTime) -> Option<Addr> {
        match m.state() {
            MnState::Registered { coa, expires_at } if now < expires_at => Some(coa),
            _ => None,
        }
    }

    fn mn() -> MobileNode {
        MobileNode::new(addr("10.0.0.9"), addr("10.0.0.1"))
    }

    fn adv(agent: &str) -> AgentAdvertisement {
        AgentAdvertisement {
            agent: addr(agent),
            coa: addr(agent),
        }
    }

    fn accept(req: &RegistrationRequest) -> RegistrationReply {
        RegistrationReply {
            mn_home: req.mn_home,
            code: ReplyCode::Accepted,
            lifetime: req.lifetime,
            id: req.id,
        }
    }

    #[test]
    fn full_registration_flow() {
        let mut m = mn();
        assert_eq!(m.state(), MnState::Home);
        let MnAction::SendRequest(req) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!("expected a registration request");
        };
        assert_eq!(req.coa, addr("20.0.0.1"));
        assert!(matches!(m.state(), MnState::Registering { .. }));
        m.on_reply(&accept(&req), SimTime::from_millis(40));
        assert_eq!(coa(&m, SimTime::from_secs(1)), Some(addr("20.0.0.1")));
    }

    #[test]
    fn movement_detection_triggers_handoff() {
        let mut m = mn();
        let MnAction::SendRequest(r1) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        m.on_reply(&accept(&r1), SimTime::from_millis(40));
        // New agent appears → re-register.
        let MnAction::SendRequest(r2) =
            m.on_advertisement(&adv("30.0.0.1"), SimTime::from_secs(10))
        else {
            panic!("handoff should trigger registration");
        };
        assert_eq!(r2.coa, addr("30.0.0.1"));
        m.on_reply(&accept(&r2), SimTime::from_secs(10));
        assert_eq!(coa(&m, SimTime::from_secs(11)), Some(addr("30.0.0.1")));
    }

    #[test]
    fn same_agent_advertisement_is_quiet_when_fresh() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        m.on_reply(&accept(&r), SimTime::ZERO);
        assert_eq!(
            m.on_advertisement(&adv("20.0.0.1"), SimTime::from_secs(1)),
            MnAction::None
        );
    }

    #[test]
    fn binding_refresh_past_half_life() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        m.on_reply(&accept(&r), SimTime::ZERO); // expires at 300 s
        let act = m.on_advertisement(&adv("20.0.0.1"), SimTime::from_secs(200));
        assert!(
            matches!(act, MnAction::SendRequest(_)),
            "should refresh at t=200 of 300"
        );
    }

    #[test]
    fn denial_returns_to_searching() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        let denial = RegistrationReply {
            mn_home: r.mn_home,
            code: ReplyCode::DeniedFaBusy,
            lifetime: SimDuration::ZERO,
            id: r.id,
        };
        m.on_reply(&denial, SimTime::from_millis(40));
        assert_eq!(m.state(), MnState::Searching);
        assert_eq!(coa(&m, SimTime::from_secs(1)), None);
    }

    #[test]
    fn stale_reply_ignored() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        let mut stale = accept(&r);
        stale.id = 9999;
        assert_eq!(m.on_reply(&stale, SimTime::ZERO), MnAction::None);
        assert!(matches!(m.state(), MnState::Registering { .. }));
    }

    #[test]
    fn retransmission_then_give_up() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        let mut sends = 1;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_secs(2);
            if let MnAction::SendRequest(rr) = m.poll_retransmit(t) {
                assert_eq!(rr.id, r.id, "retransmission reuses the id");
                sends += 1;
            }
        }
        assert_eq!(sends, MobileNode::DEFAULT_MAX_ATTEMPTS - 1 + 1);
        assert_eq!(m.state(), MnState::Searching, "gave up eventually");
    }

    #[test]
    fn no_retransmit_before_timeout() {
        let mut m = mn();
        let _ = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO);
        assert_eq!(m.poll_retransmit(SimTime::from_millis(500)), MnAction::None);
    }

    #[test]
    fn coa_expires() {
        let mut m = mn();
        m.desired_lifetime = SimDuration::from_secs(10);
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        m.on_reply(&accept(&r), SimTime::ZERO);
        assert!(coa(&m, SimTime::from_secs(9)).is_some());
        assert!(coa(&m, SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn link_lost_resets() {
        let mut m = mn();
        let MnAction::SendRequest(r) = m.on_advertisement(&adv("20.0.0.1"), SimTime::ZERO) else {
            panic!()
        };
        m.on_reply(&accept(&r), SimTime::ZERO);
        m.on_link_lost();
        assert_eq!(m.state(), MnState::Searching);
        // Re-hearing the same agent re-registers.
        assert!(matches!(
            m.on_advertisement(&adv("20.0.0.1"), SimTime::from_secs(1)),
            MnAction::SendRequest(_)
        ));
    }
}
