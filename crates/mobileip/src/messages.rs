//! Mobile IP control messages.

use mtnet_net::Addr;
use mtnet_sim::SimDuration;

/// Agent advertisement, periodically broadcast by a foreign (or home)
/// agent on its link (RFC 3344 §2.1; paper step 1(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentAdvertisement {
    /// The advertising agent's address.
    pub agent: Addr,
    /// The care-of address offered (FA-CoA mode: the FA's own address).
    pub coa: Addr,
}

/// Registration request MN → (FA) → HA (paper step 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrationRequest {
    /// The mobile node's permanent home address.
    pub mn_home: Addr,
    /// Requested care-of address.
    pub coa: Addr,
    /// The home agent the request is for.
    pub ha: Addr,
    /// Requested lifetime.
    pub lifetime: SimDuration,
    /// Identification field matching replies to requests (and replay
    /// protection in the RFC).
    pub id: u64,
}

impl RegistrationRequest {
    /// Wire size in bytes (UDP registration request).
    pub const SIZE_BYTES: u32 = 60;

    /// True if this request tears the binding down.
    pub fn is_deregistration(&self) -> bool {
        self.lifetime.is_zero()
    }
}

/// Reply codes (subset of RFC 3344 §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyCode {
    /// Registration accepted.
    Accepted,
    /// Denied by the home agent: unknown mobile node.
    DeniedUnknownHome,
    /// Denied by the foreign agent: visitor table full.
    DeniedFaBusy,
}

/// Registration reply HA → (FA) → MN (paper step 1(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrationReply {
    /// The mobile node this reply concerns.
    pub mn_home: Addr,
    /// Result code.
    pub code: ReplyCode,
    /// Granted lifetime (zero on denial or deregistration).
    pub lifetime: SimDuration,
    /// Echoed identification field.
    pub id: u64,
}

impl RegistrationReply {
    /// Wire size in bytes.
    pub const SIZE_BYTES: u32 = 44;

    /// True if the registration was accepted.
    pub fn accepted(&self) -> bool {
        self.code == ReplyCode::Accepted
    }
}

/// All Mobile IP control messages, as carried in simulation packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipMessage {
    /// Registration request (MN→FA or FA→HA leg).
    Request(RegistrationRequest),
    /// Registration reply (HA→FA or FA→MN leg).
    Reply(RegistrationReply),
}

impl MipMessage {
    /// Wire size of the message payload in bytes.
    pub fn size_bytes(&self) -> u32 {
        match self {
            MipMessage::Request(_) => RegistrationRequest::SIZE_BYTES,
            MipMessage::Reply(_) => RegistrationReply::SIZE_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn deregistration_has_zero_lifetime() {
        let home = addr("10.0.0.5");
        let r = RegistrationRequest {
            mn_home: home,
            coa: home,
            ha: addr("10.0.0.1"),
            lifetime: SimDuration::ZERO,
            id: 7,
        };
        assert!(r.is_deregistration());
        let r = RegistrationRequest {
            lifetime: SimDuration::from_secs(1),
            ..r
        };
        assert!(!r.is_deregistration());
    }

    #[test]
    fn reply_accepted_flag() {
        let ok = RegistrationReply {
            mn_home: addr("1.1.1.1"),
            code: ReplyCode::Accepted,
            lifetime: SimDuration::from_secs(10),
            id: 1,
        };
        assert!(ok.accepted());
        let denied = RegistrationReply {
            code: ReplyCode::DeniedUnknownHome,
            ..ok
        };
        assert!(!denied.accepted());
    }

    #[test]
    fn sizes_are_positive_and_distinct_enough() {
        let req = MipMessage::Request(RegistrationRequest {
            mn_home: addr("1.1.1.2"),
            coa: addr("1.1.1.2"),
            ha: addr("1.1.1.1"),
            lifetime: SimDuration::ZERO,
            id: 0,
        });
        assert!(req.size_bytes() > 0);
    }
}
