//! Integration: the three Mobile IP entities (MN, FA, HA) driven together
//! through complete protocol exchanges — no simulator, pure message
//! passing, verifying the state machines compose (paper §2.2.1, Fig 2.2).

use mtnet_mobileip::{
    AgentAdvertisement, ForeignAgent, HomeAgent, MnAction, MnState, MobileNode, RegistrationRequest,
};
use mtnet_net::{Addr, Prefix};
use mtnet_sim::{SimDuration, SimTime};

fn addr(s: &str) -> Addr {
    s.parse().unwrap()
}

/// The advertisement a node hears from `fa`: the agent offers its own
/// address as care-of address.
fn advertisement(fa: &ForeignAgent) -> AgentAdvertisement {
    AgentAdvertisement {
        agent: fa.addr(),
        coa: fa.addr(),
    }
}

/// The node's confirmed care-of address, if registered and valid at `now`.
fn coa(mn: &MobileNode, now: SimTime) -> Option<Addr> {
    match mn.state() {
        MnState::Registered { coa, expires_at } if now < expires_at => Some(coa),
        _ => None,
    }
}

/// Confirmed visitors of `fa` that are active at `now`: `expire` keeps
/// them at `now`, and evicts every confirmed visitor once all lifetimes
/// have run out (pending ones stay).
fn active_visitors(fa: &ForeignAgent, now: SimTime) -> usize {
    let mut fa = fa.clone();
    fa.expire(now);
    fa.expire(SimTime::from_nanos(u64::MAX)).0
}

struct Setup {
    ha: HomeAgent,
    fa1: ForeignAgent,
    fa2: ForeignAgent,
    mn: MobileNode,
}

fn setup() -> Setup {
    let home_prefix: Prefix = "10.0.0.0/16".parse().unwrap();
    Setup {
        ha: HomeAgent::new(addr("10.0.0.1"), home_prefix),
        fa1: ForeignAgent::new(addr("20.0.0.1")),
        fa2: ForeignAgent::new(addr("20.1.0.1")),
        mn: MobileNode::new(addr("10.0.2.9"), addr("10.0.0.1")),
    }
}

/// Runs one complete registration through FA → HA → FA → MN.
fn register_via(s: &mut Setup, which: u8, now: SimTime) -> mtnet_mobileip::RegistrationReply {
    let adv = advertisement(if which == 1 { &s.fa1 } else { &s.fa2 });
    let MnAction::SendRequest(req) = s.mn.on_advertisement(&adv, now) else {
        panic!("MN must register after hearing a new agent");
    };
    let fa = if which == 1 { &mut s.fa1 } else { &mut s.fa2 };
    let relayed = fa.relay_registration(&req, now).expect("FA relays");
    let reply = s.ha.process_registration(&relayed, now);
    let reply = fa.process_reply(&reply, now);
    s.mn.on_reply(&reply, now);
    reply
}

#[test]
fn full_registration_cycle() {
    let mut s = setup();
    let reply = register_via(&mut s, 1, SimTime::ZERO);
    assert!(reply.accepted());
    // All three parties agree on the binding.
    assert_eq!(coa(&s.mn, SimTime::from_secs(1)), Some(addr("20.0.0.1")));
    assert_eq!(active_visitors(&s.fa1, SimTime::from_secs(1)), 1);
    assert_eq!(
        s.ha.tunnel_endpoint(addr("10.0.2.9"), SimTime::from_secs(1)),
        Some(addr("20.0.0.1"))
    );
}

#[test]
fn movement_between_agents_rebinds() {
    let mut s = setup();
    register_via(&mut s, 1, SimTime::ZERO);
    // The node moves into FA2's link.
    register_via(&mut s, 2, SimTime::from_secs(10));
    assert_eq!(coa(&s.mn, SimTime::from_secs(11)), Some(addr("20.1.0.1")));
    assert_eq!(
        s.ha.tunnel_endpoint(addr("10.0.2.9"), SimTime::from_secs(11)),
        Some(addr("20.1.0.1")),
        "HA follows the node"
    );
    // Smooth handoff: FA1 learns where the node went and forwards.
    s.fa1
        .install_forward(addr("10.0.2.9"), addr("20.1.0.1"), SimTime::from_secs(10));
    assert_eq!(
        s.fa1
            .forward_endpoint(addr("10.0.2.9"), SimTime::from_secs(11)),
        Some(addr("20.1.0.1"))
    );
}

#[test]
fn tunnel_packet_walkthrough_fig22() {
    // Step 2(a) of the paper: host → HA (intercept) → tunnel → FA
    // (detunnel) → MN.
    let mut s = setup();
    register_via(&mut s, 1, SimTime::ZERO);
    let t = SimTime::from_secs(2);
    let mn_home = addr("10.0.2.9");

    // CN packet arrives at the home network.
    let mut pkt = mtnet_net::Packet::new(
        mtnet_net::PacketId(1),
        mtnet_net::FlowId(1),
        0,
        addr("30.0.0.2"),
        mn_home,
        512,
        t,
        (),
    );
    // HA intercepts and encapsulates.
    let coa = s.ha.tunnel_endpoint(mn_home, t).expect("bound");
    pkt.encapsulate(s.ha.addr(), coa, mtnet_net::TunnelKind::HomeAgent);
    assert_eq!(pkt.routing_dst(), addr("20.0.0.1"), "routed to the CoA");

    // FA detunnels and checks its visitor list.
    let header = pkt.decapsulate().expect("tunnel header present");
    assert_eq!(header.kind, mtnet_net::TunnelKind::HomeAgent);
    assert_eq!(pkt.routing_dst(), mn_home, "inner destination restored");
    assert_eq!(active_visitors(&s.fa1, t), 1, "FA delivers on its link");
}

#[test]
fn registration_expiry_forces_reregistration() {
    let mut s = setup();
    register_via(&mut s, 1, SimTime::ZERO);
    let end = SimTime::ZERO + MobileNode::DEFAULT_LIFETIME;
    let second = SimDuration::from_secs(1);
    assert!(coa(&s.mn, end - second).is_some());
    assert!(coa(&s.mn, end + second).is_none(), "binding lapsed");
    // The next advertisement from the same agent re-registers.
    let adv = advertisement(&s.fa1);
    let action = s.mn.on_advertisement(&adv, end + second);
    assert!(matches!(action, MnAction::SendRequest(_)));
}

#[test]
fn deregistration_at_home() {
    let mut s = setup();
    register_via(&mut s, 1, SimTime::ZERO);
    let dereg = RegistrationRequest {
        mn_home: addr("10.0.2.9"),
        coa: addr("10.0.2.9"),
        ha: addr("10.0.0.1"),
        lifetime: SimDuration::ZERO,
        id: 99,
    };
    let reply = s.ha.process_registration(&dereg, SimTime::from_secs(5));
    assert!(reply.accepted());
    assert_eq!(
        s.ha.tunnel_endpoint(addr("10.0.2.9"), SimTime::from_secs(6)),
        None,
        "home again: no interception"
    );
}

#[test]
fn fa_capacity_denial_propagates_to_mn() {
    let mut s = setup();
    // Every slot holds a pending registration of some other node.
    for id in 0..ForeignAgent::DEFAULT_MAX_VISITORS as u32 {
        let other = RegistrationRequest {
            mn_home: Addr(0x0b00_0000 + id),
            coa: s.fa1.addr(),
            ha: addr("10.0.0.1"),
            lifetime: SimDuration::from_secs(300),
            id: u64::from(id),
        };
        s.fa1
            .relay_registration(&other, SimTime::ZERO)
            .expect("room left");
    }
    let adv = advertisement(&s.fa1);
    let MnAction::SendRequest(req) = s.mn.on_advertisement(&adv, SimTime::ZERO) else {
        panic!()
    };
    let denial = s.fa1.relay_registration(&req, SimTime::ZERO).unwrap_err();
    s.mn.on_reply(&denial, SimTime::ZERO);
    assert_eq!(s.mn.state(), MnState::Searching, "MN backs off to search");
}

#[test]
fn concurrent_visitors_do_not_interfere() {
    let mut s = setup();
    let mut mn2 = MobileNode::new(addr("10.0.2.10"), addr("10.0.0.1"));
    register_via(&mut s, 1, SimTime::ZERO);

    let adv = advertisement(&s.fa1);
    let MnAction::SendRequest(req2) = mn2.on_advertisement(&adv, SimTime::ZERO) else {
        panic!()
    };
    let relayed = s.fa1.relay_registration(&req2, SimTime::ZERO).unwrap();
    let reply = s.ha.process_registration(&relayed, SimTime::ZERO);
    let reply = s.fa1.process_reply(&reply, SimTime::ZERO);
    mn2.on_reply(&reply, SimTime::ZERO);

    let t = SimTime::from_secs(1);
    assert_eq!(active_visitors(&s.fa1, t), 2);
    for mn in ["10.0.2.9", "10.0.2.10"] {
        assert_eq!(s.ha.tunnel_endpoint(addr(mn), t), Some(addr("20.0.0.1")));
    }
}
