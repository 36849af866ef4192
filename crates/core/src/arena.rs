//! Generational packet arena: allocation-free packet lifecycles for the
//! simulation hot path.
//!
//! Every packet in flight used to be a `Box<Packet<Payload>>` — one heap
//! allocation at the source, one free at the sink, plus an inner
//! allocation whenever the encapsulation stack first grew. At tens of
//! millions of packets per experiment suite that is pure allocator
//! churn. The arena replaces the box with a slab slot addressed by a
//! small `Copy` handle ([`PacketRef`]): events carry the 8-byte handle,
//! packet construction recycles a retired slot **in place** (the
//! encapsulation `Vec`'s capacity included), and freeing is pushing an
//! index onto a free list.
//!
//! Handles are *generational*: each slot carries a generation counter
//! bumped on free, and a handle is only valid while its generation
//! matches. A stale handle — one kept across its packet's release — is a
//! logic bug and panics on access rather than silently aliasing whatever
//! packet reused the slot.

use crate::messages::Payload;
use mtnet_net::{Addr, FlowId, Packet, PacketId};
use mtnet_sim::SimTime;

/// Handle to a live packet in a [`PacketArena`]. 8 bytes, `Copy` — this
/// is what simulation events carry instead of a `Box<Packet>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    index: u32,
    generation: u32,
}

/// A slot's packet is 112 bytes on 64-bit targets. A field that grows
/// every slot of every world's arena must move this number on purpose.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Packet<Payload>>() == 112);

/// Slab of packets with generational handles. See the module docs.
#[derive(Debug, Default)]
pub struct PacketArena {
    /// Slot storage: the generation guards validity; the packet value in
    /// a free slot is retired garbage awaiting in-place reuse.
    slots: Vec<(u32, Packet<Payload>)>,
    /// Indices of free slots (LIFO: the most recently freed slot — and
    /// its cache lines and encap capacity — is reused first).
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Number of live (allocated, not yet freed) packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Allocates a packet, reusing a retired slot (and its encapsulation
    /// stack's capacity) when one is available.
    #[allow(clippy::too_many_arguments)] // mirrors Packet::new field-for-field
    pub fn alloc(
        &mut self,
        id: PacketId,
        flow: FlowId,
        seq: u64,
        src: Addr,
        dst: Addr,
        payload_bytes: u32,
        created_at: SimTime,
        payload: Payload,
    ) -> PacketRef {
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                let (generation, pkt) = &mut self.slots[index as usize];
                pkt.id = id;
                pkt.flow = flow;
                pkt.seq = seq;
                pkt.src = src;
                pkt.dst = dst;
                pkt.payload_bytes = payload_bytes;
                pkt.created_at = created_at;
                pkt.encap.clear(); // keeps capacity: no realloc next tunnel
                pkt.payload = payload;
                PacketRef {
                    index,
                    generation: *generation,
                }
            }
            None => {
                let index =
                    u32::try_from(self.slots.len()).expect("fewer than 2^32 packets in flight");
                self.slots.push((
                    0,
                    Packet::new(id, flow, seq, src, dst, payload_bytes, created_at, payload),
                ));
                PacketRef {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Allocates a copy of a live packet (semisoft bicast duplicates).
    pub fn duplicate(&mut self, r: PacketRef) -> PacketRef {
        let src = self.get(r).clone();
        let copy = self.alloc(
            src.id,
            src.flow,
            src.seq,
            src.src,
            src.dst,
            src.payload_bytes,
            src.created_at,
            src.payload,
        );
        let (_, pkt) = &mut self.slots[copy.index as usize];
        pkt.encap.extend_from_slice(&src.encap);
        copy
    }

    /// Shared access to a live packet.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (its packet was already freed).
    pub fn get(&self, r: PacketRef) -> &Packet<Payload> {
        let (generation, pkt) = &self.slots[r.index as usize];
        assert_eq!(*generation, r.generation, "stale PacketRef {r:?}");
        pkt
    }

    /// Exclusive access to a live packet (tunnel push/pop).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet<Payload> {
        let (generation, pkt) = &mut self.slots[r.index as usize];
        assert_eq!(*generation, r.generation, "stale PacketRef {r:?}");
        pkt
    }

    /// Removes a live packet by value, retiring its slot exactly as
    /// [`PacketArena::free`] does. Used when a packet leaves this arena
    /// entirely (cross-shard handoff) rather than ending its life here.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn take(&mut self, r: PacketRef) -> Packet<Payload> {
        let packet = self.get(r).clone();
        self.free(r);
        packet
    }

    /// Moves a whole packet into the arena: like [`PacketArena::alloc`]
    /// but preserving the packet's id and encapsulation stack
    /// verbatim. The counterpart of [`PacketArena::take`] on the
    /// receiving side of a cross-shard handoff.
    pub fn insert(&mut self, packet: Packet<Payload>) -> PacketRef {
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                let (generation, slot) = &mut self.slots[index as usize];
                *slot = packet;
                PacketRef {
                    index,
                    generation: *generation,
                }
            }
            None => {
                let index =
                    u32::try_from(self.slots.len()).expect("fewer than 2^32 packets in flight");
                self.slots.push((0, packet));
                PacketRef {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Releases a packet: its slot (encap capacity included) becomes
    /// reusable and every outstanding handle to it goes stale.
    ///
    /// # Panics
    ///
    /// Panics if the handle is already stale (double free).
    pub fn free(&mut self, r: PacketRef) {
        let (generation, _) = &mut self.slots[r.index as usize];
        assert_eq!(*generation, r.generation, "double free of {r:?}");
        *generation = generation.wrapping_add(1);
        self.free.push(r.index);
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u8) -> Addr {
        Addr::from_octets(10, 0, 0, i)
    }

    fn arena_with_one() -> (PacketArena, PacketRef) {
        let mut arena = PacketArena::new();
        let r = arena.alloc(
            PacketId(1),
            FlowId(2),
            3,
            addr(1),
            addr(2),
            1000,
            SimTime::from_secs(1),
            Payload::Data,
        );
        (arena, r)
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let (mut arena, r) = arena_with_one();
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.get(r).id, PacketId(1));
        assert_eq!(arena.get(r).payload_bytes, 1000);
        arena.free(r);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn slot_reuse_keeps_encap_capacity_but_not_content() {
        let (mut arena, r) = arena_with_one();
        arena
            .get_mut(r)
            .encapsulate(addr(3), addr(4), mtnet_net::TunnelKind::HomeAgent);
        let cap = arena.get(r).encap.capacity();
        assert!(cap >= 1);
        arena.free(r);
        let r2 = arena.alloc(
            PacketId(9),
            FlowId(9),
            9,
            addr(5),
            addr(6),
            64,
            SimTime::ZERO,
            Payload::Data,
        );
        assert_eq!(r2.index, r.index, "slot recycled");
        let p = arena.get(r2);
        assert!(p.encap.is_empty(), "no stale tunnel headers");
        assert_eq!(p.encap.capacity(), cap, "capacity survived the recycle");
        assert_eq!(p.id, PacketId(9));
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_handle_is_caught() {
        let (mut arena, r) = arena_with_one();
        arena.free(r);
        let _r2 = arena.alloc(
            PacketId(2),
            FlowId(2),
            0,
            addr(1),
            addr(2),
            10,
            SimTime::ZERO,
            Payload::Data,
        );
        let _ = arena.get(r); // r's generation is gone
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught() {
        let (mut arena, r) = arena_with_one();
        arena.free(r);
        arena.free(r);
    }

    #[test]
    fn duplicate_copies_headers_and_tunnels() {
        let (mut arena, r) = arena_with_one();
        arena
            .get_mut(r)
            .encapsulate(addr(7), addr(8), mtnet_net::TunnelKind::Rsmc);
        let d = arena.duplicate(r);
        assert_ne!(d, r);
        assert_eq!(arena.get(d).id, arena.get(r).id);
        assert_eq!(arena.get(d).encap, arena.get(r).encap);
        assert_eq!(arena.live(), 2);
        // The two are independent.
        arena.get_mut(d).decapsulate();
        assert_eq!(arena.get(r).encap.len(), 1);
    }

    #[test]
    fn take_then_insert_is_a_faithful_transfer() {
        let (mut src, r) = arena_with_one();
        src.get_mut(r)
            .encapsulate(addr(3), addr(4), mtnet_net::TunnelKind::HomeAgent);
        let packet = src.take(r);
        assert_eq!(src.live(), 0);

        let mut dst = PacketArena::new();
        let r2 = dst.insert(packet);
        assert_eq!(dst.live(), 1);
        let p = dst.get(r2);
        assert_eq!(p.id, PacketId(1));
        assert_eq!(p.encap.len(), 1);
        assert_eq!(p.payload_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn take_retires_the_handle() {
        let (mut arena, r) = arena_with_one();
        let _ = arena.take(r);
        let _ = arena.get(r);
    }

    #[test]
    fn distinct_generations_per_slot_lifetime() {
        let (mut arena, r) = arena_with_one();
        arena.free(r);
        let r2 = arena.alloc(
            PacketId(2),
            FlowId(0),
            0,
            addr(1),
            addr(2),
            1,
            SimTime::ZERO,
            Payload::Data,
        );
        assert_eq!(r.index, r2.index);
        assert_ne!(r.generation, r2.generation);
    }
}
