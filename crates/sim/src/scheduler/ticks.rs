//! A lane's storage: a FIFO of 16-byte ticks in fixed blocks of
//! [`BLOCK`] ticks (16 KiB), so a lane of any length grows, shrinks and
//! is freed a block at a time rather than as one buffer the size of the
//! timer population.
//!
//! Blocks rather than one `VecDeque`: a metro lane holds 200 000 ticks.
//! With one 4.8 MB buffer per lane, allocated at launch and freed at
//! the end of the run, glibc coalesced the whole freed world into the
//! heap's top chunk at teardown and trimmed it, so the next world built
//! in the same process faulted its ≈ 27 MB in afresh: the benchmark's
//! `metro_idle` `setup_s` read 31.6 ms against the calendar's 19.1 ms
//! (10 of 10 interleaved pairs). Launch-time blocks are many small
//! allocations, as the calendar's buckets were, and the heap is reused.
//! For the same reason the one sort, at the seal, works inside the
//! blocks: no buffer it allocates is larger than one block.
//!
//! A block stores each tick's `seq` as a `u32` offset from the block's
//! own base. A push whose offset would not fit is handed back to the
//! caller; an emptied lane rebases its block at the next push.

use crate::time::SimTime;
use std::collections::VecDeque;

/// One pending firing of a lane's timer, as reads return it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tick {
    pub(super) time: SimTime,
    pub(super) seq: u64,
    pub(super) id: u32,
}

impl Tick {
    pub(super) fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A tick as a block stores it: `seq` less the block's base. 16 bytes
/// where a calendar entry is 40.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    time: SimTime,
    seq_off: u32,
    id: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    /// Orders the slots of one block, or of blocks sharing a base, as
    /// [`Tick::key`] orders their ticks.
    fn key(&self) -> (SimTime, u32) {
        (self.time, self.seq_off)
    }
}

/// Ticks per block.
const BLOCK: usize = 1024;

type Slots = Box<[Slot; BLOCK]>;

#[derive(Debug)]
struct Block {
    /// Every slot's `seq` is `base + seq_off`.
    base: u64,
    slots: Slots,
}

fn new_slots() -> Slots {
    Box::new([Slot::default(); BLOCK])
}

/// FIFO of ticks: `len` live ticks starting at `head` in the first block.
#[derive(Debug, Default)]
pub(super) struct Ticks {
    blocks: VecDeque<Block>,
    head: usize,
    len: usize,
}

impl Ticks {
    fn get(&self, i: usize) -> Tick {
        let at = self.head + i;
        let block = &self.blocks[at / BLOCK];
        let slot = block.slots[at % BLOCK];
        Tick {
            time: slot.time,
            seq: block.base + u64::from(slot.seq_off),
            id: slot.id,
        }
    }

    pub(super) fn front(&self) -> Option<Tick> {
        (self.len > 0).then(|| self.get(0))
    }

    pub(super) fn back(&self) -> Option<Tick> {
        self.len.checked_sub(1).map(|last| self.get(last))
    }

    /// Appends `tick`, or hands it back if its `seq` is 2³² or more past
    /// the base of the block it would land in. Ticks arrive in `seq`
    /// order, so a block's base is its first tick's `seq`, and an empty
    /// lane always takes the tick.
    pub(super) fn push_back(&mut self, tick: Tick) -> Result<(), Tick> {
        let at = self.head + self.len;
        if at == self.blocks.len() * BLOCK {
            self.blocks.push_back(Block {
                base: tick.seq,
                slots: new_slots(),
            });
        } else if self.len == 0 {
            // Empty: the one block left starts over at this seq.
            self.blocks[0].base = tick.seq;
        }
        let block = &mut self.blocks[at / BLOCK];
        let Ok(seq_off) = u32::try_from(tick.seq - block.base) else {
            return Err(tick);
        };
        block.slots[at % BLOCK] = Slot {
            time: tick.time,
            seq_off,
            id: tick.id,
        };
        self.len += 1;
        Ok(())
    }

    pub(super) fn pop_front(&mut self) -> Option<Tick> {
        let tick = self.front()?;
        self.head += 1;
        self.len -= 1;
        if self.head == BLOCK {
            self.blocks.pop_front();
            self.head = 0;
        } else if self.len == 0 {
            // Empty: the one block left starts over.
            self.head = 0;
        }
        Some(tick)
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = Tick> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Puts the ticks in `(time, seq)` order, before the first pop.
    ///
    /// Every block is rebased to the lowest `seq` (the front block's:
    /// ticks were pushed in `seq` order) and sorted in place, then runs
    /// of blocks are merged pairwise, bottom-up. A merge writes into
    /// blocks its inputs have already given up, so beyond the lane's own
    /// blocks the sort holds at most two, and allocates nothing larger
    /// than a block.
    pub(super) fn sort(&mut self) {
        assert_eq!(self.head, 0, "a lane is sorted before its first pop");
        let (Some(front), Some(back)) = (self.blocks.front(), self.back()) else {
            return;
        };
        let base = front.base;
        assert!(
            back.seq - base <= u64::from(u32::MAX),
            "a lane's launch ticks span fewer than 2^32 seqs"
        );
        let len = self.len;
        let mut runs: Vec<Slots> = Vec::with_capacity(self.blocks.len());
        for (k, mut block) in self.blocks.drain(..).enumerate() {
            let live = &mut block.slots[..(len - k * BLOCK).min(BLOCK)];
            let shift = (block.base - base) as u32;
            for slot in live.iter_mut() {
                slot.seq_off += shift;
            }
            // Keys are unique within a lane: the unstable sort gives the
            // one order there is.
            live.sort_unstable_by_key(Slot::key);
            runs.push(block.slots);
        }
        let mut spare = Vec::new();
        let mut width = BLOCK;
        while width < len {
            let mut blocks = runs.into_iter();
            runs = Vec::with_capacity(blocks.len());
            let mut start = 0;
            while start < len {
                let a = Run::take(&mut blocks, width.min(len - start));
                let b = Run::take(&mut blocks, width.min(len - start - a.left));
                start += a.left + b.left;
                merge(a, b, &mut runs, &mut spare);
            }
            width *= 2;
        }
        self.blocks = runs
            .into_iter()
            .map(|slots| Block { base, slots })
            .collect();
    }
}

/// A sorted run being merged: `left` ticks from slot `at` of its front
/// block on.
struct Run {
    blocks: VecDeque<Slots>,
    at: usize,
    left: usize,
}

impl Run {
    /// The next `len` ticks' blocks off `blocks`.
    fn take(blocks: &mut impl Iterator<Item = Slots>, len: usize) -> Run {
        Run {
            blocks: blocks.take(len.div_ceil(BLOCK)).collect(),
            at: 0,
            left: len,
        }
    }

    fn peek(&self) -> Option<&Slot> {
        (self.left > 0).then(|| &self.blocks[0][self.at])
    }

    /// Removes the next slot, giving the block it emptied to `spare`.
    fn pop(&mut self, spare: &mut Vec<Slots>) -> Slot {
        let slot = self.blocks[0][self.at];
        self.at += 1;
        self.left -= 1;
        if self.at == BLOCK || self.left == 0 {
            spare.extend(self.blocks.pop_front());
            self.at = 0;
        }
        slot
    }
}

/// Appends the merge of sorted runs `a` and `b` to `out` as full blocks
/// (but the last), drawing each output block from `spare` before
/// allocating one.
fn merge(mut a: Run, mut b: Run, out: &mut Vec<Slots>, spare: &mut Vec<Slots>) {
    if b.left == 0 {
        // The odd run out: its blocks are already in order.
        out.extend(a.blocks);
        return;
    }
    for written in 0..a.left + b.left {
        let from_a = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.key() < y.key(),
            (x, _) => x.is_some(),
        };
        let slot = if from_a { a.pop(spare) } else { b.pop(spare) };
        if written % BLOCK == 0 {
            out.push(spare.pop().unwrap_or_else(new_slots));
        }
        out.last_mut().expect("pushed above")[written % BLOCK] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    fn tick(n: u64) -> Tick {
        Tick {
            time: SimTime::from_nanos(n),
            seq: n,
            id: n as u32,
        }
    }

    fn push(q: &mut Ticks, tick: Tick) {
        q.push_back(tick).expect("within the block's seq reach");
    }

    #[test]
    fn a_fifo_across_block_boundaries() {
        let mut q = Ticks::default();
        let n = 3 * BLOCK as u64 + 5;
        for i in 0..n {
            push(&mut q, tick(i));
            if i % 3 == 0 {
                // Pops interleave with pushes; the queue runs ahead.
                assert_eq!(q.pop_front().map(|t| t.seq), Some(i / 3));
            }
        }
        assert_eq!(q.back().map(|t| t.seq), Some(n - 1));
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|t| t.seq)).collect();
        assert_eq!(rest, (n.div_ceil(3)..n).collect::<Vec<_>>());
        assert!(q.blocks.len() <= 1 && q.front().is_none() && q.back().is_none());
        push(&mut q, tick(7));
        assert_eq!(q.pop_front().map(|t| t.seq), Some(7));
    }

    #[test]
    fn sort_orders_every_block_and_keeps_no_spare() {
        let mut q = Ticks::default();
        let n = 2 * BLOCK as u64 + 10;
        for i in 0..n {
            let t = (i * 7919) % n;
            push(&mut q, Tick { seq: i, ..tick(t) });
        }
        q.sort();
        let ids: Vec<u32> = q.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(q.blocks.len(), 3);
    }

    /// Random permutations of 1 to 5 blocks' worth of ticks, seqs in push
    /// order from an arbitrary start and times drawn from a narrow range
    /// so that ties are common, sort as `slice::sort` sorts them.
    #[test]
    fn sort_equals_a_slice_sort_across_block_boundaries() {
        let mut rng = RngStream::from_seed(30);
        let mut lens = vec![
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK,
            3 * BLOCK + 7,
            5 * BLOCK,
        ];
        lens.extend((0..12).map(|_| 1 + rng.index(5 * BLOCK)));
        for len in lens {
            let first_seq = rng.uniform_u64(1 << 40);
            let span = 1 + rng.uniform_u64(len as u64 * 2);
            let pushed: Vec<Tick> = (0..len as u64)
                .map(|i| Tick {
                    time: SimTime::from_nanos(rng.uniform_u64(span)),
                    seq: first_seq + i,
                    id: rng.uniform_u64(1 << 32) as u32,
                })
                .collect();
            let mut q = Ticks::default();
            for &t in &pushed {
                push(&mut q, t);
            }
            q.sort();
            let mut want = pushed;
            want.sort_by_key(Tick::key);
            let got: Vec<_> = q.iter().map(|t| (t.key(), t.id)).collect();
            let want: Vec<_> = want.iter().map(|t| (t.key(), t.id)).collect();
            assert_eq!(got, want, "{len} ticks");
            assert_eq!(q.blocks.len(), len.div_ceil(BLOCK), "{len} ticks");
        }
    }
}
