//! A lane's storage: a FIFO of 24-byte ticks in fixed blocks of
//! [`BLOCK`] ticks (24 KiB), so a lane of any length grows, shrinks and
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
//! allocations, as the calendar's buckets were; the heap is reused and
//! `setup_s` reads 19.0 ms against 19.6. The price is the sort's
//! temporary copy at the first read, ≈ 4.4 MiB on the launch
//! high-water mark of `metro_idle` (47.5 MiB against 43.1).

use crate::time::SimTime;
use std::collections::VecDeque;

/// One pending firing of a lane's timer: 24 bytes where a calendar
/// entry is 40.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tick {
    pub(super) time: SimTime,
    pub(super) seq: u64,
    pub(super) id: u32,
}

const _: () = assert!(std::mem::size_of::<Tick>() == 24);

impl Tick {
    pub(super) fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Ticks per block.
const BLOCK: usize = 1024;

/// FIFO of ticks: `len` live ticks starting at `head` in the first block.
#[derive(Debug, Default)]
pub(super) struct Ticks {
    blocks: VecDeque<Box<[Tick; BLOCK]>>,
    head: usize,
    len: usize,
}

impl Ticks {
    fn get(&self, i: usize) -> &Tick {
        let at = self.head + i;
        &self.blocks[at / BLOCK][at % BLOCK]
    }

    pub(super) fn front(&self) -> Option<&Tick> {
        (self.len > 0).then(|| self.get(0))
    }

    pub(super) fn back(&self) -> Option<&Tick> {
        self.len.checked_sub(1).map(|last| self.get(last))
    }

    pub(super) fn push_back(&mut self, tick: Tick) {
        let at = self.head + self.len;
        if at == self.blocks.len() * BLOCK {
            self.blocks.push_back(Box::new([tick; BLOCK]));
        }
        self.blocks[at / BLOCK][at % BLOCK] = tick;
        self.len += 1;
    }

    pub(super) fn pop_front(&mut self) -> Option<Tick> {
        let tick = *self.front()?;
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

    pub(super) fn iter(&self) -> impl Iterator<Item = &Tick> {
        (0..self.len).map(|i| self.get(i))
    }

    /// Puts the ticks in `(time, seq)` order.
    pub(super) fn sort(&mut self) {
        let mut all: Vec<Tick> = self.iter().copied().collect();
        // `seq` makes every key unique: the unstable sort gives the one
        // order there is.
        all.sort_unstable_by_key(Tick::key);
        self.head = 0;
        for (i, tick) in all.into_iter().enumerate() {
            self.blocks[i / BLOCK][i % BLOCK] = tick;
        }
        self.blocks.truncate(self.len.div_ceil(BLOCK));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(n: u64) -> Tick {
        Tick {
            time: SimTime::from_nanos(n),
            seq: n,
            id: n as u32,
        }
    }

    #[test]
    fn a_fifo_across_block_boundaries() {
        let mut q = Ticks::default();
        let n = 3 * BLOCK as u64 + 5;
        for i in 0..n {
            q.push_back(tick(i));
            if i % 3 == 0 {
                // Pops interleave with pushes; the queue runs ahead.
                assert_eq!(q.pop_front().map(|t| t.seq), Some(i / 3));
            }
        }
        assert_eq!(q.back().map(|t| t.seq), Some(n - 1));
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|t| t.seq)).collect();
        assert_eq!(rest, (n.div_ceil(3)..n).collect::<Vec<_>>());
        assert!(q.blocks.len() <= 1 && q.front().is_none() && q.back().is_none());
        q.push_back(tick(7));
        assert_eq!(q.pop_front().map(|t| t.seq), Some(7));
    }

    #[test]
    fn sort_orders_every_block_and_keeps_no_spare() {
        let mut q = Ticks::default();
        let n = 2 * BLOCK as u64 + 10;
        for i in 0..n {
            q.push_back(tick((i * 7919) % n));
        }
        q.sort();
        let seqs: Vec<u64> = q.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        assert_eq!(q.blocks.len(), 3);
    }
}
