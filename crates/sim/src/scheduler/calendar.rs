//! The calendar-queue backend: a bucketed timing wheel with an overflow
//! ladder, giving O(1) amortized push/pop for the near-future event mass
//! a discrete-event simulation generates.
//!
//! Events are bucketed by `time >> shift` (bucket width is a power of two
//! nanoseconds). The wheel covers `n_buckets` consecutive bucket indices
//! starting at a monotonically advancing `cursor`; events beyond that
//! span wait in a binary-heap *overflow ladder* and surface when their
//! time comes. The bucket width is retuned from the observed inter-event
//! gap (an EMA over pop-to-pop time advances) whenever the structure
//! resizes, and whenever that gap drifts 4× from the width in use, so
//! occupancy stays near a few events per bucket across workload phases.
//!
//! A calendar entry moves O(1) times — into its bucket, within the
//! one-time bucket sort, and out — so payloads live **inline** in the
//! buckets: no slab, no free-list, no per-event indirection.
//!
//! Ordering is the `(time, seq)` total order: within the active bucket,
//! entries are kept sorted (descending, so the minimum pops from the
//! tail in O(1)); across buckets, the cursor walk and the single-lap
//! invariant make the first non-empty bucket hold the minimum; the
//! overflow top is compared against the wheel candidate on every peek.
//! A property test drives the facade and a `std` binary-heap model
//! through identical interleavings and requires identical pop sequences.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: the `(time, seq)` ordering key plus the payload.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Overflow-ladder wrapper: min-heap order on `(time, seq)` only (the
/// payload takes no part in ordering, and `E` need not be `Ord`).
#[derive(Debug)]
struct Ladder<E>(Entry<E>);

impl<E> PartialEq for Ladder<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for Ladder<E> {}
impl<E> PartialOrd for Ladder<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Ladder<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest on top.
        other.0.key().cmp(&self.0.key())
    }
}

/// Where the cached minimum lives (so `pop_min` after `peek_min` is O(1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MinLoc {
    /// Tail of the (sorted) wheel bucket at this index.
    Wheel(usize),
    /// Top of the overflow ladder.
    Overflow,
}

/// Calendar queue over `(time, seq, event)` entries. See the module docs.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    /// The wheel. `buckets[i]` holds entries whose (cursor-clamped)
    /// absolute bucket index `b` satisfies `b & mask == i` and
    /// `cursor <= b < cursor + n_buckets` — one lap only, never two.
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Bucket width exponent: a bucket spans `1 << shift` nanoseconds.
    shift: u32,
    /// Absolute index of the wheel's current bucket. Only advances (the
    /// facade never schedules below the last popped time).
    cursor: u64,
    /// Whether `buckets[cursor & mask]` is currently sorted descending.
    sorted: bool,
    /// Entries beyond the wheel span, min-heap ordered.
    overflow: BinaryHeap<Ladder<E>>,
    /// Number of entries in the wheel (excluding overflow).
    wheel_len: usize,
    /// Total entries (wheel + overflow).
    len: usize,
    /// Time of the last popped entry, in ns — the facade guarantees no
    /// future push below this, which is what lets `cursor` only advance.
    floor_ns: u64,
    /// Exponential moving average of the observed inter-pop gap, in ns
    /// (the resize policy's width signal). Zero until the first gap.
    gap_ema_ns: u64,
    /// Cached key and location of the current minimum (valid until a push
    /// undercuts it or a pop consumes it).
    cached: Option<((SimTime, u64), MinLoc)>,
    /// Pushes+pops since the last rebuild (rebuild-thrash guard).
    ops_since_rebuild: u64,
    /// Countdown to the next resize-policy evaluation: the grow/retune
    /// conditions are consulted once per [`RESIZE_CHECK_PERIOD`] pushes
    /// instead of on every push, keeping the fast path branch-light. The
    /// wheel can overshoot its target occupancy by at most one period —
    /// noise against the 8× grow threshold.
    resize_check_in: u32,
    /// Total rebuilds (monitoring/debugging aid, exercised in tests).
    rebuilds: u64,
}

/// Smallest wheel: 64 buckets.
const MIN_BUCKETS: usize = 64;
/// Largest wheel: 2^20 buckets — only reachable with ~8 million pending
/// events.
const MAX_BUCKETS: usize = 1 << 20;
/// Narrowest bucket: 2^10 ns ≈ 1 µs.
const MIN_SHIFT: u32 = 10;
/// Widest bucket: 2^34 ns ≈ 17 s.
const MAX_SHIFT: u32 = 34;
/// Consecutive empty buckets scanned before giving up and jumping the
/// cursor straight to the wheel's true minimum.
const SCAN_LIMIT: u64 = 256;
/// Pushes between resize-policy evaluations.
const RESIZE_CHECK_PERIOD: u32 = 256;

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: std::iter::repeat_with(Vec::new).take(MIN_BUCKETS).collect(),
            mask: MIN_BUCKETS - 1,
            // 2^20 ns ≈ 1 ms: a sane width before any gap has been
            // observed; the first rebuild replaces it with a tuned one.
            shift: 20,
            cursor: 0,
            sorted: false,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            floor_ns: 0,
            gap_ema_ns: 0,
            cached: None,
            ops_since_rebuild: 0,
            resize_check_in: RESIZE_CHECK_PERIOD,
            rebuilds: 0,
        }
    }

    /// Pending entries, wheel and overflow ladder together.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How many times the wheel has been retuned (test/monitoring aid).
    #[cfg(test)]
    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total entry capacity across the wheel's buckets (test aid: pins
    /// the drained-bucket release policy).
    #[cfg(test)]
    pub(crate) fn wheel_capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity()).sum()
    }

    /// Calls `f` on every pending payload, in no particular order.
    pub(crate) fn for_each(&self, f: &mut impl FnMut(&E)) {
        let ladder = self.overflow.iter().map(|l| &l.0);
        for entry in self.buckets.iter().flatten().chain(ladder) {
            f(&entry.event);
        }
    }

    fn n_buckets(&self) -> usize {
        self.mask + 1
    }

    /// Absolute bucket index an entry files under, clamped to the cursor:
    /// an entry may legitimately be earlier than the cursor's window (the
    /// cursor skips empty buckets during peeks, and a later push may
    /// target the gap) — such entries join the *current* bucket, which
    /// keeps the "first non-empty bucket holds the minimum" invariant
    /// intact because they are earlier than everything beyond it.
    fn bucket_index(&self, time: SimTime) -> u64 {
        (time.as_nanos() >> self.shift).max(self.cursor)
    }

    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.resize_check_in -= 1;
        if self.resize_check_in == 0 {
            self.resize_check_in = RESIZE_CHECK_PERIOD;
            if self.len >= 8 * self.n_buckets() && self.n_buckets() < MAX_BUCKETS {
                self.rebuild();
            } else if self.overflow.len() > self.len / 2
                && self.len > 128
                && self.ops_since_rebuild > 4 * self.n_buckets() as u64
            {
                // The wheel span missed the workload's horizon: most
                // entries sit in the overflow ladder degrading to heap
                // behavior. Retune.
                self.rebuild();
            } else if self.gap_ema_ns > 0
                && self.ops_since_rebuild > 4 * self.n_buckets() as u64
                && self.shift.abs_diff(shift_for_gap(self.gap_ema_ns)) > 1
            {
                // The observed gap drifted 4× or more from the width the
                // wheel was built with, at a size that triggers neither
                // rule above — a wheel sized from its launch pushes
                // before any gap was seen, say, whose buckets then hold
                // thousands of entries each. Retune.
                self.rebuild();
            }
        }
        self.ops_since_rebuild += 1;
        let key = (time, seq);
        let entry = Entry { time, seq, event };
        let ab = self.bucket_index(time);
        if ab >= self.cursor + self.n_buckets() as u64 {
            self.overflow.push(Ladder(entry));
        } else {
            let idx = (ab & self.mask as u64) as usize;
            let bucket = &mut self.buckets[idx];
            if self.sorted && idx == (self.cursor & self.mask as u64) as usize {
                // Keep the active bucket pop-ready: insert in descending
                // position. Same-time entries carry fresh (largest) seqs,
                // so the insertion point is near the tail — cheap memmove.
                let pos = bucket.partition_point(|e| e.key() > key);
                bucket.insert(pos, entry);
            } else {
                bucket.push(entry);
            }
            self.wheel_len += 1;
        }
        self.len += 1;
        // Only an entry undercutting the cached minimum invalidates it: a
        // later one cannot displace the minimum, and a same-bucket insert
        // keeps the minimum at the sorted bucket's tail.
        if let Some((cached_min, _)) = self.cached {
            if key < cached_min {
                self.cached = None;
            }
        }
    }

    /// The `(time, seq)` key of the earliest entry, without removing it.
    /// Advances the cursor past empty buckets and caches the hit so the
    /// `pop_min` that follows is O(1).
    #[inline]
    pub(crate) fn peek_min(&mut self) -> Option<(SimTime, u64)> {
        if let Some((key, _)) = self.cached {
            return Some(key);
        }
        if self.len == 0 {
            return None;
        }
        let overflow_top = self.overflow.peek().map(|l| l.0.key());
        if self.wheel_len == 0 {
            let key = overflow_top?;
            // Drag the wheel to the ladder's position so pushes near this
            // entry land in buckets again.
            self.advance_cursor(key.0.as_nanos() >> self.shift);
            self.cached = Some((key, MinLoc::Overflow));
            return Some(key);
        }
        let mut scanned = 0u64;
        loop {
            // The current bucket is checked BEFORE any overflow early
            // exit: cursor-clamped entries (pushed below the cursor's
            // window after the cursor skipped their bucket) live only in
            // the current bucket and may undercut an overflow entry whose
            // bucket the cursor already passed.
            let idx = (self.cursor & self.mask as u64) as usize;
            if !self.buckets[idx].is_empty() {
                if !self.sorted {
                    // Sort descending once per bucket visit: the minimum
                    // then pops from the tail, and the quadratic
                    // scan-per-pop of naive calendar buckets never forms.
                    self.buckets[idx].sort_unstable_by(|a, b| b.key().cmp(&a.key()));
                    self.sorted = true;
                }
                let wheel_min = self.buckets[idx].last().expect("non-empty").key();
                let (key, loc) = match overflow_top {
                    Some(o) if o < wheel_min => (o, MinLoc::Overflow),
                    _ => (wheel_min, MinLoc::Wheel(idx)),
                };
                self.cached = Some((key, loc));
                return Some(key);
            }
            // Current bucket empty: every remaining wheel entry sits in a
            // strictly later bucket (clamped entries only ever occupy the
            // current one), so its time is at least `(cursor+1) << shift`
            // — an overflow top at or before the cursor's bucket is the
            // minimum.
            if let Some(o) = overflow_top {
                if (o.0.as_nanos() >> self.shift) <= self.cursor {
                    self.cached = Some((o, MinLoc::Overflow));
                    return Some(o);
                }
            }
            self.advance_cursor(self.cursor + 1);
            scanned += 1;
            if scanned >= SCAN_LIMIT {
                // Sparse stretch: jump straight to the wheel's minimum
                // instead of strolling bucket by bucket.
                let target = self
                    .wheel_min_bucket()
                    .expect("wheel_len > 0 means an entry exists");
                self.advance_cursor(target);
                scanned = 0;
            }
        }
    }

    #[inline]
    pub(crate) fn pop_min(&mut self) -> Option<(SimTime, u64, E)> {
        let loc = match self.cached {
            Some((_, loc)) => loc,
            None => {
                self.peek_min()?;
                self.cached.expect("peek_min caches on success").1
            }
        };
        let entry = match loc {
            MinLoc::Wheel(idx) => {
                self.wheel_len -= 1;
                let e = self.buckets[idx].pop().expect("cached wheel min exists");
                Self::release_if_drained(&mut self.buckets[idx]);
                e
            }
            MinLoc::Overflow => self.overflow.pop().expect("cached overflow min exists").0,
        };
        self.len -= 1;
        self.cached = None;
        let t = entry.time.as_nanos();
        debug_assert!(t >= self.floor_ns, "pop order went backwards");
        // EMA over pop-to-pop time advances: the live estimate of the
        // event stream's inter-event gap, robust against the long-horizon
        // timer tail that skews pending-set-spread estimates.
        let delta = t - self.floor_ns;
        self.gap_ema_ns = self.gap_ema_ns - self.gap_ema_ns / 16 + delta / 16;
        self.floor_ns = t;
        self.ops_since_rebuild += 1;
        if self.len < self.n_buckets() / 4 && self.n_buckets() > MIN_BUCKETS {
            self.rebuild();
        }
        Some((entry.time, entry.seq, entry.event))
    }

    /// The earliest entry's firing time and a borrow of its payload —
    /// the look-before-you-pop the type-batched run loop needs to stop
    /// at a variant boundary without disturbing the queue. Caches the
    /// position exactly like [`Self::peek_min`], so the `pop_min` that
    /// follows a hit is O(1).
    #[inline]
    pub(crate) fn peek_min_event(&mut self) -> Option<(SimTime, &E)> {
        self.peek_min()?;
        let ((time, _), loc) = self.cached.expect("peek_min caches on success");
        let entry = match loc {
            MinLoc::Wheel(idx) => self.buckets[idx].last().expect("cached wheel min exists"),
            MinLoc::Overflow => &self.overflow.peek().expect("cached overflow min exists").0,
        };
        Some((time, &entry.event))
    }

    /// Frees a drained bucket's backing allocation once it grew past the
    /// minimal first-push capacity. Periodic timer populations (metro:
    /// millions of ticks on 5 s / 60 s cadences) sweep an occupancy wave
    /// across the wheel lap after lap; without this, every bucket the
    /// wave ever touched would keep its spike capacity forever and the
    /// wheel's footprint would grow linearly in simulated time (~40 B per
    /// event at metro scale). Buckets that stay at the minimal capacity —
    /// the active bucket oscillating under a same-instant packet chain —
    /// are left alone, so the hot path never churns the allocator.
    fn release_if_drained(bucket: &mut Vec<Entry<E>>) {
        if bucket.is_empty() && bucket.capacity() > 4 {
            *bucket = Vec::new();
        }
    }

    /// Moves the cursor forward, never backward, resetting the
    /// sorted-bucket flag when the active bucket changes.
    fn advance_cursor(&mut self, to: u64) {
        if to > self.cursor {
            self.cursor = to;
            self.sorted = false;
        }
    }

    /// Absolute bucket index of the earliest entry in the wheel (full
    /// scan; used only by the sparse-stretch jump).
    fn wheel_min_bucket(&self) -> Option<u64> {
        self.buckets
            .iter()
            .flatten()
            .map(|e| e.time.as_nanos() >> self.shift)
            .min()
            .map(|b| b.max(self.cursor))
    }

    /// Re-tunes bucket count and width from observed behavior and refiles
    /// every entry. Width = the observed inter-event gap — the EMA of
    /// pop-to-pop time advances, falling back to pending-set spread over
    /// pending count before any pops — widened 4× so the once-per-bucket
    /// sort amortizes over several pops; bucket count ≈ half the pending
    /// count, so the wheel spans about twice the pending event mass's
    /// horizon.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        // Taken, not appended: each drained bucket's allocation goes
        // back as it is emptied instead of outliving the refill.
        for b in &mut self.buckets {
            entries.extend(std::mem::take(b));
        }
        entries.extend(
            std::mem::take(&mut self.overflow)
                .into_vec()
                .into_iter()
                .map(|l| l.0),
        );
        let n = entries.len().max(1);
        let new_n_buckets = (n / 2).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let gap = if self.gap_ema_ns > 0 {
            self.gap_ema_ns
        } else {
            let min_ns = entries.iter().map(|e| e.time.as_nanos()).min();
            let max_ns = entries.iter().map(|e| e.time.as_nanos()).max();
            let spread = match (min_ns, max_ns) {
                (Some(lo), Some(hi)) => hi - lo,
                _ => 0,
            };
            (spread / n as u64).max(1)
        };
        self.shift = shift_for_gap(gap);
        if self.buckets.len() != new_n_buckets {
            self.buckets = std::iter::repeat_with(Vec::new)
                .take(new_n_buckets)
                .collect();
        }
        self.mask = new_n_buckets - 1;
        self.cursor = self.floor_ns >> self.shift;
        self.sorted = false;
        self.wheel_len = 0;
        self.len = 0;
        self.cached = None;
        self.ops_since_rebuild = 0;
        self.rebuilds += 1;
        for entry in entries {
            let ab = self.bucket_index(entry.time);
            if ab >= self.cursor + self.n_buckets() as u64 {
                self.overflow.push(Ladder(entry));
            } else {
                self.buckets[(ab & self.mask as u64) as usize].push(entry);
                self.wheel_len += 1;
            }
            self.len += 1;
        }
    }
}

/// Bucket width exponent for an inter-event gap of `gap` ns: the gap
/// rounded up to a power of two, widened 4× so the once-per-bucket sort
/// amortizes over several pops.
fn shift_for_gap(gap: u64) -> u32 {
    ((u64::BITS - (gap - 1).leading_zeros()).max(1) + 2).clamp(MIN_SHIFT, MAX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(SimTime, u64, u64)> {
        std::iter::from_fn(|| q.pop_min()).collect()
    }

    #[test]
    fn pops_entries_in_time_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(2_000), 0, 10);
        q.push(SimTime::from_nanos(1_000), 1, 11);
        q.push(SimTime::from_nanos(1_000), 2, 12);
        q.push(SimTime::from_nanos(3_000), 3, 13);
        assert_eq!(q.peek_min(), Some((SimTime::from_nanos(1_000), 1)));
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![11, 12, 10, 13]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_entries_take_the_overflow_ladder_and_return() {
        let mut q = CalendarQueue::new();
        // Far beyond the fresh wheel's span (64 buckets × 1 ms).
        q.push(SimTime::from_nanos(3_600_000_000_000), 0, 1);
        q.push(SimTime::from_nanos(1_000), 1, 2);
        assert_eq!(q.overflow.len(), 1, "distant entry must ride the ladder");
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(2));
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(1));
    }

    #[test]
    fn push_below_cursor_window_still_pops_first() {
        // Peeking advances the cursor past empty buckets; a later push may
        // target the skipped gap and must still pop before everything else.
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(1_000), 0, 0);
        assert!(q.pop_min().is_some());
        q.push(SimTime::from_nanos(500_000_000), 1, 1);
        assert_eq!(q.peek_min(), Some((SimTime::from_nanos(500_000_000), 1)));
        q.push(SimTime::from_nanos(2_000), 2, 2); // earlier than the cursor
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(2));
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(1));
    }

    #[test]
    fn growth_triggers_rebuild_and_order_survives() {
        let mut q = CalendarQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            // Scatter: mixed near and far, with same-time ties.
            q.push(SimTime::from_nanos((i % 97) * 1_000_000 + (i / 97)), i, i);
        }
        assert!(q.rebuilds() > 0, "10k entries must outgrow 64 buckets");
        let popped = drain(&mut q);
        assert_eq!(popped.len(), n as usize);
        for w in popped.windows(2) {
            assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "pop order must be strictly increasing"
            );
        }
    }

    #[test]
    fn shrink_rebuild_keeps_remaining_entries() {
        let mut q = CalendarQueue::new();
        for i in 0..4_096u64 {
            q.push(SimTime::from_nanos(i * 10_000), i, i);
        }
        for i in 0..4_000u64 {
            assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(i));
        }
        assert_eq!(q.len(), 96);
        for i in 4_000..4_096u64 {
            assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(i));
        }
    }

    #[test]
    fn interleaved_peek_push_pop_stays_consistent() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(5_000), 0, 0);
        assert_eq!(q.peek_min(), Some((SimTime::from_nanos(5_000), 0)));
        q.push(SimTime::from_nanos(1_000), 1, 1); // undercuts the cache
        assert_eq!(q.peek_min(), Some((SimTime::from_nanos(1_000), 1)));
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(1));
        assert_eq!(q.pop_min().map(|(_, _, e)| e), Some(0));
    }

    #[test]
    fn clamped_entry_beats_overflow_entry_whose_bucket_the_cursor_passed() {
        // Regression: with the default 64-bucket/2^20ns wheel, an entry
        // pushed beyond the span rides the overflow ladder. Once the
        // cursor walks PAST that entry's bucket (it advances before the
        // overflow early-exit fires), a later push clamped into the
        // cursor's bucket may be earlier than the overflow top. The peek
        // must compare the current bucket before trusting the ladder —
        // taking the ladder entry first popped time backwards.
        const B: u64 = 1 << 20; // bucket width
        let mut q = CalendarQueue::new();
        // Anchor the floor, then seed the ladder while the span is [0,64).
        q.push(SimTime::from_nanos(1_000), 0, 0);
        assert!(q.pop_min().is_some());
        q.push(SimTime::from_nanos(66 * B + 10), 1, 1); // bucket 66: ladder
                                                        // A wheel entry at bucket 17, popped to drag the cursor forward,
                                                        // then one at bucket 80 (inside the new span) so the wheel stays
                                                        // non-empty while the scan walks toward the ladder entry.
        q.push(SimTime::from_nanos(17 * B + 1), 2, 2);
        assert_eq!(q.pop_min().map(|(_, s, _)| s), Some(2));
        q.push(SimTime::from_nanos(80 * B + 1), 3, 3);
        // The scan advances past bucket 66 (empty) before concluding the
        // ladder entry is next; the cursor now sits beyond it.
        assert_eq!(q.peek_min(), Some((SimTime::from_nanos(66 * B + 10), 1)));
        // A fresh push just above the floor clamps into the cursor's
        // bucket — and is EARLIER than the ladder entry.
        q.push(SimTime::from_nanos(17 * B + 2), 4, 4);
        assert_eq!(q.pop_min().map(|(_, s, _)| s), Some(4), "clamped first");
        assert_eq!(q.pop_min().map(|(_, s, _)| s), Some(1), "ladder second");
        assert_eq!(q.pop_min().map(|(_, s, _)| s), Some(3));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn drained_buckets_release_spike_capacity() {
        // Periodic timer populations sweep an occupancy wave across the
        // wheel: each bucket fills with a spike of entries once per lap,
        // drains, and is not refilled until the next lap. If a drained
        // bucket kept its spike capacity, a wheel too large to lap within
        // the run (metro: 2^20 buckets) would ratchet its footprint
        // linearly in simulated time. Model one wave bucket directly: a
        // same-bucket burst plus spread-out ballast, then drain the burst.
        let mut q = CalendarQueue::new();
        let n = 1_000u64;
        for i in 0..n {
            q.push(SimTime::from_nanos(1_000 + i), i, i); // one hot bucket
        }
        for i in 0..n {
            // Ballast keeps `len` above the shrink-rebuild threshold
            // while the burst drains.
            q.push(SimTime::from_nanos(10_000_000 + i * 10_000), n + i, n + i);
        }
        let before = q.wheel_capacity();
        for _ in 0..n {
            q.pop_min().expect("burst entry");
        }
        let after = q.wheel_capacity();
        assert_eq!(q.len(), n as usize, "only the burst was drained");
        assert!(
            after + 512 <= before,
            "draining a {n}-entry bucket must release its allocation \
             (capacity before {before}, after {after})"
        );
    }

    #[test]
    fn width_follows_the_observed_gap_at_a_steady_size() {
        // 600 entries 10 ms apart: the growth rebuild sizes the wheel
        // from their spread, before any pop. Then a 1 µs chain runs in
        // front of them at a constant pending count, which neither the
        // grow nor the shrink rule sees: only the gap can retune it.
        let mut q = CalendarQueue::new();
        for i in 0..600u64 {
            q.push(SimTime::from_nanos(10_000_000 * (i + 1)), i, i);
        }
        let launch_shift = q.shift;
        assert!(launch_shift >= 20, "built from the 10 ms spread");
        q.push(SimTime::from_nanos(1_000), 600, 600);
        for seq in 601..20_000 {
            let (t, _, _) = q.pop_min().expect("the chain never drains");
            q.push(t + crate::SimDuration::from_micros(1), seq, seq);
        }
        assert!(
            q.shift <= MIN_SHIFT + 2,
            "a 1 µs stream still sorts {} ns buckets",
            1u64 << q.shift
        );
        assert_eq!(q.len(), 601);
    }

    #[test]
    fn rebuild_frees_the_buckets_it_drains() {
        // One bucket grows to a burst, then mostly drains: it keeps its
        // capacity (it is not empty). A retune at the same bucket count
        // must hand that capacity back, not refill beside it.
        let mut q = CalendarQueue::new();
        for i in 0..300u64 {
            q.push(SimTime::from_nanos(1_000 + i), i, i);
        }
        for _ in 0..290 {
            q.pop_min().expect("burst entry");
        }
        assert!(q.wheel_capacity() >= 300);
        q.rebuild();
        assert_eq!(q.n_buckets(), MIN_BUCKETS, "same bucket count");
        assert!(
            q.wheel_capacity() <= 4 * q.len(),
            "a rebuild kept drained capacity: {} slots for {} entries",
            q.wheel_capacity(),
            q.len()
        );
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (290..300).collect::<Vec<_>>());
    }
}
