//! The pending-event set: `(time, seq)`-ordered events in a calendar
//! queue (bucketed timing wheel, O(1) amortized push/pop), beside FIFO
//! *lanes* for timers re-armed at a fixed period.
//!
//! A lane holds one periodic timer kind — a mobility sample, an uplink
//! refresh — as 16-byte `(time, seq, id)` ticks (`seq` stored as a
//! 32-bit offset from its block's base) plus the period and a
//! `fn(u32) -> E` that rebuilds the event from `id`. A timer re-armed at
//! `now + period` in the order its firings pop is pushed in
//! non-decreasing `(time, seq)` order, so a FIFO already holds its
//! pending set sorted, and the calendar need not store that order again
//! in a 40-byte slot. Every read merges the calendar's minimum with the
//! earliest lane head by the one `(time, seq)` key, and lane pushes draw
//! their `seq` from the same counter as every other push, so pop order
//! is exactly what one calendar holding everything would give. A tick a
//! lane cannot hold in order — one behind its back, or one out of its
//! block's `seq` reach — goes to the calendar as its event instead,
//! which the same merge makes exact.

mod calendar;
mod ticks;

use crate::event::ScheduledEvent;
use crate::time::{SimDuration, SimTime};
use calendar::CalendarQueue;
use ticks::{Tick, Ticks};

/// Handle to a periodic-timer lane, returned by [`Scheduler::add_lane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneId(u32);

/// A periodic timer kind: its pending ticks in `(time, seq)` order (once
/// the scheduler is sealed), its period, and the event a tick stands for.
#[derive(Debug)]
struct Lane<E> {
    ticks: Ticks,
    period: SimDuration,
    make: fn(u32) -> E,
}

/// Where the next event comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    Calendar,
    Lane(usize),
}

/// Priority queue of future events.
///
/// Events are ordered by `(time, seq)` — deterministic FIFO among
/// simultaneous events. Most are stored inline in the timing-wheel
/// buckets of a calendar queue, so push and pop are O(1) amortized;
/// periodic timers a model registers with [`Scheduler::add_lane`] queue
/// in FIFO lanes instead (see the module docs), merged into the same
/// order. An event, once scheduled, fires: there is no cancellation
/// (every timer the models keep is soft state that re-checks its own
/// expiry stamp).
///
/// ```
/// use mtnet_sim::{Scheduler, SimTime};
/// let mut q: Scheduler<&str> = Scheduler::new();
/// q.schedule_at(SimTime::from_secs(2), "b");
/// q.schedule_at(SimTime::from_secs(1), "a");
/// let next = q.pop().unwrap();
/// assert_eq!(next.into_event(), "a");
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: CalendarQueue<E>,
    lanes: Vec<Lane<E>>,
    /// Key and lane of the earliest lane head; kept current once sealed.
    lane_head: Option<(SimTime, u64, usize)>,
    /// Ticks across all lanes.
    lane_len: usize,
    /// False until the first read: lanes take pushes in any order until
    /// then and are sorted once when it comes.
    sealed: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            queue: CalendarQueue::new(),
            lanes: Vec::new(),
            lane_head: None,
            lane_len: 0,
            sealed: false,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (the firing time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len() + self.lane_len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires next, in
    /// scheduling order); this keeps zero-delay message chains simple.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.queue.push(time.max(self.now), seq, event);
    }

    /// Schedules `event` after the given delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Skips `n` sequence numbers, as `n` pushes would.
    #[cfg(test)]
    fn skip_seqs(&mut self, n: u64) {
        self.next_seq += n;
    }

    /// Registers a lane for a timer re-armed every `period`, whose tick
    /// `id` stands for the event `make(id)`.
    pub fn add_lane(&mut self, period: SimDuration, make: fn(u32) -> E) -> LaneId {
        self.lanes.push(Lane {
            ticks: Ticks::default(),
            period,
            make,
        });
        LaneId(self.lanes.len() as u32 - 1)
    }

    /// Schedules `lane`'s event for `id` at `time` (clamped to `now`),
    /// numbered like any other push.
    ///
    /// Until the first read a lane takes ticks in any order. After it, a
    /// tick that would precede the lane's back goes to the calendar as
    /// `make(id)` instead — exact, since every read merges the two by
    /// `(time, seq)` — so the lane stays sorted. So does a tick the lane
    /// hands back as out of its tail block's `seq` reach.
    pub fn schedule_lane_at(&mut self, lane: LaneId, time: SimTime, id: u32) {
        let seq = self.take_seq();
        let tick = Tick {
            time: time.max(self.now),
            seq,
            id,
        };
        let l = lane.0 as usize;
        let lane = &mut self.lanes[l];
        if self.sealed {
            match lane.ticks.back() {
                Some(back) if tick.key() < back.key() => {
                    self.queue.push(tick.time, seq, (lane.make)(id));
                    return;
                }
                // An empty lane takes any tick.
                None if self.lane_head.map_or(true, |(t, s, _)| tick.key() < (t, s)) => {
                    self.lane_head = Some((tick.time, seq, l));
                }
                _ => {}
            }
        }
        if lane.ticks.push_back(tick).is_err() {
            self.queue.push(tick.time, seq, (lane.make)(id));
            return;
        }
        self.lane_len += 1;
    }

    /// Re-arms `lane`'s timer for `id` one period after now.
    pub fn rearm(&mut self, lane: LaneId, id: u32) {
        let at = self.now + self.lanes[lane.0 as usize].period;
        self.schedule_lane_at(lane, at, id);
    }

    /// Calls `f` on every pending event, calendar and lanes alike, in no
    /// particular order (a lane tick is rebuilt with its `make`).
    pub fn for_each_pending(&self, mut f: impl FnMut(&E)) {
        self.queue.for_each(&mut f);
        for lane in &self.lanes {
            for tick in lane.ticks.iter() {
                f(&(lane.make)(tick.id));
            }
        }
    }

    /// Sorts every lane once, at the first read, and finds the head.
    fn seal(&mut self) {
        for lane in &mut self.lanes {
            lane.ticks.sort();
        }
        self.sealed = true;
        self.refresh_lane_head();
    }

    fn refresh_lane_head(&mut self) {
        self.lane_head = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| lane.ticks.front().map(|t| (t.time, t.seq, l)))
            .min();
    }

    /// Firing time and source of the next event: the calendar's minimum
    /// or the earliest lane head, whichever is first by `(time, seq)`.
    #[inline]
    fn next(&mut self) -> Option<(SimTime, Source)> {
        if !self.sealed {
            self.seal();
        }
        let calendar = self.queue.peek_min();
        match (calendar, self.lane_head) {
            (Some(c), Some((t, s, l))) if (t, s) < c => Some((t, Source::Lane(l))),
            (Some((t, _)), _) => Some((t, Source::Calendar)),
            (None, Some((t, _, l))) => Some((t, Source::Lane(l))),
            (None, None) => None,
        }
    }

    /// Removes the next event, which `source` holds, and advances `now`.
    fn take(&mut self, source: Source) -> ScheduledEvent<E> {
        let (time, event) = match source {
            Source::Calendar => {
                let (time, _, event) = self.queue.pop_min().expect("peeked an entry");
                (time, event)
            }
            Source::Lane(l) => {
                let tick = self.take_tick(l);
                (tick.time, (self.lanes[l].make)(tick.id))
            }
        };
        self.now = time;
        ScheduledEvent { time, event }
    }

    /// Removes lane `l`'s head tick.
    fn take_tick(&mut self, l: usize) -> Tick {
        let tick = self.lanes[l].ticks.pop_front().expect("peeked a tick");
        self.lane_len -= 1;
        self.refresh_lane_head();
        tick
    }

    /// Pops the next event, advancing `now` to its firing time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, source) = self.next()?;
        Some(self.take(source))
    }

    /// Pops the next event only if it fires at or before `horizon` — one
    /// queue walk for the peek-then-pop pattern of a bounded run loop
    /// (the queue caches the peeked position, so the pop that follows is
    /// O(1)).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        match self.next()? {
            (time, _) if time > horizon => None,
            (_, source) => Some(self.take(source)),
        }
    }

    /// Firing time of the next event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.next().map(|(time, _)| time)
    }

    /// Pops the next event iff it is a *tie* with the last popped one —
    /// it fires at exactly [`Scheduler::now`] — and `pred` accepts its
    /// payload; otherwise the queue is left exactly as it was.
    ///
    /// Same-time ties surface in seq order already, so a caller looping
    /// on this consumes the tie set in precisely the order plain pops
    /// would, and the peek that ends the loop leaves the queue's cached
    /// minimum warm for the pop that follows.
    pub fn pop_tie_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        let (time, source) = self.next()?;
        if time != self.now {
            return None;
        }
        match source {
            Source::Calendar => {
                let (_, event) = self.queue.peek_min_event().expect("peeked an entry");
                if !pred(event) {
                    return None;
                }
                Some(self.queue.pop_min().expect("peeked an entry").2)
            }
            Source::Lane(l) => {
                let lane = &self.lanes[l];
                let event = (lane.make)(lane.ticks.front().expect("peeked a tick").id);
                if !pred(&event) {
                    return None;
                }
                self.take_tick(l);
                Some(event)
            }
        }
    }

    /// The mirror of [`Scheduler::pop_tie_if`] for an event about to be
    /// scheduled at `now`: true iff nothing is pending at or before
    /// [`Scheduler::now`], i.e. the event would be the very next pop. The
    /// sequence number it would have taken is consumed, so everything
    /// scheduled afterwards is numbered as if it had been queued; on
    /// false nothing changes.
    pub fn claim_now(&mut self) -> bool {
        if matches!(self.next(), Some((time, _)) if time <= self.now) {
            return false;
        }
        self.next_seq += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_event())).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_event())).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = Scheduler::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut q = Scheduler::new();
        q.schedule_at(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.time(), SimTime::from_secs(5));
        assert_eq!(e.into_event(), "late");
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = Scheduler::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(5), "b");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(3))
                .unwrap()
                .into_event(),
            "a"
        );
        assert!(q.pop_at_or_before(SimTime::from_secs(3)).is_none());
        assert_eq!(q.len(), 1, "the late event stays queued");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(5))
                .unwrap()
                .into_event(),
            "b"
        );
    }

    /// Two-variant payload for tie-boundary tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum T {
        A(u32),
        B(u32),
    }

    fn is_a(e: &T) -> bool {
        matches!(e, T::A(_))
    }

    fn is_b(e: &T) -> bool {
        matches!(e, T::B(_))
    }

    #[test]
    fn runs_split_at_variant_boundaries_in_seq_order() {
        let mut q = Scheduler::new();
        let t = SimTime::from_secs(1);
        // Interleaved variants at one timestamp: ties must come out
        // in seq order exactly, never regrouped across a boundary.
        q.schedule_at(t, T::A(0));
        q.schedule_at(t, T::A(1));
        q.schedule_at(t, T::B(2));
        q.schedule_at(t, T::A(3));
        q.schedule_at(SimTime::from_secs(2), T::B(4));
        assert_eq!(q.pop_tie_if(is_a), None, "nothing at now = 0 to tie with");
        assert_eq!(q.pop().unwrap().into_event(), T::A(0));
        assert_eq!(q.now(), t);
        assert_eq!(q.pop_tie_if(is_a), Some(T::A(1)));
        assert_eq!(
            q.pop_tie_if(is_a),
            None,
            "B(2) is next: A(3) stays behind it"
        );
        assert_eq!(q.len(), 3, "a refused tie stays queued");
        assert_eq!(q.pop_tie_if(is_b), Some(T::B(2)));
        assert_eq!(q.pop_tie_if(is_b), None);
        assert_eq!(q.pop_tie_if(is_a), Some(T::A(3)));
        // The next timestamp is never a tie, whatever the predicate.
        assert_eq!(q.pop_tie_if(|_| true), None);
        assert_eq!(q.now(), t, "a refused tie does not advance the clock");
        assert_eq!(q.pop().unwrap().into_event(), T::B(4));
        assert_eq!(q.now(), SimTime::from_secs(2));
        assert_eq!(q.pop_tie_if(|_| true), None);
        assert!(q.is_empty());
    }

    #[test]
    fn claim_now_succeeds_only_when_the_event_would_pop_next() {
        let mut q = Scheduler::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, T::A(0));
        q.schedule_at(t, T::A(1));
        q.schedule_at(SimTime::from_secs(2), T::B(2));
        assert_eq!(q.pop().unwrap().into_event(), T::A(0));
        // A(1) is queued at now: a zero-delay event would file behind it.
        assert!(!q.claim_now());
        assert_eq!(q.len(), 2, "a refused claim leaves the queue alone");
        assert_eq!(q.pop().unwrap().into_event(), T::A(1));
        // Only later work is left: the claim stands, and what is
        // scheduled at now afterwards still precedes the later event.
        assert!(q.claim_now());
        q.schedule_at(t, T::A(3));
        assert!(!q.claim_now(), "A(3) is pending at now");
        assert_eq!(q.pop().unwrap().into_event(), T::A(3));
        assert_eq!(q.pop().unwrap().into_event(), T::B(2));
        // An empty queue has nothing to run first.
        assert!(q.claim_now());
    }

    #[test]
    fn pop_serves_tie_set_leftovers_before_later_pushes() {
        let mut q = Scheduler::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, T::A(0));
        q.schedule_at(t, T::B(1));
        q.schedule_at(SimTime::from_secs(2), T::B(3));
        assert_eq!(q.pop().unwrap().into_event(), T::A(0));
        assert_eq!(q.pop_tie_if(is_a), None);
        // New same-time work arrives while the tie set is partially
        // consumed: it files behind the leftovers (larger seq).
        q.schedule_at(t, T::A(2));
        // Mixed-mode consumption: plain pops must see the leftover
        // B(1) first, then the newly pushed A(2) — which a tie pop
        // after a plain pop takes just as well.
        assert_eq!(q.pop().unwrap().into_event(), T::B(1));
        assert_eq!(q.pop_tie_if(is_a), Some(T::A(2)));
        assert_eq!(q.pop_tie_if(|_| true), None, "B(3) fires later");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2))
                .unwrap()
                .into_event(),
            T::B(3)
        );
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn lane_ticks_merge_with_the_calendar_by_time_then_seq() {
        let mut q = Scheduler::new();
        let lane = q.add_lane(SimDuration::from_secs(1), T::A);
        let t = SimTime::from_secs(1);
        // Before the first read a lane takes ticks out of order.
        q.schedule_lane_at(lane, t, 0); // seq 0
        q.schedule_at(t, T::B(1)); // seq 1
        q.schedule_lane_at(lane, SimTime::ZERO, 2); // seq 2
        q.schedule_lane_at(lane, t, 3); // seq 3
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().into_event(), T::A(2));
        assert_eq!(q.pop().unwrap().into_event(), T::A(0));
        // B(1) is the calendar's, A(3) the lane's: seq decides the tie.
        assert_eq!(q.pop_tie_if(is_a), None, "B(1) comes before A(3)");
        assert_eq!(q.pop_tie_if(is_b), Some(T::B(1)));
        assert!(!q.claim_now(), "A(3) is pending at now");
        assert_eq!(q.pop_tie_if(is_a), Some(T::A(3)));
        assert!(q.claim_now());
        // A re-arm lands one period on; a calendar event at that instant
        // pushed afterwards files behind it.
        q.rearm(lane, 3);
        q.schedule_at(SimTime::from_secs(2), T::B(4));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop().unwrap().into_event(), T::A(3));
        assert_eq!(q.pop().unwrap().into_event(), T::B(4));
        assert!(q.is_empty());
    }

    #[test]
    fn a_tick_behind_the_lane_back_falls_back_to_the_calendar() {
        let mut q = Scheduler::new();
        let lane = q.add_lane(SimDuration::from_secs(10), T::A);
        q.schedule_lane_at(lane, SimTime::from_secs(5), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        // Sealed: a tick before the back (5 s) takes the calendar.
        q.schedule_lane_at(lane, SimTime::from_secs(3), 1);
        q.schedule_lane_at(lane, SimTime::from_secs(5), 2);
        assert_eq!(q.len(), 3);
        let mut seen = Vec::new();
        q.for_each_pending(|e| seen.push(*e));
        seen.sort_by_key(|e| match e {
            T::A(n) | T::B(n) => *n,
        });
        assert_eq!(seen, [T::A(0), T::A(1), T::A(2)]);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time(), e.into_event()))).collect();
        assert_eq!(
            order,
            [
                (SimTime::from_secs(3), T::A(1)),
                (SimTime::from_secs(5), T::A(0)),
                (SimTime::from_secs(5), T::A(2)),
            ]
        );
    }

    #[test]
    fn a_tick_out_of_seq_reach_takes_the_calendar_until_its_lane_empties() {
        const JUMP: u64 = 1 << 32;
        let at = SimTime::from_secs;
        let mut q = Scheduler::new();
        let lane = q.add_lane(SimDuration::from_secs(1), T::A);
        q.schedule_lane_at(lane, at(1), 0);
        q.schedule_lane_at(lane, at(2), 1);
        assert_eq!(q.peek_time(), Some(at(1)), "sealed");
        q.skip_seqs(JUMP);
        // 2^32 + 2 seqs past the lane's block base: the calendar takes it.
        q.schedule_lane_at(lane, at(3), 2);
        q.schedule_at(at(2), T::B(3));
        q.schedule_lane_at(lane, at(3), 4);
        let lane_and_calendar = |q: &Scheduler<T>| (q.lanes[0].ticks.iter().count(), q.queue.len());
        assert_eq!(lane_and_calendar(&q), (2, 3), "out of reach: calendar");
        let fired = |q: &mut Scheduler<T>| q.pop().map(|e| (e.time(), e.into_event()));
        assert_eq!(fired(&mut q), Some((at(1), T::A(0))));
        assert_eq!(fired(&mut q), Some((at(2), T::A(1))));
        // The lane is empty: its block rebases to the next push and takes
        // ticks again.
        q.rearm(lane, 5);
        q.rearm(lane, 6);
        assert_eq!(lane_and_calendar(&q), (2, 3), "rebased: lane");
        // The heap model: every push as `(time, seq, event)`, popped in
        // `(time, seq)` order.
        let mut model = vec![
            (at(3), JUMP + 2, T::A(2)),
            (at(2), JUMP + 3, T::B(3)),
            (at(3), JUMP + 4, T::A(4)),
            (at(3), JUMP + 5, T::A(5)),
            (at(3), JUMP + 6, T::A(6)),
        ];
        model.sort_by_key(|&(time, seq, _)| (time, seq));
        let model: Vec<_> = model.into_iter().map(|(time, _, e)| (time, e)).collect();
        let tail: Vec<_> = std::iter::from_fn(|| fired(&mut q)).collect();
        assert_eq!(tail, model);
    }
}
