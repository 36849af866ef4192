//! The pending-event set: `(time, seq)`-ordered events behind a
//! selectable backend — a calendar queue (bucketed timing wheel, O(1)
//! amortized, the default) or a binary heap (the reference).

mod calendar;
mod heap;

use crate::event::{EventToken, ScheduledEvent};
use crate::time::{SimDuration, SimTime};
use calendar::CalendarQueue;
use heap::HeapQueue;

/// Which ordering backend a [`Scheduler`] uses. Both implement the exact
/// same `(time, seq)` total order — property tests drive them through
/// identical schedule/cancel/pop interleavings and demand identical pop
/// sequences — so the choice is purely a performance one and can be made
/// per world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Bucketed timing wheel with an overflow ladder: O(1) amortized
    /// push/pop, bucket width self-tuned from the observed inter-event
    /// gap, payloads inline in the buckets. The right choice for
    /// simulation event loops.
    #[default]
    Calendar,
    /// Binary heap over small keys with a payload slab: O(log n)
    /// push/pop. The reference backend, and the safe harbor for tiny or
    /// wildly irregular schedules.
    Heap,
}

/// The ordering backend (enum dispatch: two variants, statically known).
#[derive(Debug)]
enum KeyQueue<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
}

impl<E> KeyQueue<E> {
    /// Pushes an entry, returning the backend's placement hint for the
    /// token (the heap's slab slot; the calendar needs none — its hint
    /// is the firing time itself).
    #[inline]
    fn push(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        match self {
            KeyQueue::Calendar(q) => {
                q.push(time, seq, event);
                0
            }
            KeyQueue::Heap(q) => q.push(time, seq, event),
        }
    }

    #[inline]
    fn peek_min(&mut self) -> Option<(SimTime, u64)> {
        match self {
            KeyQueue::Calendar(q) => q.peek_min(),
            KeyQueue::Heap(q) => q.peek_min(),
        }
    }

    #[inline]
    fn pop_min(&mut self) -> Option<(SimTime, u64, E)> {
        match self {
            KeyQueue::Calendar(q) => q.pop_min(),
            KeyQueue::Heap(q) => q.pop_min(),
        }
    }

    #[inline]
    fn pop_min_at_or_before(&mut self, horizon_ns: u64) -> Option<(SimTime, u64, E)> {
        match self {
            KeyQueue::Calendar(q) => q.pop_min_at_or_before(horizon_ns),
            KeyQueue::Heap(q) => q.pop_min_at_or_before(horizon_ns),
        }
    }

    /// The earliest entry's firing time and a borrow of its payload.
    #[inline]
    fn peek_min_event(&mut self) -> Option<(SimTime, &E)> {
        match self {
            KeyQueue::Calendar(q) => q.peek_min_event(),
            KeyQueue::Heap(q) => q.peek_min_event(),
        }
    }

    fn cancel(&mut self, seq: u64, time: SimTime, slot: u32) -> Option<E> {
        match self {
            // The calendar jumps to the bucket the firing time names;
            // the heap probes the one slab slot the token's hint names.
            KeyQueue::Calendar(q) => q.cancel(seq, time),
            KeyQueue::Heap(q) => q.cancel(seq, slot),
        }
    }
}

/// Priority queue of future events.
///
/// Events are ordered by `(time, seq)` — deterministic FIFO among
/// simultaneous events. The backend is selectable per scheduler
/// ([`SchedulerKind`]): the default calendar queue stores events inline
/// in timing-wheel buckets and makes push/pop O(1) amortized; the binary
/// heap remains as the O(log n) reference.
///
/// Cancellation by [`EventToken`] carries no per-event bookkeeping on
/// the schedule/pop fast path: the token's firing time steers the
/// calendar backend to the single bucket the event can occupy (the heap
/// reference still walks its slab). Cancelling a token that already
/// fired (or was already cancelled) is recognized and rejected rather
/// than corrupting [`Scheduler::len`].
///
/// ```
/// use mtnet_sim::{Scheduler, SimTime};
/// let mut q: Scheduler<&str> = Scheduler::new();
/// q.schedule_at(SimTime::from_secs(2), "b");
/// let tok = q.schedule_at(SimTime::from_secs(1), "a");
/// q.cancel(tok);
/// let next = q.pop().unwrap();
/// assert_eq!(next.into_event(), "b");
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: KeyQueue<E>,
    /// Number of pending events (cancels remove eagerly, so this is the
    /// backend's true population).
    live: usize,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
    cancelled_total: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero with the default
    /// (calendar-queue) backend.
    pub fn new() -> Self {
        Self::with_kind(SchedulerKind::default())
    }

    /// Creates an empty scheduler with an explicit ordering backend.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        Scheduler {
            queue: match kind {
                SchedulerKind::Calendar => KeyQueue::Calendar(CalendarQueue::new()),
                SchedulerKind::Heap => KeyQueue::Heap(HeapQueue::new()),
            },
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
            cancelled_total: 0,
        }
    }

    /// Which ordering backend this scheduler runs on.
    pub fn kind(&self) -> SchedulerKind {
        match self.queue {
            KeyQueue::Calendar(_) => SchedulerKind::Calendar,
            KeyQueue::Heap(_) => SchedulerKind::Heap,
        }
    }

    /// Current simulated time (the firing time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled (monitoring/debugging aid).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events ever cancelled.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires next, in
    /// scheduling order); this keeps zero-delay message chains simple.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live += 1;
        let slot = self.queue.push(time, seq, event);
        EventToken { seq, time, slot }
    }

    /// Schedules `event` after the given delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if the token was live —
    /// tokens that never existed, already fired, or were already cancelled
    /// are rejected without perturbing the event count.
    ///
    /// The token pins the search: the calendar backend probes the one
    /// bucket the firing time names (plus the overflow ladder) and the
    /// heap backend the one slab slot the token's placement hint names,
    /// so tearing down a large set of pending timers — e.g. a
    /// spec-driven fault plan — stays linear in the number of
    /// cancellations rather than quadratic on either backend.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if token.seq >= self.next_seq {
            return false;
        }
        match self.queue.cancel(token.seq, token.time, token.slot) {
            Some(_) => {
                self.live -= 1;
                self.cancelled_total += 1;
                true
            }
            None => false, // already fired or already cancelled
        }
    }

    /// Pops the next event, advancing `now` to its firing time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, seq, event) = self.queue.pop_min()?;
        self.live -= 1;
        self.now = time;
        Some(ScheduledEvent { time, seq, event })
    }

    /// Pops the next event only if it fires at or before `horizon` — one
    /// queue walk for the peek-then-pop pattern of a bounded run loop
    /// (the calendar backend caches the peeked position, so the pop that
    /// follows is O(1)).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let (time, seq, event) = self.queue.pop_min_at_or_before(horizon.as_nanos())?;
        self.live -= 1;
        self.now = time;
        Some(ScheduledEvent { time, seq, event })
    }

    /// Firing time of the next event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_min().map(|(time, _)| time)
    }

    /// Pops the next event iff it is a *tie* with the last popped one —
    /// it fires at exactly [`Scheduler::now`] — and `pred` accepts its
    /// payload; otherwise the queue is left exactly as it was.
    ///
    /// Both backends surface same-time ties in seq order already, so a
    /// caller looping on this consumes the tie set in precisely the
    /// order plain pops would, and the peek that ends the loop leaves
    /// the backend's cached minimum warm for the pop that follows.
    /// A taken event has fired (its token no longer cancels); everything
    /// not taken stays resident and cancellable.
    pub fn pop_tie_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        match self.queue.peek_min_event() {
            Some((time, event)) if time == self.now && pred(event) => {}
            _ => return None,
        }
        let (_, _, event) = self.queue.pop_min().expect("just peeked a live entry");
        self.live -= 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every facade test runs against both backends: the suite itself is
    /// an equivalence check (the randomized version lives in the
    /// integration property tests).
    fn both(test: impl Fn(SchedulerKind)) {
        test(SchedulerKind::Calendar);
        test(SchedulerKind::Heap);
    }

    #[test]
    fn default_kind_is_calendar() {
        let q: Scheduler<()> = Scheduler::new();
        assert_eq!(q.kind(), SchedulerKind::Calendar);
        let h: Scheduler<()> = Scheduler::with_kind(SchedulerKind::Heap);
        assert_eq!(h.kind(), SchedulerKind::Heap);
    }

    #[test]
    fn pops_in_time_order() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            q.schedule_at(SimTime::from_secs(3), 3);
            q.schedule_at(SimTime::from_secs(1), 1);
            q.schedule_at(SimTime::from_secs(2), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_event())).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn simultaneous_events_fifo() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.schedule_at(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.into_event())).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn now_advances_with_pop() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            q.schedule_at(SimTime::from_secs(5), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(5));
        });
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            q.schedule_at(SimTime::from_secs(5), "first");
            q.pop();
            q.schedule_at(SimTime::from_secs(1), "late");
            let e = q.pop().unwrap();
            assert_eq!(e.time(), SimTime::from_secs(5));
            assert_eq!(e.into_event(), "late");
        });
    }

    #[test]
    fn cancel_suppresses_event() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let a = q.schedule_at(SimTime::from_secs(1), "a");
            q.schedule_at(SimTime::from_secs(2), "b");
            assert!(q.cancel(a));
            assert!(!q.cancel(a), "double cancel is a no-op");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().into_event(), "b");
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn cancel_unknown_token_rejected() {
        both(|kind| {
            let mut q: Scheduler<()> = Scheduler::with_kind(kind);
            assert!(!q.cancel(EventToken {
                seq: 99,
                time: SimTime::ZERO,
                slot: 0,
            }));
        });
    }

    #[test]
    fn cancel_after_fire_is_rejected() {
        // Regression: cancelling a token whose event already fired used to
        // insert a tombstone anyway, making `len()` (`heap - cancelled`)
        // underflow. The token must be rejected and accounting stay exact.
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let a = q.schedule_at(SimTime::from_secs(1), "a");
            q.schedule_at(SimTime::from_secs(2), "b");
            assert_eq!(q.pop().unwrap().into_event(), "a");
            assert!(!q.cancel(a), "token already fired");
            assert_eq!(q.len(), 1, "live count untouched by the stale cancel");
            assert_eq!(q.cancelled_total(), 0);
            assert_eq!(q.pop().unwrap().into_event(), "b");
            assert!(q.is_empty());
            assert!(!q.cancel(a), "still rejected after the queue drained");
        });
    }

    #[test]
    fn cancel_interleaved_with_pops() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            for round in 0..10 {
                let tok = q.schedule_at(SimTime::from_secs(round), round);
                if round % 3 == 0 {
                    assert!(q.cancel(tok));
                    assert_eq!(q.peek_time(), None);
                } else {
                    assert_eq!(q.pop().unwrap().into_event(), round);
                }
                assert!(q.is_empty());
            }
        });
    }

    #[test]
    fn peek_time_skips_cancelled() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let a = q.schedule_at(SimTime::from_secs(1), "a");
            q.schedule_at(SimTime::from_secs(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        });
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
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
        });
    }

    #[test]
    fn len_counts_live_only() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let a = q.schedule_in(SimDuration::from_secs(1), ());
            q.schedule_in(SimDuration::from_secs(2), ());
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn counters_track_activity() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let a = q.schedule_in(SimDuration::ZERO, ());
            q.schedule_in(SimDuration::ZERO, ());
            q.cancel(a);
            assert_eq!(q.scheduled_total(), 2);
            assert_eq!(q.cancelled_total(), 1);
        });
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
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
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
        });
    }

    #[test]
    fn drained_but_undispatched_entries_stay_cancellable() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let t = SimTime::from_secs(1);
            q.schedule_at(t, T::A(0));
            let taken = q.schedule_at(t, T::A(1));
            let doomed = q.schedule_at(t, T::A(2));
            q.schedule_at(t, T::A(3));
            assert_eq!(q.pop().unwrap().into_event(), T::A(0));
            assert_eq!(q.pop_tie_if(is_a), Some(T::A(1)));
            assert!(!q.cancel(taken), "a taken tie has fired");
            assert!(q.cancel(doomed), "not-yet-taken is still live");
            assert!(!q.cancel(doomed), "double cancel rejected");
            assert_eq!(q.len(), 1);
            assert_eq!(q.cancelled_total(), 1);
            assert_eq!(
                q.pop_tie_if(is_a),
                Some(T::A(3)),
                "the cancelled entry never surfaces"
            );
            assert!(q.is_empty());
        });
    }

    #[test]
    fn pop_serves_tie_set_leftovers_before_later_pushes() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
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
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn cancel_deep_in_the_queue() {
        both(|kind| {
            let mut q = Scheduler::with_kind(kind);
            let tokens: Vec<_> = (0..64)
                .map(|i| q.schedule_at(SimTime::from_secs(i), i))
                .collect();
            // Cancel a scattering: head, middle, tail.
            for &i in &[0usize, 31, 32, 63] {
                assert!(q.cancel(tokens[i]));
            }
            assert_eq!(q.len(), 60);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.into_event())).collect();
            let expected: Vec<u64> = (0..64).filter(|i| ![0, 31, 32, 63].contains(i)).collect();
            assert_eq!(order, expected);
        });
    }
}
