//! The pending-event set: `(time, seq)`-ordered events in a calendar
//! queue (bucketed timing wheel, O(1) amortized push/pop).

mod calendar;

use crate::event::ScheduledEvent;
use crate::time::{SimDuration, SimTime};
use calendar::CalendarQueue;

/// Priority queue of future events.
///
/// Events are ordered by `(time, seq)` — deterministic FIFO among
/// simultaneous events — and stored inline in the timing-wheel buckets
/// of a calendar queue, so push and pop are O(1) amortized. An event,
/// once scheduled, fires: there is no cancellation (every timer the
/// models keep is soft state that re-checks its own expiry stamp).
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
        self.queue.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.queue.len() == 0
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires next, in
    /// scheduling order); this keeps zero-delay message chains simple.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(time.max(self.now), seq, event);
    }

    /// Schedules `event` after the given delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Pops the next event, advancing `now` to its firing time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, _, event) = self.queue.pop_min()?;
        self.now = time;
        Some(ScheduledEvent { time, event })
    }

    /// Pops the next event only if it fires at or before `horizon` — one
    /// queue walk for the peek-then-pop pattern of a bounded run loop
    /// (the queue caches the peeked position, so the pop that follows is
    /// O(1)).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let (time, _, event) = self.queue.pop_min_at_or_before(horizon.as_nanos())?;
        self.now = time;
        Some(ScheduledEvent { time, event })
    }

    /// Firing time of the next event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_min().map(|(time, _)| time)
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
        match self.queue.peek_min_event() {
            Some((time, event)) if time == self.now && pred(event) => {}
            _ => return None,
        }
        let (_, _, event) = self.queue.pop_min().expect("just peeked an entry");
        Some(event)
    }

    /// The mirror of [`Scheduler::pop_tie_if`] for an event about to be
    /// scheduled at `now`: true iff nothing is pending at or before
    /// [`Scheduler::now`], i.e. the event would be the very next pop. The
    /// sequence number it would have taken is consumed, so everything
    /// scheduled afterwards is numbered as if it had been queued; on
    /// false nothing changes.
    pub fn claim_now(&mut self) -> bool {
        if matches!(self.queue.peek_min(), Some((time, _)) if time <= self.now) {
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
}
