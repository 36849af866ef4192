//! The [`Model`] trait — the user-supplied world — and the [`Context`]
//! handed to it on every event.

use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};

/// The simulated world: owns all state and reacts to events.
///
/// The engine never inspects `Event`; models define their own enum and
/// dispatch inside [`Model::handle_event`]. See the crate-level example.
pub trait Model {
    /// The event payload type processed by this model.
    type Event;

    /// Handles one event at the current simulated time.
    ///
    /// New events are scheduled through `ctx`; the engine executes them in
    /// `(time, scheduling-order)` order.
    ///
    /// A handler that wants the rest of a same-instant tie set — to warm
    /// the state every member will touch before running them in order —
    /// pulls it itself with [`Context::take_tie_if`]; the engine has one
    /// run loop and never groups events on the model's behalf.
    fn handle_event(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Per-event execution context: the clock plus scheduling operations.
///
/// A `Context` borrows the engine's scheduler and its processed-event
/// count for the duration of one [`Model::handle_event`] call.
#[derive(Debug)]
pub struct Context<'a, E> {
    scheduler: &'a mut Scheduler<E>,
    events_processed: &'a mut u64,
}

impl<'a, E> Context<'a, E> {
    pub(crate) fn new(scheduler: &'a mut Scheduler<E>, events_processed: &'a mut u64) -> Self {
        Context {
            scheduler,
            events_processed,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Schedules an event at an absolute instant (clamped to `now` if in
    /// the past).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        self.scheduler.schedule_at(time, event)
    }

    /// Schedules an event after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.scheduler.schedule_in(delay, event)
    }

    /// Schedules an event to run after all other events at the current
    /// instant (zero-delay continuation).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_in(SimDuration::ZERO, event)
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    /// Takes the next pending event iff the run loop's very next step
    /// would dispatch it at this same instant and `pred` accepts it: it
    /// fires at exactly [`Context::now`]. The taken event counts as
    /// processed; the caller must handle it before anything else.
    ///
    /// This is exact, not a reordering: everything a handler schedules
    /// gets a higher sequence number than everything already queued, so
    /// the event handed back is the one the loop would have popped next
    /// whatever the current handler goes on to schedule.
    pub fn take_tie_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        let event = self.scheduler.pop_tie_if(pred)?;
        *self.events_processed += 1;
        Some(event)
    }

    /// The mirror of [`Context::take_tie_if`] for a zero-delay
    /// continuation: true iff an event passed to
    /// [`Context::schedule_now`] at this point would be the run loop's
    /// very next dispatch — nothing is pending at or before
    /// [`Context::now`]. The claim consumes the sequence number that
    /// event would have taken and counts it as processed; the caller
    /// must then handle it itself, as the last thing it does, instead of
    /// scheduling it. On false nothing changed: schedule it as usual.
    ///
    /// Exact for the same reason: with nothing queued at `now`, the
    /// continuation would have been popped straight back, and whatever
    /// its handler schedules is numbered after the claimed sequence
    /// number either way.
    pub fn claim_now(&mut self) -> bool {
        let claimed = self.scheduler.claim_now();
        *self.events_processed += u64::from(claimed);
        claimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    struct PingPong {
        pings: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Ping,
        Pong,
    }

    impl Model for PingPong {
        type Event = Ev;
        fn handle_event(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Ping => {
                    self.pings += 1;
                    ctx.schedule_in(SimDuration::from_millis(10), Ev::Pong);
                }
                Ev::Pong => {
                    ctx.schedule_now(Ev::Ping);
                }
            }
        }
    }

    #[test]
    fn the_horizon_ends_a_self_sustaining_run() {
        let mut sim = Simulator::new(PingPong { pings: 0 });
        sim.schedule_at(SimTime::ZERO, Ev::Ping);
        // Pings at 0, 10, 20, 30 and 40 ms; the pong at 50 ms stays queued.
        sim.run_until(SimTime::from_millis(45));
        assert_eq!(sim.model().pings, 5);
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn schedule_now_runs_at_same_instant() {
        struct M {
            times: Vec<SimTime>,
        }
        impl Model for M {
            type Event = u8;
            fn handle_event(&mut self, ctx: &mut Context<'_, u8>, ev: u8) {
                self.times.push(ctx.now());
                if ev == 0 {
                    ctx.schedule_now(1);
                }
            }
        }
        let mut sim = Simulator::new(M { times: vec![] });
        sim.schedule_at(SimTime::from_secs(1), 0u8);
        sim.run();
        assert_eq!(sim.model().times, vec![SimTime::from_secs(1); 2]);
    }
}
