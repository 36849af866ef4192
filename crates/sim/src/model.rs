//! The [`Model`] trait — the user-supplied world — and the [`Context`]
//! handed to it on every event.

use crate::event::EventToken;
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
/// A `Context` borrows the engine's scheduler for the duration of one
/// [`Model::handle_event`] call.
#[derive(Debug)]
pub struct Context<'a, E> {
    scheduler: &'a mut Scheduler<E>,
    events_processed: &'a mut u64,
    events_emitted: &'a mut u64,
    stop_requested: &'a mut bool,
    event_budget: u64,
}

impl<'a, E> Context<'a, E> {
    pub(crate) fn new(
        scheduler: &'a mut Scheduler<E>,
        events_processed: &'a mut u64,
        events_emitted: &'a mut u64,
        stop_requested: &'a mut bool,
        event_budget: u64,
    ) -> Self {
        Context {
            scheduler,
            events_processed,
            events_emitted,
            stop_requested,
            event_budget,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Schedules an event at an absolute instant (clamped to `now` if in
    /// the past) and returns a cancellation token.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        *self.events_emitted += 1;
        self.scheduler.schedule_at(time, event)
    }

    /// Schedules an event after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        *self.events_emitted += 1;
        self.scheduler.schedule_in(delay, event)
    }

    /// Schedules an event to run after all other events at the current
    /// instant (zero-delay continuation).
    pub fn schedule_now(&mut self, event: E) -> EventToken {
        self.schedule_in(SimDuration::ZERO, event)
    }

    /// Cancels a previously scheduled event. No-op if already fired.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.scheduler.cancel(token)
    }

    /// Number of live pending events.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    /// Requests that the run loop stop after the current event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Takes the next pending event iff the run loop's very next step
    /// would dispatch it at this same instant and `pred` accepts it: it
    /// fires at exactly [`Context::now`], the event budget has room and
    /// no stop is pending. The taken event counts as processed; the
    /// caller must handle it before anything else.
    ///
    /// This is exact, not a reordering: everything a handler schedules
    /// gets a higher sequence number than everything already queued, so
    /// the event handed back is the one the loop would have popped next
    /// whatever the current handler goes on to schedule. The one thing a
    /// taken event escapes is cancellation — like any popped event it
    /// has fired — so a model that cancels same-instant events from its
    /// handlers must not take them ahead of time.
    pub fn take_tie_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        if *self.events_processed >= self.event_budget || *self.stop_requested {
            return None;
        }
        let event = self.scheduler.pop_tie_if(pred)?;
        *self.events_processed += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    struct PingPong {
        pings: u32,
        limit: u32,
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
                    if self.pings >= self.limit {
                        ctx.request_stop();
                    } else {
                        ctx.schedule_in(SimDuration::from_millis(10), Ev::Pong);
                    }
                }
                Ev::Pong => {
                    ctx.schedule_now(Ev::Ping);
                }
            }
        }
    }

    #[test]
    fn request_stop_halts_run() {
        let mut sim = Simulator::new(PingPong { pings: 0, limit: 5 });
        sim.schedule_at(SimTime::ZERO, Ev::Ping);
        sim.run();
        assert_eq!(sim.model().pings, 5);
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
