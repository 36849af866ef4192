//! The run loop tying a [`Model`] to a [`Scheduler`].

use crate::model::{Context, Model};
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};

/// Why a call to [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained — nothing left to simulate.
    QueueEmpty,
    /// The time horizon was reached with events still pending.
    HorizonReached,
}

/// Sequential discrete-event simulator.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug)]
pub struct Simulator<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    events_processed: u64,
}

impl<M: Model> Simulator<M> {
    /// Creates a simulator around `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Simulator {
            model,
            scheduler: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Shared access to the model (for inspecting results).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for reconfiguring between phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulator and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    /// Firing time of the earliest pending event, if any. Lets an outer
    /// coordinator (e.g. a conservative-window parallel driver) pick the
    /// next safe horizon without popping anything.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.scheduler.peek_time()
    }

    /// Schedules an event from outside the model (initial conditions).
    pub fn schedule_at(&mut self, time: SimTime, event: M::Event) {
        self.scheduler.schedule_at(time, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.scheduler.schedule_in(delay, event)
    }

    /// Dispatches one popped event to the model: the single copy of the
    /// count-context-handle sequence shared by [`Simulator::step`] and
    /// [`Simulator::run_until`].
    fn dispatch(&mut self, entry: crate::ScheduledEvent<M::Event>) -> SimTime {
        let time = entry.time();
        let event = entry.into_event();
        self.events_processed += 1;
        let mut ctx = Context::new(&mut self.scheduler, &mut self.events_processed);
        self.model.handle_event(&mut ctx, event);
        time
    }

    /// Executes a single event, if one is pending, plus whatever
    /// same-instant ties its handler takes ([`Context::take_tie_if`]).
    /// Returns the firing time.
    pub fn step(&mut self) -> Option<SimTime> {
        let entry = self.scheduler.pop()?;
        Some(self.dispatch(entry))
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `horizon` (inclusive: events **at** the horizon fire) or
    /// until the queue drains. Time never advances past the last executed
    /// event.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        // Single queue walk per event (peek and pop fused).
        while let Some(entry) = self.scheduler.pop_at_or_before(horizon) {
            self.dispatch(entry);
        }
        if self.scheduler.is_empty() {
            RunOutcome::QueueEmpty
        } else {
            RunOutcome::HorizonReached
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself forever at a fixed period.
    struct Metronome {
        ticks: u64,
        period: SimDuration,
    }

    impl Model for Metronome {
        type Event = ();
        fn handle_event(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
            self.ticks += 1;
            ctx.schedule_in(self.period, ());
        }
    }

    fn metronome() -> Simulator<Metronome> {
        let mut sim = Simulator::new(Metronome {
            ticks: 0,
            period: SimDuration::from_secs(1),
        });
        sim.schedule_at(SimTime::ZERO, ());
        sim
    }

    #[test]
    fn run_until_horizon_inclusive() {
        let mut sim = metronome();
        let outcome = sim.run_until(SimTime::from_secs(10));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // ticks at t=0..=10 inclusive
        assert_eq!(sim.model().ticks, 11);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn run_until_resumable() {
        let mut sim = metronome();
        sim.run_until(SimTime::from_secs(5));
        let ticks_mid = sim.model().ticks;
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.model().ticks, ticks_mid + 5);
    }

    #[test]
    fn queue_empty_outcome() {
        struct Once;
        impl Model for Once {
            type Event = ();
            fn handle_event(&mut self, _: &mut Context<'_, ()>, _: ()) {}
        }
        let mut sim = Simulator::new(Once);
        sim.schedule_at(SimTime::from_secs(1), ());
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn next_event_time_peeks_without_popping() {
        let mut sim = metronome();
        assert_eq!(sim.next_event_time(), Some(SimTime::ZERO));
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(3)));
        let mut empty = Simulator::new(Metronome {
            ticks: 0,
            period: SimDuration::from_secs(1),
        });
        assert_eq!(empty.next_event_time(), None);
    }

    #[test]
    fn step_returns_firing_time() {
        let mut sim = metronome();
        assert_eq!(sim.step(), Some(SimTime::ZERO));
        assert_eq!(sim.step(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn into_model_returns_state() {
        let mut sim = metronome();
        sim.run_until(SimTime::from_secs(2));
        let m = sim.into_model();
        assert_eq!(m.ticks, 3);
    }

    /// Logs every handled tag as `(now, tag)`; even tags fan out a
    /// same-instant tag and two later ones that tie with each other.
    /// With `drain` set the handler keeps taking the next same-instant
    /// tie itself instead of returning to the run loop — a
    /// trace-equality probe against the same model left to the loop.
    /// (Variant boundaries are the scheduler tests' and the integration
    /// property's business.)
    struct Tracer {
        drain: bool,
        trace: Vec<(SimTime, u32)>,
    }

    impl Model for Tracer {
        type Event = u32;
        fn handle_event(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
            let mut next = Some(ev);
            while let Some(ev) = next {
                self.trace.push((ctx.now(), ev));
                if ev % 2 == 0 && ev < 40 {
                    ctx.schedule_now(ev + 1);
                    let later = SimDuration::from_millis(u64::from(ev % 3) + 1);
                    ctx.schedule_in(later, ev + 2);
                    ctx.schedule_in(later, ev + 4);
                }
                next = ctx.take_tie_if(|_| self.drain);
            }
        }
    }

    fn traced(drain: bool) -> Simulator<Tracer> {
        let mut sim = Simulator::new(Tracer {
            drain,
            trace: vec![],
        });
        for tag in [0, 2, 16, 6] {
            sim.schedule_at(SimTime::from_millis(u64::from(tag / 8)), tag);
        }
        sim
    }

    #[test]
    fn tie_draining_matches_the_reference_loop() {
        let mut reference = traced(false);
        assert_eq!(reference.run(), RunOutcome::QueueEmpty);
        let mut drained = traced(true);
        assert_eq!(drained.step(), Some(SimTime::ZERO));
        assert!(drained.events_processed() > 3, "one step ran a whole wave");
        assert_eq!(drained.run(), RunOutcome::QueueEmpty);
        assert_eq!(drained.model().trace, reference.model().trace);
        assert_eq!(drained.events_processed(), reference.events_processed());
        assert_eq!(drained.now(), reference.now());
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut sim = metronome();
            sim.run_until(SimTime::from_secs(100));
            (sim.model().ticks, sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }
}
