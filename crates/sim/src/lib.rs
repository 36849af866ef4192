//! # mtnet-sim — deterministic discrete-event simulation engine
//!
//! A small, sequential, fully deterministic discrete-event simulator (DES)
//! used as the execution substrate for the multi-tier Mobile IP / Cellular IP
//! reproduction. Design goals:
//!
//! * **Determinism.** Events that fire at the same [`SimTime`] are executed
//!   in the order they were scheduled (a monotone sequence number breaks
//!   ties). All randomness flows through seeded [`rng::RngStream`]s derived
//!   from a single master seed, so a run is a pure function of
//!   `(model, seed)`.
//! * **No wall clock, no threads inside a run.** Simulated time is an
//!   integer nanosecond counter; the engine is a single loop over a
//!   calendar queue. Parallelism lives *between* runs:
//!   [`runner::BatchRunner`] fans independent simulations across cores,
//!   and [`rng::SeedTree`] splits a master seed into per-run streams that
//!   are pure functions of the `(experiment, architecture, replication)`
//!   path, so results are byte-identical at any thread count.
//! * **Model-agnostic.** The engine knows nothing about networks: users
//!   implement [`Model`] with their own event type and mutate their own
//!   world state.
//!
//! ## Example
//!
//! ```
//! use mtnet_sim::{Model, Context, SimTime, SimDuration, Simulator};
//!
//! struct Counter { fired: u32 }
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle_event(&mut self, ctx: &mut Context<'_, Ev>, _ev: Ev) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod hash;
mod model;
pub mod rng;
pub mod runner;
mod scheduler;
mod simulator;
mod time;

pub use event::ScheduledEvent;
pub use hash::{FxHashMap, FxHashSet};
pub use model::{Context, Model};
pub use rng::{RngStream, SeedTree};
pub use runner::BatchRunner;
pub use scheduler::Scheduler;
pub use simulator::{RunOutcome, Simulator};
pub use time::{SimDuration, SimTime};
