//! # mtnet-mobility — mobility models for mobile nodes
//!
//! Generates piecewise-linear trajectories for mobile nodes. The multi-tier
//! handoff strategy of the paper keys on **speed** (pedestrians should live
//! in micro/pico cells, vehicles in macro cells), so trajectories expose
//! instantaneous speed as a first-class quantity.
//!
//! * [`Point`] / [`Vec2`] — 2-D geometry in meters.
//! * [`SpeedClass`] — pedestrian / urban-vehicle / highway speed ranges.
//! * [`MobilityModel`] — the leg-generator trait. A model is an immutable
//!   parameter set that any number of nodes can walk at once: a node's
//!   start point, its `RngStream` and one `u32` phase word of progress
//!   live in the node's own row, not in the model.
//! * [`RandomWaypoint`] — the classic random-waypoint model.
//! * [`LinearCommute`] — a straight constant-speed path (domain-crossing
//!   experiments, Figs 3.2–3.3).
//! * [`Stationary`] — a node that never moves.
//! * [`Trajectory`] — a model of its own plus the phase word and the one
//!   leg it is currently on: O(1) position-and-speed queries at
//!   non-decreasing times, constant memory.
//! * [`LegCursor`] — that current leg alone (56 bytes, `Copy`, standing at
//!   its start point until the first query), for tables that keep it
//!   inline in a hot row and share the models in a table of their own.
//!
//! ```
//! use mtnet_mobility::{LinearCommute, Point, Trajectory};
//! use mtnet_sim::{RngStream, SimTime};
//!
//! let model = LinearCommute::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0), 10.0);
//! let mut traj = Trajectory::new(Box::new(model));
//! let mut rng = RngStream::derive(1, "demo");
//! let p = traj.position(SimTime::from_secs(50), &mut rng);
//! assert!((p.x - 500.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commute;
mod geometry;
mod model;
mod speed;
mod waypoint;

pub use commute::LinearCommute;
pub use geometry::{Point, Rect, Vec2};
pub use model::{Leg, LegCursor, MobilityModel, Stationary, Trajectory};
pub use speed::SpeedClass;
pub use waypoint::RandomWaypoint;
