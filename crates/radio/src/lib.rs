//! # mtnet-radio — the multi-tier wireless substrate
//!
//! Models the radio layer of the paper's Fig 2.1: overlapping pico-, micro-,
//! macro- and satellite-tier cells covering the same geography with
//! different footprints, data rates and channel counts.
//!
//! * [`CellKind`] — the four tiers with realistic default parameters.
//! * [`Cell`] / [`CellId`] — one base station's coverage area and channel
//!   pool.
//! * [`PathLoss`] — log-distance path loss, one exponent per tier and no
//!   shadowing: received power in dBm is the tier's transmit power minus
//!   its [`PathLoss::of`] loss over the distance (the slant range for the
//!   satellite).
//! * [`ChannelPool`] — channels with guard-channel admission (handoff calls
//!   get priority over new calls, the classic multi-tier admission scheme
//!   of the paper's refs \[6]/\[7]).
//! * [`CellMap`] — cell placement plus "best server" selection with
//!   hysteresis, the trigger for every handoff in the reproduction.
//!
//! ```
//! use mtnet_radio::{Cell, CellId, CellKind, CellMap};
//! use mtnet_mobility::Point;
//! use mtnet_net::NodeId;
//!
//! let mut map = CellMap::without_shadowing();
//! map.add(Cell::new(CellId(0), CellKind::Macro, Point::new(0.0, 0.0), NodeId(0)));
//! map.add(Cell::new(CellId(1), CellKind::Micro, Point::new(100.0, 0.0), NodeId(1)));
//! // Right next to the micro BS, the micro cell is the best server.
//! let best = map.best_cell(Point::new(110.0, 0.0), None).unwrap();
//! assert_eq!(best, CellId(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod channels;
mod lanes;
mod map;
mod propagation;

pub use cell::{Cell, CellId, CellKind};
pub use channels::{AdmitError, CallKind, ChannelPool};
pub use map::{CellMap, Measurement};
pub use propagation::{PathLoss, SENSITIVITY_DBM};
