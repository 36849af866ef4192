//! # mtnet-traffic — multimedia workloads and per-flow QoS accounting
//!
//! The paper's target workload is "mobile multimedia communication": voice,
//! video and data sessions running while the node moves and hands off. This
//! crate provides:
//!
//! * [`ArrivalProcess`] — packet-arrival generators:
//!   [`Cbr`] (constant bit rate voice), [`OnOffVbr`] (exponential on/off
//!   video), [`ParetoWeb`] (heavy-tailed web/data bursts).
//! * [`SessionProcess`] — Poisson call arrivals with exponential holding
//!   times (classic Erlang traffic for blocking experiments). No
//!   experiment drives it yet: it is the input of the planned channel
//!   admission oracle.
//! * [`FlowQos`] — per-flow loss / one-way-delay / jitter (RFC 3550) /
//!   throughput accounting, the metric set every experiment reports.
//!
//! ```
//! use mtnet_traffic::{ArrivalProcess, Cbr};
//! use mtnet_sim::RngStream;
//!
//! let mut voice = Cbr::voice();
//! let mut rng = RngStream::derive(1, "flow0");
//! let a = voice.next_arrival(&mut rng);
//! assert_eq!(a.gap.as_millis_f64(), 20.0); // 50 pps
//! assert_eq!(a.bytes, 160);                // 64 kbit/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;
mod qos;
mod sessions;

pub use generators::{Arrival, ArrivalProcess, Cbr, OnOffVbr, ParetoWeb};
pub use qos::{FlowQos, QosReport};
pub use sessions::{SessionEvent, SessionProcess};
