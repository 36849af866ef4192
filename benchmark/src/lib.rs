//! # mtnet-benchmark — the repository benchmark
//!
//! Treats `mtnet` as a host-time simulator: simulated statistics must
//! repeat exactly (checked through `SimReport::fingerprint`), host time
//! and host memory are what is measured. See `README.md` in this
//! directory for the workloads, the metric → workload prediction table
//! and the list of `mtnet-*` items the harness calls.
//!
//! Layout: [`workload`] loads the `.mtspec` files and runs one checked
//! repeat; [`measure`] holds the clock-, `/proc`- and quartile helpers;
//! [`trace`] is the in-memory span recorder; [`layers`] replays each
//! crate's public API at the workload's shape; [`report`] names every
//! metric and prints the result.

#![forbid(unsafe_code)]

pub mod bench;
pub mod layers;
pub mod measure;
pub mod report;
pub mod trace;
pub mod workload;

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["city_packets", "metro_idle", "metro_busy", "metro_busy_x2"];

/// The seed `expected/*.digest` was recorded at.
pub const DIGEST_SEED: u64 = 42;
