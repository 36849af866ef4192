//! # mtnet-metrics — statistics primitives for simulation experiments
//!
//! Self-contained, allocation-light statistics used by every experiment in
//! the multi-tier mobility reproduction:
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford) with merge and
//!   Student-t confidence intervals.
//! * [`Histogram`] — log-scale bucketed histogram with percentile queries
//!   (HdrHistogram-style, base-2 with linear sub-buckets).
//! * [`FixedHistogram`] — uniform fixed-bucket histogram with a constant
//!   footprint, for world-level streaming accumulators.
//! * [`Table`] — fixed-width text tables for experiment output.
//!
//! ```
//! use mtnet_metrics::Summary;
//! let mut s = Summary::new();
//! for x in [1.0, 2.0, 3.0, 4.0] { s.record(x); }
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed;
mod histogram;
mod summary;
mod table;

pub use fixed::FixedHistogram;
pub use histogram::Histogram;
pub use summary::Summary;
pub use table::{fmt_f64, Table};
