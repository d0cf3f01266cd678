//! Statistics substrate for the RaDaR reproduction.
//!
//! The evaluation in the paper ("A Dynamic Object Replication and Migration
//! Protocol for an Internet Hosting Service", ICDCS 1999) reports
//! *time-binned* quantities — backbone bandwidth per interval, mean response
//! latency per interval, maximum host load per interval — plus derived
//! scalars such as the *adjustment time* (Table 2). This crate provides the
//! small, reusable pieces those measurements are made of:
//!
//! * [`TimeSeries`] — fixed-width time bins accumulating a sum and a count,
//!   so the same structure serves both "total bytes×hops this interval"
//!   (read the sums) and "mean latency this interval" (read the means).
//! * [`OnlineSummary`] — numerically stable streaming mean / min / max /
//!   variance (Welford's algorithm).
//! * [`Histogram`] — fixed-bucket histogram with overflow bucket, used for
//!   latency distributions.
//! * [`adjustment_time`] — the paper's Table 2 metric: the time at which a
//!   bandwidth series settles to within 10% above its equilibrium average.
//! * [`WindowedRate`] — events/second averaged over a measurement interval,
//!   the paper's host load metric (§2.1).
//!
//! Everything here is deterministic and allocation-light; the simulator
//! calls into it on every request completion.
//!
//! # Examples
//!
//! ```
//! use radar_stats::{BinSpec, TimeSeries};
//!
//! let mut bw = TimeSeries::new(BinSpec::new(100.0));
//! bw.record(12.0, 36_000.0); // at t=12s, 36 KB·hops
//! bw.record(150.0, 24_000.0);
//! assert_eq!(bw.bin_sum(0), 36_000.0);
//! assert_eq!(bw.bin_sum(1), 24_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod equilibrium;
mod histogram;
mod quantile;
mod rate;
mod summary;
mod timeseries;

pub use equilibrium::{
    adjustment_time, equilibrium_mean, AdjustmentOutcome, ADJUSTMENT_MARGIN, EQUILIBRIUM_TAIL,
};
pub use histogram::Histogram;
pub use quantile::P2Quantile;
pub use rate::WindowedRate;
pub use summary::{OnlineSummary, Summary};
pub use timeseries::{BinSpec, TimeSeries};
