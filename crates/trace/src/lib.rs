//! Time-series substrate for utilization traces.
//!
//! The allocation policies of the paper operate on per-VM CPU and memory
//! utilization traces sampled every 5 minutes (the Google Cluster cadence)
//! and organized into one-hour *time slots* of 12 samples each. This crate
//! provides:
//!
//! * [`SampleGrid`] — the sampling layout (period, horizon, slot size);
//! * [`TimeSeries`] — a utilization trace with element-wise arithmetic,
//!   peaks, slot windows and the *complementary pattern* operator of
//!   Algorithms 1 and 2;
//! * [`stats`] — Pearson correlation (the φ similarity of Eq. 2),
//!   Euclidean distance (the Dist term of Eq. 2) and supporting moments;
//! * [`CorrelationCache`] / [`PatternStats`] / [`LazyPatternStats`] —
//!   memoized pairwise Pearson terms and running-pattern correlations
//!   for the allocator candidate scans of Algorithms 1 and 2 and COAT;
//! * [`DayCache`] — a day of series answering slot-aligned windowed
//!   covariances from one block plane, so one cache serves all hourly
//!   re-plans of a day.
//!
//! # Correlation algebra
//!
//! Algorithms 1 and 2 and COAT score a candidate VM `v` by φ, the
//! Pearson correlation of `v` with a server pattern `S`'s complement
//! `max(S) − S`. Three identities let the scans work from memoized
//! pairwise terms instead of materialized series:
//!
//! ```text
//! φ = corr(max(S) − S, v) = −cov(S, v) / (σ(S) · σ(v))
//! cov(S, v)  = Σ_{u ∈ S} cov(u, v)
//! var(S + u) = var(S) + var(u) + 2·cov(S, u)
//! ```
//!
//! [`PatternStats`] keeps the whole `cov(S, ·)` row, for Algorithm 1,
//! which scores every unallocated VM against one server.
//! [`LazyPatternStats`] keeps only the members and sums `cov(S, v)`
//! for a server that passes the cap check, for COAT/COAT-OPT and
//! Algorithm 2, which score one VM against every server. Both add the
//! same terms in admission order from `+0.0`, so they agree bit for
//! bit.
//!
//! A [`CorrelationCache`] either owns a slot's centered series or
//! borrows a window of a [`DayCache`]. The day cache copies a day once
//! and, for a window that starts and ends on block boundaries, keeps a
//! *block plane*: per pair, `Σxy` over the window, the blocks' dot
//! products summed in block order from `+0.0`. The covariance is then
//!
//! ```text
//! cov(x, y) = Σxy / w − mean_x · mean_y      (w = window width)
//! ```
//!
//! with the means computed exactly, two-pass, from the raw window. The
//! per-series variances are computed the same way rather than as
//! `Σxx / w − mean²`, which cancels catastrophically on near-constant
//! windows; so σ, and every degenerate-σ decision (φ = 0 below
//! `1e-12`), is bit-identical to an owned cache on the same values.
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, TimeSeries};
//!
//! let a = TimeSeries::from_values(vec![10.0, 20.0, 30.0]);
//! let b = TimeSeries::from_values(vec![1.0, 2.0, 3.0]);
//! let phi = stats::pearson_correlation(a.values(), b.values());
//! assert!((phi - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod corr;
mod grid;
pub mod rolling;
mod series;
pub mod stats;
mod windowed;

pub use corr::{CorrelationCache, LazyPatternStats, PatternStats};
pub use grid::SampleGrid;
pub use series::TimeSeries;
pub use windowed::{DayCache, Error};
