//! Time-series substrate for utilization traces.
//!
//! The allocation policies of the paper operate on per-VM CPU and memory
//! utilization traces sampled every 5 minutes (the Google Cluster cadence)
//! and organized into one-hour *time slots* of 12 samples each, 24 to a
//! day. That geometry is stated once, as this crate's constants
//! [`SAMPLE_PERIOD_SECS`], [`SAMPLES_PER_SLOT`], [`SLOTS_PER_DAY`] and
//! [`SAMPLES_PER_DAY`]; the workload generator, the week simulator and
//! the predictors read them. This crate provides:
//!
//! * [`SampleGrid`] — a set of traces' length on that geometry;
//! * [`TimeSeries`] — a utilization trace with element-wise arithmetic,
//!   peaks, slot windows and the *complementary pattern* operator of
//!   Algorithms 1 and 2;
//! * [`stats`] — Pearson correlation (the φ similarity of Eq. 2),
//!   Euclidean distance (the Dist term of Eq. 2) and supporting moments;
//! * [`CorrelationCache`] / [`CandidateTable`] / [`LazyPatternStats`] —
//!   a slot's per-series moments and on-demand pairwise Pearson terms,
//!   and running-pattern correlations, for the allocator candidate scans
//!   of Algorithms 1 and 2 and COAT;
//! * [`DayCache`] — a day of series cut into blocks, from whose
//!   block-aligned windows a [`CorrelationCache`] computes its
//!   covariances as block sums.
//!
//! # Correlation algebra
//!
//! Algorithms 1 and 2 and COAT score a candidate VM `v` by φ, the
//! Pearson correlation of `v` with a server pattern `S`'s complement
//! `max(S) − S`. Three identities let the scans work from pairwise
//! terms instead of materialized series:
//!
//! ```text
//! φ = corr(max(S) − S, v) = −cov(S, v) / (σ(S) · σ(v))
//! cov(S, v)  = Σ_{u ∈ S} cov(u, v)
//! var(S + u) = var(S) + var(u) + 2·cov(S, u)
//! ```
//!
//! A [`CandidateTable`] holds every unallocated VM with the running
//! `cov(S, ·)`, for Algorithm 1, which scores every unallocated VM
//! against one server: admitting a VM folds its covariances into every
//! candidate left in one pass across the candidates.
//! [`LazyPatternStats`] keeps only the members and sums `cov(S, v)`
//! for a server that passes the cap check, for COAT/COAT-OPT and
//! Algorithm 2, which score one VM against every server. Both add the
//! same terms in admission order from `+0.0`, so they agree bit for
//! bit.
//!
//! A [`CorrelationCache`] is a plain value that computes each
//! covariance when asked. It holds either a slot's centered series,
//! whose covariance is `(−0.0 + Σ_t x_t·y_t) / len` in sample order,
//! or, when built over a window of a [`DayCache`] that starts and ends
//! on block boundaries, that window's raw values. A windowed covariance
//! sums the blocks' four-lane dot products in block order from `+0.0`:
//!
//! ```text
//! cov(x, y) = Σxy · (1 / w) − mean_x · mean_y      (w = window width)
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

/// Seconds between two samples of a trace: 5 minutes, the Google
/// Cluster cadence.
pub const SAMPLE_PERIOD_SECS: f64 = 300.0;
/// Samples in one allocation slot `T`: an hour of 5-minute samples.
pub const SAMPLES_PER_SLOT: usize = 12;
/// Allocation slots in one day.
pub const SLOTS_PER_DAY: usize = 24;
/// Samples in one day (288), the seasonal period of the day-ahead
/// forecasts.
pub const SAMPLES_PER_DAY: usize = SLOTS_PER_DAY * SAMPLES_PER_SLOT;

pub use corr::{CandidateTable, CorrelationCache, LazyPatternStats};
pub use grid::SampleGrid;
pub use series::TimeSeries;
pub use windowed::DayCache;
