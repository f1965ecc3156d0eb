//! Day-level cache of pairwise product sums over slot-aligned windows.
//!
//! The `ntc_datacenter` week simulation produces one day-ahead forecast
//! per day and then re-plans EPACT on every hourly slot of that day —
//! 24 windows into the *same* underlying series. Rebuilding a
//! [`CorrelationCache`](crate::CorrelationCache) from scratch per slot
//! re-walks every series 24 times. [`DayCache`] copies the day once and
//! answers the covariances of a slot window from a *block plane*.
//!
//! Every window starts and ends on a block boundary (the simulation
//! passes its samples per slot as the block). For an aligned window
//! `[a, b)` of width `w = b − a`, the plane holds, per unordered pair of
//! series,
//!
//! ```text
//! Σxy = 0.0 + Σ_k block_dot(x[block k], y[block k])    (blocks of [a, b), in order)
//! cov(x, y) = Σxy / w − mean_x · mean_y
//! ```
//!
//! The first query of a window computes every pair's `Σxy` into *one*
//! contiguous `num_pairs`-wide plane (1.4 MB at 600 VMs), which serves
//! all later queries of the same window; the admit loop then streams
//! through it. A query of another window recomputes the plane in place,
//! so the cache holds one plane however many slots the day has.
//!
//! The means come from the caller and are exact:
//! [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
//! computes per-series means and variances two-pass from the raw
//! window. The uncentered form `Σxx / w − mean²` cancels
//! catastrophically on near-constant windows, so the plane never serves
//! a variance; it serves only the pairwise covariances, where ulp-level
//! drift matters only on exact score ties.
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, DayCache, TimeSeries};
//!
//! let day = DayCache::with_block_size(
//!     &[
//!         TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]),
//!         TimeSeries::from_values(vec![4.0, 3.0, 2.0, 1.0]),
//!     ],
//!     2,
//! );
//! let (x, y) = ([3.0, 4.0], [2.0, 1.0]); // the window 2..4
//! let cov = day.window_covariance_with_means(0, 1, 2..4, stats::mean(&x), stats::mean(&y));
//! assert!((cov - stats::covariance(&x, &y)).abs() < 1e-12);
//! ```

use std::cell::RefCell;
use std::ops::Range;

use crate::TimeSeries;

/// Why a series set cannot back a cache.
///
/// The [`std::fmt::Display`] text is also the panic message of the
/// panicking constructors, [`CorrelationCache::new`](crate::CorrelationCache::new)
/// and [`DayCache::with_block_size`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The series set was empty.
    EmptySeriesSet,
    /// The series in the set have differing lengths.
    RaggedSeries,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptySeriesSet => write!(f, "correlation cache needs a series set"),
            Error::RaggedSeries => write!(f, "all series must cover the same slot"),
        }
    }
}

impl std::error::Error for Error {}

/// The block plane: `Σ x·y` over one aligned window for every pair.
#[derive(Debug)]
struct Plane {
    /// The window `sums` holds, as the block range `(first, end)`;
    /// `None` until the first query.
    blocks: Option<(usize, usize)>,
    /// Entry `hi·(hi+1)/2 + lo` (for `lo ≤ hi`) is `0.0 + Σ_k block_dot`
    /// over `blocks` in block order (for one block, exactly that
    /// block's `block_dot`). The whole plane is filled on the window's
    /// first query: the week simulation builds a day cache only for a
    /// per-slot re-planner, whose packing of a slot compares nearly
    /// every pair anyway.
    sums: Vec<f64>,
}

/// A day of per-VM series answering covariances over block-aligned
/// windows from one lazily filled block plane; see the
/// [crate docs](crate) for the algebra.
#[derive(Debug)]
pub struct DayCache {
    num_series: usize,
    len: usize,
    /// Block granularity: every queried window starts and ends on a
    /// multiple of it.
    block: usize,
    /// Row-major `num_series × len` raw values.
    values: Vec<f64>,
    plane: RefCell<Plane>,
}

impl DayCache {
    /// Builds the day cache for windows aligned to `block` samples (the
    /// week simulation passes its samples per slot). Construction only
    /// copies the raw values; the plane is filled on first query.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty, the series lengths differ, or
    /// `block` is zero or does not divide the day length.
    #[track_caller]
    pub fn with_block_size(series: &[TimeSeries], block: usize) -> Self {
        if series.is_empty() {
            panic!("{}", Error::EmptySeriesSet);
        }
        let len = series[0].len();
        if series.iter().any(|s| s.len() != len) {
            panic!("{}", Error::RaggedSeries);
        }
        assert!(
            block > 0 && len.is_multiple_of(block),
            "block of {block} samples does not divide the day of {len} samples"
        );
        let num_series = series.len();
        let mut values = Vec::with_capacity(num_series * len);
        for s in series {
            values.extend_from_slice(s.values());
        }
        Self {
            num_series,
            len,
            block,
            values,
            plane: RefCell::new(Plane {
                blocks: None,
                sums: Vec::new(),
            }),
        }
    }

    /// Number of series in the day.
    pub fn num_series(&self) -> usize {
        self.num_series
    }

    /// Number of samples per series (the day length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the day holds zero samples per series.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw values of series `i`.
    pub fn series(&self, i: usize) -> &[f64] {
        &self.values[i * self.len..(i + 1) * self.len]
    }

    /// Population covariance of series `i` and `j` over `window`, from
    /// the block plane and the window means supplied by the caller —
    /// [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
    /// computes them exactly. Windows shorter than 2 yield 0, matching
    /// [`stats::covariance`](crate::stats::covariance).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or does not start and
    /// end on block boundaries.
    pub fn window_covariance_with_means(
        &self,
        i: usize,
        j: usize,
        window: Range<usize>,
        mean_i: f64,
        mean_j: f64,
    ) -> f64 {
        self.check_window(&window);
        let w = window.len();
        if w < 2 {
            return 0.0;
        }
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        let plane = &mut *self.plane.borrow_mut();
        let products = self.plane_for(plane, &window)[hi * (hi + 1) / 2 + lo];
        products * (1.0 / w as f64) - mean_i * mean_j
    }

    /// Adds `cov(u, v)` over `window` into `acc[v]` for every series
    /// `v`, with the window means supplied by the caller — the bulk
    /// form of
    /// [`window_covariance_with_means`](Self::window_covariance_with_means)
    /// behind the allocator's admit loop. A single `RefCell` borrow and
    /// one window check serve the whole row; the per-value arithmetic
    /// is identical to the scalar form. Windows shorter than 2 add zero
    /// everywhere.
    ///
    /// # Panics
    ///
    /// As for
    /// [`window_covariance_with_means`](Self::window_covariance_with_means),
    /// and if `means` or `acc` does not hold one entry per series.
    pub fn accumulate_window_covariances(
        &self,
        u: usize,
        window: Range<usize>,
        means: &[f64],
        acc: &mut [f64],
    ) {
        assert_eq!(means.len(), self.num_series, "one mean per series");
        assert_eq!(acc.len(), self.num_series, "one accumulator per series");
        self.check_window(&window);
        let w = window.len();
        if w < 2 {
            return;
        }
        let inv_w = 1.0 / w as f64;
        let mean_u = means[u];
        let plane = &mut *self.plane.borrow_mut();
        let plane = self.plane_for(plane, &window);
        // Split at `u`: the `v ≤ u` half of the triangular row is
        // contiguous in the plane and vectorizes.
        let base = u * (u + 1) / 2;
        for (v, (acc_v, &mean_v)) in acc[..=u].iter_mut().zip(means).enumerate() {
            *acc_v += plane[base + v] * inv_w - mean_u * mean_v;
        }
        for (acc_v, (v, &mean_v)) in acc[u + 1..]
            .iter_mut()
            .zip(means.iter().enumerate().skip(u + 1))
        {
            *acc_v += plane[v * (v + 1) / 2 + u] * inv_w - mean_u * mean_v;
        }
    }

    /// The plane of the aligned `window`, recomputed in place unless it
    /// already holds that window. Each pair's entry is
    /// `0.0 + Σ_k block_dot` over the window's blocks in block order,
    /// so a window's plane has the same bits whenever it is computed.
    /// The four-lane dot breaks the loop-carried fma chain of the naive
    /// running sum; the summation order differs from
    /// [`stats::covariance`](crate::stats::covariance) by design (the
    /// windowed covariances are ulp-tolerant, see the module docs).
    fn plane_for<'s>(&self, plane: &'s mut Plane, window: &Range<usize>) -> &'s [f64] {
        let g = self.block;
        let blocks = (window.start / g, window.end / g);
        if plane.blocks != Some(blocks) {
            plane.sums.clear();
            plane
                .sums
                .reserve_exact(self.num_series * (self.num_series + 1) / 2);
            for hi in 0..self.num_series {
                let xb = self.series(hi);
                for lo in 0..=hi {
                    let xa = self.series(lo);
                    let products = (blocks.0..blocks.1).fold(0.0, |sum, k| {
                        let span = k * g..(k + 1) * g;
                        sum + block_dot(&xa[span.clone()], &xb[span])
                    });
                    plane.sums.push(products);
                }
            }
            plane.blocks = Some(blocks);
        }
        &plane.sums
    }

    fn check_window(&self, window: &Range<usize>) {
        assert!(
            window.start <= window.end && window.end <= self.len,
            "window {}..{} outside day of {} samples",
            window.start,
            window.end,
            self.len
        );
        assert!(
            window.start.is_multiple_of(self.block) && window.end.is_multiple_of(self.block),
            "window {}..{} not aligned to blocks of {} samples",
            window.start,
            window.end,
            self.block
        );
    }
}

/// Dot product with four independent accumulator lanes, so the fma
/// chain pipelines instead of serializing on one running sum.
fn block_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn fixtures(n: usize, len: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                TimeSeries::from_values(
                    (0..len)
                        .map(|t| {
                            let x = (i * 5 + t * 7) % 13;
                            3.0 + i as f64 + x as f64 * (0.5 + 0.3 * i as f64)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// The message of the panic `f` must raise.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    /// Covariances and variances (`i == j`) over aligned windows, with
    /// exact means, against the two-pass moments of the window slice.
    #[test]
    fn windowed_moments_match_stats_on_slices() {
        let series = fixtures(4, 48);
        let day = DayCache::with_block_size(&series, 6);
        for (a, b) in [(0, 48), (0, 12), (12, 24), (36, 48), (6, 18), (42, 48)] {
            for (i, x) in series.iter().enumerate() {
                let w = &x.values()[a..b];
                for (j, y) in series.iter().enumerate() {
                    let v = &y.values()[a..b];
                    let fast = day.window_covariance_with_means(
                        i,
                        j,
                        a..b,
                        stats::mean(w),
                        stats::mean(v),
                    );
                    assert!(
                        (fast - stats::covariance(w, v)).abs() < 1e-9,
                        "covariance ({i}, {j}) window {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_are_zero() {
        let day = DayCache::with_block_size(&fixtures(2, 8), 1);
        assert_eq!(day.window_covariance_with_means(0, 1, 3..3, 0.0, 0.0), 0.0);
        assert_eq!(day.window_covariance_with_means(0, 1, 3..4, 1.0, 2.0), 0.0);
        let mut acc = vec![0.0; 2];
        day.accumulate_window_covariances(0, 3..4, &[1.0, 2.0], &mut acc);
        assert_eq!(acc, [0.0, 0.0]);
    }

    /// The plane's uncentered `Σxx / w − mean²` can cancel to a hair
    /// below zero on a constant window, so a day window takes its
    /// variances two-pass from the raw values instead.
    #[test]
    fn variance_never_negative_on_constant_windows() {
        let series = vec![TimeSeries::constant(16, 123.456789)];
        let day = DayCache::with_block_size(&series, 2);
        let window = crate::CorrelationCache::from_day_window(&day, 2..14);
        let direct = stats::variance(&series[0].values()[2..14]);
        assert_eq!(window.variance(0).to_bits(), direct.to_bits());
        assert!(window.variance(0) >= 0.0);
    }

    /// Aligned windows read the block plane: scalar and bulk
    /// covariances must equal `0.0 + Σ_k block_dot` over the window's
    /// blocks bit for bit, for one-block and wider windows alike, for
    /// both orderings of each pair, and in whatever order the windows
    /// are queried (each query of another window recomputes the one
    /// plane).
    #[test]
    fn aligned_windows_match_block_dot_sums_in_any_order() {
        let series = fixtures(5, 48);
        for g in [6, 12] {
            let day = DayCache::with_block_size(&series, g);
            let blocks = 48 / g;
            let windows: Vec<Range<usize>> = (0..blocks)
                .flat_map(|k0| (k0 + 1..=blocks).map(move |k1| k0 * g..k1 * g))
                .collect();
            let reference = |i: usize, j: usize, window: &Range<usize>| {
                let (a, b) = (series[i].values(), series[j].values());
                let products = (window.start / g..window.end / g).fold(0.0, |sum, k| {
                    sum + block_dot(&a[k * g..(k + 1) * g], &b[k * g..(k + 1) * g])
                });
                let mean = |x: &[f64]| stats::mean(&x[window.clone()]);
                products * (1.0 / window.len() as f64) - mean(a) * mean(b)
            };
            let n = windows.len();
            let orders: [Vec<usize>; 3] = [
                (0..n).collect(),
                (0..n).rev().collect(),
                (0..n).map(|q| (q * 7) % n).collect(),
            ];
            for order in orders {
                for &q in &order {
                    let window = &windows[q];
                    let means: Vec<f64> = (0..5)
                        .map(|i| stats::mean(&series[i].values()[window.clone()]))
                        .collect();
                    for u in 0..5 {
                        let mut acc = vec![0.0; 5];
                        day.accumulate_window_covariances(u, window.clone(), &means, &mut acc);
                        for v in 0..5 {
                            let expected = reference(u, v, window);
                            let scalar = day.window_covariance_with_means(
                                u,
                                v,
                                window.clone(),
                                means[u],
                                means[v],
                            );
                            assert_eq!(
                                scalar.to_bits(),
                                expected.to_bits(),
                                "({u}, {v}) {window:?}"
                            );
                            assert_eq!(
                                acc[v].to_bits(),
                                (0.0 + expected).to_bits(),
                                "bulk ({u}, {v}) {window:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_set_is_rejected() {
        let message = panic_message(|| {
            DayCache::with_block_size(&[], 12);
        });
        assert_eq!(message, Error::EmptySeriesSet.to_string());
    }

    #[test]
    fn ragged_set_is_rejected() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let message = panic_message(|| {
            DayCache::with_block_size(&series, 1);
        });
        assert_eq!(message, Error::RaggedSeries.to_string());
    }

    #[test]
    fn error_wording_matches_legacy_asserts() {
        assert_eq!(
            Error::EmptySeriesSet.to_string(),
            "correlation cache needs a series set"
        );
        assert_eq!(
            Error::RaggedSeries.to_string(),
            "all series must cover the same slot"
        );
    }

    #[test]
    #[should_panic(expected = "does not divide the day")]
    fn block_must_divide_the_day() {
        let _ = DayCache::with_block_size(&fixtures(2, 48), 5);
    }

    #[test]
    #[should_panic(expected = "not aligned to blocks")]
    fn unaligned_window_query_panics() {
        let day = DayCache::with_block_size(&fixtures(2, 48), 12);
        let _ = day.window_covariance_with_means(0, 1, 6..18, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "not aligned to blocks")]
    fn unaligned_bulk_query_panics() {
        let day = DayCache::with_block_size(&fixtures(2, 48), 12);
        day.accumulate_window_covariances(0, 12..30, &[0.0; 2], &mut [0.0; 2]);
    }
}
