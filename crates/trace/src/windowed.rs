//! A day of per-VM series cut into blocks: the source of windowed
//! correlation caches.
//!
//! [`DayCache`] holds the raw values of a series set and the block size
//! every window must align to, and computes nothing.
//! [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
//! copies one window `[a, b)` of width `w = b − a` that starts and ends
//! on block boundaries, and answers each covariance from it on demand:
//!
//! ```text
//! Σxy = 0.0 + Σ_k block_dot(x[block k], y[block k])    (blocks of [a, b), in order)
//! cov(x, y) = Σxy · (1 / w) − mean_x · mean_y
//! ```
//!
//! A covariance depends only on the window's values and its blocks, so
//! a day cache over a slot's own prediction windows, cut into blocks of
//! one slot, yields the bits of the same window of a whole day's cache;
//! the week simulation builds its caches that way, one pair per plan.
//!
//! The means are computed by the windowed cache, exactly, two-pass from
//! the raw window, and so are the per-series variances. The uncentered
//! form `Σxx / w − mean²` cancels catastrophically on near-constant
//! windows, so the block sums never serve a variance; they serve only
//! the pairwise covariances, where ulp-level drift matters only on
//! exact score ties.
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, CorrelationCache, DayCache, TimeSeries};
//!
//! let day = DayCache::with_block_size(
//!     &[
//!         TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]),
//!         TimeSeries::from_values(vec![4.0, 3.0, 2.0, 1.0]),
//!     ],
//!     2,
//! );
//! let window = CorrelationCache::from_day_window(&day, 2..4);
//! let (x, y) = ([3.0, 4.0], [2.0, 1.0]);
//! assert!((window.covariance(0, 1) - stats::covariance(&x, &y)).abs() < 1e-12);
//! ```

use std::ops::Range;

use crate::corr::series_set_len;
use crate::TimeSeries;

/// A day of per-VM series whose block-aligned windows back
/// [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window);
/// see the [crate docs](crate) for the algebra.
#[derive(Debug)]
pub struct DayCache {
    num_series: usize,
    len: usize,
    /// Block granularity: every window starts and ends on a multiple
    /// of it.
    block: usize,
    /// Row-major `num_series × len` raw values.
    values: Vec<f64>,
}

impl DayCache {
    /// Builds the day cache for windows aligned to `block` samples.
    /// Construction only copies the raw values.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty, the series lengths differ, or
    /// `block` is zero or does not divide the day length.
    #[track_caller]
    pub fn with_block_size(series: &[TimeSeries], block: usize) -> Self {
        let len = series_set_len(series);
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
    pub(crate) fn series(&self, i: usize) -> &[f64] {
        &self.values[i * self.len..(i + 1) * self.len]
    }

    /// The block size `window` is cut into, once it is checked to lie
    /// inside the day and to start and end on block boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or does not start and
    /// end on block boundaries.
    #[track_caller]
    pub(crate) fn aligned_block(&self, window: &Range<usize>) -> usize {
        assert!(
            window.start <= window.end && window.end <= self.len,
            "window {}..{} outside day of {} samples",
            window.start,
            window.end,
            self.len
        );
        let g = self.block;
        assert!(
            window.start.is_multiple_of(g) && window.end.is_multiple_of(g),
            "window {}..{} not aligned to blocks of {g} samples",
            window.start,
            window.end
        );
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corr::block_dot;
    use crate::{stats, CorrelationCache};

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
            let window = CorrelationCache::from_day_window(&day, a..b);
            for (i, x) in series.iter().enumerate() {
                let w = &x.values()[a..b];
                for (j, y) in series.iter().enumerate() {
                    let v = &y.values()[a..b];
                    assert!(
                        (window.covariance(i, j) - stats::covariance(w, v)).abs() < 1e-9,
                        "covariance ({i}, {j}) window {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_are_zero() {
        let day = DayCache::with_block_size(&fixtures(2, 8), 1);
        assert_eq!(
            CorrelationCache::from_day_window(&day, 3..3).covariance(0, 1),
            0.0
        );
        let single = CorrelationCache::from_day_window(&day, 3..4);
        assert_eq!(single.covariance(0, 1), 0.0);
        let mut table = single.candidate_table(&[0, 1]);
        table.admit(0);
        assert_eq!(table.covariance_with(0), 0.0);
    }

    /// The uncentered `Σxx / w − mean²` can cancel to a hair
    /// below zero on a constant window, so a day window takes its
    /// variances two-pass from the raw values instead.
    #[test]
    fn variance_never_negative_on_constant_windows() {
        let series = vec![TimeSeries::constant(16, 123.456789)];
        let day = DayCache::with_block_size(&series, 2);
        let window = CorrelationCache::from_day_window(&day, 2..14);
        let direct = stats::variance(&series[0].values()[2..14]);
        assert_eq!(window.variance(0).to_bits(), direct.to_bits());
        assert!(window.variance(0) >= 0.0);
    }

    /// Aligned windows sum block dots: scalar covariances and a
    /// candidate table's fold must equal `0.0 + Σ_k block_dot` over the
    /// window's blocks bit for bit, for one-block and wider windows
    /// alike, for both orderings of each pair, and in whatever order the
    /// windows' caches are built (each owns its window's values; the
    /// day cache holds values only).
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
                    let cache = CorrelationCache::from_day_window(&day, window.clone());
                    for u in 0..5 {
                        for v in 0..5 {
                            assert_eq!(
                                cache.covariance(u, v).to_bits(),
                                reference(u, v, window).to_bits(),
                                "({u}, {v}) {window:?}"
                            );
                        }
                        // The table leaves `u` out of its fold once `u`
                        // is admitted; every other series folds in.
                        let mut table = cache.candidate_table(&[0, 1, 2, 3, 4]);
                        table.admit(u);
                        for c in 0..table.len() {
                            let v = table.series(c);
                            assert_eq!(
                                table.covariance_with(c).to_bits(),
                                (0.0 + reference(u, v, window)).to_bits(),
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
        assert_eq!(message, "correlation cache needs a series set");
    }

    #[test]
    fn ragged_set_is_rejected() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let message = panic_message(|| {
            DayCache::with_block_size(&series, 1);
        });
        assert_eq!(message, "all series must cover the same slot");
    }

    /// Both constructors share one input check, whose messages are the
    /// wording of the original asserts.
    #[test]
    fn error_wording_matches_legacy_asserts() {
        assert_eq!(
            panic_message(|| {
                CorrelationCache::new(&[]);
            }),
            "correlation cache needs a series set"
        );
        let ragged = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        assert_eq!(
            panic_message(|| {
                CorrelationCache::new(&ragged);
            }),
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
        let _ = CorrelationCache::from_day_window(&day, 6..24);
    }

    #[test]
    #[should_panic(expected = "not aligned to blocks")]
    fn unaligned_bulk_query_panics() {
        let day = DayCache::with_block_size(&fixtures(2, 48), 12);
        let _ = CorrelationCache::from_day_window(&day, 12..30);
    }
}
