//! A day of per-VM series cut into blocks: the source of windowed
//! correlation caches.
//!
//! [`DayCache`] holds the raw values of a series set and the block size
//! every window must align to, and computes nothing until asked.
//! [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
//! asks it for the *block plane* of one window `[a, b)` of width
//! `w = b − a` that starts and ends on block boundaries. The plane
//! holds, per unordered pair of series,
//!
//! ```text
//! Σxy = 0.0 + Σ_k block_dot(x[block k], y[block k])    (blocks of [a, b), in order)
//! cov(x, y) = Σxy / w − mean_x · mean_y
//! ```
//!
//! in *one* contiguous `num_pairs`-wide row (1.4 MB at 600 VMs), which
//! the windowed cache owns and the admit loop streams through. A plane
//! depends only on the window's values and its blocks, so a day cache
//! over a slot's own prediction windows, cut into blocks of one slot,
//! yields the bits of the same window of a whole day's cache; the week
//! simulation builds its planes that way, one pair per plan.
//!
//! The means are computed by the windowed cache, exactly, two-pass from
//! the raw window, and so are the per-series variances. The uncentered
//! form `Σxx / w − mean²` cancels catastrophically on near-constant
//! windows, so the plane never serves a variance; it serves only the
//! pairwise covariances, where ulp-level drift matters only on exact
//! score ties.
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

    /// The block plane of `window`: entry `hi·(hi+1)/2 + lo` (for
    /// `lo ≤ hi`) is `0.0 + Σ_k block_dot` over the window's blocks in
    /// block order (for one block, exactly that block's `block_dot`),
    /// so a window's plane has the same bits whenever it is computed.
    /// The four-lane dot breaks the loop-carried fma chain of the naive
    /// running sum; the summation order differs from
    /// [`stats::covariance`](crate::stats::covariance) by design (the
    /// windowed covariances are ulp-tolerant, see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or does not start and
    /// end on block boundaries.
    #[track_caller]
    pub(crate) fn block_plane(&self, window: &Range<usize>) -> Vec<f64> {
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
        let rows: Vec<&[f64]> = (0..self.num_series)
            .map(|i| &self.series(i)[window.clone()])
            .collect();
        let mut sums = Vec::with_capacity(self.num_series * (self.num_series + 1) / 2);
        for (hi, xb) in rows.iter().enumerate() {
            let row = rows[..=hi].iter();
            if window.len() == g {
                // One block (an EPACT slot): the fold reduces to one
                // dot, inlined here rather than paying a call per pair.
                sums.extend(row.map(|xa| 0.0 + block_dot(xa, xb)));
            } else {
                sums.extend(row.map(|xa| block_sum(xa, xb, g)));
            }
        }
        sums
    }
}

/// `0.0 + Σ_k block_dot` over the `g`-sample blocks of `xa` and `xb`, in
/// block order. Kept out of line: inlined into the pair loop, its
/// running sum is spilled to the stack, which made a 24-block plane
/// fill a third slower.
#[inline(never)]
fn block_sum(xa: &[f64], xb: &[f64], g: usize) -> f64 {
    xa.chunks_exact(g)
        .zip(xb.chunks_exact(g))
        .fold(0.0, |sum, (a, b)| sum + block_dot(a, b))
}

/// Dot product with four independent accumulator lanes, so the fma
/// chain pipelines instead of serializing on one running sum.
#[inline]
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
        let mut acc = vec![0.0; 2];
        single.accumulate_covariance_row(0, &mut acc);
        assert_eq!(acc, [0.0, 0.0]);
    }

    /// The plane's uncentered `Σxx / w − mean²` can cancel to a hair
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

    /// Aligned windows read the block plane: scalar and bulk
    /// covariances must equal `0.0 + Σ_k block_dot` over the window's
    /// blocks bit for bit, for one-block and wider windows alike, for
    /// both orderings of each pair, and in whatever order the windows'
    /// caches are built (each owns its plane; the day cache holds
    /// values only).
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
                        let mut acc = vec![0.0; 5];
                        cache.accumulate_covariance_row(u, &mut acc);
                        for (v, bulk) in acc.iter().enumerate() {
                            let expected = reference(u, v, window);
                            assert_eq!(
                                cache.covariance(u, v).to_bits(),
                                expected.to_bits(),
                                "({u}, {v}) {window:?}"
                            );
                            assert_eq!(
                                bulk.to_bits(),
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
