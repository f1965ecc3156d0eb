//! Day-level prefix-sum cache answering windowed moments in O(1).
//!
//! The `ntc_datacenter` week simulation produces one day-ahead forecast
//! per day and then re-plans EPACT on every hourly slot of that day —
//! 24 windows into the *same* underlying series. Rebuilding a
//! [`CorrelationCache`](crate::CorrelationCache) from scratch per slot
//! re-walks every series 24 times. [`DayCache`] hoists that work to the
//! day level with classic prefix-sum algebra: for series `x` it stores
//!
//! ```text
//! P[t]  = Σ_{s<t} x[s]          (value prefix sums)
//! Q[t]  = Σ_{s<t} x[s]²         (square prefix sums)
//! R[t]  = Σ_{s<t} x[s]·y[s]     (pairwise product prefix sums)
//! ```
//!
//! so any window `[a, b)` of width `w = b − a` answers
//!
//! ```text
//! mean      = (P[b] − P[a]) / w
//! variance  = (Q[b] − Q[a]) / w − mean²           (clamped at ≥ 0)
//! cov(x, y) = (R[b] − R[a]) / w − mean_x · mean_y
//! ```
//!
//! in O(1). Pairwise product rows are built on first use and memoized
//! (triangular storage, one row per unordered pair), so a day in which
//! the allocator never compares VMs `i` and `j` never pays for them.
//!
//! # The block plane
//!
//! The week simulation only ever asks for windows aligned to slot
//! boundaries (each window starts and ends on a multiple of the
//! samples-per-slot grid), and a per-slot re-planner asks for one such
//! window per slot, many times over while it packs.
//! [`DayCache::with_block_size`] exploits that: the first query of an
//! aligned window computes every pair's product sum over that window
//! into *one* contiguous `num_pairs`-wide plane, which serves all later
//! queries of the same window. The admit loop then streams through one
//! compact plane (1.4 MB at 600 VMs) instead of hopping across one
//! 8·(len+1)-byte prefix row per pair. A query of another aligned
//! window recomputes the plane in place, so the cache holds one plane
//! however many slots the day has. Unaligned windows transparently fall
//! back to the full prefix rows.
//!
//! The uncentered forms trade a little precision for the O(1) window
//! query: on near-constant windows the subtraction can cancel
//! catastrophically, which is why variance is clamped at zero and why
//! [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
//! recomputes per-series means and variances exactly from the raw
//! window (see there).
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, DayCache, TimeSeries};
//!
//! let day = DayCache::new(&[
//!     TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]),
//!     TimeSeries::from_values(vec![4.0, 3.0, 2.0, 1.0]),
//! ]);
//! let direct = stats::covariance(&[2.0, 3.0], &[3.0, 2.0]);
//! assert!((day.window_covariance(0, 1, 1..3) - direct).abs() < 1e-12);
//! ```

use std::cell::RefCell;
use std::ops::Range;

use crate::TimeSeries;

/// Why a series set cannot back a cache.
///
/// [`std::fmt::Display`] reproduces the wording of the legacy assertion
/// messages so panicking wrappers stay drop-in compatible.
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

/// Lazily-filled prefix sums and pairwise product sums. Everything in
/// here is built on first use: the simulation hot path only ever
/// touches the block plane, so it never pays for the per-series
/// prefixes, and vice versa for the generic windowed-moment API.
#[derive(Debug)]
struct PairStore {
    /// Row-major `num_series × (len + 1)` value prefix sums, plus the
    /// matching square prefix sums. Empty until the first
    /// `window_sum`/`window_mean`/`window_variance` query.
    prefix: Vec<f64>,
    sq_prefix: Vec<f64>,
    /// Triangular pairwise product prefix rows, built lazily: entry
    /// `hi·(hi+1)/2 + lo` (for `lo ≤ hi`) is empty until first use,
    /// then a `len + 1` prefix row. Serves arbitrary windows.
    rows: Vec<Vec<f64>>,
    /// The aligned window `plane` holds, as the block range
    /// `(first, end)`; `None` until the first aligned query.
    plane_blocks: Option<(usize, usize)>,
    /// `Σ x·y` over `plane_blocks` for every pair, at the same
    /// triangular index as `rows`: `0.0 + Σ_k block_dot` in block
    /// order (for one block, exactly that block's `block_dot`). The
    /// plane is contiguous across pairs, so an aligned window's admit
    /// loop streams rather than gathers. The whole plane is filled on
    /// the window's first query: the week simulation builds a day cache
    /// only for a per-slot re-planner, whose packing of a slot compares
    /// nearly every pair anyway.
    plane: Vec<f64>,
}

/// See the [module docs](self).
#[derive(Debug)]
pub struct DayCache {
    num_series: usize,
    len: usize,
    /// Block granularity for slot-aligned product sums; 0 disables the
    /// block plane and every window uses the prefix rows.
    block: usize,
    /// Row-major `num_series × len` raw values.
    values: Vec<f64>,
    pairs: RefCell<PairStore>,
}

impl DayCache {
    /// Builds the day cache. Construction only copies the raw values;
    /// every derived sum is computed lazily on first use.
    ///
    /// Fails with [`Error::EmptySeriesSet`] on an empty slice and
    /// [`Error::RaggedSeries`] when the series lengths differ.
    pub fn try_new(series: &[TimeSeries]) -> Result<Self, Error> {
        Self::try_with_block_size(series, 0)
    }

    /// [`try_new`](Self::try_new) with a block plane of granularity
    /// `block` (see the [module docs](self)). A `block` that is zero or
    /// does not divide the day length disables the plane; the cache
    /// then behaves exactly like [`try_new`](Self::try_new).
    pub fn try_with_block_size(series: &[TimeSeries], block: usize) -> Result<Self, Error> {
        if series.is_empty() {
            return Err(Error::EmptySeriesSet);
        }
        let len = series[0].len();
        if series.iter().any(|s| s.len() != len) {
            return Err(Error::RaggedSeries);
        }
        let num_series = series.len();
        let mut values = Vec::with_capacity(num_series * len);
        for s in series {
            values.extend_from_slice(s.values());
        }
        let block = if block > 0 && len.is_multiple_of(block) {
            block
        } else {
            0
        };
        let num_pairs = num_series * (num_series + 1) / 2;
        Ok(Self {
            num_series,
            len,
            block,
            values,
            pairs: RefCell::new(PairStore {
                prefix: Vec::new(),
                sq_prefix: Vec::new(),
                rows: vec![Vec::new(); num_pairs],
                plane_blocks: None,
                plane: Vec::new(),
            }),
        })
    }

    /// Panicking form of [`try_new`](Self::try_new).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series lengths differ.
    #[track_caller]
    pub fn new(series: &[TimeSeries]) -> Self {
        match Self::try_new(series) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
        }
    }

    /// Panicking form of
    /// [`try_with_block_size`](Self::try_with_block_size).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series lengths differ.
    #[track_caller]
    pub fn with_block_size(series: &[TimeSeries], block: usize) -> Self {
        match Self::try_with_block_size(series, block) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
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

    /// Sum of series `i` over `window`, in O(1) once the per-series
    /// prefix sums exist (built on first use).
    pub fn window_sum(&self, i: usize, window: Range<usize>) -> f64 {
        self.check_window(&window);
        let store = &mut *self.pairs.borrow_mut();
        self.ensure_prefixes(store);
        let row = &store.prefix[i * (self.len + 1)..(i + 1) * (self.len + 1)];
        row[window.end] - row[window.start]
    }

    /// Population mean of series `i` over `window`, in O(1). An empty
    /// window yields 0, matching [`stats::mean`](crate::stats::mean).
    pub fn window_mean(&self, i: usize, window: Range<usize>) -> f64 {
        let w = window.len();
        if w == 0 {
            return 0.0;
        }
        self.window_sum(i, window) / w as f64
    }

    /// Population variance of series `i` over `window`, in O(1) and
    /// clamped at ≥ 0 (the uncentered form can cancel to a tiny
    /// negative). Windows shorter than 2 yield 0, matching
    /// [`stats::variance`](crate::stats::variance).
    pub fn window_variance(&self, i: usize, window: Range<usize>) -> f64 {
        let w = window.len();
        if w < 2 {
            return 0.0;
        }
        self.check_window(&window);
        let mean = self.window_mean(i, window.clone());
        let store = &mut *self.pairs.borrow_mut();
        self.ensure_prefixes(store);
        let row = &store.sq_prefix[i * (self.len + 1)..(i + 1) * (self.len + 1)];
        let mean_sq = (row[window.end] - row[window.start]) / w as f64;
        (mean_sq - mean * mean).max(0.0)
    }

    /// Builds the per-series value and square prefix sums if absent.
    fn ensure_prefixes(&self, store: &mut PairStore) {
        if !store.prefix.is_empty() {
            return;
        }
        store.prefix.reserve_exact(self.num_series * (self.len + 1));
        store
            .sq_prefix
            .reserve_exact(self.num_series * (self.len + 1));
        for i in 0..self.num_series {
            let (mut p, mut q) = (0.0, 0.0);
            store.prefix.push(p);
            store.sq_prefix.push(q);
            for &v in self.series(i) {
                p += v;
                q += v * v;
                store.prefix.push(p);
                store.sq_prefix.push(q);
            }
        }
    }

    /// Population covariance of series `i` and `j` over `window`, in
    /// O(1) once the pair's product prefix row exists (built and
    /// memoized on first use). Windows shorter than 2 yield 0, matching
    /// [`stats::covariance`](crate::stats::covariance).
    pub fn window_covariance(&self, i: usize, j: usize, window: Range<usize>) -> f64 {
        let mi = self.window_mean(i, window.clone());
        let mj = self.window_mean(j, window.clone());
        self.window_covariance_with_means(i, j, window, mi, mj)
    }

    /// [`window_covariance`](Self::window_covariance) with the window
    /// means supplied by the caller — lets
    /// [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
    /// pair the O(1) product sums with exactly-computed means.
    pub fn window_covariance_with_means(
        &self,
        i: usize,
        j: usize,
        window: Range<usize>,
        mean_i: f64,
        mean_j: f64,
    ) -> f64 {
        let w = window.len();
        if w < 2 {
            return 0.0;
        }
        self.check_window(&window);
        let products = self.window_product_sum(i, j, &window);
        products * (1.0 / w as f64) - mean_i * mean_j
    }

    /// Adds `cov(u, v)` over `window` into `acc[v]` for every series
    /// `v`, with the window means supplied by the caller — the bulk
    /// form of
    /// [`window_covariance_with_means`](Self::window_covariance_with_means)
    /// behind the allocator's admit loop. A single `RefCell` borrow and
    /// one window-bound read serve the whole row, so the per-pair cost
    /// is two prefix loads and a handful of flops; the per-value
    /// arithmetic is identical to the scalar form. Windows shorter
    /// than 2 add zero everywhere.
    pub fn accumulate_window_covariances(
        &self,
        u: usize,
        window: Range<usize>,
        means: &[f64],
        acc: &mut [f64],
    ) {
        assert_eq!(means.len(), self.num_series, "one mean per series");
        assert_eq!(acc.len(), self.num_series, "one accumulator per series");
        let w = window.len();
        if w < 2 {
            return;
        }
        self.check_window(&window);
        let inv_w = 1.0 / w as f64;
        let mean_u = means[u];
        let store = &mut *self.pairs.borrow_mut();
        if self.aligned(&window) {
            let plane = self.plane_for(store, &window);
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
            return;
        }
        let (a, b) = (window.start, window.end);
        for (v, (acc_v, &mean_v)) in acc.iter_mut().zip(means).enumerate() {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            let row = &mut store.rows[hi * (hi + 1) / 2 + lo];
            if row.is_empty() {
                build_pair_row(self.series(lo), self.series(hi), self.len, row);
            }
            let products = row[b] - row[a];
            *acc_v += products * inv_w - mean_u * mean_v;
        }
    }

    /// `Σ x_i·x_j` over the window, from the block plane when the
    /// window is block-aligned and the memoized prefix rows otherwise
    /// (either representation is built on first use). Aligned windows
    /// always read the plane so the scalar and bulk queries agree
    /// bitwise.
    fn window_product_sum(&self, i: usize, j: usize, window: &Range<usize>) -> f64 {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        let idx = hi * (hi + 1) / 2 + lo;
        let store = &mut *self.pairs.borrow_mut();
        if self.aligned(window) {
            return self.plane_for(store, window)[idx];
        }
        let row = &mut store.rows[idx];
        if row.is_empty() {
            build_pair_row(self.series(lo), self.series(hi), self.len, row);
        }
        row[window.end] - row[window.start]
    }

    /// Whether `window` starts and ends on block boundaries (and the
    /// block plane exists at all).
    #[inline]
    fn aligned(&self, window: &Range<usize>) -> bool {
        self.block != 0
            && window.start.is_multiple_of(self.block)
            && window.end.is_multiple_of(self.block)
    }

    /// The block plane of the aligned `window`, recomputed in place
    /// unless it already holds that window. Each pair's entry is
    /// `0.0 + Σ_k block_dot` over the window's blocks in block order,
    /// so a window's plane has the same bits whenever it is computed.
    /// The four-lane dot breaks the loop-carried fma chain of the naive
    /// running sum; the summation order differs from
    /// [`stats::covariance`](crate::stats::covariance) by design (the
    /// windowed covariances are ulp-tolerant, see the module docs).
    fn plane_for<'s>(&self, store: &'s mut PairStore, window: &Range<usize>) -> &'s [f64] {
        let g = self.block;
        let blocks = (window.start / g, window.end / g);
        if store.plane_blocks != Some(blocks) {
            store.plane.clear();
            store
                .plane
                .reserve_exact(self.num_series * (self.num_series + 1) / 2);
            for hi in 0..self.num_series {
                let xb = self.series(hi);
                for lo in 0..=hi {
                    let xa = self.series(lo);
                    let products = (blocks.0..blocks.1).fold(0.0, |sum, k| {
                        let span = k * g..(k + 1) * g;
                        sum + block_dot(&xa[span.clone()], &xb[span])
                    });
                    store.plane.push(products);
                }
            }
            store.plane_blocks = Some(blocks);
        }
        &store.plane
    }

    fn check_window(&self, window: &Range<usize>) {
        assert!(
            window.start <= window.end && window.end <= self.len,
            "window {}..{} outside day of {} samples",
            window.start,
            window.end,
            self.len
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

/// Fills `row` with the `len + 1` product prefix sums of `a` and `b`.
fn build_pair_row(a: &[f64], b: &[f64], len: usize, row: &mut Vec<f64>) {
    row.reserve_exact(len + 1);
    let mut acc = 0.0;
    row.push(acc);
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
        row.push(acc);
    }
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

    #[test]
    fn windowed_moments_match_stats_on_slices() {
        let series = fixtures(4, 48);
        let day = DayCache::new(&series);
        for (a, b) in [(0, 48), (0, 12), (12, 24), (36, 48), (5, 7), (20, 20)] {
            for i in 0..4 {
                let w = &series[i].values()[a..b];
                assert!(
                    (day.window_mean(i, a..b) - stats::mean(w)).abs() < 1e-9,
                    "mean series {i} window {a}..{b}"
                );
                assert!(
                    (day.window_variance(i, a..b) - stats::variance(w)).abs() < 1e-9,
                    "variance series {i} window {a}..{b}"
                );
                for (j, other) in series.iter().enumerate() {
                    let v = &other.values()[a..b];
                    assert!(
                        (day.window_covariance(i, j, a..b) - stats::covariance(w, v)).abs() < 1e-9,
                        "covariance ({i}, {j}) window {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_are_zero() {
        let day = DayCache::new(&fixtures(2, 8));
        assert_eq!(day.window_mean(0, 3..3), 0.0);
        assert_eq!(day.window_variance(0, 3..4), 0.0);
        assert_eq!(day.window_covariance(0, 1, 3..4), 0.0);
    }

    #[test]
    fn variance_never_negative_on_constant_windows() {
        let series = vec![TimeSeries::constant(16, 123.456789)];
        let day = DayCache::new(&series);
        assert!(day.window_variance(0, 2..14) >= 0.0);
    }

    #[test]
    fn pair_rows_are_shared_across_orderings() {
        let series = fixtures(3, 10);
        let day = DayCache::new(&series);
        let ab = day.window_covariance(0, 2, 1..9);
        let ba = day.window_covariance(2, 0, 1..9);
        assert_eq!(ab, ba);
    }

    /// Aligned windows read the block plane: scalar and bulk
    /// covariances must equal `0.0 + Σ_k block_dot` over the window's
    /// blocks bit for bit, for one-block and wider windows alike, in
    /// whatever order the windows are queried (each query of another
    /// window recomputes the one plane).
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
        assert!(matches!(DayCache::try_new(&[]), Err(Error::EmptySeriesSet)));
    }

    #[test]
    fn ragged_set_is_rejected() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        assert!(matches!(
            DayCache::try_new(&series),
            Err(Error::RaggedSeries)
        ));
    }

    #[test]
    #[should_panic(expected = "same slot")]
    fn ragged_set_panics_via_new() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let _ = DayCache::new(&series);
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
}
