//! Pearson-correlation terms for the allocator hot loops.
//!
//! Algorithms 1 and 2 score every unallocated VM against the current
//! server pattern `Patt` by the correlation of the VM with the server's
//! *complementary* pattern `max(Patt) − Patt`. Done naively (as the
//! paper states it) every candidate scan materializes the complement and
//! re-walks both series. The terms involved are redundant across scans:
//!
//! * `corr(max(S) − S, v) = −cov(S, v) / (σ(S) · σ(v))` — the complement
//!   only flips the sign, so no complement series is ever needed;
//! * `cov(S, v) = Σ_{u ∈ S} cov(u, v)` — covariance is additive in the
//!   sum, so admitting a VM updates the running covariances with one
//!   pass over the pairwise terms;
//! * `var(S + u) = var(S) + var(u) + 2·cov(S, u)` — the pattern variance
//!   updates in O(1) from terms already on hand.
//!
//! [`CorrelationCache`] computes the per-series moments once per slot
//! and each pairwise covariance when it is asked for; [`PatternStats`]
//! and [`LazyPatternStats`] carry `var(S)` and the `cov(S, ·)` terms for
//! one server pattern. Together they reduce a candidate scan from
//! O(len) per candidate to O(1) (O(|S|) for the lazy form) — the
//! redundancy hoist the `ntc_datacenter::Engine` sweep relies on. A
//! cache keeps no memo of pairwise terms, because no scan would hit
//! one: COAT, COAT-OPT and Algorithm 2 read `cov(u, v)` only while
//! placing the later of `u` and `v`, and Algorithm 1, whose eager rows
//! read each pair twice, gets a windowed cache from the week
//! simulation, where a covariance is one plane lookup.
//!
//! The numerical contract mirrors [`stats`](crate::stats) exactly:
//! population moments, a `1e-12` degenerate-σ floor mapping to φ = 0,
//! and clamping into `[-1, 1]`.
//!
//! # Eager rows and lazy member sums
//!
//! The allocators scan in two shapes, and each takes the accumulator
//! that computes the fewest covariances no decision reads:
//!
//! * **Algorithm 1** fills one server at a time and scores *every*
//!   unallocated VM against it. [`PatternStats`] keeps the eager row
//!   `cov(S, ·)` over all series, updated by one bulk covariance row per
//!   admission, and `σ(S)`, so each candidate costs one load. Most
//!   candidates pass the cap check (84 % at paper scale), so most of
//!   the row is read and laziness would not pay.
//! * **COAT/COAT-OPT and Algorithm 2** score *one* VM against every open
//!   server, and only servers that pass the per-sample cap check are
//!   scored at all. [`LazyPatternStats`] keeps just the members in
//!   admission order and `var(S)`, and sums `cov(S, v)` over the members
//!   of a server that fits. An eager row would fold each admitted VM's
//!   full covariance row into its server's, and a 600-VM COAT day reads
//!   only 4.4 % of those covariances.
//!
//! Both sum the same `cov(u, v)` terms in admission order starting from
//! `+0.0` and score through one φ formula, so they agree bit for bit.
//!
//! # Windowed caches and the block-plane algebra
//!
//! A cache can also be built over a block-aligned window of a
//! [`DayCache`] (see [`CorrelationCache::from_day_window`]). It then
//! computes and owns the window's *block plane*: per pair, `Σxy` over
//! the window (the blocks' dot products summed in block order), so the
//! window `[a, b)` of width `w` answers
//!
//! ```text
//! cov(x, y) = Σxy / w − mean_x · mean_y
//! ```
//!
//! without re-centering the series, and Algorithm 1's eager row streams
//! through one contiguous plane row. The means are not taken from the
//! plane. The uncentered variance form `Σxx / w − mean²` cancels
//! catastrophically on near-constant windows (AR(1) traces pinned at
//! their floor), which can land σ on the wrong side of the `1e-12`
//! degeneracy floor relative to the exact two-pass computation. A
//! windowed cache therefore computes per-series means and variances
//! *exactly* (same two-pass code as the owning constructor, over the
//! same bits) and reserves the plane for the pairwise covariances,
//! where ulp-level drift only matters on exact score ties.
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{CorrelationCache, TimeSeries};
//!
//! let vms = vec![
//!     TimeSeries::from_values(vec![30.0, 30.0, 5.0, 5.0]),
//!     TimeSeries::from_values(vec![5.0, 5.0, 30.0, 30.0]),
//! ];
//! let cache = CorrelationCache::new(&vms);
//! let mut pattern = cache.pattern();
//! pattern.admit(&cache, 0);
//! // The night VM matches the day pattern's complement perfectly.
//! assert!((pattern.complement_correlation(&cache, 1) - 1.0).abs() < 1e-12);
//! ```

use std::ops::Range;

use crate::{stats, DayCache, TimeSeries};

/// The common length of a non-empty set of equal-length series: the one
/// input check of [`CorrelationCache::new`] and
/// [`DayCache::with_block_size`].
///
/// # Panics
///
/// Panics if `series` is empty or the series lengths differ.
#[track_caller]
pub(crate) fn series_set_len(series: &[TimeSeries]) -> usize {
    assert!(!series.is_empty(), "correlation cache needs a series set");
    let len = series[0].len();
    assert!(
        series.iter().all(|s| s.len() == len),
        "all series must cover the same slot"
    );
    len
}

/// The eager accumulator for one server pattern `S`: `var(S)`, `σ(S)`
/// and the running `cov(S, ·)` row over every series, for scans that
/// score many candidates against one pattern (Algorithm 1; see the
/// [crate docs](crate)).
#[derive(Debug, Clone)]
pub struct PatternStats {
    var: f64,
    /// `σ(S)`, taken once per admission rather than once per candidate.
    std: f64,
    cov_with: Vec<f64>,
}

/// Where a cache's covariances come from: the slot's centered series,
/// or a window's block plane.
#[derive(Debug, Clone)]
enum Backing {
    /// Row-major `num_series × len` mean-centered values.
    Owned(Vec<f64>),
    Windowed {
        /// Entry `hi·(hi+1)/2 + lo` (for `lo ≤ hi`) is the window's
        /// `Σxy` of series `lo` and `hi`.
        plane: Vec<f64>,
        /// Exact per-series window means (two-pass, not plane-derived).
        means: Vec<f64>,
    },
}

/// The Pearson terms of one slot's series shared by every candidate
/// scan: per-series population moments, computed on construction, and
/// pairwise covariances, computed on each call.
///
/// Build one per allocation call and pass it to [`PatternStats`] or
/// [`LazyPatternStats`]; see the [crate docs](crate) for the algebra.
#[derive(Debug, Clone)]
pub struct CorrelationCache {
    num_series: usize,
    len: usize,
    vars: Vec<f64>,
    stds: Vec<f64>,
    backing: Backing,
}

impl CorrelationCache {
    /// Builds the cache for a slot's per-VM series, computing each
    /// series' population mean, variance and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series lengths differ.
    #[track_caller]
    pub fn new(series: &[TimeSeries]) -> Self {
        let len = series_set_len(series);
        let num_series = series.len();
        let mut centered = Vec::with_capacity(num_series * len);
        let mut vars = Vec::with_capacity(num_series);
        let mut stds = Vec::with_capacity(num_series);
        for s in series {
            let mean = s.mean();
            centered.extend(s.values().iter().map(|&v| v - mean));
            let var = stats::variance(s.values());
            vars.push(var);
            stds.push(var.sqrt());
        }
        Self {
            num_series,
            len,
            vars,
            stds,
            backing: Backing::Owned(centered),
        }
    }

    /// Builds a cache over `window` of a [`DayCache`] without copying
    /// or re-centering the series: it computes the window's block plane
    /// for the covariances, while per-series means and variances are
    /// computed exactly from the raw window so degenerate-σ decisions
    /// (the `1e-12` floor) are bit-identical to [`new`](Self::new) on
    /// the same values — see the [crate docs](crate).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or does not start and
    /// end on the day's block boundaries.
    #[track_caller]
    pub fn from_day_window(day: &DayCache, window: Range<usize>) -> Self {
        let plane = day.block_plane(&window);
        let num_series = day.num_series();
        let mut means = Vec::with_capacity(num_series);
        let mut vars = Vec::with_capacity(num_series);
        let mut stds = Vec::with_capacity(num_series);
        for i in 0..num_series {
            let w = &day.series(i)[window.clone()];
            means.push(stats::mean(w));
            let var = stats::variance(w);
            vars.push(var);
            stds.push(var.sqrt());
        }
        Self {
            num_series,
            len: window.len(),
            vars,
            stds,
            backing: Backing::Windowed { plane, means },
        }
    }

    /// Number of series the cache was built over.
    pub fn num_series(&self) -> usize {
        self.num_series
    }

    /// Population variance of series `i` (identical to
    /// [`stats::variance`]).
    pub fn variance(&self, i: usize) -> f64 {
        self.vars[i]
    }

    /// Population standard deviation of series `i`.
    pub fn std_dev(&self, i: usize) -> f64 {
        self.stds[i]
    }

    /// Population covariance of series `i` and `j` (matching
    /// [`stats::covariance`]). `cov(i, j)` and `cov(j, i)` have the
    /// same bits. Series shorter than 2 samples yield 0.
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        let len = self.len;
        if len < 2 {
            return 0.0;
        }
        match &self.backing {
            Backing::Owned(centered) => {
                let a = &centered[i * len..(i + 1) * len];
                let b = &centered[j * len..(j + 1) * len];
                a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>() / len as f64
            }
            Backing::Windowed { plane, means } => {
                let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
                plane[hi * (hi + 1) / 2 + lo] * (1.0 / len as f64) - means[i] * means[j]
            }
        }
    }

    /// Adds `cov(u, v)` into `acc[v]` for every series `v` — the bulk
    /// form of [`covariance`](Self::covariance) behind
    /// [`PatternStats::admit`]. The per-pair arithmetic is identical to
    /// the scalar calls in order and value; for a windowed cache the
    /// bulk form streams through the plane, which is what lets the
    /// windowed cache win the EPACT hot loop.
    pub fn accumulate_covariance_row(&self, u: usize, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.num_series, "one accumulator per series");
        let Backing::Windowed { plane, means } = &self.backing else {
            for (v, acc_v) in acc.iter_mut().enumerate() {
                *acc_v += self.covariance(u, v);
            }
            return;
        };
        if self.len < 2 {
            return;
        }
        let inv_w = 1.0 / self.len as f64;
        let mean_u = means[u];
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

    /// Pearson correlation of series `i` and `j`. Matches
    /// [`stats::pearson_correlation`]: zero if either σ is below
    /// `1e-12`, clamped into `[-1, 1]`.
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        let (si, sj) = (self.stds[i], self.stds[j]);
        if si < 1e-12 || sj < 1e-12 {
            return 0.0;
        }
        (self.covariance(i, j) / (si * sj)).clamp(-1.0, 1.0)
    }

    /// An empty [`PatternStats`] accumulator sized for this cache.
    pub fn pattern(&self) -> PatternStats {
        PatternStats {
            var: 0.0,
            std: 0.0,
            cov_with: vec![0.0; self.num_series],
        }
    }
}

/// φ, the Pearson correlation of a candidate with a pattern's
/// complementary series `max(S) − S`, from `σ(S)`, `σ(v)` and
/// `cov(S, v)`: `−cov(S, v) / (σ(S)·σ(v))`, 0 when either σ is below
/// `1e-12` (as [`stats::pearson_correlation`] on the materialized
/// complement), clamped into `[-1, 1]`. Every scan scores through here.
#[inline]
fn complement_phi(std_s: f64, std_v: f64, cov_sv: f64) -> f64 {
    if std_s < 1e-12 || std_v < 1e-12 {
        return 0.0;
    }
    (-cov_sv / (std_s * std_v)).clamp(-1.0, 1.0)
}

impl PatternStats {
    /// Clears the accumulator back to the empty pattern (a new server).
    pub fn reset(&mut self) {
        self.var = 0.0;
        self.std = 0.0;
        self.cov_with.fill(0.0);
    }

    /// Folds series `u` into the pattern sum, updating `var(S)` and the
    /// running `cov(S, ·)` vector from the cache's pairwise terms.
    pub fn admit(&mut self, cache: &CorrelationCache, u: usize) {
        // Read cov(S, u) *before* the cov_with update below folds
        // cov(u, u) into it.
        self.var += cache.variance(u) + 2.0 * self.cov_with[u];
        self.std = self.variance().sqrt();
        cache.accumulate_covariance_row(u, &mut self.cov_with);
    }

    /// Population variance of the pattern sum. Clamped at zero: the
    /// incremental update can dip a hair negative for near-constant
    /// sums.
    pub fn variance(&self) -> f64 {
        self.var.max(0.0)
    }

    /// Pearson correlation of candidate `v` with the pattern's
    /// *complementary* series `max(S) − S`, which is `−corr(S, v)`.
    ///
    /// Degenerate σ (below `1e-12`) on either side yields 0, matching
    /// [`stats::pearson_correlation`] on the materialized complement.
    pub fn complement_correlation(&self, cache: &CorrelationCache, v: usize) -> f64 {
        complement_phi(self.std, cache.std_dev(v), self.cov_with[v])
    }
}

/// The lazy counterpart of [`PatternStats`] for scans that score one VM
/// against many servers: it holds the pattern's members in admission
/// order and `var(S)`, and sums `cov(S, v)` only for a candidate that is
/// actually scored (COAT/COAT-OPT and Algorithm 2; see the
/// [crate docs](crate)).
#[derive(Debug, Clone, Default)]
pub struct LazyPatternStats {
    members: Vec<usize>,
    var: f64,
}

impl LazyPatternStats {
    /// An empty pattern (a new server).
    pub fn new() -> Self {
        Self::default()
    }

    /// `cov(S, v) = Σ_{u ∈ S} cov(u, v)`, summed from `+0.0` over the
    /// members in admission order: the very additions the eager
    /// [`PatternStats`] row makes, so the two agree bit for bit.
    pub fn covariance_with(&self, cache: &CorrelationCache, v: usize) -> f64 {
        // Not `Iterator::sum`: its float identity is −0.0, and the
        // eager row starts from +0.0.
        self.members
            .iter()
            .fold(0.0, |acc, &u| acc + cache.covariance(u, v))
    }

    /// Pearson correlation of candidate `v` with the pattern's
    /// complementary series, given `cov_sv` from
    /// [`covariance_with`](Self::covariance_with); the same formula as
    /// [`PatternStats::complement_correlation`].
    pub fn complement_correlation(&self, cache: &CorrelationCache, v: usize, cov_sv: f64) -> f64 {
        complement_phi(self.variance().sqrt(), cache.std_dev(v), cov_sv)
    }

    /// Folds series `u` into the pattern sum. `cov_su` is
    /// [`covariance_with`](Self::covariance_with)`(cache, u)` taken
    /// before this admission, which the scan that chose this pattern
    /// already computed.
    pub fn admit(&mut self, cache: &CorrelationCache, u: usize, cov_su: f64) {
        self.var += cache.variance(u) + 2.0 * cov_su;
        self.members.push(u);
    }

    /// Population variance of the pattern sum, clamped at zero as in
    /// [`PatternStats::variance`].
    pub fn variance(&self) -> f64 {
        self.var.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic wiggly fixtures with varied phase/scale.
    fn fixtures(n: usize, len: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                TimeSeries::from_values(
                    (0..len)
                        .map(|t| {
                            let x = (i * 7 + t * 3) % 11;
                            5.0 + i as f64 * 0.7 + x as f64 * (1.0 + 0.2 * i as f64)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn covariance_matches_stats_bitwise() {
        let vms = fixtures(6, 24);
        let cache = CorrelationCache::new(&vms);
        for i in 0..6 {
            for j in 0..6 {
                let direct = stats::covariance(vms[i].values(), vms[j].values());
                assert_eq!(cache.covariance(i, j), direct, "pair ({i}, {j})");
                assert_eq!(
                    cache.covariance(i, j).to_bits(),
                    cache.covariance(j, i).to_bits(),
                    "pair ({i}, {j}) is symmetric"
                );
            }
        }
    }

    #[test]
    fn correlation_matches_stats_bitwise() {
        let vms = fixtures(5, 16);
        let cache = CorrelationCache::new(&vms);
        for i in 0..5 {
            for j in 0..5 {
                let direct = stats::pearson_correlation(vms[i].values(), vms[j].values());
                assert_eq!(cache.correlation(i, j), direct, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn complement_correlation_matches_materialized_complement() {
        let vms = fixtures(8, 24);
        let cache = CorrelationCache::new(&vms);
        let mut pattern = cache.pattern();
        let mut sum = TimeSeries::zeros(24);
        for &u in &[3, 0, 5] {
            pattern.admit(&cache, u);
            sum.add_in_place(&vms[u]);
        }
        for (v, vm) in vms.iter().enumerate() {
            let direct = sum.complementary().correlation(vm);
            let fast = pattern.complement_correlation(&cache, v);
            assert!(
                (fast - direct).abs() < 1e-9,
                "candidate {v}: {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn pattern_variance_tracks_sum_variance() {
        let vms = fixtures(6, 12);
        let cache = CorrelationCache::new(&vms);
        let mut pattern = cache.pattern();
        let mut sum = TimeSeries::zeros(12);
        for u in [1, 4, 2, 0] {
            pattern.admit(&cache, u);
            sum.add_in_place(&vms[u]);
            let direct = stats::variance(sum.values());
            assert!(
                (pattern.variance() - direct).abs() < 1e-9 * direct.max(1.0),
                "after admitting {u}: {} vs {direct}",
                pattern.variance()
            );
        }
    }

    #[test]
    fn constant_pattern_is_degenerate() {
        let vms = vec![
            TimeSeries::constant(8, 10.0),
            TimeSeries::from_values((0..8).map(|t| t as f64).collect()),
        ];
        let cache = CorrelationCache::new(&vms);
        let mut pattern = cache.pattern();
        pattern.admit(&cache, 0);
        // σ(S) = 0 -> φ = 0 toward anything, as with the materialized
        // complement path.
        assert_eq!(pattern.complement_correlation(&cache, 1), 0.0);
        assert_eq!(cache.correlation(0, 1), 0.0);
    }

    #[test]
    fn anti_correlated_candidate_scores_plus_one() {
        let day = TimeSeries::from_values(vec![30.0, 30.0, 5.0, 5.0]);
        let night = TimeSeries::from_values(vec![5.0, 5.0, 30.0, 30.0]);
        let vms = vec![day, night];
        let cache = CorrelationCache::new(&vms);
        let mut pattern = cache.pattern();
        pattern.admit(&cache, 0);
        assert!((pattern.complement_correlation(&cache, 1) - 1.0).abs() < 1e-12);
        assert!((pattern.complement_correlation(&cache, 0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_the_pattern() {
        let vms = fixtures(4, 8);
        let cache = CorrelationCache::new(&vms);
        let mut pattern = cache.pattern();
        pattern.admit(&cache, 0);
        pattern.admit(&cache, 2);
        pattern.reset();
        assert_eq!(pattern.variance(), 0.0);
        pattern.admit(&cache, 1);
        let direct = vms[1].complementary().correlation(&vms[3]);
        assert!((pattern.complement_correlation(&cache, 3) - direct).abs() < 1e-9);
    }

    #[test]
    fn short_series_have_zero_moments() {
        let vms = vec![TimeSeries::constant(1, 5.0), TimeSeries::constant(1, 9.0)];
        let cache = CorrelationCache::new(&vms);
        assert_eq!(cache.variance(0), 0.0);
        assert_eq!(cache.covariance(0, 1), 0.0);
        assert_eq!(cache.correlation(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "same slot")]
    fn ragged_input_panics() {
        let vms = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let _ = CorrelationCache::new(&vms);
    }

    #[test]
    #[should_panic(expected = "needs a series set")]
    fn empty_input_panics() {
        let _ = CorrelationCache::new(&[]);
    }

    #[test]
    fn day_window_pattern_scores_match_owned() {
        let series = fixtures(8, 24);
        let day = crate::DayCache::with_block_size(&series, 6);
        let copies: Vec<TimeSeries> = series.iter().map(|s| s.window(6..18)).collect();
        let owned = CorrelationCache::new(&copies);
        let windowed = CorrelationCache::from_day_window(&day, 6..18);
        let mut p_owned = owned.pattern();
        let mut p_windowed = windowed.pattern();
        for u in [2, 5, 0] {
            p_owned.admit(&owned, u);
            p_windowed.admit(&windowed, u);
        }
        for v in 0..8 {
            let a = p_owned.complement_correlation(&owned, v);
            let b = p_windowed.complement_correlation(&windowed, v);
            assert!((a - b).abs() < 1e-9, "candidate {v}: {a} vs {b}");
        }
    }

    /// The degeneracy decision (σ below the `1e-12` floor → φ = 0) must
    /// not flip between the windowed and owning paths on constant
    /// windows — the reason a windowed cache recomputes σ exactly.
    #[test]
    fn day_window_degenerate_sigma_is_bitwise_zero() {
        let series = vec![
            TimeSeries::constant(24, 0.62),
            TimeSeries::from_values((0..24).map(|t| (t % 5) as f64).collect()),
        ];
        let day = crate::DayCache::with_block_size(&series, 3);
        let windowed = CorrelationCache::from_day_window(&day, 3..15);
        assert_eq!(windowed.std_dev(0), 0.0);
        assert_eq!(windowed.correlation(0, 1), 0.0);
        let mut pattern = windowed.pattern();
        pattern.admit(&windowed, 0);
        assert_eq!(pattern.complement_correlation(&windowed, 1), 0.0);
    }

    /// Admits `order` into an eager and a lazy pattern over `cache` and
    /// checks, before every admission, that the two agree bit for bit
    /// on `cov(S, v)` and φ for every candidate and on `var(S)` after it.
    fn assert_lazy_matches_eager(cache: &CorrelationCache, order: &[usize]) {
        let mut eager = cache.pattern();
        let mut lazy = LazyPatternStats::new();
        for &u in order {
            for v in 0..cache.num_series() {
                let cov = lazy.covariance_with(cache, v);
                assert_eq!(cov.to_bits(), eager.cov_with[v].to_bits(), "cov(S, {v})");
                assert_eq!(
                    lazy.complement_correlation(cache, v, cov).to_bits(),
                    eager.complement_correlation(cache, v).to_bits(),
                    "φ of {v}"
                );
            }
            let cov_u = lazy.covariance_with(cache, u);
            eager.admit(cache, u);
            lazy.admit(cache, u, cov_u);
            assert_eq!(lazy.variance().to_bits(), eager.variance().to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random series sets (one series flat, to cross the σ floor)
        /// and random admission orders, through an owning cache over
        /// the window copies and through a day cache's block plane over
        /// the same window.
        #[test]
        fn lazy_pattern_matches_eager_row_bitwise(
            (n, block, blocks) in (2usize..12, 1usize..7, 2usize..5),
            values in proptest::collection::vec(0.0f64..100.0, 11 * 6 * 4),
            keys in proptest::collection::vec(0u64..1 << 32, 11),
            (flat, first, width) in (0usize..16, 0usize..4, 1usize..5),
        ) {
            let len = block * blocks;
            let series: Vec<TimeSeries> = (0..n)
                .map(|i| {
                    let row = &values[i * len..(i + 1) * len];
                    if i == flat {
                        TimeSeries::constant(len, row[0])
                    } else {
                        TimeSeries::from_values(row.to_vec())
                    }
                })
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys[i]);
            let k0 = first.min(blocks - 1);
            let window = k0 * block..(k0 + width).min(blocks) * block;
            let copies: Vec<TimeSeries> = series.iter().map(|s| s.window(window.clone())).collect();
            assert_lazy_matches_eager(&CorrelationCache::new(&copies), &order);
            let day = DayCache::with_block_size(&series, block);
            assert_lazy_matches_eager(&CorrelationCache::from_day_window(&day, window), &order);
        }

        /// A windowed cache over a random block-aligned window of a day
        /// must agree with an owning cache built on the copied window:
        /// variances and stds bitwise (same two-pass code over the same
        /// bits), covariances with `stats::covariance` on the window
        /// slices to ulp-level tolerance (block plane vs centered
        /// accumulation). A windowed cache over the copied window cut
        /// into the same blocks — the slot-level planes the week
        /// simulation builds — must agree with the day-level window bit
        /// for bit.
        #[test]
        fn day_window_matches_owned_cache_on_window_copy(
            (n, block, blocks) in (2usize..8, 1usize..13, 1usize..6),
            values in proptest::collection::vec(0.0f64..100.0, 7 * 12 * 5),
            (first, width) in (0usize..5, 1usize..6),
        ) {
            let len = block * blocks;
            let series: Vec<TimeSeries> = (0..n)
                .map(|i| TimeSeries::from_values(values[i * len..(i + 1) * len].to_vec()))
                .collect();
            let day = DayCache::with_block_size(&series, block);
            let k0 = first.min(blocks - 1);
            let window = k0 * block..(k0 + width).min(blocks) * block;
            let copies: Vec<TimeSeries> = series.iter().map(|s| s.window(window.clone())).collect();
            let owned = CorrelationCache::new(&copies);
            let windowed = CorrelationCache::from_day_window(&day, window.clone());
            let cut = DayCache::with_block_size(&copies, block);
            let slot = CorrelationCache::from_day_window(&cut, 0..window.len());
            assert_eq!(windowed.num_series(), n);
            for (i, x) in copies.iter().enumerate() {
                assert_eq!(windowed.variance(i).to_bits(), owned.variance(i).to_bits(), "var {i} {window:?}");
                assert_eq!(windowed.std_dev(i).to_bits(), owned.std_dev(i).to_bits(), "std {i} {window:?}");
                assert_eq!(slot.variance(i).to_bits(), windowed.variance(i).to_bits(), "cut var {i} {window:?}");
                assert_eq!(slot.std_dev(i).to_bits(), windowed.std_dev(i).to_bits(), "cut std {i} {window:?}");
                for (j, y) in copies.iter().enumerate() {
                    let direct = stats::covariance(x.values(), y.values());
                    let scale = direct.abs().max(1.0);
                    assert!(
                        (windowed.covariance(i, j) - direct).abs() < 1e-9 * scale,
                        "cov ({i}, {j}) window {window:?}"
                    );
                    assert_eq!(
                        slot.covariance(i, j).to_bits(),
                        windowed.covariance(i, j).to_bits(),
                        "cut cov ({i}, {j}) window {window:?}"
                    );
                }
                let (mut row_slot, mut row_day) = (vec![0.0; n], vec![0.0; n]);
                slot.accumulate_covariance_row(i, &mut row_slot);
                windowed.accumulate_covariance_row(i, &mut row_day);
                for (a, b) in row_slot.iter().zip(&row_day) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cut row {i} window {window:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside day")]
    fn day_window_out_of_range_panics() {
        let day = crate::DayCache::with_block_size(&fixtures(2, 8), 4);
        let _ = CorrelationCache::from_day_window(&day, 4..9);
    }
}
