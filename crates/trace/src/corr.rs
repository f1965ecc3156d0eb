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
//! and each pairwise covariance when it is asked for; a
//! [`CandidateTable`] and a [`LazyPatternStats`] carry `var(S)` and the
//! `cov(S, ·)` terms for one server pattern. Together they reduce a
//! candidate score from O(len) to O(1) (O(|S|) for the lazy form) — the
//! redundancy hoist the `ntc_datacenter::Engine` sweep relies on. A
//! cache keeps no memo of pairwise terms, because no scan would hit
//! one: COAT, COAT-OPT and Algorithm 2 read `cov(u, v)` only while
//! placing the later of `u` and `v`, and Algorithm 1's table folds each
//! `cov(u, v)` it needs exactly once.
//!
//! The numerical contract mirrors [`stats`](crate::stats) exactly:
//! population moments, a `1e-12` degenerate-σ floor mapping to φ = 0,
//! and clamping into `[-1, 1]`.
//!
//! # Candidate tables and lazy member sums
//!
//! The allocators scan in two shapes, and each takes the accumulator
//! that computes the fewest covariances no decision reads:
//!
//! * **Algorithm 1** fills one server at a time and scores *every*
//!   unallocated VM against it. A [`CandidateTable`] holds those VMs,
//!   their values sample-major and the running `cov(S, ·)`. Admitting a
//!   VM `u` folds `cov(u, v)` into every remaining candidate `v` in one
//!   pass that runs across the candidates, so it vectorizes, and `u`
//!   leaves the table; φ of every candidate is then one more such pass.
//!   Most candidates pass the cap check (84 % at paper scale), so most
//!   of the row is read and laziness would not pay.
//! * **COAT/COAT-OPT and Algorithm 2** score *one* VM against every open
//!   server, and only servers that pass the per-sample cap check are
//!   scored at all. [`LazyPatternStats`] keeps just the members in
//!   admission order and `var(S)`, and sums `cov(S, v)` over the members
//!   of a server that fits. An eager row would fold each admitted VM's
//!   covariances into its server's, and a 600-VM COAT day reads only
//!   4.4 % of those covariances.
//!
//! Both sum the same `cov(u, v)` terms in admission order starting from
//! `+0.0`, each with the cache's own per-pair arithmetic, and score
//! through one φ formula, so they agree bit for bit.
//!
//! # Windowed caches and on-demand block sums
//!
//! A cache can also be built over a block-aligned window of a
//! [`DayCache`] (see [`CorrelationCache::from_day_window`]). It then
//! keeps the window's raw values and answers each covariance from them
//! when asked: the window `[a, b)` of width `w` gives
//!
//! ```text
//! Σxy = 0.0 + Σ_k block_dot(x[block k], y[block k])    (blocks of [a, b), in order)
//! cov(x, y) = Σxy · (1 / w) − mean_x · mean_y
//! ```
//!
//! where `block_dot` is a four-lane dot product over one block. The
//! sum depends only on the window's values and its blocks, so a day
//! cache over a slot's own prediction windows, cut into blocks of one
//! slot, yields the bits of the same window of a whole day's cache;
//! the week simulation builds its caches that way. The means are not
//! taken from the sums. The uncentered variance form `Σxx / w − mean²`
//! cancels catastrophically on near-constant windows (AR(1) traces
//! pinned at their floor), which can land σ on the wrong side of the
//! `1e-12` degeneracy floor relative to the exact two-pass computation.
//! A windowed cache therefore computes per-series means and variances
//! *exactly* (same two-pass code as the owning constructor, over the
//! same bits) and reserves the block sums for the pairwise covariances,
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
//! let mut table = cache.candidate_table(&[0, 1]);
//! assert_eq!(table.admit(0), 0);
//! // The night VM, the one candidate left, matches the day pattern's
//! // complement perfectly.
//! assert_eq!(table.series(0), 1);
//! assert!((table.complement_correlation(0) - 1.0).abs() < 1e-12);
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

/// How a cache's covariances are computed from its rows.
#[derive(Debug, Clone)]
enum Backing {
    /// The rows are the slot's mean-centered series:
    /// `cov(x, y) = (−0.0 + Σ_t x_t·y_t) / len`, summed in sample order.
    Centered,
    /// The rows are a day window's raw values, cut into blocks of
    /// `block` samples: `cov(x, y) = (0.0 + Σ_k block_dot) · (1 / len)
    /// − mean_x·mean_y`.
    Window {
        /// Exact per-series window means (two-pass, not sum-derived).
        means: Vec<f64>,
        block: usize,
    },
}

/// The Pearson terms of one slot's series shared by every candidate
/// scan: per-series population moments, computed on construction, and
/// pairwise covariances, computed on each call.
///
/// Build one per allocation call: Algorithm 1 scans its
/// [`candidate_table`](Self::candidate_table), and the other scans pass
/// it to [`LazyPatternStats`]; see the [crate docs](crate) for the
/// algebra.
#[derive(Debug, Clone)]
pub struct CorrelationCache {
    num_series: usize,
    len: usize,
    /// Row-major `num_series × len` values, as [`Backing`] says.
    rows: Vec<f64>,
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
        let mut rows = Vec::with_capacity(num_series * len);
        let mut vars = Vec::with_capacity(num_series);
        let mut stds = Vec::with_capacity(num_series);
        for s in series {
            let mean = s.mean();
            rows.extend(s.values().iter().map(|&v| v - mean));
            let var = stats::variance(s.values());
            vars.push(var);
            stds.push(var.sqrt());
        }
        Self {
            num_series,
            len,
            rows,
            vars,
            stds,
            backing: Backing::Centered,
        }
    }

    /// Builds a cache over `window` of a [`DayCache`] without
    /// re-centering the series: it keeps the window's raw values for
    /// the covariances, while per-series means and variances are
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
        let block = day.aligned_block(&window);
        let num_series = day.num_series();
        let mut rows = Vec::with_capacity(num_series * window.len());
        let mut means = Vec::with_capacity(num_series);
        let mut vars = Vec::with_capacity(num_series);
        let mut stds = Vec::with_capacity(num_series);
        for i in 0..num_series {
            let w = &day.series(i)[window.clone()];
            rows.extend_from_slice(w);
            means.push(stats::mean(w));
            let var = stats::variance(w);
            vars.push(var);
            stds.push(var.sqrt());
        }
        Self {
            num_series,
            len: window.len(),
            rows,
            vars,
            stds,
            backing: Backing::Window { means, block },
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

    /// Row `i`: centered values for an owned cache, raw window values
    /// for a windowed one.
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.len..(i + 1) * self.len]
    }

    /// Population covariance of series `i` and `j` (matching
    /// [`stats::covariance`]). `cov(i, j)` and `cov(j, i)` have the
    /// same bits. Series shorter than 2 samples yield 0.
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        let len = self.len;
        if len < 2 {
            return 0.0;
        }
        let (x, y) = (self.row(i), self.row(j));
        match &self.backing {
            Backing::Centered => x.iter().zip(y).fold(-0.0, |sum, (a, b)| sum + a * b) / len as f64,
            Backing::Window { means, block } => {
                let dots = x
                    .chunks_exact(*block)
                    .zip(y.chunks_exact(*block))
                    .fold(0.0, |sum, (a, b)| sum + block_dot(a, b));
                dots * (1.0 / len as f64) - means[i] * means[j]
            }
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

    /// A [`CandidateTable`] over the series of `order`, each ranked by
    /// its position there, against an empty pattern.
    ///
    /// # Panics
    ///
    /// Panics if `order` names a series the cache does not hold.
    pub fn candidate_table(&self, order: &[usize]) -> CandidateTable<'_> {
        let n = order.len();
        let mut values = Vec::with_capacity(self.len * n);
        for t in 0..self.len {
            values.extend(order.iter().map(|&v| self.rows[v * self.len + t]));
        }
        let (means, scratch_rows) = match &self.backing {
            Backing::Centered => (Vec::new(), 1),
            Backing::Window { means, .. } => (order.iter().map(|&v| means[v]).collect(), 5),
        };
        CandidateTable {
            cache: self,
            series: order.to_vec(),
            ranks: (0..n).collect(),
            stds: order.iter().map(|&v| self.stds[v]).collect(),
            vars: order.iter().map(|&v| self.vars[v]).collect(),
            means,
            cov: vec![0.0; n],
            values,
            stride: n,
            scratch: vec![0.0; scratch_rows * n],
            var: 0.0,
            std: 0.0,
        }
    }
}

/// Dot product with four independent accumulator lanes, so the
/// multiply-add chain pipelines instead of serializing on one running
/// sum: the per-block term of a windowed covariance.
#[inline]
pub(crate) fn block_dot(a: &[f64], b: &[f64]) -> f64 {
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

/// The unallocated VMs of one slot, for scans that score every
/// candidate against one server pattern `S` (Algorithm 1; see the
/// [crate docs](crate)). Per candidate it holds the cache's values,
/// sample-major, the series index, the rank it was given, σ, the
/// variance, the window mean of a windowed cache, and the running
/// `cov(S, ·)`; for the pattern, `var(S)` and `σ(S)`.
///
/// Candidates are addressed by their position in the table, `0..len`.
/// [`admit`](Self::admit) removes one by moving the last into its
/// place, so positions are not stable across admissions; ranks and
/// series indices are. Built by [`CorrelationCache::candidate_table`].
#[derive(Debug, Clone)]
pub struct CandidateTable<'a> {
    cache: &'a CorrelationCache,
    series: Vec<usize>,
    ranks: Vec<usize>,
    stds: Vec<f64>,
    vars: Vec<f64>,
    /// Window means per candidate; empty for an owned cache.
    means: Vec<f64>,
    /// `cov(S, ·)` per candidate, summed from `+0.0` in admission order.
    cov: Vec<f64>,
    /// Sample `t` of candidate `c` at `t·stride + c`.
    values: Vec<f64>,
    stride: usize,
    /// Per-candidate fold accumulators: one row of `stride` for an
    /// owned cache; the block total and four lanes for a windowed one.
    scratch: Vec<f64>,
    var: f64,
    /// `σ(S)`, taken once per admission rather than once per candidate.
    std: f64,
}

impl CandidateTable<'_> {
    /// Number of candidates left.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether every candidate has been admitted.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series index of candidate `c`.
    #[inline]
    pub fn series(&self, c: usize) -> usize {
        self.series[c]
    }

    /// Rank of candidate `c`: its position in the order the table was
    /// built from.
    #[inline]
    pub fn rank(&self, c: usize) -> usize {
        self.ranks[c]
    }

    /// The candidate of lowest rank, `None` once the table is empty.
    pub fn first(&self) -> Option<usize> {
        (0..self.len()).min_by_key(|&c| self.ranks[c])
    }

    /// Population variance of the pattern sum. Clamped at zero: the
    /// incremental update can dip a hair negative for near-constant
    /// sums.
    pub fn variance(&self) -> f64 {
        self.var.max(0.0)
    }

    /// `cov(S, c)`: the covariance of the pattern with candidate `c`.
    pub fn covariance_with(&self, c: usize) -> f64 {
        self.cov[c]
    }

    /// Pearson correlation of candidate `c` with the pattern's
    /// *complementary* series `max(S) − S`, which is `−corr(S, v)`.
    ///
    /// Degenerate σ (below `1e-12`) on either side yields 0, matching
    /// [`stats::pearson_correlation`] on the materialized complement.
    pub fn complement_correlation(&self, c: usize) -> f64 {
        complement_phi(self.std, self.stds[c], self.cov[c])
    }

    /// [`complement_correlation`](Self::complement_correlation) of every
    /// candidate, in table order, written over `out`.
    pub fn complement_correlations(&self, out: &mut Vec<f64>) {
        let std_s = self.std;
        out.clear();
        out.extend(
            self.stds
                .iter()
                .zip(&self.cov)
                .map(|(&std_v, &cov)| complement_phi(std_s, std_v, cov)),
        );
    }

    /// Folds candidate `c` into the pattern sum and removes it from the
    /// table, returning its series index: `var(S)` and `σ(S)` update
    /// from `cov(S, c)`, then `cov(c, v)` is added into `cov(S, v)` for
    /// every candidate `v` left.
    pub fn admit(&mut self, c: usize) -> usize {
        let u = self.series[c];
        self.var += self.vars[c] + 2.0 * self.cov[c];
        self.std = self.variance().sqrt();
        self.series.swap_remove(c);
        self.ranks.swap_remove(c);
        self.stds.swap_remove(c);
        self.vars.swap_remove(c);
        self.cov.swap_remove(c);
        if !self.means.is_empty() {
            self.means.swap_remove(c);
        }
        let last = self.series.len();
        for column in self.values.chunks_exact_mut(self.stride) {
            column[c] = column[last];
        }
        self.fold(u);
        u
    }

    /// Clears the pattern back to the empty one (a new server); the
    /// candidates stay.
    pub fn reset(&mut self) {
        self.var = 0.0;
        self.std = 0.0;
        self.cov.fill(0.0);
    }

    /// Adds `cov(u, v)` into `cov(S, v)` for every candidate `v`, with
    /// the very operations [`CorrelationCache::covariance`]`(u, v)`
    /// makes, in passes that run across the candidates.
    fn fold(&mut self, u: usize) {
        let cache = self.cache;
        let (n, stride) = (self.series.len(), self.stride);
        if cache.len < 2 || n == 0 {
            return;
        }
        let x = cache.row(u);
        let values = &self.values;
        // Sample `t` of every candidate left.
        let column = |t: usize| &values[t * stride..t * stride + n];
        let mut rows = self
            .scratch
            .chunks_exact_mut(stride)
            .map(|row| &mut row[..n]);
        let total = rows.next().expect("one accumulator row");
        match &cache.backing {
            Backing::Centered => {
                total.fill(-0.0);
                for (t, &xt) in x.iter().enumerate() {
                    for (sum, &y) in total.iter_mut().zip(column(t)) {
                        *sum += xt * y;
                    }
                }
                let len = cache.len as f64;
                for (cov, &sum) in self.cov.iter_mut().zip(total.iter()) {
                    *cov += sum / len;
                }
            }
            Backing::Window { means, block } => {
                let mut lanes: [&mut [f64]; 4] =
                    std::array::from_fn(|_| rows.next().expect("four lane rows"));
                total.fill(0.0);
                for (k, xb) in x.chunks_exact(*block).enumerate() {
                    // `block_dot` of block `k` for every candidate: four
                    // lanes over the whole quads, summed pairwise, then
                    // the remainder samples in order.
                    let t0 = k * block;
                    let quads = xb.len() / 4 * 4;
                    lanes.iter_mut().for_each(|lane| lane.fill(0.0));
                    for (t, &xt) in xb[..quads].iter().enumerate() {
                        for (acc, &y) in lanes[t % 4].iter_mut().zip(column(t0 + t)) {
                            *acc += xt * y;
                        }
                    }
                    let [l0, l1, l2, l3] = &mut lanes;
                    for (((s, &b), &c), &d) in
                        l0.iter_mut().zip(l1.iter()).zip(l2.iter()).zip(l3.iter())
                    {
                        *s = (*s + b) + (c + d);
                    }
                    for (t, &xt) in xb.iter().enumerate().skip(quads) {
                        for (s, &y) in l0.iter_mut().zip(column(t0 + t)) {
                            *s += xt * y;
                        }
                    }
                    for (sum, &s) in total.iter_mut().zip(l0.iter()) {
                        *sum += s;
                    }
                }
                let (inv_w, mean_u) = (1.0 / cache.len as f64, means[u]);
                for ((cov, &sum), &mean_v) in self.cov.iter_mut().zip(total.iter()).zip(&self.means)
                {
                    *cov += sum * inv_w - mean_u * mean_v;
                }
            }
        }
    }
}

/// The lazy counterpart of [`CandidateTable`] for scans that score one
/// VM against many servers: it holds the pattern's members in admission
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
    /// members in admission order: the very additions a
    /// [`CandidateTable`] makes, so the two agree bit for bit.
    pub fn covariance_with(&self, cache: &CorrelationCache, v: usize) -> f64 {
        // Not `Iterator::sum`: its float identity is −0.0, and the
        // table starts from +0.0.
        self.members
            .iter()
            .fold(0.0, |acc, &u| acc + cache.covariance(u, v))
    }

    /// Pearson correlation of candidate `v` with the pattern's
    /// complementary series, given `cov_sv` from
    /// [`covariance_with`](Self::covariance_with); the same formula as
    /// [`CandidateTable::complement_correlation`].
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
    /// [`CandidateTable::variance`].
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

    /// Admits series `u` into `table`, wherever it sits.
    fn admit_series(table: &mut CandidateTable<'_>, u: usize) {
        let c = position(table, u).expect("series is a candidate");
        assert_eq!(table.admit(c), u);
    }

    /// Where series `v` sits in `table`, `None` once it was admitted.
    fn position(table: &CandidateTable<'_>, v: usize) -> Option<usize> {
        (0..table.len()).find(|&c| table.series(c) == v)
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

    /// φ against the materialized complement, for every series: through
    /// a lazy pattern for all of them, and through the table for the
    /// candidates it still holds.
    #[test]
    fn complement_correlation_matches_materialized_complement() {
        let vms = fixtures(8, 24);
        let cache = CorrelationCache::new(&vms);
        let mut table = cache.candidate_table(&[7, 6, 5, 4, 3, 2, 1, 0]);
        let mut lazy = LazyPatternStats::new();
        let mut sum = TimeSeries::zeros(24);
        for &u in &[3, 0, 5] {
            admit_series(&mut table, u);
            lazy.admit(&cache, u, lazy.covariance_with(&cache, u));
            sum.add_in_place(&vms[u]);
        }
        for (v, vm) in vms.iter().enumerate() {
            let direct = sum.complementary().correlation(vm);
            let lazy_phi = lazy.complement_correlation(&cache, v, lazy.covariance_with(&cache, v));
            let table_phi = position(&table, v).map(|c| table.complement_correlation(c));
            for fast in std::iter::once(lazy_phi).chain(table_phi) {
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "candidate {v}: {fast} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn pattern_variance_tracks_sum_variance() {
        let vms = fixtures(6, 12);
        let cache = CorrelationCache::new(&vms);
        let mut table = cache.candidate_table(&[0, 1, 2, 3, 4, 5]);
        let mut sum = TimeSeries::zeros(12);
        for u in [1, 4, 2, 0] {
            admit_series(&mut table, u);
            sum.add_in_place(&vms[u]);
            let direct = stats::variance(sum.values());
            assert!(
                (table.variance() - direct).abs() < 1e-9 * direct.max(1.0),
                "after admitting {u}: {} vs {direct}",
                table.variance()
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
        let mut table = cache.candidate_table(&[0, 1]);
        admit_series(&mut table, 0);
        // σ(S) = 0 -> φ = 0 toward anything, as with the materialized
        // complement path.
        assert_eq!(
            table.complement_correlation(position(&table, 1).unwrap()),
            0.0
        );
        assert_eq!(cache.correlation(0, 1), 0.0);
    }

    /// Scores the admitted VM too, which only a lazy pattern can: the
    /// table holds unallocated VMs alone.
    #[test]
    fn anti_correlated_candidate_scores_plus_one() {
        let day = TimeSeries::from_values(vec![30.0, 30.0, 5.0, 5.0]);
        let night = TimeSeries::from_values(vec![5.0, 5.0, 30.0, 30.0]);
        let vms = vec![day, night];
        let cache = CorrelationCache::new(&vms);
        let mut pattern = LazyPatternStats::new();
        pattern.admit(&cache, 0, 0.0);
        let phi = |v| pattern.complement_correlation(&cache, v, pattern.covariance_with(&cache, v));
        assert!((phi(1) - 1.0).abs() < 1e-12);
        assert!((phi(0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_the_pattern() {
        let vms = fixtures(4, 8);
        let cache = CorrelationCache::new(&vms);
        let mut table = cache.candidate_table(&[0, 1, 2, 3]);
        admit_series(&mut table, 0);
        admit_series(&mut table, 2);
        table.reset();
        assert_eq!(table.variance(), 0.0);
        admit_series(&mut table, 1);
        let direct = vms[1].complementary().correlation(&vms[3]);
        let c = position(&table, 3).unwrap();
        assert!((table.complement_correlation(c) - direct).abs() < 1e-9);
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

    /// Every series scored against the same pattern through an owned
    /// and a windowed cache; lazy patterns score the admitted VMs too.
    #[test]
    fn day_window_pattern_scores_match_owned() {
        let series = fixtures(8, 24);
        let day = crate::DayCache::with_block_size(&series, 6);
        let copies: Vec<TimeSeries> = series.iter().map(|s| s.window(6..18)).collect();
        let owned = CorrelationCache::new(&copies);
        let windowed = CorrelationCache::from_day_window(&day, 6..18);
        let mut p_owned = LazyPatternStats::new();
        let mut p_windowed = LazyPatternStats::new();
        for u in [2, 5, 0] {
            p_owned.admit(&owned, u, p_owned.covariance_with(&owned, u));
            p_windowed.admit(&windowed, u, p_windowed.covariance_with(&windowed, u));
        }
        for v in 0..8 {
            let a = p_owned.complement_correlation(&owned, v, p_owned.covariance_with(&owned, v));
            let b = p_windowed.complement_correlation(
                &windowed,
                v,
                p_windowed.covariance_with(&windowed, v),
            );
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
        let mut table = windowed.candidate_table(&[0, 1]);
        admit_series(&mut table, 0);
        assert_eq!(
            table.complement_correlation(position(&table, 1).unwrap()),
            0.0
        );
    }

    /// Admits `order` into a candidate table and a lazy pattern over
    /// `cache` and checks, before every admission, that the two agree
    /// bit for bit on `cov(S, v)` and φ for every candidate (the bulk φ
    /// pass too) and on `var(S)` after it.
    fn assert_lazy_matches_eager(cache: &CorrelationCache, order: &[usize]) {
        let all: Vec<usize> = (0..cache.num_series()).collect();
        let mut eager = cache.candidate_table(&all);
        let mut lazy = LazyPatternStats::new();
        let mut phis = Vec::new();
        for &u in order {
            eager.complement_correlations(&mut phis);
            assert_eq!(phis.len(), eager.len());
            for (c, phi) in phis.iter().enumerate() {
                let v = eager.series(c);
                let cov = lazy.covariance_with(cache, v);
                assert_eq!(
                    cov.to_bits(),
                    eager.covariance_with(c).to_bits(),
                    "cov(S, {v})"
                );
                assert_eq!(
                    lazy.complement_correlation(cache, v, cov).to_bits(),
                    eager.complement_correlation(c).to_bits(),
                    "φ of {v}"
                );
                assert_eq!(
                    phi.to_bits(),
                    eager.complement_correlation(c).to_bits(),
                    "bulk φ of {v}"
                );
            }
            let cov_u = lazy.covariance_with(cache, u);
            admit_series(&mut eager, u);
            lazy.admit(cache, u, cov_u);
            assert_eq!(lazy.variance().to_bits(), eager.variance().to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random series sets (one series flat, to cross the σ floor)
        /// and random admission orders, through an owning cache over
        /// the window copies and through a day cache's window of one
        /// block or several.
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
        /// slices to ulp-level tolerance (block sums vs centered
        /// accumulation). A windowed cache over the copied window cut
        /// into the same blocks — the slot-level caches the week
        /// simulation builds — must agree with the day-level window bit
        /// for bit, in its covariances and in its candidate table's
        /// folds.
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
                let all: Vec<usize> = (0..n).collect();
                let (mut row_slot, mut row_day) =
                    (slot.candidate_table(&all), windowed.candidate_table(&all));
                row_slot.admit(i);
                row_day.admit(i);
                for c in 0..row_slot.len() {
                    assert_eq!(row_slot.series(c), row_day.series(c));
                    assert_eq!(
                        row_slot.covariance_with(c).to_bits(),
                        row_day.covariance_with(c).to_bits(),
                        "cut row {i} window {window:?}"
                    );
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
