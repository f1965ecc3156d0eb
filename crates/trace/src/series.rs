use std::fmt;
use std::ops::Range;

use crate::stats;

/// A sampled utilization trace (values are percentages or any scalar).
///
/// `TimeSeries` is the common currency between the workload generator, the
/// ARIMA predictor and the allocation policies. All element-wise operations
/// require equal lengths and panic otherwise — length mismatches are always
/// programming errors in this workspace.
///
/// # Examples
///
/// ```
/// use ntc_trace::TimeSeries;
///
/// let server_load = TimeSeries::from_values(vec![40.0, 70.0, 55.0]);
/// // "complementary pattern" of Algorithm 1, line 8: max(S) - S
/// let comp = server_load.complementary();
/// assert_eq!(comp.values(), &[30.0, 0.0, 15.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from raw values.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "time series values must be finite"
        );
        Self { values }
    }

    /// Creates a series of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }

    /// Creates a series of `len` copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn constant(len: usize, value: f64) -> Self {
        assert!(value.is_finite(), "time series values must be finite");
        Self {
            values: vec![value; len],
        }
    }

    /// The underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn at(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Maximum value, or 0.0 for an empty series (utilizations are
    /// non-negative in this workspace).
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum value, or 0.0 for an empty series.
    pub fn floor(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Arithmetic mean, or 0.0 for an empty series.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// A sub-series covering `range` (used for slot windows).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn window(&self, range: Range<usize>) -> TimeSeries {
        TimeSeries {
            values: self.values[range].to_vec(),
        }
    }

    /// Overwrites `self` with `source[range]`, reusing the existing
    /// allocation — the buffer-recycling form of [`TimeSeries::window`]
    /// for hot loops that slice the same horizon slot after slot.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `source`.
    pub fn copy_window_from(&mut self, source: &TimeSeries, range: Range<usize>) {
        self.values.clear();
        self.values.extend_from_slice(&source.values[range]);
    }

    /// Resets `self` to `len` zeros, reusing the existing allocation.
    pub fn reset_zeros(&mut self, len: usize) {
        self.values.clear();
        self.values.resize(len, 0.0);
    }

    /// Element-wise sum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add(&self, other: &TimeSeries) -> TimeSeries {
        self.zip_with(other, |a, b| a + b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add_in_place(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.len(),
            other.len(),
            "series length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Multiplies every sample by `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite.
    pub fn scale(&self, k: f64) -> TimeSeries {
        assert!(k.is_finite(), "scale factor must be finite");
        TimeSeries {
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }

    /// The *complementary pattern* of Algorithms 1 and 2:
    /// `max(self) − self`, element-wise.
    ///
    /// A VM whose utilization trace correlates with this pattern fills the
    /// valleys of the current server load without raising its peak.
    pub fn complementary(&self) -> TimeSeries {
        let peak = self.peak();
        TimeSeries {
            values: self.values.iter().map(|v| peak - v).collect(),
        }
    }

    /// Remaining headroom to `cap`, element-wise, clamped at zero
    /// (the `S_rem` term of Algorithm 2).
    pub fn headroom_to(&self, cap: f64) -> TimeSeries {
        TimeSeries {
            values: self.values.iter().map(|v| (cap - v).max(0.0)).collect(),
        }
    }

    /// `true` if any sample exceeds `cap` by more than `eps`.
    pub fn exceeds(&self, cap: f64, eps: f64) -> bool {
        self.values.iter().any(|&v| v > cap + eps)
    }

    /// `true` if any sample of the element-wise sum with `other` exceeds
    /// `cap` by more than `eps` — the allocation-free form of
    /// `self.add(other).exceeds(cap, eps)` used by the per-candidate
    /// feasibility checks of Algorithm 2 and COAT.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sum_exceeds(&self, other: &TimeSeries, cap: f64, eps: f64) -> bool {
        assert_eq!(
            self.len(),
            other.len(),
            "series length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        self.values
            .iter()
            .zip(&other.values)
            .any(|(a, b)| a + b > cap + eps)
    }

    /// Euclidean distance from `other` to this series' remaining
    /// capacity under `cap` — the allocation-free form of
    /// `other.distance(&self.headroom_to(cap))` (the Dist term of
    /// Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn headroom_distance(&self, cap: f64, other: &TimeSeries) -> f64 {
        assert_eq!(self.len(), other.len(), "distance requires equal lengths");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(s, v)| {
                let d = (cap - s).max(0.0) - v;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Pearson correlation with `other` (the φ of Eq. 2); 0.0 when either
    /// series is constant.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn correlation(&self, other: &TimeSeries) -> f64 {
        stats::pearson_correlation(&self.values, &other.values)
    }

    /// Euclidean distance to `other` (the Dist of Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn distance(&self, other: &TimeSeries) -> f64 {
        stats::euclidean_distance(&self.values, &other.values)
    }

    /// Element-wise sum of many equal-length series over a fresh
    /// zero-series of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if any series length differs from `len`.
    pub fn aggregate<'a, I>(len: usize, items: I) -> TimeSeries
    where
        I: IntoIterator<Item = &'a TimeSeries>,
    {
        let mut acc = TimeSeries::zeros(len);
        for s in items {
            acc.add_in_place(s);
        }
        acc
    }

    fn zip_with(&self, other: &TimeSeries, f: impl Fn(f64, f64) -> f64) -> TimeSeries {
        assert_eq!(
            self.len(),
            other.len(),
            "series length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        TimeSeries {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeSeries(len={}, mean={:.2}, peak={:.2})",
            self.len(),
            self.mean(),
            self.peak()
        )
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_values(iter.into_iter().collect())
    }
}

impl Extend<f64> for TimeSeries {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            assert!(v.is_finite(), "time series values must be finite");
            self.values.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::from_values(v.to_vec())
    }

    #[test]
    fn sum_helpers_match_materialized_sum() {
        let a = ts(&[10.0, 40.0, 25.0, 5.0]);
        let b = ts(&[30.0, 10.0, 25.0, 50.0]);
        for cap in [40.0, 50.0, 55.0, 60.0] {
            assert_eq!(a.sum_exceeds(&b, cap, 1e-9), a.add(&b).exceeds(cap, 1e-9));
        }
    }

    #[test]
    fn headroom_distance_matches_materialized_headroom() {
        let srv = ts(&[50.0, 90.0, 110.0, 20.0]);
        let vm = ts(&[10.0, 5.0, 2.0, 30.0]);
        let direct = vm.distance(&srv.headroom_to(100.0));
        assert_eq!(srv.headroom_distance(100.0, &vm), direct);
    }

    #[test]
    fn copy_window_reuses_the_buffer() {
        let src = ts(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut dst = TimeSeries::zeros(3);
        dst.copy_window_from(&src, 2..5);
        assert_eq!(dst, src.window(2..5));
        dst.copy_window_from(&src, 0..2);
        assert_eq!(dst, src.window(0..2));
    }

    #[test]
    fn reset_zeros_resizes_and_clears() {
        let mut s = ts(&[7.0, 8.0]);
        s.reset_zeros(4);
        assert_eq!(s, TimeSeries::zeros(4));
        s.reset_zeros(1);
        assert_eq!(s, TimeSeries::zeros(1));
    }

    #[test]
    fn peaks_and_means() {
        let s = ts(&[10.0, 50.0, 30.0]);
        assert_eq!(s.peak(), 50.0);
        assert_eq!(s.floor(), 10.0);
        assert_eq!(s.mean(), 30.0);
    }

    #[test]
    fn empty_series_degenerate_stats() {
        let s = TimeSeries::zeros(0);
        assert!(s.is_empty());
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.floor(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn complementary_pattern_matches_paper_definition() {
        let s = ts(&[40.0, 70.0, 55.0]);
        let c = s.complementary();
        assert_eq!(c.values(), &[30.0, 0.0, 15.0]);
        // The complement plus the original is flat at the peak.
        let flat = s.add(&c);
        assert!(flat.values().iter().all(|&v| (v - 70.0).abs() < 1e-12));
    }

    #[test]
    fn headroom_clamps_at_zero() {
        let s = ts(&[90.0, 120.0]);
        let h = s.headroom_to(100.0);
        assert_eq!(h.values(), &[10.0, 0.0]);
    }

    #[test]
    fn exceeds_detects_violations() {
        let s = ts(&[99.0, 100.0, 101.0]);
        assert!(s.exceeds(100.0, 1e-9));
        assert!(!s.exceeds(101.0, 1e-9));
    }

    #[test]
    fn aggregate_and_elementwise_max() {
        let a = ts(&[1.0, 2.0]);
        let b = ts(&[3.0, 1.0]);
        let sum = TimeSeries::aggregate(2, [&a, &b]);
        assert_eq!(sum.values(), &[4.0, 3.0]);
    }

    #[test]
    fn windows_are_slot_views() {
        let s = ts(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.window(1..3).values(), &[1.0, 2.0]);
    }

    #[test]
    fn scale_and_sub() {
        let s = ts(&[10.0, 20.0]);
        assert_eq!(s.scale(0.5).values(), &[5.0, 10.0]);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: TimeSeries = (0..3).map(|i| i as f64).collect();
        s.extend([3.0]);
        assert_eq!(s.values(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = ts(&[1.0]).add(&ts(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        let _ = TimeSeries::from_values(vec![f64::NAN]);
    }
}
