//! Property-based tests for the time-series substrate.

use ntc_trace::{stats, DayCache, TimeSeries};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, len)
}

proptest! {
    #[test]
    fn correlation_is_bounded(a in finite_vec(32), b in finite_vec(32)) {
        let r = stats::pearson_correlation(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn correlation_is_symmetric(a in finite_vec(16), b in finite_vec(16)) {
        let r1 = stats::pearson_correlation(&a, &b);
        let r2 = stats::pearson_correlation(&b, &a);
        prop_assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn self_correlation_is_one_or_zero(a in finite_vec(16)) {
        let r = stats::pearson_correlation(&a, &a);
        // 1 for non-constant series, 0 for (numerically) constant ones.
        prop_assert!((r - 1.0).abs() < 1e-9 || r == 0.0);
    }

    #[test]
    fn distance_is_a_metric(a in finite_vec(16), b in finite_vec(16), c in finite_vec(16)) {
        let dab = stats::euclidean_distance(&a, &b);
        let dba = stats::euclidean_distance(&b, &a);
        let dac = stats::euclidean_distance(&a, &c);
        let dcb = stats::euclidean_distance(&c, &b);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-9);
        // triangle inequality
        prop_assert!(dab <= dac + dcb + 1e-9);
        // identity of indiscernibles (one direction)
        prop_assert!(stats::euclidean_distance(&a, &a) < 1e-12);
    }

    #[test]
    fn complementary_inverts_shape(v in finite_vec(32)) {
        let s = TimeSeries::from_values(v);
        let c = s.complementary();
        // peak sample maps to zero headroom
        prop_assert!(c.floor() >= 0.0);
        let flat = s.add(&c);
        let peak = s.peak();
        prop_assert!(flat.values().iter().all(|&x| (x - peak).abs() < 1e-9));
        // and for non-constant series the correlation with the complement is -1
        let r = s.correlation(&c);
        prop_assert!(r == 0.0 || (r + 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_equals_sum_of_samples(a in finite_vec(8), b in finite_vec(8)) {
        let sa = TimeSeries::from_values(a.clone());
        let sb = TimeSeries::from_values(b.clone());
        let agg = TimeSeries::aggregate(8, [&sa, &sb]);
        for i in 0..8 {
            prop_assert!((agg.at(i) - (a[i] + b[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn peak_bounds_every_sample(v in finite_vec(32)) {
        let s = TimeSeries::from_values(v);
        let p = s.peak();
        prop_assert!(s.values().iter().all(|&x| x <= p));
        prop_assert!(s.floor() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= p + 1e-9);
    }

    #[test]
    fn quantile_monotone(v in finite_vec(32), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(stats::quantile(&v, lo) <= stats::quantile(&v, hi));
    }

    /// The day cache's block-plane covariances (and variances, as
    /// `cov(x, x)`), given exact window means, must agree with the
    /// direct `stats` computations on the copied sub-window for every
    /// random block-aligned window of a random day. Values are <= 100
    /// and days are 64 samples, so the uncentered form's cancellation
    /// stays far below the 1e-6 tolerance.
    #[test]
    fn windowed_moments_match_direct_stats(
        a in finite_vec(64),
        b in finite_vec(64),
        block_log2 in 0usize..6,
        first in 0usize..64,
        width in 1usize..64,
    ) {
        let block = 1 << block_log2;
        let blocks = 64 / block;
        let k0 = first % blocks;
        let (start, end) = (k0 * block, (k0 + width).min(blocks) * block);
        let series = [TimeSeries::from_values(a.clone()), TimeSeries::from_values(b.clone())];
        let day = DayCache::with_block_size(&series, block);
        let wa = &a[start..end];
        let wb = &b[start..end];
        let (ma, mb) = (stats::mean(wa), stats::mean(wb));
        let variance = day.window_covariance_with_means(1, 1, start..end, mb, mb);
        prop_assert!((variance - stats::variance(wb)).abs() < 1e-6);
        let direct = stats::covariance(wa, wb);
        let fast = day.window_covariance_with_means(0, 1, start..end, ma, mb);
        prop_assert!((fast - direct).abs() < 1e-6, "cov {fast} vs {direct} on [{start}, {end})");
        // covariance is symmetric through the triangular pair storage
        prop_assert!(day.window_covariance_with_means(1, 0, start..end, mb, ma) == fast);
    }
}
