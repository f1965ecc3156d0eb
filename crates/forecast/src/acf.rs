//! The sample autocorrelation function (ACF).

use ntc_trace::stats;

/// Sample autocorrelation at lags `0..=max_lag`.
///
/// Returns 1.0 at lag 0 by definition; a constant series yields zeros at
/// all positive lags.
///
/// # Panics
///
/// Panics if `max_lag >= y.len()`.
///
/// # Examples
///
/// ```
/// let y: Vec<f64> = (0..32).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let r = ntc_forecast::acf::acf(&y, 2);
/// assert!((r[1] + 1.0).abs() < 0.1); // alternating series: lag-1 ~ -1
/// assert!((r[2] - 1.0).abs() < 0.1);
/// ```
pub fn acf(y: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(
        max_lag < y.len(),
        "max lag {max_lag} must be below series length {}",
        y.len()
    );
    let n = y.len() as f64;
    let m = stats::mean(y);
    // One pass over the series: sums[k] adds (y[t] − m)(y[t−k] − m) for
    // ascending t, starting from −0.0 as `Iterator::sum` does, so each
    // lag's sum has the bits of its own pass over the series.
    let mut sums = vec![-0.0; max_lag + 1];
    for t in 0..max_lag {
        for (k, sum) in sums[..=t].iter_mut().enumerate() {
            *sum += (y[t] - m) * (y[t - k] - m);
        }
    }
    for w in y.windows(max_lag + 1) {
        let now = w[max_lag] - m;
        for (sum, &past) in sums.iter_mut().zip(w.iter().rev()) {
            *sum += now * (past - m);
        }
    }
    let c0 = sums[0] / n;
    sums.iter()
        .enumerate()
        .map(|(k, &sum)| {
            if c0 < 1e-12 {
                if k == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                sum / n / c0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1_series(phi: f64, n: usize) -> Vec<f64> {
        // deterministic pseudo-noise so the test is reproducible
        let mut y = vec![0.0; n];
        let mut state = 0x2545F4914F6CDD1Du64;
        for t in 1..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = (state as f64 / u64::MAX as f64) - 0.5;
            y[t] = phi * y[t - 1] + e;
        }
        y
    }

    #[test]
    fn acf_lag0_is_one() {
        let y = ar1_series(0.5, 500);
        let r = acf(&y, 5);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let y = ar1_series(0.8, 5000);
        let r = acf(&y, 3);
        assert!((r[1] - 0.8).abs() < 0.07, "lag-1 acf {r:?}");
        assert!((r[2] - 0.64).abs() < 0.1);
    }

    #[test]
    fn constant_series_has_zero_acf() {
        let y = vec![5.0; 100];
        let r = acf(&y, 3);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 0.0);
    }
}
