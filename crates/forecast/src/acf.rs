//! Autocorrelation (ACF) and partial autocorrelation (PACF) functions.

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

/// Sample partial autocorrelation at lags `1..=max_lag` via the
/// Durbin–Levinson recursion (index 0 of the result is lag 1).
///
/// # Panics
///
/// Panics if `max_lag == 0` or `max_lag >= y.len()`.
pub fn pacf(y: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(max_lag > 0, "PACF needs at least lag 1");
    let rho = acf(y, max_lag);
    // Durbin-Levinson: phi[k][j] coefficients of the order-k AR fit.
    let mut phi_prev: Vec<f64> = Vec::new();
    let mut out = Vec::with_capacity(max_lag);
    for k in 1..=max_lag {
        let num = rho[k]
            - phi_prev
                .iter()
                .enumerate()
                .map(|(j, &p)| p * rho[k - 1 - j])
                .sum::<f64>();
        let den = 1.0
            - phi_prev
                .iter()
                .enumerate()
                .map(|(j, &p)| p * rho[j + 1])
                .sum::<f64>();
        let phi_kk = if den.abs() < 1e-12 { 0.0 } else { num / den };
        let mut phi_new = vec![0.0; k];
        phi_new[k - 1] = phi_kk;
        for j in 0..k - 1 {
            phi_new[j] = phi_prev[j] - phi_kk * phi_prev[k - 2 - j];
        }
        out.push(phi_kk);
        phi_prev = phi_new;
    }
    out
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
    fn pacf_of_ar1_cuts_off_after_lag1() {
        let y = ar1_series(0.7, 5000);
        let p = pacf(&y, 4);
        assert!((p[0] - 0.7).abs() < 0.07, "lag-1 pacf {p:?}");
        for &later in &p[1..] {
            assert!(later.abs() < 0.12, "higher-lag PACF must vanish: {p:?}");
        }
    }

    #[test]
    fn constant_series_has_zero_acf() {
        let y = vec![5.0; 100];
        let r = acf(&y, 3);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 0.0);
    }
}
