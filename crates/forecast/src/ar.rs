//! Yule–Walker autoregressive fits.

use crate::acf::acf;
use crate::linalg;

/// Fits an AR(`p`) model by solving the Yule–Walker equations on the
/// sample autocorrelations. Returns the `p` AR coefficients
/// (`y[t] ≈ Σ φ_i · y[t−i]` around the mean).
///
/// Falls back to a zero model (all coefficients 0) when the series is
/// constant or the system is singular — predicting the mean is the only
/// defensible choice there.
///
/// # Panics
///
/// Panics if `p == 0` or `p >= y.len()`.
///
/// # Examples
///
/// ```
/// // A noiseless AR(1) with phi = 0.9.
/// let mut y = vec![1.0];
/// for _ in 0..200 { let last = *y.last().unwrap(); y.push(0.9 * last); }
/// let phi = ntc_forecast::ar::yule_walker(&y, 1);
/// assert!((phi[0] - 0.9).abs() < 0.05);
/// ```
pub fn yule_walker(y: &[f64], p: usize) -> Vec<f64> {
    assert!(p > 0, "AR order must be positive");
    assert!(p < y.len(), "AR order must be below series length");
    let rho = acf(y, p);
    // Toeplitz system R phi = r with R[i][j] = rho[|i-j|].
    let a: Vec<Vec<f64>> = (0..p)
        .map(|i| (0..p).map(|j| rho[i.abs_diff(j)]).collect())
        .collect();
    let b: Vec<f64> = (1..=p).map(|k| rho[k]).collect();
    linalg::solve(a, b).unwrap_or_else(|| vec![0.0; p])
}

/// In-sample residuals of an AR model with coefficients `phi` applied to
/// the (mean-removed) series: `e[t] = y[t] − Σ φ_i y[t−i]` for
/// `t ≥ phi.len()`.
pub fn residuals(y: &[f64], phi: &[f64]) -> Vec<f64> {
    let p = phi.len();
    y.windows(p + 1)
        .map(|w| {
            // w = y[t − p ..= t]; pairs φ_i with y[t − 1 − i].
            let (past, now) = w.split_at(p);
            let pred: f64 = phi.iter().zip(past.iter().rev()).map(|(c, v)| c * v).sum();
            now[0] - pred
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar2_series(phi1: f64, phi2: f64, n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        for t in 2..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = (state as f64 / u64::MAX as f64) - 0.5;
            y[t] = phi1 * y[t - 1] + phi2 * y[t - 2] + e;
        }
        y
    }

    #[test]
    fn recovers_ar2_coefficients() {
        let y = ar2_series(0.5, 0.3, 8000);
        let phi = yule_walker(&y, 2);
        assert!((phi[0] - 0.5).abs() < 0.08, "phi1 {phi:?}");
        assert!((phi[1] - 0.3).abs() < 0.08, "phi2 {phi:?}");
    }

    #[test]
    fn constant_series_falls_back_to_zero_model() {
        let y = vec![3.0; 50];
        let phi = yule_walker(&y, 3);
        assert_eq!(phi, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn residuals_of_perfect_fit_vanish() {
        let mut y = vec![1.0];
        for _ in 0..100 {
            let last = *y.last().unwrap();
            y.push(0.8 * last);
        }
        let res = residuals(&y, &[0.8]);
        assert!(res.iter().all(|r| r.abs() < 1e-12));
    }

    #[test]
    fn residual_length() {
        let y = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(residuals(&y, &[0.5, 0.1]).len(), 3);
    }
}
