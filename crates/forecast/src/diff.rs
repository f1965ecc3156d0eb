//! Ordinary and seasonal differencing, and their inverses.
//!
//! ARIMA's "I" stage: differencing removes trend (`d`-fold ordinary) and
//! periodicity (lag-`s` seasonal); integration restores the original
//! scale after forecasting on the differenced series.

/// First difference at lag `lag`: `z[t] = y[t] − y[t−lag]`.
///
/// The output is `lag` elements shorter than the input.
///
/// # Panics
///
/// Panics if `lag == 0` or `lag >= y.len()`.
///
/// # Examples
///
/// ```
/// let z = ntc_forecast::diff::difference(&[1.0, 3.0, 6.0, 10.0], 1);
/// assert_eq!(z, vec![2.0, 3.0, 4.0]);
/// ```
pub fn difference(y: &[f64], lag: usize) -> Vec<f64> {
    assert!(lag > 0, "difference lag must be positive");
    assert!(
        lag < y.len(),
        "difference lag {lag} must be shorter than the series ({})",
        y.len()
    );
    (lag..y.len()).map(|t| y[t] - y[t - lag]).collect()
}

/// Inverts a lag-`lag` difference: given the last `lag` values of the
/// original series (`tail`, oldest first) and the differenced forecast
/// `z`, reconstructs the original-scale forecast.
///
/// # Panics
///
/// Panics if `tail.len() != lag` or `lag == 0`.
///
/// # Examples
///
/// ```
/// use ntc_forecast::diff::{difference, integrate};
///
/// let y = [1.0, 3.0, 6.0, 10.0];
/// let z = difference(&y, 1);
/// // Re-integrate z[1..] from y[1]: recovers y[2..].
/// let rec = integrate(&[y[1]], &z[1..], 1);
/// assert_eq!(rec, vec![6.0, 10.0]);
/// ```
pub fn integrate(tail: &[f64], z: &[f64], lag: usize) -> Vec<f64> {
    assert!(lag > 0, "integration lag must be positive");
    assert_eq!(
        tail.len(),
        lag,
        "integration needs exactly `lag` tail values"
    );
    let mut out: Vec<f64> = Vec::with_capacity(z.len());
    for (h, &dz) in z.iter().enumerate() {
        let prev = if h < lag { tail[h] } else { out[h - lag] };
        out.push(prev + dz);
    }
    out
}

/// Inverts `d`-fold lag-1 differencing. `tails[k]` holds the last value
/// of the series after `k` differencing passes (so `tails.len() == d`).
pub fn integrate_n(tails: &[f64], z: &[f64], d: usize) -> Vec<f64> {
    assert_eq!(tails.len(), d, "need one tail value per differencing pass");
    let mut out = z.to_vec();
    for k in (0..d).rev() {
        out = integrate(&[tails[k]], &out, 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_difference_removes_periodicity() {
        let period = 4;
        let y: Vec<f64> = (0..20).map(|t| (t % period) as f64 * 10.0).collect();
        let z = difference(&y, period);
        assert!(z.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn double_difference_kills_quadratic() {
        let y: Vec<f64> = (0..10).map(|t| (t * t) as f64).collect();
        let z = difference(&difference(&y, 1), 1);
        assert!(z.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn integrate_round_trips() {
        let y = [2.0, 5.0, 4.0, 8.0, 7.0, 9.0];
        let lag = 2;
        let z = difference(&y, lag);
        let rec = integrate(&y[..lag], &z, lag);
        assert_eq!(rec, y[lag..].to_vec());
    }

    #[test]
    fn integrate_n_round_trips() {
        let y = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0];
        let d1 = difference(&y, 1);
        let d2 = difference(&d1, 1);
        assert_eq!(d2, vec![2.0; 4], "squares double-difference to 2");
        let tails = vec![*y.last().unwrap(), *d1.last().unwrap()];
        // forecast the next 3 double-differenced values (constant 2)
        let fc2 = vec![2.0, 2.0, 2.0];
        let rec = integrate_n(&tails, &fc2, 2);
        // y continues 49, 64, 81
        assert_eq!(rec, vec![49.0, 64.0, 81.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_lag_rejected() {
        let _ = difference(&[1.0, 2.0], 0);
    }
}
