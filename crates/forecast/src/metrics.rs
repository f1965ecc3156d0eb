//! Forecast-quality metrics.

/// Root-mean-square error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Examples
///
/// ```
/// let rmse = ntc_forecast::metrics::rmse(&[1.0, 2.0], &[1.0, 4.0]);
/// assert!((rmse - 1.4142).abs() < 1e-3);
/// ```
pub fn rmse(forecast: &[f64], actual: &[f64]) -> f64 {
    check(forecast, actual);
    let mse: f64 = forecast
        .iter()
        .zip(actual)
        .map(|(f, a)| (f - a) * (f - a))
        .sum::<f64>()
        / forecast.len() as f64;
    mse.sqrt()
}

/// Mean absolute error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mae(forecast: &[f64], actual: &[f64]) -> f64 {
    check(forecast, actual);
    forecast
        .iter()
        .zip(actual)
        .map(|(f, a)| (f - a).abs())
        .sum::<f64>()
        / forecast.len() as f64
}

/// Symmetric MAPE (%), bounded in `[0, 200]`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn smape(forecast: &[f64], actual: &[f64]) -> f64 {
    check(forecast, actual);
    let sum: f64 = forecast
        .iter()
        .zip(actual)
        .map(|(f, a)| {
            let denom = (f.abs() + a.abs()) / 2.0;
            if denom < 1e-9 {
                0.0
            } else {
                (f - a).abs() / denom
            }
        })
        .sum();
    100.0 * sum / forecast.len() as f64
}

fn check(forecast: &[f64], actual: &[f64]) {
    assert_eq!(
        forecast.len(),
        actual.len(),
        "forecast and actual must align"
    );
    assert!(!forecast.is_empty(), "metrics need at least one sample");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_forecast_scores_zero() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&y, &y), 0.0);
        assert_eq!(mae(&y, &y), 0.0);
        assert_eq!(smape(&y, &y), 0.0);
    }

    #[test]
    fn known_values() {
        let f = [2.0, 4.0];
        let a = [1.0, 2.0];
        assert!((mae(&f, &a) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn smape_is_bounded() {
        let f = [100.0, 0.0];
        let a = [0.0, 100.0];
        let s = smape(&f, &a);
        assert!((s - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_rejected() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }
}
