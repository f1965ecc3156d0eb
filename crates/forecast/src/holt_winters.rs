//! Additive Holt–Winters (triple exponential smoothing) — a second
//! seasonal forecaster for the prediction ablation.
//!
//! Holt–Winters tracks level, trend and a seasonal profile with three
//! smoothing constants; on utilization traces it reacts faster to level
//! shifts than ARIMA while exploiting the same daily periodicity.

use ntc_trace::TimeSeries;

use crate::Predictor;

/// Additive Holt–Winters forecaster.
///
/// # Examples
///
/// ```
/// use ntc_forecast::{HoltWinters, Predictor};
/// use ntc_trace::TimeSeries;
///
/// let period = 24;
/// let history: TimeSeries = (0..period * 6)
///     .map(|t| 40.0 + 10.0 * ((t % period) as f64 / period as f64 * 6.283).sin())
///     .collect();
/// let fc = HoltWinters::daily(period).forecast(&history, period);
/// assert_eq!(fc.len(), period);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltWinters {
    period: usize,
    /// Level smoothing constant α.
    alpha: f64,
    /// Trend smoothing constant β.
    beta: f64,
    /// Seasonal smoothing constant γ.
    gamma: f64,
}

impl HoltWinters {
    /// Creates a forecaster with explicit smoothing constants.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` or any constant lies outside `(0, 1)`.
    pub fn new(period: usize, alpha: f64, beta: f64, gamma: f64) -> Self {
        assert!(period >= 2, "seasonal period must be at least 2");
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!(
                (0.0..1.0).contains(&v) && v > 0.0,
                "{name} must lie in (0, 1), got {v}"
            );
        }
        Self {
            period,
            alpha,
            beta,
            gamma,
        }
    }

    /// Defaults tuned for daily-periodic utilization traces: responsive
    /// level, conservative trend, slow seasonal adaptation.
    pub fn daily(period: usize) -> Self {
        Self::new(period, 0.3, 0.05, 0.2)
    }

    /// The seasonal period.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Fits the state on `history` and forecasts `horizon` steps.
    ///
    /// # Panics
    ///
    /// Panics if the history is shorter than two periods.
    pub fn fit_forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        let s = self.period;
        assert!(
            history.len() >= 2 * s,
            "Holt-Winters needs at least two seasonal periods ({} < {})",
            history.len(),
            2 * s
        );

        // Initialization: level = mean of first period, trend = average
        // period-over-period change, season = first-period deviations.
        let first: f64 = history[..s].iter().sum::<f64>() / s as f64;
        let second: f64 = history[s..2 * s].iter().sum::<f64>() / s as f64;
        let mut level = first;
        let mut trend = (second - first) / s as f64;
        let mut season: Vec<f64> = history[..s].iter().map(|&y| y - first).collect();

        for (t, &y) in history.iter().enumerate().skip(s) {
            let si = t % s;
            let prev_level = level;
            level = self.alpha * (y - season[si]) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
            season[si] = self.gamma * (y - level) + (1.0 - self.gamma) * season[si];
        }

        let n = history.len();
        (1..=horizon)
            .map(|h| {
                let si = (n + h - 1) % s;
                level + h as f64 * trend + season[si]
            })
            .collect()
    }
}

impl Predictor for HoltWinters {
    fn forecast(&self, history: &TimeSeries, horizon: usize) -> TimeSeries {
        if history.len() < 2 * self.period {
            return crate::SeasonalNaive::new(self.period.min(history.len().max(1)))
                .forecast(history, horizon);
        }
        let hi = 1.5 * history.peak();
        self.fit_forecast(history.values(), horizon)
            .into_iter()
            .map(|v| v.clamp(0.0, hi.max(1e-9)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn daily_signal(days: usize, period: usize, trend: f64) -> Vec<f64> {
        (0..days * period)
            .map(|t| {
                40.0 + trend * t as f64
                    + 15.0 * ((t % period) as f64 / period as f64 * std::f64::consts::TAU).sin()
            })
            .collect()
    }

    #[test]
    fn tracks_seasonal_signal() {
        let period = 48;
        let full = daily_signal(8, period, 0.0);
        let (hist, actual) = full.split_at(7 * period);
        let fc = HoltWinters::daily(period).fit_forecast(hist, period);
        let err = rmse(&fc, actual);
        assert!(err < 2.0, "seasonal RMSE {err:.3}");
    }

    #[test]
    fn tracks_trend() {
        let period = 24;
        let full = daily_signal(9, period, 0.05);
        let (hist, actual) = full.split_at(8 * period);
        let fc = HoltWinters::daily(period).fit_forecast(hist, period);
        // mean forecast level must follow the rising trend
        let mean_fc: f64 = fc.iter().sum::<f64>() / fc.len() as f64;
        let mean_actual: f64 = actual.iter().sum::<f64>() / actual.len() as f64;
        assert!(
            (mean_fc - mean_actual).abs() < 3.0,
            "trend tracking off: {mean_fc:.1} vs {mean_actual:.1}"
        );
    }

    #[test]
    fn predictor_clamps_to_plausible_band() {
        let period = 24;
        let history: TimeSeries = daily_signal(6, period, 0.0).into_iter().collect();
        let fc = HoltWinters::daily(period).forecast(&history, period);
        let hi = 1.5 * history.peak();
        assert!(fc.values().iter().all(|&v| (0.0..=hi).contains(&v)));
    }

    #[test]
    fn short_history_falls_back() {
        let history: TimeSeries = (0..30).map(|t| (t % 10) as f64).collect();
        let fc = HoltWinters::daily(24).forecast(&history, 12);
        assert_eq!(fc.len(), 12);
    }

    #[test]
    #[should_panic(expected = "two seasonal periods")]
    fn tiny_history_rejected_in_fit() {
        let _ = HoltWinters::daily(24).fit_forecast(&[1.0; 30], 5);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in")]
    fn bad_constants_rejected() {
        let _ = HoltWinters::new(24, 1.5, 0.1, 0.1);
    }
}
