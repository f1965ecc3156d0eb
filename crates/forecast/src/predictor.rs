use ntc_trace::TimeSeries;

use crate::Arima;

/// A forecaster of utilization traces.
///
/// EPACT is generic over the predictor so the forecasting ablation can
/// swap ARIMA for the seasonal-naive baseline (or a perfect oracle in
/// tests).
pub trait Predictor: std::fmt::Debug {
    /// Forecasts `horizon` samples following `history`, clamped to
    /// non-negative utilization.
    fn forecast(&self, history: &TimeSeries, horizon: usize) -> TimeSeries;
}

/// The same-time-yesterday baseline: repeats the last full period.
///
/// # Examples
///
/// ```
/// use ntc_forecast::{Predictor, SeasonalNaive};
/// use ntc_trace::TimeSeries;
///
/// let history: TimeSeries = (0..20).map(|t| (t % 10) as f64).collect();
/// let fc = SeasonalNaive::new(10).forecast(&history, 5);
/// assert_eq!(fc.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalNaive {
    period: usize,
}

impl SeasonalNaive {
    /// Creates a seasonal-naive predictor with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "period must be positive");
        Self { period }
    }

    /// The period.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl Predictor for SeasonalNaive {
    fn forecast(&self, history: &TimeSeries, horizon: usize) -> TimeSeries {
        assert!(
            history.len() >= self.period,
            "history shorter than one period"
        );
        let vals = history.values();
        let start = vals.len() - self.period;
        (0..horizon)
            .map(|h| vals[start + (h % self.period)].max(0.0))
            .collect()
    }
}

/// ARIMA wrapped as a [`Predictor`] (the paper's choice, §V-B), with a
/// seasonal-naive fallback for histories too short to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaPredictor {
    spec: Arima,
    period: usize,
}

impl ArimaPredictor {
    /// The paper's configuration: daily-seasonal ARIMA on 5-minute
    /// samples (`period = 288`).
    pub fn daily(samples_per_day: usize) -> Self {
        Self {
            spec: Arima::daily_default(samples_per_day),
            period: samples_per_day,
        }
    }
}

impl Predictor for ArimaPredictor {
    fn forecast(&self, history: &TimeSeries, horizon: usize) -> TimeSeries {
        let needed = self.period + 3 * 4 + 10 + 2;
        if history.len() < needed + self.period {
            return SeasonalNaive::new(self.period.min(history.len().max(1)))
                .forecast(history, horizon);
        }
        // Bound the forecast to the physically plausible band around the
        // observed history: utilizations cannot go negative, and a
        // forecast far above the historical peak is a fit artifact, not
        // a prediction.
        let hi = 1.5 * history.values().iter().copied().fold(0.0, f64::max);
        let fc = self.spec.fit(history.values()).forecast(horizon);
        fc.into_iter().map(|v| v.clamp(0.0, hi.max(1e-9))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_naive_repeats_last_period() {
        let history: TimeSeries = (0..30).map(|t| (t % 6) as f64 * 2.0).collect();
        let fc = SeasonalNaive::new(6).forecast(&history, 12);
        assert_eq!(fc.at(0), 0.0);
        assert_eq!(fc.at(1), 2.0);
        assert_eq!(fc.at(7), 2.0, "wraps around the period");
    }

    #[test]
    fn arima_predictor_clamps_negative() {
        let period = 24;
        let history: TimeSeries = (0..7 * period)
            .map(|t| (0.2 + 0.2 * ((t % period) as f64 / 4.0).sin()).max(0.0))
            .collect();
        let fc = ArimaPredictor::daily(period).forecast(&history, period);
        assert!(fc.values().iter().all(|&v| v >= 0.0));
        assert_eq!(fc.len(), period);
    }

    #[test]
    fn arima_predictor_falls_back_on_short_history() {
        let history: TimeSeries = (0..40).map(|t| (t % 20) as f64).collect();
        // period 20: too short for ARIMA (needs a week), falls back
        let fc = ArimaPredictor::daily(20).forecast(&history, 10);
        assert_eq!(fc.len(), 10);
        assert_eq!(fc.at(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "shorter than one period")]
    fn naive_rejects_tiny_history() {
        let history: TimeSeries = (0..3).map(|t| t as f64).collect();
        let _ = SeasonalNaive::new(10).forecast(&history, 5);
    }
}
