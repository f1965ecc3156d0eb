use ntc_trace::stats;

use crate::ar::{residuals, yule_walker};
use crate::diff;
use crate::linalg;

/// An ARIMA(p,d,q) model with optional seasonal differencing at period
/// `s` — the predictor EPACT uses to forecast next-day per-VM
/// utilization from the previous week (§V-B of the paper).
///
/// The fitting pipeline is the classical Hannan–Rissanen two-stage
/// procedure:
///
/// 1. seasonally difference at `s` (if set), then difference `d` times;
/// 2. fit a long AR by Yule–Walker and extract innovation estimates;
/// 3. regress the differenced series on its own `p` lags and the `q`
///    lagged innovations (ridge-regularized least squares);
/// 4. forecast recursively with future innovations set to zero, then
///    integrate the differences back.
///
/// # Examples
///
/// ```
/// use ntc_forecast::Arima;
///
/// // Forecast a daily-periodic utilization signal one period ahead.
/// let period = 24;
/// let history: Vec<f64> = (0..7 * period)
///     .map(|t| 50.0 + 30.0 * ((t % period) as f64 / period as f64 * 6.283).sin())
///     .collect();
/// let model = Arima::new(2, 0, 1).with_seasonal(period);
/// let fit = model.fit(&history);
/// let fc = fit.forecast(period);
/// assert!((fc[0] - history[6 * period]).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arima {
    p: usize,
    d: usize,
    q: usize,
    seasonal_period: Option<usize>,
}

impl Arima {
    /// Creates an ARIMA(p,d,q) specification.
    ///
    /// # Panics
    ///
    /// Panics if `p + q == 0` (nothing to fit) or `d > 2` (higher orders
    /// are never useful on utilization traces and destabilize
    /// integration).
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        assert!(p + q > 0, "ARIMA needs at least one AR or MA term");
        assert!(d <= 2, "differencing order above 2 is not supported");
        Self {
            p,
            d,
            q,
            seasonal_period: None,
        }
    }

    /// The configuration used for the paper's utilization traces:
    /// ARIMA(2,0,1) on daily-seasonally-differenced data.
    pub fn daily_default(samples_per_day: usize) -> Self {
        Self::new(2, 0, 1).with_seasonal(samples_per_day)
    }

    /// Adds seasonal differencing at `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2`.
    pub fn with_seasonal(mut self, period: usize) -> Self {
        assert!(period >= 2, "seasonal period must be at least 2");
        self.seasonal_period = Some(period);
        self
    }

    /// AR order.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Differencing order.
    pub fn d(&self) -> usize {
        self.d
    }

    /// MA order.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Fits the model to `history` (oldest first).
    ///
    /// # Panics
    ///
    /// Panics if the history is too short for the requested differencing
    /// and lag structure (at least `s + d + 3(p+q) + 10` samples).
    pub fn fit(&self, history: &[f64]) -> FittedArima {
        let s = self.seasonal_period.unwrap_or(0);
        let needed = s + self.d + 3 * (self.p + self.q) + 10;
        assert!(
            history.len() >= needed,
            "history of {} too short; ARIMA{:?} needs at least {needed}",
            history.len(),
            (self.p, self.d, self.q)
        );

        // Stage 0: differencing.
        let mut z = match self.seasonal_period {
            Some(sp) => diff::difference(history, sp),
            None => history.to_vec(),
        };
        let mut tails = Vec::with_capacity(self.d);
        for _ in 0..self.d {
            tails.push(*z.last().expect("non-empty after differencing"));
            z = diff::difference(&z, 1);
        }
        let mean = stats::mean(&z);
        let mut zc = z;
        for v in &mut zc {
            *v -= mean;
        }

        // Stage 1: long-AR innovations.
        let long_order = (self.p + self.q + 5).min(zc.len() / 4).max(1);
        let long_phi = yule_walker(&zc, long_order);
        let innov = residuals(&zc, &long_phi);
        // innov[k] corresponds to zc[k + long_order]

        // Stage 2: regression of zc[t] on p lags of zc and q lags of
        // innovations, for t in start..n. Each regressor is a shifted
        // view of zc or innov, so no row is ever copied.
        let (p, q, n) = (self.p, self.q, zc.len());
        let start = long_order + q.max(p);
        let lags = (1..=p).map(|i| &zc[start - i..n - i]);
        let shocks = (1..=q).map(|j| &innov[start - j - long_order..n - j - long_order]);
        let columns: Vec<&[f64]> = lags.chain(shocks).collect();
        let beta =
            linalg::least_squares(&columns, &zc[start..], 1e-6).unwrap_or_else(|| vec![0.0; p + q]);
        let (phi_raw, theta_raw) = beta.split_at(p);

        // Stationarity/invertibility guard: shrink coefficient vectors
        // whose l1 norm reaches 1, which would make the recursive
        // forecast diverge over long horizons (a real hazard on
        // near-flat utilization traces).
        let clamp_l1 = |coeffs: &[f64]| -> Vec<f64> {
            let norm: f64 = coeffs.iter().map(|c| c.abs()).sum();
            if norm >= 0.98 {
                coeffs.iter().map(|c| c * 0.95 / norm).collect()
            } else {
                coeffs.to_vec()
            }
        };
        let phi = clamp_l1(phi_raw);
        let theta = clamp_l1(theta_raw);

        // Keep recent state for forecasting.
        let state_z: Vec<f64> = zc.iter().rev().take(self.p.max(1)).copied().collect();
        let state_e: Vec<f64> = innov.iter().rev().take(self.q.max(1)).copied().collect();
        let seasonal_tail = match self.seasonal_period {
            Some(sp) => history[history.len() - sp..].to_vec(),
            None => Vec::new(),
        };

        FittedArima {
            spec: *self,
            phi,
            theta,
            mean,
            state_z,
            state_e,
            diff_tails: tails,
            seasonal_tail,
        }
    }
}

/// A fitted ARIMA model, ready to forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedArima {
    spec: Arima,
    phi: Vec<f64>,
    theta: Vec<f64>,
    mean: f64,
    /// Most recent differenced values, newest first.
    state_z: Vec<f64>,
    /// Most recent innovations, newest first.
    state_e: Vec<f64>,
    /// Tails for undoing the `d` ordinary differences.
    diff_tails: Vec<f64>,
    /// Last `s` original values for undoing seasonal differencing.
    seasonal_tail: Vec<f64>,
}

impl FittedArima {
    /// The fitted AR coefficients.
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// The fitted MA coefficients.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Forecasts `horizon` steps ahead on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        let spec = &self.spec;
        // Recursive ARMA forecast on the (centered) differenced scale.
        let mut zs: Vec<f64> = self.state_z.clone(); // newest first
        let mut es: Vec<f64> = self.state_e.clone();
        let mut out_z = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut v = 0.0;
            for (i, &c) in self.phi.iter().enumerate() {
                v += c * zs.get(i).copied().unwrap_or(0.0);
            }
            for (j, &c) in self.theta.iter().enumerate() {
                v += c * es.get(j).copied().unwrap_or(0.0);
            }
            zs.insert(0, v);
            zs.truncate(spec.p.max(1));
            es.insert(0, 0.0); // future innovations are zero in expectation
            es.truncate(spec.q.max(1));
            out_z.push(v + self.mean);
        }

        // Undo ordinary differencing.
        let undone = if spec.d > 0 {
            diff::integrate_n(&self.diff_tails, &out_z, spec.d)
        } else {
            out_z
        };

        // Undo seasonal differencing.
        match spec.seasonal_period {
            Some(sp) => diff::integrate(&self.seasonal_tail, &undone, sp),
            None => undone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_daily(n_days: usize, period: usize, noise: f64) -> Vec<f64> {
        let mut state = 0xDEADBEEFCAFEBABEu64;
        (0..n_days * period)
            .map(|t| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let e = ((state as f64 / u64::MAX as f64) - 0.5) * noise;
                40.0 + 25.0 * ((t % period) as f64 / period as f64 * std::f64::consts::TAU).sin()
                    + e
            })
            .collect()
    }

    #[test]
    fn forecast_tracks_periodic_signal() {
        let period = 48;
        let hist = noisy_daily(7, period, 4.0);
        let model = Arima::daily_default(period);
        let fc = model.fit(&hist).forecast(period);
        // Compare against the true (noiseless) next day.
        for (h, &f) in fc.iter().enumerate() {
            let truth =
                40.0 + 25.0 * ((h % period) as f64 / period as f64 * std::f64::consts::TAU).sin();
            assert!(
                (f - truth).abs() < 8.0,
                "step {h}: forecast {f:.1} vs truth {truth:.1}"
            );
        }
    }

    #[test]
    fn beats_flat_forecast_on_periodic_data() {
        let period = 48;
        let full = noisy_daily(8, period, 4.0);
        let (hist, actual) = full.split_at(7 * period);
        let fc = Arima::daily_default(period).fit(hist).forecast(period);
        let mean = stats::mean(hist);
        let err_arima: f64 = fc
            .iter()
            .zip(actual)
            .map(|(f, a)| (f - a) * (f - a))
            .sum::<f64>();
        let err_flat: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
        assert!(
            err_arima < 0.3 * err_flat,
            "ARIMA must clearly beat the flat predictor: {err_arima:.1} vs {err_flat:.1}"
        );
    }

    #[test]
    fn plain_arma_on_ar1() {
        // AR(1) with phi=0.8: ARIMA(1,0,1) should recover phi roughly.
        let mut y = vec![0.0];
        let mut state = 7u64;
        for _ in 0..3000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = (state as f64 / u64::MAX as f64) - 0.5;
            let last = *y.last().unwrap();
            y.push(0.8 * last + e);
        }
        let fit = Arima::new(1, 0, 1).fit(&y);
        assert!((fit.phi()[0] - 0.8).abs() < 0.15, "phi {:?}", fit.phi());
    }

    #[test]
    fn differencing_handles_trend() {
        // Linear trend + noise: ARIMA(1,1,0) forecast must continue the
        // trend rather than regress to the mean.
        let mut state = 99u64;
        let y: Vec<f64> = (0..500)
            .map(|t| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let e = ((state as f64 / u64::MAX as f64) - 0.5) * 2.0;
                0.5 * t as f64 + e
            })
            .collect();
        let fc = Arima::new(1, 1, 0).fit(&y).forecast(20);
        let expected_end = 0.5 * 519.0;
        assert!(
            (fc[19] - expected_end).abs() < 15.0,
            "trend forecast {:.1} vs {expected_end:.1}",
            fc[19]
        );
    }

    /// 24 synthetic utilization histories of 2,016–3,744 five-minute
    /// samples: xorshift noise on a diurnal curve, plus one
    /// near-constant series and one with long stretches of zeros.
    fn golden_histories() -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64 - 0.5
        };
        (0..24)
            .map(|i| {
                let len = 2016 + i * 72;
                let (base, swing, jitter) =
                    (10.0 + 3.0 * i as f64, 4.0 + i as f64, 1.0 + 0.5 * i as f64);
                (0..len)
                    .map(|t| {
                        let phase = (t % 288) as f64 / 288.0 * std::f64::consts::TAU;
                        match i {
                            0 => 42.0 + 1e-9 * noise(),
                            1 if (t / 500) % 2 == 0 => 0.0,
                            _ => (base + swing * phase.sin() + jitter * noise()).max(0.0),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over the bit patterns of every value, in order.
    fn bit_hash<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn forecasts_are_bit_identical_to_golden() {
        // Pins every bit of these forecasts: reordering any
        // floating-point sum of the fit (differencing, ACF, residuals,
        // normal equations, recursion) moves the hashes.
        use crate::{ArimaPredictor, Predictor};
        use ntc_trace::TimeSeries;
        let histories = golden_histories();
        let daily: Vec<f64> = histories
            .iter()
            .flat_map(|h| {
                let h = TimeSeries::from_values(h.clone());
                ArimaPredictor::daily(288)
                    .forecast(&h, 288)
                    .values()
                    .to_vec()
            })
            .collect();
        let general = |model: Arima| -> Vec<f64> {
            histories
                .iter()
                .flat_map(|h| model.fit(h).forecast(48))
                .collect()
        };
        let hashes = [
            bit_hash(&daily),
            bit_hash(&general(Arima::new(1, 1, 1))),
            bit_hash(&general(Arima::new(3, 2, 0))),
        ];
        assert_eq!(
            hashes,
            [
                0x2e23_6d24_3faf_c8db,
                0xb86c_0f82_c417_f576,
                0x1472_5f8c_e62c_fc4d
            ],
            "{hashes:#018x?}"
        );
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_history_rejected() {
        let _ = Arima::daily_default(288).fit(&[1.0; 100]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_spec_rejected() {
        let _ = Arima::new(0, 1, 0);
    }
}
