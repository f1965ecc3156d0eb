//! Time-series forecasting for per-VM utilization traces.
//!
//! EPACT (§V-B of the paper) predicts, at the start of every allocation
//! slot, the next day of per-VM CPU and memory utilization using the
//! autoregressive integrated moving average (ARIMA) model fitted on the
//! previous week. This crate implements the full chain from scratch:
//!
//! * [`diff`] — ordinary and seasonal differencing/integration;
//! * [`acf`] — autocorrelation;
//! * [`ar`] — Yule–Walker autoregressive fits;
//! * [`Arima`] — ARIMA(p,d,q)(s) via the Hannan–Rissanen two-stage
//!   regression, with multi-step forecasting;
//! * [`SeasonalNaive`] — the same-time-yesterday baseline used in the
//!   forecasting ablation;
//! * [`metrics`] — RMSE/MAE/sMAPE forecast-quality metrics.
//!
//! # Examples
//!
//! ```
//! use ntc_forecast::{Predictor, SeasonalNaive};
//! use ntc_trace::TimeSeries;
//!
//! // A perfectly periodic signal is predicted exactly by seasonal naive.
//! let period = 12;
//! let history: TimeSeries = (0..5 * period)
//!     .map(|t| (t % period) as f64)
//!     .collect();
//! let fc = SeasonalNaive::new(period).forecast(&history, period);
//! assert_eq!(fc.at(3), 3.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acf;
pub mod ar;
mod arima;
pub mod diff;
mod holt_winters;
pub mod linalg;
pub mod metrics;
mod predictor;

pub use arima::{Arima, FittedArima};
pub use holt_winters::HoltWinters;
pub use predictor::{ArimaPredictor, Predictor, SeasonalNaive};
