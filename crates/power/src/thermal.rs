//! Temperature-dependent leakage scaling.
//!
//! The paper's measurements are taken at nominal operating temperature;
//! deployed data centers run servers across a band of inlet
//! temperatures, and sub-threshold leakage grows super-linearly with
//! junction temperature. This module provides the standard exponential
//! scaling used to transpose the FD-SOI leakage characterization to
//! other operating points — an extension hook for thermal-aware
//! follow-up studies (the paper's group's COMPUSAPIEN line of work).

use ntc_units::Power;

/// Exponential leakage–temperature model:
/// `P_leak(T) = P_leak(T_ref) · exp((T − T_ref)/T_0)`.
///
/// # Examples
///
/// ```
/// use ntc_power::thermal::LeakageThermalModel;
/// use ntc_units::Power;
///
/// let m = LeakageThermalModel::fdsoi_28nm();
/// let at_ref = m.scale(Power::from_watts(1.0), 60.0);
/// assert!((at_ref.as_watts() - 1.0).abs() < 1e-12);
/// let hot = m.scale(Power::from_watts(1.0), 85.0);
/// assert!(hot.as_watts() > 1.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageThermalModel {
    /// Reference junction temperature (°C) of the characterization.
    pub t_ref_celsius: f64,
    /// Exponential scale (°C per e-fold of leakage).
    pub t_scale_celsius: f64,
}

impl LeakageThermalModel {
    /// 28nm FD-SOI: leakage roughly doubles every ~45 °C around the
    /// 60 °C characterization point (FD-SOI's thin body suppresses the
    /// bulk junction component, flattening the slope vs bulk CMOS).
    pub fn fdsoi_28nm() -> Self {
        Self {
            t_ref_celsius: 60.0,
            t_scale_celsius: 65.0,
        }
    }

    /// Bulk 32nm (conventional server class): doubles every ~25 °C.
    pub fn bulk_32nm() -> Self {
        Self {
            t_ref_celsius: 60.0,
            t_scale_celsius: 36.0,
        }
    }

    /// Scales a leakage power characterized at `t_ref` to junction
    /// temperature `t_celsius`.
    ///
    /// # Panics
    ///
    /// Panics if `t_celsius` is not finite.
    pub fn scale(&self, leakage_at_ref: Power, t_celsius: f64) -> Power {
        assert!(t_celsius.is_finite(), "temperature must be finite");
        let factor = ((t_celsius - self.t_ref_celsius) / self.t_scale_celsius).exp();
        Power::from_watts(leakage_at_ref.as_watts() * factor)
    }

    /// The multiplicative factor alone.
    pub fn factor(&self, t_celsius: f64) -> f64 {
        ((t_celsius - self.t_ref_celsius) / self.t_scale_celsius).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_is_identity() {
        let m = LeakageThermalModel::fdsoi_28nm();
        assert!((m.factor(60.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_temperature() {
        let m = LeakageThermalModel::fdsoi_28nm();
        assert!(m.factor(40.0) < 1.0);
        assert!(m.factor(80.0) > m.factor(70.0));
    }

    #[test]
    fn fdsoi_flatter_than_bulk() {
        let fdsoi = LeakageThermalModel::fdsoi_28nm();
        let bulk = LeakageThermalModel::bulk_32nm();
        assert!(
            fdsoi.factor(90.0) < bulk.factor(90.0),
            "FD-SOI leakage must grow more slowly with temperature"
        );
    }

    #[test]
    fn scales_power_values() {
        let m = LeakageThermalModel::bulk_32nm();
        let p = m.scale(Power::from_watts(8.0), 96.0);
        assert!((p.as_watts() - 8.0 * (36.0f64 / 36.0).exp()).abs() < 1e-9);
    }
}
