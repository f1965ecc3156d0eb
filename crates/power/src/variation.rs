//! Process-variation guardbands in the near-threshold regime.
//!
//! Near-threshold operation amplifies within-die parameter variation:
//! delay sensitivity to threshold-voltage spread grows steeply as Vdd
//! approaches Vth (the core challenge of the paper's reference \[9\],
//! EnergySmart). A practical NTC server must therefore add a voltage
//! *guardband* on top of the nominal V–f curve, and the guardband is
//! larger at low voltage. This module models that margin and exposes
//! how it erodes (but does not eliminate) the energy-proportionality
//! advantage — the NTC server's optimum stays far below Fmax.

use ntc_units::Voltage;

use crate::VfCurve;

/// A voltage guardband model: the margin added to the nominal supply to
/// cover within-die variation, growing as the supply approaches the
/// threshold voltage:
///
/// ```text
/// ΔV(V) = sigma_mv · k / (V − Vth)
/// ```
///
/// # Examples
///
/// ```
/// use ntc_power::variation::GuardbandModel;
/// use ntc_units::Voltage;
///
/// let g = GuardbandModel::fdsoi_28nm_typical();
/// let near = g.margin(Voltage::from_volts(0.46));
/// let nominal = g.margin(Voltage::from_volts(1.15));
/// assert!(near > nominal, "NTC operation needs larger margins");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandModel {
    /// Device threshold voltage.
    pub vth: Voltage,
    /// Vth standard deviation in millivolts (within-die).
    pub sigma_mv: f64,
    /// Sensitivity constant (dimensionless; ~3 sigma coverage).
    pub k: f64,
}

impl GuardbandModel {
    /// Typical 28nm FD-SOI corner: Vth ≈ 0.38 V, σ(Vth) ≈ 12 mV,
    /// 3σ coverage. FD-SOI's undoped channel keeps σ small — one of the
    /// reasons the paper picks the technology for NTC.
    pub fn fdsoi_28nm_typical() -> Self {
        Self {
            vth: Voltage::from_volts(0.38),
            sigma_mv: 12.0,
            k: 0.15,
        }
    }

    /// A bulk-CMOS corner with doubled Vth spread (random dopant
    /// fluctuation), for comparison.
    pub fn bulk_28nm_typical() -> Self {
        Self {
            vth: Voltage::from_volts(0.42),
            sigma_mv: 25.0,
            k: 0.15,
        }
    }

    /// The guardband at nominal supply `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is at or below the threshold voltage (no
    /// functional operating point exists there).
    pub fn margin(&self, v: Voltage) -> Voltage {
        assert!(
            v > self.vth,
            "supply {v} must exceed the threshold voltage {}",
            self.vth
        );
        let overdrive = v.as_volts() - self.vth.as_volts();
        Voltage::from_volts(self.sigma_mv * 1e-3 * self.k / overdrive * 3.0)
    }

    /// The guarded supply: nominal + margin.
    pub fn guarded(&self, v: Voltage) -> Voltage {
        v + self.margin(v)
    }

    /// Applies the guardband to a whole V–f curve, producing the curve
    /// a variation-aware integration would actually ship.
    pub fn apply(&self, curve: &VfCurve) -> VfCurve {
        let points = curve
            .dvfs_levels()
            .into_iter()
            .map(|f| (f, self.guarded(curve.voltage_at(f))))
            .collect();
        VfCurve::new(points)
    }

    /// Relative dynamic-power penalty of the guardband at supply `v`
    /// (`(V+ΔV)²/V² − 1`).
    pub fn power_penalty(&self, v: Voltage) -> f64 {
        let g = self.guarded(v);
        g.squared() / v.squared() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreRegionModel, DataCenterPowerModel, LlcModel, ServerPowerModel, UncoreModel};
    use ntc_units::Percent;

    #[test]
    fn margin_grows_toward_threshold() {
        let g = GuardbandModel::fdsoi_28nm_typical();
        let m_ntc = g.margin(Voltage::from_volts(0.46)).as_millivolts();
        let m_mid = g.margin(Voltage::from_volts(0.78)).as_millivolts();
        let m_nom = g.margin(Voltage::from_volts(1.15)).as_millivolts();
        assert!(m_ntc > 3.0 * m_mid / 2.0);
        assert!(m_mid > m_nom);
        // near-threshold margins are tens of millivolts, not volts
        assert!((20.0..120.0).contains(&m_ntc), "margin {m_ntc:.1} mV");
    }

    #[test]
    fn fdsoi_needs_less_margin_than_bulk() {
        let fdsoi = GuardbandModel::fdsoi_28nm_typical();
        let bulk = GuardbandModel::bulk_28nm_typical();
        let v = Voltage::from_volts(0.55);
        assert!(fdsoi.margin(v) < bulk.margin(v));
    }

    #[test]
    fn guarded_curve_is_still_monotone() {
        let g = GuardbandModel::fdsoi_28nm_typical();
        let guarded = g.apply(&VfCurve::fdsoi_28nm_ntc());
        // VfCurve::new re-validates monotonicity; also spot-check levels
        for f in guarded.dvfs_levels() {
            assert!(
                guarded.voltage_at(f) >= VfCurve::fdsoi_28nm_ntc().voltage_at(f),
                "guardband can only raise the supply"
            );
        }
    }

    #[test]
    fn power_penalty_is_worst_in_deep_ntc() {
        let g = GuardbandModel::fdsoi_28nm_typical();
        let deep = g.power_penalty(Voltage::from_volts(0.46));
        let nominal = g.power_penalty(Voltage::from_volts(1.15));
        assert!(deep > 4.0 * nominal);
        assert!(deep < 0.6, "penalty stays a fraction, not a multiple");
    }

    #[test]
    fn guardbanded_dc_optimum_stays_well_below_fmax() {
        // The headline robustness check: variation margins shift the
        // data-center optimum slightly but do not restore
        // consolidation-at-Fmax.
        let g = GuardbandModel::fdsoi_28nm_typical();
        let guarded_curve = g.apply(&VfCurve::fdsoi_28nm_ntc());
        let cores = CoreRegionModel::new(guarded_curve, 16, 1.3e-9, 2.0e-4, 0.15, 0.24);
        let server = ServerPowerModel::from_parts(
            cores,
            LlcModel::fdsoi_16mb(),
            UncoreModel::ntc_server(),
            crate::DramModel::ddr4_16gb(),
            19.2e9,
        );
        let dc = DataCenterPowerModel::new(server, 80);
        let f = dc.ntc_optimal_frequency();
        assert!(
            (1.4..=2.4).contains(&f.as_ghz()),
            "guardbanded optimum must stay near 1.9 GHz, got {f}"
        );
        // and the optimum still beats Fmax comfortably at low util
        let u = Percent::new(20.0);
        let p_opt = dc.worst_case_power(u, f).expect("feasible");
        let p_max = dc
            .worst_case_power(u, dc.server().fmax())
            .expect("feasible");
        assert!(p_opt < p_max);
    }

    #[test]
    #[should_panic(expected = "must exceed the threshold")]
    fn below_threshold_rejected() {
        let g = GuardbandModel::fdsoi_28nm_typical();
        let _ = g.margin(Voltage::from_volts(0.3));
    }
}
