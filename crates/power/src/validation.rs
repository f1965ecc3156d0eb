//! Validation of the power model against every constant the paper
//! publishes (§IV) — executable documentation of the calibration.
//!
//! Each function returns the relative error between the model and the
//! paper's figure; the test suite pins them all near zero. If a model
//! refactor drifts from the published characterization, these tests
//! fail first.

use ntc_units::{Frequency, Percent, Power};

use crate::{DataCenterPowerModel, ServerPowerModel};

/// Relative error of the uncore constant component vs the paper's
/// 11.84 W.
pub fn uncore_constant_error() -> f64 {
    let u = crate::UncoreModel::ntc_server();
    let constant = u.static_power().as_watts() - u.motherboard().as_watts();
    (constant - 11.84).abs() / 11.84
}

/// Relative errors of the proportional uncore component endpoints vs
/// the paper's 1.6 W and 9 W.
pub fn uncore_proportional_errors() -> (f64, f64) {
    let u = crate::UncoreModel::ntc_server();
    let lo = u.proportional(Frequency::from_mhz(100.0)).as_watts();
    let hi = u.proportional(Frequency::from_ghz(3.1)).as_watts();
    ((lo - 1.6).abs() / 1.6, (hi - 9.0).abs() / 9.0)
}

/// Relative errors of DRAM idle/active power per GB vs the paper's
/// 15.5 and 155 mW/GB.
pub fn dram_background_errors() -> (f64, f64) {
    let d = crate::DramModel::ddr4_16gb();
    let gb = d.capacity().as_gib();
    let idle = d.background(Percent::ZERO).as_milliwatts() / gb;
    let active = d.background(Percent::FULL).as_milliwatts() / gb;
    ((idle - 15.5).abs() / 15.5, (active - 155.0).abs() / 155.0)
}

/// Relative error of the DRAM read energy vs the paper's 800 pJ/B.
pub fn dram_read_energy_error() -> f64 {
    let d = crate::DramModel::ddr4_16gb();
    // 1 B/s stream costs exactly the per-byte energy in watts.
    let per_byte = d.access(1.0).as_watts() * 1e12;
    (per_byte - 800.0).abs() / 800.0
}

/// Relative error of the WFM discount vs the paper's 24%.
pub fn wfm_discount_error() -> f64 {
    let c = crate::CoreRegionModel::ntc_a57(16);
    (c.wfm_discount() - 0.24).abs() / 0.24
}

/// Relative error of the motherboard power vs the paper's 15 W.
pub fn motherboard_error() -> f64 {
    let u = crate::UncoreModel::ntc_server();
    (u.motherboard().as_watts() - 15.0).abs() / 15.0
}

/// Deviation of the model's data-center-optimal frequency from the
/// paper's 1.9 GHz, in MHz.
pub fn f_ntc_opt_deviation_mhz() -> f64 {
    (ServerPowerModel::ntc().ntc_optimal_frequency().as_mhz() - 1900.0).abs()
}

/// A one-line validation report.
pub fn report() -> String {
    let (p_lo, p_hi) = uncore_proportional_errors();
    let (d_idle, d_act) = dram_background_errors();
    format!(
        "uncore const {:.2}% | prop lo {:.2}% hi {:.2}% | motherboard {:.2}% | \
         dram idle {:.2}% active {:.2}% read-E {:.2}% | WFM {:.2}% | F_NTC_opt off by {:.0} MHz",
        uncore_constant_error() * 100.0,
        p_lo * 100.0,
        p_hi * 100.0,
        motherboard_error() * 100.0,
        d_idle * 100.0,
        d_act * 100.0,
        dram_read_energy_error() * 100.0,
        wfm_discount_error() * 100.0,
        f_ntc_opt_deviation_mhz()
    )
}

/// Worst-case power of a full 600-server NTC data center at Fmax —
/// a sanity anchor (600 × ~132 W ≈ 79 kW).
pub fn full_dc_peak() -> Power {
    DataCenterPowerModel::new(ServerPowerModel::ntc(), 600)
        .worst_case_power(Percent::new(100.0), Frequency::from_ghz(3.1))
        .expect("100% at Fmax is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_constants_are_exact() {
        assert!(uncore_constant_error() < 1e-9);
        let (lo, hi) = uncore_proportional_errors();
        assert!(lo < 1e-9 && hi < 1e-9);
        let (idle, act) = dram_background_errors();
        assert!(idle < 1e-6 && act < 1e-6);
        assert!(dram_read_energy_error() < 1e-6);
        assert!(wfm_discount_error() < 1e-9);
        assert!(motherboard_error() < 1e-9);
    }

    #[test]
    fn optimal_frequency_matches_paper() {
        assert_eq!(f_ntc_opt_deviation_mhz(), 0.0, "F_NTC_opt must be 1.9 GHz");
    }

    #[test]
    fn report_is_informative() {
        let r = report();
        assert!(r.contains("F_NTC_opt"));
        assert!(r.contains("WFM"));
    }

    #[test]
    fn dc_peak_magnitude() {
        let p = full_dc_peak().as_kilowatts();
        assert!(
            (60.0..110.0).contains(&p),
            "600 NTC servers at Fmax should draw ~80 kW, got {p:.1} kW"
        );
    }
}
