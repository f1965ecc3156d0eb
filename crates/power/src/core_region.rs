use ntc_units::{Frequency, Percent, Power, Voltage};

use crate::VfCurve;

/// Power model of the *core region*: the CPU cores plus their private
/// L1/L2 caches (§IV-1 of the paper).
///
/// Per active core the model is
///
/// ```text
/// P_core(f) = Ceff · V(f)² · f  +  V(f) · I0 · exp(V(f)/V0)
///             └── dynamic ──┘      └──── leakage ────┘
/// ```
///
/// A core in the wait-for-memory (WFM) state consumes 24% less than an
/// active core (measured empirically on an Intel Xeon v3 in the paper);
/// an idle (clock-gated) core consumes only leakage.
///
/// # Examples
///
/// ```
/// use ntc_power::CoreRegionModel;
/// use ntc_units::{Frequency, Percent};
///
/// let cores = CoreRegionModel::ntc_a57(16);
/// let busy = cores.power(Frequency::from_ghz(1.9), Percent::FULL, Percent::ZERO);
/// let idle = cores.power(Frequency::from_ghz(1.9), Percent::ZERO, Percent::ZERO);
/// assert!(busy.as_watts() > 10.0 * idle.as_watts());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRegionModel {
    vf: VfCurve,
    num_cores: usize,
    /// Effective switched capacitance per core, in farads.
    ceff_farads: f64,
    /// Leakage pre-factor `I0` in amperes.
    leak_i0_amps: f64,
    /// Leakage voltage scale `V0` in volts.
    leak_v0_volts: f64,
    /// Fractional discount while in wait-for-memory state (0.24 in the
    /// paper).
    wfm_discount: f64,
}

impl CoreRegionModel {
    /// The NTC server's core region: `num_cores` Cortex-A57-class OoO
    /// cores on the 28nm FD-SOI near-threshold curve.
    ///
    /// The capacitance is calibrated so a fully busy 16-core chip draws
    /// ≈85 W at 3.1 GHz / 1.15 V and ≈8 W at 1 GHz / 0.62 V, matching the
    /// energy-per-cycle scaling of the Exynos 5433 A57 cluster transposed
    /// to FD-SOI per §IV-1.
    pub fn ntc_a57(num_cores: usize) -> Self {
        Self::new(
            VfCurve::fdsoi_28nm_ntc(),
            num_cores,
            1.3e-9,
            2.0e-4,
            0.15,
            0.24,
        )
    }

    /// A conventional bulk-CMOS server core region (Intel E5-2620 class,
    /// 6 wide cores with high per-core capacitance and high leakage).
    pub fn conventional_xeon(num_cores: usize) -> Self {
        Self::new(
            VfCurve::bulk_conventional(),
            num_cores,
            2.5e-9,
            2.0e-2,
            0.30,
            0.24,
        )
    }

    /// Builds a core-region model from raw physical parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`, any physical parameter is
    /// non-positive, or `wfm_discount` is outside `[0, 1)`.
    pub fn new(
        vf: VfCurve,
        num_cores: usize,
        ceff_farads: f64,
        leak_i0_amps: f64,
        leak_v0_volts: f64,
        wfm_discount: f64,
    ) -> Self {
        assert!(num_cores > 0, "a core region needs at least one core");
        assert!(ceff_farads > 0.0, "Ceff must be positive");
        assert!(leak_i0_amps > 0.0, "I0 must be positive");
        assert!(leak_v0_volts > 0.0, "V0 must be positive");
        assert!(
            (0.0..1.0).contains(&wfm_discount),
            "WFM discount must be in [0, 1)"
        );
        Self {
            vf,
            num_cores,
            ceff_farads,
            leak_i0_amps,
            leak_v0_volts,
            wfm_discount,
        }
    }

    /// Number of cores in the region.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The V–f curve driving this region.
    pub fn vf_curve(&self) -> &VfCurve {
        &self.vf
    }

    /// Dynamic power of one fully active core at frequency `f`.
    pub fn dynamic_per_core(&self, f: Frequency) -> Power {
        let v = self.vf.voltage_at(f);
        Power::from_watts(self.ceff_farads * v.squared() * f.as_hz())
    }

    /// Leakage power of one core at the voltage sustaining `f`.
    pub fn leakage_per_core(&self, f: Frequency) -> Power {
        let v = self.vf.voltage_at(f);
        self.leakage_at_voltage(v)
    }

    /// Leakage power of one core at supply voltage `v`.
    pub fn leakage_at_voltage(&self, v: Voltage) -> Power {
        let i = self.leak_i0_amps * (v.as_volts() / self.leak_v0_volts).exp();
        Power::from_watts(v.as_volts() * i)
    }

    /// Total core-region power.
    ///
    /// * `active` — fraction of total core-cycles doing useful work;
    /// * `wfm` — fraction of total core-cycles stalled waiting for memory
    ///   (these cycles burn `1 − 0.24 = 76%` of active power).
    ///
    /// The remaining `1 − active − wfm` fraction is idle and burns only
    /// leakage. All `num_cores` cores stay powered (leakage applies to
    /// every core); the utilization fractions scale only dynamic power.
    ///
    /// # Panics
    ///
    /// Panics if `active + wfm` exceeds 100%.
    pub fn power(&self, f: Frequency, active: Percent, wfm: Percent) -> Power {
        let a = active.as_fraction();
        let w = wfm.as_fraction();
        assert!(
            a + w <= 1.0 + 1e-9,
            "active ({a:.3}) + WFM ({w:.3}) fractions exceed 1"
        );
        let dyn_one = self.dynamic_per_core(f).as_watts();
        let leak_one = self.leakage_per_core(f).as_watts();
        let n = self.num_cores as f64;
        let dynamic = n * dyn_one * (a + w * (1.0 - self.wfm_discount));
        Power::from_watts(dynamic + n * leak_one)
    }

    /// Energy per clock cycle of one active core, in joules — the quantity
    /// the paper's Exynos-to-FD-SOI scaling operates on.
    pub fn energy_per_cycle(&self, f: Frequency) -> f64 {
        (self.dynamic_per_core(f).as_watts() + self.leakage_per_core(f).as_watts()) / f.as_hz()
    }

    /// The WFM discount factor (0.24 in the paper).
    pub fn wfm_discount(&self) -> f64 {
        self.wfm_discount
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchors() {
        let m = CoreRegionModel::ntc_a57(16);
        let busy_fmax = m.power(Frequency::from_ghz(3.1), Percent::FULL, Percent::ZERO);
        assert!(
            (70.0..110.0).contains(&busy_fmax.as_watts()),
            "16 busy A57 cores at 3.1 GHz should draw ~85 W, got {busy_fmax}"
        );
        let busy_1g = m.power(Frequency::from_ghz(1.0), Percent::FULL, Percent::ZERO);
        assert!(
            (6.0..12.0).contains(&busy_1g.as_watts()),
            "16 busy cores at 1 GHz (near-threshold) should draw ~8 W, got {busy_1g}"
        );
    }

    #[test]
    fn quadratic_voltage_dependence() {
        let m = CoreRegionModel::ntc_a57(1);
        // Moving from 1.0 GHz to 3.1 GHz raises frequency 3.1x but power
        // must rise much more (voltage scaling compounds).
        let p1 = m.dynamic_per_core(Frequency::from_ghz(1.0)).as_watts();
        let p3 = m.dynamic_per_core(Frequency::from_ghz(3.1)).as_watts();
        assert!(p3 / p1 > 6.0, "dynamic power must scale super-linearly");
    }

    #[test]
    fn wfm_discount_applies() {
        let m = CoreRegionModel::ntc_a57(16);
        let f = Frequency::from_ghz(2.0);
        let all_active = m.power(f, Percent::FULL, Percent::ZERO);
        let all_wfm = m.power(f, Percent::ZERO, Percent::FULL);
        let leak = m.power(f, Percent::ZERO, Percent::ZERO);
        let dyn_active = all_active.as_watts() - leak.as_watts();
        let dyn_wfm = all_wfm.as_watts() - leak.as_watts();
        assert!((dyn_wfm / dyn_active - 0.76).abs() < 1e-9);
    }

    #[test]
    fn leakage_grows_with_voltage() {
        let m = CoreRegionModel::ntc_a57(1);
        let lo = m.leakage_at_voltage(Voltage::from_volts(0.46)).as_watts();
        let hi = m.leakage_at_voltage(Voltage::from_volts(1.15)).as_watts();
        assert!(hi > 20.0 * lo, "leakage must grow steeply with voltage");
    }

    #[test]
    fn energy_per_cycle_has_minimum_below_fmax() {
        // The classic NTC result: energy/cycle is minimized well below
        // the maximum frequency.
        let m = CoreRegionModel::ntc_a57(1);
        let e_fmax = m.energy_per_cycle(Frequency::from_ghz(3.1));
        let e_mid = m.energy_per_cycle(Frequency::from_ghz(1.0));
        assert!(e_mid < e_fmax);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn overcommitted_fractions_rejected() {
        let m = CoreRegionModel::ntc_a57(4);
        let _ = m.power(
            Frequency::from_ghz(1.0),
            Percent::new(80.0),
            Percent::new(30.0),
        );
    }
}
