use ntc_units::{Frequency, Power};

/// Power model of the memory controller, peripherals, IO subsystem and
/// motherboard (§IV-3 of the paper).
///
/// Measured on an Intel Xeon v3 and on the Cavium ThunderX board, the
/// uncore splits into:
///
/// * a **constant** component of 11.84 W (static + fixed dynamic cost of
///   keeping the subsystems on),
/// * a component **proportional to the operating condition**, ranging from
///   1.6 W at the lowest operating point to 9 W at the highest,
/// * **motherboard** power of 15 W (low fan speed, one SSD) — the "static
///   power" knob the paper sweeps from 5 W to 45 W in Fig. 7.
///
/// # Examples
///
/// ```
/// use ntc_power::UncoreModel;
/// use ntc_units::{Frequency, Power};
///
/// let uncore = UncoreModel::ntc_server();
/// let p_lo = uncore.power(Frequency::from_mhz(100.0));
/// let p_hi = uncore.power(Frequency::from_ghz(3.1));
/// assert!((p_lo.as_watts() - (11.84 + 1.6 + 15.0)).abs() < 1e-9);
/// assert!((p_hi.as_watts() - (11.84 + 9.0 + 15.0)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncoreModel {
    constant: Power,
    proportional_min: Power,
    proportional_max: Power,
    motherboard: Power,
    fmin: Frequency,
    fmax: Frequency,
}

impl UncoreModel {
    /// The NTC server's uncore, with the paper's measured constants.
    pub fn ntc_server() -> Self {
        Self::new(
            Power::from_watts(11.84),
            Power::from_watts(1.6),
            Power::from_watts(9.0),
            Power::from_watts(15.0),
            Frequency::from_mhz(100.0),
            Frequency::from_ghz(3.1),
        )
    }

    /// A conventional E5-2620-class uncore with a much larger constant
    /// component (chipset, fans, PSU inefficiency at low load).
    pub fn conventional_server() -> Self {
        Self::new(
            Power::from_watts(32.0),
            Power::from_watts(3.0),
            Power::from_watts(12.0),
            Power::from_watts(18.0),
            Frequency::from_mhz(1200.0),
            Frequency::from_mhz(2400.0),
        )
    }

    /// Builds an uncore model.
    ///
    /// # Panics
    ///
    /// Panics if `proportional_min > proportional_max` or
    /// `fmin >= fmax`.
    pub fn new(
        constant: Power,
        proportional_min: Power,
        proportional_max: Power,
        motherboard: Power,
        fmin: Frequency,
        fmax: Frequency,
    ) -> Self {
        assert!(
            proportional_min <= proportional_max,
            "proportional range inverted"
        );
        assert!(fmin < fmax, "frequency range inverted");
        Self {
            constant,
            proportional_min,
            proportional_max,
            motherboard,
            fmin,
            fmax,
        }
    }

    /// Replaces the motherboard ("static") power — the Fig. 7 sweep knob.
    pub fn with_motherboard(mut self, motherboard: Power) -> Self {
        self.motherboard = motherboard;
        self
    }

    /// The constant (always-on) component, motherboard included.
    pub fn static_power(&self) -> Power {
        self.constant + self.motherboard
    }

    /// The motherboard component alone.
    pub fn motherboard(&self) -> Power {
        self.motherboard
    }

    /// The operating-point-proportional component at frequency `f`
    /// (linear between `fmin` and `fmax`, clamped outside).
    pub fn proportional(&self, f: Frequency) -> Power {
        let t = ((f.as_mhz() - self.fmin.as_mhz()) / (self.fmax.as_mhz() - self.fmin.as_mhz()))
            .clamp(0.0, 1.0);
        Power::from_watts(
            self.proportional_min.as_watts()
                + t * (self.proportional_max.as_watts() - self.proportional_min.as_watts()),
        )
    }

    /// Total uncore power at operating point `f`.
    pub fn power(&self, f: Frequency) -> Power {
        self.static_power() + self.proportional(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let u = UncoreModel::ntc_server();
        assert_eq!(u.static_power().as_watts(), 11.84 + 15.0);
        assert_eq!(u.proportional(Frequency::from_mhz(100.0)).as_watts(), 1.6);
        assert_eq!(u.proportional(Frequency::from_ghz(3.1)).as_watts(), 9.0);
    }

    #[test]
    fn proportional_is_monotone_and_clamped() {
        let u = UncoreModel::ntc_server();
        let mid = u.proportional(Frequency::from_mhz(1600.0)).as_watts();
        assert!(mid > 1.6 && mid < 9.0);
        assert_eq!(u.proportional(Frequency::from_mhz(50.0)).as_watts(), 1.6);
        assert_eq!(u.proportional(Frequency::from_ghz(4.0)).as_watts(), 9.0);
    }

    #[test]
    fn fig7_knob_changes_static_only() {
        let base = UncoreModel::ntc_server();
        let heavy = base.clone().with_motherboard(Power::from_watts(45.0));
        let f = Frequency::from_ghz(1.9);
        let delta = heavy.power(f).as_watts() - base.power(f).as_watts();
        assert!((delta - 30.0).abs() < 1e-9);
        assert_eq!(heavy.proportional(f), base.proportional(f));
    }

    #[test]
    fn conventional_has_larger_static() {
        assert!(
            UncoreModel::conventional_server().static_power()
                > UncoreModel::ntc_server().static_power()
        );
    }
}
