use ntc_units::{Frequency, Voltage};

/// A voltage–frequency operating curve.
///
/// The 28nm UTBB FD-SOI process sustains an ultra-wide voltage range: the
/// near-threshold region starts around 0.46 V (where the paper's prototype
/// measurements in [Rossi et al., IEEE Micro'17] live) and the nominal
/// overdrive point reaches 1.15 V at 3.1 GHz (matching the ultra-wide-range
/// Cortex-A9 silicon of [Jacquet et al., JSSC'14] scaled by the paper's
/// A57/A9 pipeline factor of 1.17×). Between table points the curve is
/// linearly interpolated; outside, it is clamped.
///
/// # Examples
///
/// ```
/// use ntc_power::VfCurve;
/// use ntc_units::Frequency;
///
/// let curve = VfCurve::fdsoi_28nm_ntc();
/// let v = curve.voltage_at(Frequency::from_ghz(1.9));
/// assert!(v.as_volts() > 0.7 && v.as_volts() < 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    /// `(frequency, voltage)` knots sorted by ascending frequency.
    points: Vec<(Frequency, Voltage)>,
}

impl VfCurve {
    /// Builds a curve from `(frequency, voltage)` knots.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots are given or if the knots are not
    /// strictly increasing in both frequency and voltage (a physical V–f
    /// curve is monotone).
    pub fn new(points: Vec<(Frequency, Voltage)>) -> Self {
        assert!(points.len() >= 2, "a V-f curve needs at least two knots");
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "V-f knots must be strictly increasing in frequency"
            );
            assert!(
                w[0].1 < w[1].1,
                "V-f knots must be strictly increasing in voltage"
            );
        }
        Self { points }
    }

    /// The 28nm UTBB FD-SOI near-threshold curve used for the NTC server
    /// (100 MHz @ 0.46 V … 3.1 GHz @ 1.15 V).
    pub fn fdsoi_28nm_ntc() -> Self {
        let mhz_v = [
            (100.0, 0.46),
            (300.0, 0.50),
            (500.0, 0.54),
            (800.0, 0.58),
            (1000.0, 0.62),
            (1200.0, 0.66),
            (1500.0, 0.70),
            (1700.0, 0.74),
            (1900.0, 0.78),
            (2100.0, 0.84),
            (2400.0, 0.92),
            (2700.0, 1.02),
            (3100.0, 1.15),
        ];
        Self::new(
            mhz_v
                .iter()
                .map(|&(m, v)| (Frequency::from_mhz(m), Voltage::from_volts(v)))
                .collect(),
        )
    }

    /// A conventional bulk-CMOS server curve (Intel E5-2620 class): a
    /// narrow voltage window, so power is nearly linear in frequency.
    pub fn bulk_conventional() -> Self {
        let mhz_v = [
            (1200.0, 0.95),
            (1600.0, 1.00),
            (2000.0, 1.08),
            (2400.0, 1.15),
        ];
        Self::new(
            mhz_v
                .iter()
                .map(|&(m, v)| (Frequency::from_mhz(m), Voltage::from_volts(v)))
                .collect(),
        )
    }

    /// The lowest frequency on the curve.
    pub fn fmin(&self) -> Frequency {
        self.points[0].0
    }

    /// The highest frequency on the curve.
    pub fn fmax(&self) -> Frequency {
        self.points[self.points.len() - 1].0
    }

    /// The supply voltage required to sustain `f`, linearly interpolated
    /// between knots and clamped to the curve's ends.
    pub fn voltage_at(&self, f: Frequency) -> Voltage {
        let fm = f.as_mhz();
        if fm <= self.points[0].0.as_mhz() {
            return self.points[0].1;
        }
        if fm >= self.points[self.points.len() - 1].0.as_mhz() {
            return self.points[self.points.len() - 1].1;
        }
        for w in self.points.windows(2) {
            let (f0, v0) = (w[0].0.as_mhz(), w[0].1.as_volts());
            let (f1, v1) = (w[1].0.as_mhz(), w[1].1.as_volts());
            if fm <= f1 {
                let t = (fm - f0) / (f1 - f0);
                return Voltage::from_volts(v0 + t * (v1 - v0));
            }
        }
        unreachable!("frequency within knot range must hit a segment")
    }

    /// The knot frequencies — the discrete DVFS levels exposed to the
    /// governor.
    pub fn dvfs_levels(&self) -> Vec<Frequency> {
        self.points.iter().map(|&(f, _)| f).collect()
    }

    /// The lowest DVFS level that is at least `f`, or `None` if `f`
    /// exceeds `fmax`.
    pub fn level_at_or_above(&self, f: Frequency) -> Option<Frequency> {
        self.points.iter().map(|&(lf, _)| lf).find(|&lf| lf >= f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntc_curve_span() {
        let c = VfCurve::fdsoi_28nm_ntc();
        assert_eq!(c.fmin(), Frequency::from_mhz(100.0));
        assert_eq!(c.fmax(), Frequency::from_ghz(3.1));
        assert_eq!(
            c.voltage_at(Frequency::from_mhz(100.0)),
            Voltage::from_volts(0.46)
        );
        assert_eq!(
            c.voltage_at(Frequency::from_ghz(3.1)),
            Voltage::from_volts(1.15)
        );
    }

    #[test]
    fn interpolation_is_monotone() {
        let c = VfCurve::fdsoi_28nm_ntc();
        let mut last = Voltage::ZERO;
        for mhz in (100..=3100).step_by(50) {
            let v = c.voltage_at(Frequency::from_mhz(mhz as f64));
            assert!(v >= last, "voltage must not decrease with frequency");
            last = v;
        }
    }

    #[test]
    fn clamping_outside_range() {
        let c = VfCurve::fdsoi_28nm_ntc();
        assert_eq!(
            c.voltage_at(Frequency::from_mhz(10.0)),
            Voltage::from_volts(0.46)
        );
        assert_eq!(
            c.voltage_at(Frequency::from_ghz(9.9)),
            Voltage::from_volts(1.15)
        );
    }

    #[test]
    fn midpoint_interpolation() {
        let c = VfCurve::new(vec![
            (Frequency::from_mhz(1000.0), Voltage::from_volts(0.6)),
            (Frequency::from_mhz(2000.0), Voltage::from_volts(0.8)),
        ]);
        let v = c.voltage_at(Frequency::from_mhz(1500.0));
        assert!((v.as_volts() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn dvfs_levels_and_ceiling() {
        let c = VfCurve::fdsoi_28nm_ntc();
        assert_eq!(c.dvfs_levels().len(), 13);
        assert_eq!(
            c.level_at_or_above(Frequency::from_mhz(1850.0)),
            Some(Frequency::from_mhz(1900.0))
        );
        assert_eq!(c.level_at_or_above(Frequency::from_ghz(3.2)), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_rejected() {
        let _ = VfCurve::new(vec![
            (Frequency::from_mhz(2000.0), Voltage::from_volts(0.8)),
            (Frequency::from_mhz(1000.0), Voltage::from_volts(0.6)),
        ]);
    }
}
