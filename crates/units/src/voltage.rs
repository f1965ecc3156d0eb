use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A supply voltage in volts.
///
/// In 28nm UTBB FD-SOI the usable range spans from the near-threshold
/// region (≈0.45 V) up to the nominal overdrive point (≈1.3 V); the
/// transistor threshold sits around 0.35–0.40 V.
///
/// # Examples
///
/// ```
/// use ntc_units::Voltage;
///
/// let vdd = Voltage::from_volts(0.62);
/// assert!((vdd.squared() - 0.3844).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Voltage(f64);

impl Voltage {
    /// Zero volts.
    pub const ZERO: Voltage = Voltage(0.0);

    /// Creates a voltage from volts.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite.
    pub fn from_volts(v: f64) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "voltage must be finite and non-negative, got {v} V"
        );
        Self(v)
    }

    /// The value in volts.
    pub fn as_volts(self) -> f64 {
        self.0
    }

    /// The value in millivolts.
    pub fn as_millivolts(self) -> f64 {
        self.0 * 1000.0
    }

    /// `V²` — the factor that enters dynamic power `Ceff · V² · f`.
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }

    /// Returns the smaller of two voltages.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two voltages.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

impl Add for Voltage {
    type Output = Voltage;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Voltage {
    type Output = Voltage;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Voltage {
    type Output = Voltage;
    fn mul(self, rhs: f64) -> Self {
        Self::from_volts(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let v = Voltage::from_volts(0.62);
        assert!((v.as_millivolts() - 620.0).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        assert_eq!(Voltage::from_volts(0.62).to_string(), "0.620 V");
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = Voltage::from_volts(0.3);
        let b = Voltage::from_volts(0.5);
        assert_eq!(a - b, Voltage::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(Voltage::from_volts(0.46) < Voltage::from_volts(1.15));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = Voltage::from_volts(-0.1);
    }
}
