use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

/// A clock frequency, stored internally in megahertz.
///
/// Frequencies are the primary control knob of the paper: DVFS levels range
/// from 100 MHz (deep near-threshold) up to the NTC server's
/// `Fmax = 3.1 GHz`.
///
/// # Examples
///
/// ```
/// use ntc_units::Frequency;
///
/// let fopt = Frequency::from_ghz(1.9);
/// assert!(fopt < Frequency::from_mhz(3100.0));
/// assert_eq!(fopt.as_hz(), 1.9e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Zero frequency (a halted clock).
    pub const ZERO: Frequency = Frequency(0.0);

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is negative or not finite.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(
            mhz.is_finite() && mhz >= 0.0,
            "frequency must be finite and non-negative, got {mhz} MHz"
        );
        Self(mhz)
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is negative or not finite.
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_mhz(ghz * 1000.0)
    }

    /// The value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0
    }

    /// The value in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1000.0
    }

    /// The value in hertz.
    pub fn as_hz(self) -> f64 {
        self.0 * 1.0e6
    }

    /// Returns the smaller of two frequencies.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two frequencies.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps this frequency into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.max(lo).min(hi)
    }

    /// The ratio `self / other` as a dimensionless number.
    ///
    /// Used for utilization arithmetic such as
    /// `Capcpu = Fopt / Fmax * 100`.
    pub fn ratio(self, other: Self) -> f64 {
        self.0 / other.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} GHz", self.as_ghz())
        } else {
            write!(f, "{:.0} MHz", self.0)
        }
    }
}

impl Add for Frequency {
    type Output = Frequency;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Frequency {
    type Output = Frequency;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Frequency {
    type Output = Frequency;
    fn mul(self, rhs: f64) -> Self {
        Self::from_mhz(self.0 * rhs)
    }
}

impl Div<f64> for Frequency {
    type Output = Frequency;
    fn div(self, rhs: f64) -> Self {
        Self::from_mhz(self.0 / rhs)
    }
}

impl Sum for Frequency {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        let f = Frequency::from_ghz(2.4);
        assert_eq!(f.as_mhz(), 2400.0);
        assert_eq!(f.as_hz(), 2.4e9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Frequency::from_mhz(300.0).to_string(), "300 MHz");
        assert_eq!(Frequency::from_ghz(1.9).to_string(), "1.90 GHz");
    }

    #[test]
    fn min_max_clamp() {
        let lo = Frequency::from_mhz(100.0);
        let hi = Frequency::from_ghz(3.1);
        let f = Frequency::from_ghz(5.0);
        assert_eq!(f.clamp(lo, hi), hi);
        assert_eq!(lo.clamp(lo, hi), lo);
        assert_eq!(lo.min(hi), lo);
        assert_eq!(lo.max(hi), hi);
    }

    #[test]
    fn saturating_subtraction() {
        let a = Frequency::from_mhz(100.0);
        let b = Frequency::from_mhz(300.0);
        assert_eq!(a - b, Frequency::ZERO);
    }

    #[test]
    fn sum_of_frequencies() {
        let total: Frequency = [1000.0, 500.0, 300.0]
            .iter()
            .map(|&m| Frequency::from_mhz(m))
            .sum();
        assert_eq!(total, Frequency::from_mhz(1800.0));
    }

    #[test]
    fn ratio_is_dimensionless() {
        let r = Frequency::from_ghz(1.9).ratio(Frequency::from_ghz(3.1));
        assert!((r - 1.9 / 3.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = Frequency::from_mhz(-1.0);
    }
}
