use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::{Energy, Seconds};

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use ntc_units::{Power, Seconds};
///
/// let server = Power::from_watts(58.7);
/// let slot_energy = server * Seconds::new(3600.0);
/// assert!((slot_energy.as_joules() - 211_320.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    pub fn from_watts(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative, got {w} W"
        );
        Self(w)
    }

    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or not finite.
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::from_watts(mw / 1000.0)
    }

    /// The value in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// The value in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1000.0
    }

    /// The value in kilowatts.
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1000.0
    }

    /// The value in megawatts.
    pub fn as_megawatts(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns the smaller of two powers.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e6 {
            write!(f, "{:.3} MW", self.as_megawatts())
        } else if self.0 >= 1000.0 {
            write!(f, "{:.3} kW", self.as_kilowatts())
        } else {
            write!(f, "{:.2} W", self.0)
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Self {
        Self::from_watts(self.0 * rhs)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Self {
        Self::from_watts(self.0 / rhs)
    }
}

impl Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::from_joules(self.0 * rhs.as_secs())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let p = Power::from_watts(11_500.0);
        assert_eq!(p.as_kilowatts(), 11.5);
        assert_eq!(Power::from_milliwatts(15.5).as_watts(), 0.0155);
        assert!((Power::from_watts(2.5e6).as_megawatts() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Power::from_watts(11.84).to_string(), "11.84 W");
        assert_eq!(Power::from_watts(11_500.0).to_string(), "11.500 kW");
        assert_eq!(Power::from_watts(2.5e6).to_string(), "2.500 MW");
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(100.0) * Seconds::new(300.0);
        assert_eq!(e.as_joules(), 30_000.0);
    }

    #[test]
    fn sum_and_accumulate() {
        let mut total = Power::ZERO;
        total += Power::from_watts(10.0);
        total += Power::from_watts(5.0);
        assert_eq!(total.as_watts(), 15.0);
        let s: Power = vec![Power::from_watts(1.0); 4].into_iter().sum();
        assert_eq!(s.as_watts(), 4.0);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Power::from_watts(1.0) - Power::from_watts(2.0), Power::ZERO);
    }
}
