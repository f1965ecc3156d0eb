use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::{Power, Seconds};

/// Energy in joules.
///
/// The data-center experiments report per-slot energy in megajoules
/// (Fig. 6 of the paper); [`Energy::as_megajoules`] matches those axes.
///
/// # Examples
///
/// ```
/// use ntc_units::{Energy, Seconds};
///
/// let e = Energy::from_megajoules(17.5);
/// let avg = e / Seconds::new(3600.0);
/// assert!((avg.as_kilowatts() - 4.861).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or not finite.
    pub fn from_joules(j: f64) -> Self {
        assert!(
            j.is_finite() && j >= 0.0,
            "energy must be finite and non-negative, got {j} J"
        );
        Self(j)
    }

    /// Creates an energy from picojoules (per-access cache/DRAM energies).
    ///
    /// # Panics
    ///
    /// Panics if `pj` is negative or not finite.
    pub fn from_picojoules(pj: f64) -> Self {
        Self::from_joules(pj * 1.0e-12)
    }

    /// Creates an energy from megajoules.
    ///
    /// # Panics
    ///
    /// Panics if `mj` is negative or not finite.
    pub fn from_megajoules(mj: f64) -> Self {
        Self::from_joules(mj * 1.0e6)
    }

    /// The value in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in picojoules.
    pub fn as_picojoules(self) -> f64 {
        self.0 * 1.0e12
    }

    /// The value in megajoules.
    pub fn as_megajoules(self) -> f64 {
        self.0 / 1.0e6
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e6 {
            write!(f, "{:.3} MJ", self.as_megajoules())
        } else if self.0 >= 1.0 {
            write!(f, "{:.3} J", self.0)
        } else {
            write!(f, "{:.1} pJ", self.as_picojoules())
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Self {
        Self::from_joules(self.0 * rhs)
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    fn div(self, rhs: Seconds) -> Power {
        Power::from_watts(self.0 / rhs.as_secs())
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e = Energy::from_picojoules(800.0);
        assert!((e.as_joules() - 8.0e-10).abs() < 1e-24);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_joules(600.0) / Seconds::new(60.0);
        assert_eq!(p.as_watts(), 10.0);
    }

    #[test]
    fn ratio_of_energies_is_dimensionless() {
        let saving = 1.0 - Energy::from_megajoules(11.0) / Energy::from_megajoules(20.0);
        assert!((saving - 0.45).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Energy::from_megajoules(17.5).to_string(), "17.500 MJ");
        assert_eq!(Energy::from_joules(2.0).to_string(), "2.000 J");
        assert_eq!(Energy::from_picojoules(800.0).to_string(), "800.0 pJ");
    }

    #[test]
    fn sum_accumulates() {
        let total: Energy = (0..4).map(|_| Energy::from_joules(2.5)).sum();
        assert_eq!(total.as_joules(), 10.0);
    }
}
