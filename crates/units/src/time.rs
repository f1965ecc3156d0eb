use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::Frequency;

/// A duration in seconds.
///
/// # Examples
///
/// ```
/// use ntc_units::Seconds;
///
/// let sample = Seconds::from_minutes(5.0);
/// assert_eq!(sample.as_secs(), 300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn new(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s} s"
        );
        Self(s)
    }

    /// Creates a duration from minutes.
    ///
    /// # Panics
    ///
    /// Panics if `m` is negative or not finite.
    pub fn from_minutes(m: f64) -> Self {
        Self::new(m * 60.0)
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} s", self.0)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.0 * rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

/// A count of clock cycles.
///
/// Dividing by a [`Frequency`] yields wall-clock [`Seconds`], which is the
/// core identity of the interval simulator: compute cycles shrink with
/// rising frequency while memory nanoseconds do not.
///
/// # Examples
///
/// ```
/// use ntc_units::{Cycles, Frequency};
///
/// let t = Cycles::new(2_000_000) / Frequency::from_ghz(2.0);
/// assert!((t.as_secs() - 0.001).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub fn new(c: u64) -> Self {
        Self(c)
    }

    /// Creates a cycle count from a floating-point estimate, rounding to
    /// the nearest whole cycle.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or not finite.
    pub fn from_f64(c: f64) -> Self {
        assert!(
            c.is_finite() && c >= 0.0,
            "cycle count must be finite and non-negative, got {c}"
        );
        Self(c.round() as u64)
    }

    /// The raw count.
    pub fn count(self) -> u64 {
        self.0
    }

    /// The count as `f64` for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Div<Frequency> for Cycles {
    type Output = Seconds;
    fn div(self, rhs: Frequency) -> Seconds {
        Seconds::new(self.0 as f64 / rhs.as_hz())
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversions() {
        assert_eq!(Seconds::from_minutes(5.0).as_secs(), 300.0);
    }

    #[test]
    fn cycles_over_frequency() {
        let t = Cycles::new(3_100_000_000) / Frequency::from_ghz(3.1);
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_saturating_sub() {
        assert_eq!(Cycles::new(5) - Cycles::new(9), Cycles::ZERO);
    }

    #[test]
    fn cycles_from_f64_rounds() {
        assert_eq!(Cycles::from_f64(10.6).count(), 11);
        assert_eq!(Cycles::from_f64(10.4).count(), 10);
    }

    #[test]
    fn duration_ratio() {
        let degradation = Seconds::new(5.035) / Seconds::new(1.564);
        assert!(degradation > 3.0);
    }

    #[test]
    fn sums() {
        let s: Seconds = (0..3).map(|_| Seconds::new(1.5)).sum();
        assert_eq!(s.as_secs(), 4.5);
        let c: Cycles = (0..3).map(|_| Cycles::new(7)).sum();
        assert_eq!(c.count(), 21);
    }
}
