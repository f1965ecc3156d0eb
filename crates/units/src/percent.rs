use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A utilization percentage.
///
/// CPU and memory utilizations in the paper are expressed as percentages of
/// one server's capacity. A *single* sample is bounded by 0–100%, but
/// aggregates (the sum of co-located VM demands, or a whole data center's
/// requirement) may exceed 100%, so `Percent` itself only forbids negative
/// and non-finite values; [`Percent::clamp_full`] caps one at 100%.
///
/// # Examples
///
/// ```
/// use ntc_units::Percent;
///
/// let a = Percent::new(35.0);
/// let b = Percent::new(80.0);
/// assert_eq!((a + b).value(), 115.0); // an overutilized server
/// assert_eq!((a + b).clamp_full(), Percent::FULL);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Percent(f64);

impl Percent {
    /// Zero percent.
    pub const ZERO: Percent = Percent(0.0);
    /// One hundred percent — a fully used resource.
    pub const FULL: Percent = Percent(100.0);

    /// Creates a percentage. Values above 100 are allowed (aggregates).
    ///
    /// # Panics
    ///
    /// Panics if `p` is negative or not finite.
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p >= 0.0,
            "percent must be finite and non-negative, got {p}"
        );
        Self(p)
    }

    /// Creates a percentage from a fraction in `[0, 1]` scale (0.35 → 35%).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or not finite.
    pub fn from_fraction(frac: f64) -> Self {
        Self::new(frac * 100.0)
    }

    /// The value as a percentage number (35.0 for 35%).
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value as a fraction (0.35 for 35%).
    pub fn as_fraction(self) -> f64 {
        self.0 / 100.0
    }

    /// Clamps into `[0, 100]`.
    pub fn clamp_full(self) -> Self {
        Self(self.0.min(100.0))
    }

    /// Returns the smaller of two percentages.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two percentages.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0)
    }
}

impl Add for Percent {
    type Output = Percent;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Percent {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Percent {
    type Output = Percent;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Percent {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 = (self.0 - rhs.0).max(0.0);
    }
}

impl Mul<f64> for Percent {
    type Output = Percent;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.0 * rhs)
    }
}

impl Div<Percent> for Percent {
    type Output = f64;
    fn div(self, rhs: Percent) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Percent {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_round_trip() {
        let p = Percent::from_fraction(0.43);
        assert!((p.value() - 43.0).abs() < 1e-12);
        assert!((p.as_fraction() - 0.43).abs() < 1e-12);
    }

    #[test]
    fn aggregates_may_exceed_100() {
        let agg: Percent = vec![Percent::new(60.0); 3].into_iter().sum();
        assert_eq!(agg.value(), 180.0);
        assert_eq!(agg.clamp_full(), Percent::FULL);
    }

    #[test]
    fn try_new_validates() {
        // `new` is the one constructor: a value above 100 is an
        // aggregate and kept as given, and a negative or non-finite
        // value panics.
        assert_eq!(Percent::new(100.01).value(), 100.01);
        for bad in [-0.01, f64::NAN, f64::INFINITY] {
            let built = std::panic::catch_unwind(|| Percent::new(bad));
            assert!(built.is_err(), "{bad} must panic");
        }
    }

    #[test]
    fn saturating_sub() {
        let mut p = Percent::new(10.0);
        p -= Percent::new(25.0);
        assert_eq!(p, Percent::ZERO);
    }

    #[test]
    fn display_format() {
        assert_eq!(Percent::new(43.25).to_string(), "43.2%");
    }

    #[test]
    fn ratio() {
        assert!((Percent::new(50.0) / Percent::FULL - 0.5).abs() < 1e-12);
    }
}
