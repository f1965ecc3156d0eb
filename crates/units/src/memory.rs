use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of memory, stored internally in bytes.
///
/// Used both for capacities (16 GiB of server DRAM, 16 MiB of LLC) and for
/// per-VM footprints (the paper's 70/255/435 MB workload classes).
///
/// # Examples
///
/// ```
/// use ntc_units::MemBytes;
///
/// let server = MemBytes::from_gib(16);
/// let vm = MemBytes::from_mib(435);
/// assert!(vm < server);
/// assert!((vm.as_fraction_of(server) - 0.02655).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemBytes(u64);

impl MemBytes {
    /// Zero bytes.
    pub const ZERO: MemBytes = MemBytes(0);

    /// Creates a size from raw bytes.
    pub fn from_bytes(b: u64) -> Self {
        Self(b)
    }

    /// Creates a size from kibibytes.
    pub fn from_kib(k: u64) -> Self {
        Self(k * 1024)
    }

    /// Creates a size from mebibytes.
    pub fn from_mib(m: u64) -> Self {
        Self(m * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    pub fn from_gib(g: u64) -> Self {
        Self(g * 1024 * 1024 * 1024)
    }

    /// The value in bytes.
    pub fn as_bytes(self) -> u64 {
        self.0
    }

    /// The value in kibibytes (floating point).
    pub fn as_kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// The value in mebibytes (floating point).
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The value in gibibytes (floating point).
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// `self / whole` as a dimensionless fraction.
    ///
    /// Returns 0.0 when `whole` is zero-sized.
    pub fn as_fraction_of(self, whole: MemBytes) -> f64 {
        if whole.0 == 0 {
            0.0
        } else {
            self.0 as f64 / whole.0 as f64
        }
    }

    /// Returns the smaller of two sizes.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two sizes.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for MemBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.1} MiB", self.as_mib())
        } else if self.0 >= 1024 {
            write!(f, "{:.1} KiB", self.as_kib())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for MemBytes {
    type Output = MemBytes;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for MemBytes {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for MemBytes {
    type Output = MemBytes;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for MemBytes {
    type Output = MemBytes;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<MemBytes> for MemBytes {
    type Output = f64;
    fn div(self, rhs: MemBytes) -> f64 {
        self.as_fraction_of(rhs)
    }
}

impl Sum for MemBytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let m = MemBytes::from_gib(16);
        assert_eq!(m.as_bytes(), 16 * 1024 * 1024 * 1024);
        assert_eq!(m.as_mib(), 16.0 * 1024.0);
        assert_eq!(MemBytes::from_kib(64).as_bytes(), 65536);
    }

    #[test]
    fn display_units() {
        assert_eq!(MemBytes::from_gib(16).to_string(), "16.00 GiB");
        assert_eq!(MemBytes::from_mib(255).to_string(), "255.0 MiB");
        assert_eq!(MemBytes::from_kib(64).to_string(), "64.0 KiB");
        assert_eq!(MemBytes::from_bytes(128).to_string(), "128 B");
    }

    #[test]
    fn fractions() {
        let llc = MemBytes::from_mib(16);
        let ws = MemBytes::from_mib(4);
        assert!((ws.as_fraction_of(llc) - 0.25).abs() < 1e-12);
        assert_eq!(ws.as_fraction_of(MemBytes::ZERO), 0.0);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(
            MemBytes::from_mib(1) - MemBytes::from_mib(2),
            MemBytes::ZERO
        );
        let sum: MemBytes = (0..3).map(|_| MemBytes::from_mib(70)).sum();
        assert_eq!(sum, MemBytes::from_mib(210));
    }
}
