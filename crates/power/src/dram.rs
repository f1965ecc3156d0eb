use ntc_units::{Energy, MemBytes, Percent, Power};

/// Power model of the DRAM banks (§IV-4 of the paper).
///
/// Characterized by direct measurement on an Intel Xeon v3 server and
/// interpolated with a linear model:
///
/// * **idle**: 15.5 mW per GB of installed DRAM,
/// * **active** (banks activated): 155 mW per GB,
/// * **read energy**: 800 pJ per byte read.
///
/// Memory power is therefore a linear function of the number of memory
/// accesses per second — the property that makes *consolidation* optimal
/// from the memory standpoint (§V-A), in tension with the CPU optimum.
///
/// # Examples
///
/// ```
/// use ntc_power::DramModel;
/// use ntc_units::{MemBytes, Percent};
///
/// let dram = DramModel::ddr4_16gb();
/// let idle = dram.power(Percent::ZERO, 0.0);
/// assert!((idle.as_watts() - 0.248).abs() < 1e-9); // 15.5 mW/GB x 16 GB
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramModel {
    capacity: MemBytes,
    idle_mw_per_gb: f64,
    active_mw_per_gb: f64,
    read_energy_per_byte: Energy,
}

impl DramModel {
    /// The NTC server's 16 GB DDR4-2400 with the paper's constants.
    pub fn ddr4_16gb() -> Self {
        Self::new(
            MemBytes::from_gib(16),
            15.5,
            155.0,
            Energy::from_picojoules(800.0),
        )
    }

    /// A conventional server's 32 GB DDR3-1333 (higher idle power per GB,
    /// as measured on the 2012-era E5-2620 platforms).
    pub fn ddr3_32gb() -> Self {
        Self::new(
            MemBytes::from_gib(32),
            45.0,
            260.0,
            Energy::from_picojoules(1100.0),
        )
    }

    /// Builds a DRAM model from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero, any per-GB power is negative, or
    /// `active < idle`.
    pub fn new(
        capacity: MemBytes,
        idle_mw_per_gb: f64,
        active_mw_per_gb: f64,
        read_energy_per_byte: Energy,
    ) -> Self {
        assert!(capacity > MemBytes::ZERO, "DRAM capacity must be positive");
        assert!(idle_mw_per_gb >= 0.0, "idle power must be non-negative");
        assert!(
            active_mw_per_gb >= idle_mw_per_gb,
            "active power must be at least idle power"
        );
        Self {
            capacity,
            idle_mw_per_gb,
            active_mw_per_gb,
            read_energy_per_byte,
        }
    }

    /// Installed capacity.
    pub fn capacity(&self) -> MemBytes {
        self.capacity
    }

    /// Background (bank) power when `active_fraction` of the installed
    /// memory has its banks activated and the rest idles.
    pub fn background(&self, active_fraction: Percent) -> Power {
        let gb = self.capacity.as_gib();
        let a = active_fraction.as_fraction().min(1.0);
        let mw = gb * (self.idle_mw_per_gb * (1.0 - a) + self.active_mw_per_gb * a);
        Power::from_milliwatts(mw)
    }

    /// Access power for a read stream of `read_bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `read_bytes_per_sec` is negative or not finite.
    pub fn access(&self, read_bytes_per_sec: f64) -> Power {
        assert!(
            read_bytes_per_sec.is_finite() && read_bytes_per_sec >= 0.0,
            "read bandwidth must be finite and non-negative"
        );
        Power::from_watts(self.read_energy_per_byte.as_joules() * read_bytes_per_sec)
    }

    /// Total DRAM power for a given bank-activity fraction and read
    /// bandwidth.
    pub fn power(&self, active_fraction: Percent, read_bytes_per_sec: f64) -> Power {
        self.background(active_fraction) + self.access(read_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let d = DramModel::ddr4_16gb();
        assert!((d.background(Percent::ZERO).as_watts() - 16.0 * 0.0155).abs() < 1e-9);
        assert!((d.background(Percent::FULL).as_watts() - 16.0 * 0.155).abs() < 1e-9);
    }

    #[test]
    fn access_energy_is_800pj_per_byte() {
        let d = DramModel::ddr4_16gb();
        // 1 GB/s read stream: 800 pJ/B x 1e9 B/s = 0.8 W.
        let p = d.access(1.0e9);
        assert!((p.as_watts() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn linear_in_bandwidth() {
        let d = DramModel::ddr4_16gb();
        let p1 = d.access(2.0e9).as_watts();
        let p2 = d.access(4.0e9).as_watts();
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
    }

    #[test]
    fn background_interpolates() {
        let d = DramModel::ddr4_16gb();
        let half = d.background(Percent::new(50.0)).as_watts();
        let idle = d.background(Percent::ZERO).as_watts();
        let full = d.background(Percent::FULL).as_watts();
        assert!((half - (idle + full) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn overcommitted_fraction_clamps() {
        let d = DramModel::ddr4_16gb();
        assert_eq!(
            d.background(Percent::new(150.0)),
            d.background(Percent::FULL)
        );
    }
}
