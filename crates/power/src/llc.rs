use ntc_units::{Energy, MemBytes, Power, Voltage};

/// Power model of the last-level cache (§IV-2 of the paper).
///
/// The paper characterizes a 256 KB SRAM block in 28nm UTBB FD-SOI:
/// leakage power per block at each voltage level, plus read and write
/// energies per 128-bit access. A 16 MB LLC is 64 such blocks.
///
/// # Examples
///
/// ```
/// use ntc_power::LlcModel;
/// use ntc_units::{MemBytes, Voltage};
///
/// let llc = LlcModel::fdsoi_16mb();
/// assert_eq!(llc.capacity(), MemBytes::from_mib(16));
/// let leak = llc.leakage(Voltage::from_volts(0.78));
/// assert!(leak.as_watts() > 0.0 && leak.as_watts() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LlcModel {
    capacity: MemBytes,
    block_size: MemBytes,
    /// Leakage of one block at the reference voltage, in watts.
    block_leak_ref_watts: f64,
    /// Reference voltage for the leakage characterization.
    ref_voltage: Voltage,
    /// Read energy per 128-bit access at the reference voltage.
    read_energy: Energy,
    /// Write energy per 128-bit access at the reference voltage.
    write_energy: Energy,
}

impl LlcModel {
    /// The NTC server's 16 MB FD-SOI LLC: 64 blocks of 256 KB,
    /// 50 pJ reads / 62 pJ writes per 128-bit access at 1.15 V.
    pub fn fdsoi_16mb() -> Self {
        Self::new(
            MemBytes::from_mib(16),
            MemBytes::from_kib(256),
            0.030,
            Voltage::from_volts(1.15),
            Energy::from_picojoules(50.0),
            Energy::from_picojoules(62.0),
        )
    }

    /// A conventional 15 MB bulk LLC (E5-2620 class) with substantially
    /// higher leakage per block.
    pub fn bulk_15mb() -> Self {
        Self::new(
            MemBytes::from_mib(15),
            MemBytes::from_kib(256),
            0.120,
            Voltage::from_volts(1.20),
            Energy::from_picojoules(80.0),
            Energy::from_picojoules(95.0),
        )
    }

    /// Builds an LLC model from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole number of blocks or any
    /// energy/leakage parameter is non-positive.
    pub fn new(
        capacity: MemBytes,
        block_size: MemBytes,
        block_leak_ref_watts: f64,
        ref_voltage: Voltage,
        read_energy: Energy,
        write_energy: Energy,
    ) -> Self {
        assert!(block_size.as_bytes() > 0, "block size must be positive");
        assert!(
            capacity.as_bytes().is_multiple_of(block_size.as_bytes()),
            "LLC capacity must be a whole number of SRAM blocks"
        );
        assert!(block_leak_ref_watts > 0.0, "block leakage must be positive");
        assert!(
            ref_voltage > Voltage::ZERO,
            "reference voltage must be positive"
        );
        Self {
            capacity,
            block_size,
            block_leak_ref_watts,
            ref_voltage,
            read_energy,
            write_energy,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> MemBytes {
        self.capacity
    }

    /// Number of SRAM blocks.
    pub fn num_blocks(&self) -> u64 {
        self.capacity.as_bytes() / self.block_size.as_bytes()
    }

    /// Leakage power of the whole LLC at supply voltage `v`.
    ///
    /// SRAM leakage in FD-SOI scales roughly with the cube of the supply
    /// voltage over the operational range (combined DIBL and gate-leakage
    /// reduction), which matches the multi-voltage characterization the
    /// paper performed on the 256 KB block.
    pub fn leakage(&self, v: Voltage) -> Power {
        let scale = (v.as_volts() / self.ref_voltage.as_volts()).powi(3);
        Power::from_watts(self.block_leak_ref_watts * self.num_blocks() as f64 * scale)
    }

    /// Dynamic power from `reads_per_sec` and `writes_per_sec` 128-bit
    /// accesses at supply voltage `v` (access energy scales with `V²`).
    pub fn dynamic(&self, v: Voltage, reads_per_sec: f64, writes_per_sec: f64) -> Power {
        assert!(
            reads_per_sec >= 0.0 && writes_per_sec >= 0.0,
            "access rates must be non-negative"
        );
        let vscale = (v.as_volts() / self.ref_voltage.as_volts()).powi(2);
        let watts = (self.read_energy.as_joules() * reads_per_sec
            + self.write_energy.as_joules() * writes_per_sec)
            * vscale;
        Power::from_watts(watts)
    }

    /// Total LLC power for a given access mix.
    pub fn power(&self, v: Voltage, reads_per_sec: f64, writes_per_sec: f64) -> Power {
        self.leakage(v) + self.dynamic(v, reads_per_sec, writes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_count() {
        assert_eq!(LlcModel::fdsoi_16mb().num_blocks(), 64);
        assert_eq!(LlcModel::bulk_15mb().num_blocks(), 60);
    }

    #[test]
    fn leakage_scales_down_in_near_threshold() {
        let llc = LlcModel::fdsoi_16mb();
        let nominal = llc.leakage(Voltage::from_volts(1.15));
        let ntc = llc.leakage(Voltage::from_volts(0.46));
        assert!((nominal.as_watts() - 1.92).abs() < 1e-9);
        assert!(ntc.as_watts() < 0.2 * nominal.as_watts());
    }

    #[test]
    fn dynamic_power_from_access_rates() {
        let llc = LlcModel::fdsoi_16mb();
        // 1e9 reads/s at reference voltage = 50 pJ x 1e9 = 50 mW.
        let p = llc.dynamic(Voltage::from_volts(1.15), 1.0e9, 0.0);
        assert!((p.as_watts() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn total_power_is_sum() {
        let llc = LlcModel::fdsoi_16mb();
        let v = Voltage::from_volts(0.78);
        let total = llc.power(v, 1e8, 1e8);
        let parts = llc.leakage(v) + llc.dynamic(v, 1e8, 1e8);
        assert!((total.as_watts() - parts.as_watts()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_capacity_rejected() {
        let _ = LlcModel::new(
            MemBytes::from_kib(300),
            MemBytes::from_kib(256),
            0.03,
            Voltage::from_volts(1.0),
            Energy::from_picojoules(50.0),
            Energy::from_picojoules(60.0),
        );
    }
}
