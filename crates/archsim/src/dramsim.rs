/// Parameters of a server's shared memory subsystem.
///
/// The contention model is M/D/1-flavoured: as the aggregate demand of
/// all cores approaches the peak bandwidth, the effective access latency
/// inflates by `1 + ρ / (2(1 − ρ))`, and throughput is hard-capped at
/// `saturation × peak` (queueing prevents reaching the theoretical peak).
///
/// # Examples
///
/// ```
/// use ntc_archsim::MemoryParams;
///
/// let ddr4 = MemoryParams::ddr4_2400_single();
/// assert_eq!(ddr4.peak_bandwidth, 19.2e9);
/// let quiet = ddr4.effective_latency_ns(1.0e9);
/// let busy = ddr4.effective_latency_ns(17.0e9);
/// assert!(busy > quiet);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryParams {
    /// Unloaded (idle-queue) access latency in nanoseconds.
    pub base_latency_ns: f64,
    /// Theoretical peak bandwidth in bytes per second.
    pub peak_bandwidth: f64,
    /// Achievable fraction of the peak before hard saturation (0.9–0.95
    /// for realistic FR-FCFS controllers).
    pub saturation: f64,
}

impl MemoryParams {
    /// The NTC server's memory: single-channel DDR4-2400, 19.2 GB/s peak,
    /// as configured in §III-A.
    pub fn ddr4_2400_single() -> Self {
        Self {
            base_latency_ns: 80.0,
            peak_bandwidth: 19.2e9,
            saturation: 0.94,
        }
    }

    /// The Cavium ThunderX memory subsystem — same DDR4 channel but a
    /// slower on-chip path (the "inappropriate memory subsystem design"
    /// of §III-A).
    pub fn thunderx() -> Self {
        Self {
            base_latency_ns: 95.0,
            peak_bandwidth: 19.2e9,
            saturation: 0.88,
        }
    }

    /// The Xeon X5650 baseline host: triple-channel DDR3-1333 per socket,
    /// two sockets (the paper's 128 GB @ 1333 MHz machine).
    pub fn ddr3_1333_hex() -> Self {
        Self {
            base_latency_ns: 80.0,
            peak_bandwidth: 64.0e9,
            saturation: 0.92,
        }
    }

    /// An E5-2620's quad-channel DDR3-1333.
    pub fn ddr3_1333_quad() -> Self {
        Self {
            base_latency_ns: 82.0,
            peak_bandwidth: 42.6e9,
            saturation: 0.92,
        }
    }

    /// Queue utilization ρ for a given aggregate demand, clamped just
    /// below 1.
    pub fn utilization(&self, demand_bytes_per_sec: f64) -> f64 {
        assert!(demand_bytes_per_sec >= 0.0, "demand must be non-negative");
        (demand_bytes_per_sec / self.peak_bandwidth).min(0.999)
    }

    /// Effective access latency under an aggregate demand, in
    /// nanoseconds: `base × (1 + ρ/(2(1−ρ)))`, with ρ capped at the
    /// saturation point so latency stays finite.
    pub fn effective_latency_ns(&self, demand_bytes_per_sec: f64) -> f64 {
        let rho = self.utilization(demand_bytes_per_sec).min(self.saturation);
        self.base_latency_ns * (1.0 + rho / (2.0 * (1.0 - rho)))
    }

    /// The minimum wall-clock time to move `total_bytes` through the
    /// controller (the bandwidth wall).
    pub fn min_transfer_time(&self, total_bytes: f64) -> f64 {
        assert!(total_bytes >= 0.0, "byte count must be non-negative");
        total_bytes / (self.peak_bandwidth * self.saturation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_inflates_with_load() {
        let m = MemoryParams::ddr4_2400_single();
        let l0 = m.effective_latency_ns(0.0);
        let l50 = m.effective_latency_ns(9.6e9);
        let l90 = m.effective_latency_ns(17.3e9);
        assert_eq!(l0, 80.0);
        assert!(l50 > l0 && l90 > l50);
        // M/D/1 at rho=0.5: 1 + 0.5/1.0 = 1.5x
        assert!((l50 - 120.0).abs() < 1.0);
    }

    #[test]
    fn latency_is_finite_at_overload() {
        let m = MemoryParams::ddr4_2400_single();
        let l = m.effective_latency_ns(100.0e9);
        assert!(l.is_finite());
        // capped at the saturation point
        let cap = 80.0 * (1.0 + 0.94 / (2.0 * 0.06));
        assert!((l - cap).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_wall() {
        let m = MemoryParams::ddr4_2400_single();
        // 100 GB through a 19.2 GB/s channel at 94% efficiency
        let t = m.min_transfer_time(100.0e9);
        assert!((t - 100.0e9 / (19.2e9 * 0.94)).abs() < 1e-9);
    }

    #[test]
    fn platform_presets_ordering() {
        assert!(
            MemoryParams::ddr3_1333_hex().peak_bandwidth
                > MemoryParams::ddr4_2400_single().peak_bandwidth
        );
        assert!(
            MemoryParams::thunderx().base_latency_ns
                > MemoryParams::ddr4_2400_single().base_latency_ns
        );
    }
}
