use ntc_units::{Frequency, MemBytes};

use crate::{CoreParams, MemoryParams};

/// A complete server platform configuration for the simulator.
///
/// Four presets cover the paper's evaluation (§VI-A):
///
/// * [`Platform::xeon_x5650`] — the QoS baseline host (16 cores at
///   2.66 GHz, 12 MB LLC, DDR3-1333);
/// * [`Platform::thunderx`] — the original Cavium server with in-order
///   cores and a weak memory path;
/// * [`Platform::ntc_server`] — the proposed architecture: A57-class OoO
///   cores, 64 KB I$ / 32 KB D$, 16 MB LLC, 16 GB DDR4-2400;
/// * [`Platform::e5_2620`] — the conventional server of Fig. 1(b).
///
/// # Examples
///
/// ```
/// use ntc_archsim::Platform;
///
/// let p = Platform::ntc_server();
/// assert_eq!(p.num_cores, 16);
/// assert_eq!(p.llc_capacity.as_mib(), 16.0 * 1024.0 / 1024.0 * 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Display name.
    pub name: String,
    /// Core microarchitecture.
    pub core: CoreParams,
    /// Number of cores (and VMs — one LXC container per core).
    pub num_cores: usize,
    /// Nominal operating frequency.
    pub nominal_freq: Frequency,
    /// Shared last-level-cache capacity.
    pub llc_capacity: MemBytes,
    /// LLC access latency in core cycles.
    pub llc_latency_cycles: f64,
    /// Shared memory subsystem.
    pub memory: MemoryParams,
}

impl Platform {
    /// The Intel Xeon X5650 baseline (§III-C): QoS is defined as 2× the
    /// execution time on this machine at 2.66 GHz.
    pub fn xeon_x5650() -> Self {
        Self {
            name: "Intel x86 (Xeon X5650)".into(),
            core: CoreParams::xeon_westmere(),
            num_cores: 16,
            nominal_freq: Frequency::from_ghz(2.66),
            llc_capacity: MemBytes::from_mib(12),
            llc_latency_cycles: 40.0,
            memory: MemoryParams::ddr3_1333_hex(),
        }
    }

    /// The Cavium ThunderX as shipped: in-order cores and a slow on-chip
    /// memory path. Modeled at 16 cores like the paper's scaled-down
    /// configuration.
    pub fn thunderx() -> Self {
        Self {
            name: "Cavium ThunderX".into(),
            core: CoreParams::cortex_a53(),
            num_cores: 16,
            nominal_freq: Frequency::from_ghz(2.0),
            llc_capacity: MemBytes::from_mib(16),
            llc_latency_cycles: 45.0,
            memory: MemoryParams::thunderx(),
        }
    }

    /// The proposed NTC server (§III-A): ThunderX modified with
    /// Cortex-A57 OoO cores and an improved memory subsystem.
    pub fn ntc_server() -> Self {
        Self {
            name: "NTC server (A57, FD-SOI)".into(),
            core: CoreParams::cortex_a57(),
            num_cores: 16,
            nominal_freq: Frequency::from_ghz(2.0),
            llc_capacity: MemBytes::from_mib(16),
            llc_latency_cycles: 40.0,
            memory: MemoryParams::ddr4_2400_single(),
        }
    }

    /// The conventional Intel E5-2620 server of Fig. 1(b).
    pub fn e5_2620() -> Self {
        Self {
            name: "Intel E5-2620".into(),
            core: CoreParams::xeon_sandy_bridge(),
            num_cores: 6,
            nominal_freq: Frequency::from_ghz(2.0),
            llc_capacity: MemBytes::from_mib(15),
            llc_latency_cycles: 42.0,
            memory: MemoryParams::ddr3_1333_quad(),
        }
    }

    /// The LLC capacity available to one core's VM when all cores run.
    pub fn llc_share_per_core(&self) -> MemBytes {
        MemBytes::from_bytes(self.llc_capacity.as_bytes() / self.num_cores as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreKind;

    #[test]
    fn presets_match_paper_configs() {
        let ntc = Platform::ntc_server();
        assert_eq!(ntc.num_cores, 16);
        assert_eq!(ntc.llc_capacity, MemBytes::from_mib(16));
        assert_eq!(ntc.core.kind, CoreKind::OutOfOrder);

        let tx = Platform::thunderx();
        assert_eq!(tx.core.kind, CoreKind::InOrder);

        let x86 = Platform::xeon_x5650();
        assert_eq!(x86.nominal_freq, Frequency::from_ghz(2.66));
        assert_eq!(x86.llc_capacity, MemBytes::from_mib(12));
    }

    #[test]
    fn llc_share_divides_evenly() {
        let ntc = Platform::ntc_server();
        assert_eq!(ntc.llc_share_per_core(), MemBytes::from_mib(1));
    }

    #[test]
    fn ntc_improves_on_thunderx() {
        let ntc = Platform::ntc_server();
        let tx = Platform::thunderx();
        assert!(ntc.core.base_ipc > tx.core.base_ipc);
        assert!(ntc.core.mlp_mem > tx.core.mlp_mem);
        assert!(ntc.memory.base_latency_ns < tx.memory.base_latency_ns);
    }
}
