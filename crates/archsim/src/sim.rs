use ntc_units::{Frequency, Seconds};

use crate::{Kernel, Platform};

/// Aggregate outputs of one simulation run — the quantities the paper
/// extracts from gem5 and feeds into the power model (§IV-5).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Wall-clock execution time of the (symmetric) per-core kernel.
    pub exec_time: Seconds,
    /// Instructions retired per core.
    pub instructions_per_core: u64,
    /// Total user instructions per second across the chip.
    pub uips: f64,
    /// Fraction of wall-clock time each core spends waiting for memory
    /// (the WFM state of the power model).
    pub wfm_fraction: f64,
    /// Fraction of time spent in on-chip (LLC) stalls.
    pub llc_stall_fraction: f64,
    /// Chip-wide LLC accesses per second.
    pub llc_accesses_per_sec: f64,
    /// Chip-wide DRAM read bandwidth in bytes per second.
    pub dram_read_bytes_per_sec: f64,
    /// Chip-wide DRAM write bandwidth in bytes per second.
    pub dram_write_bytes_per_sec: f64,
    /// Memory-queue utilization ρ at the converged operating point.
    pub dram_utilization: f64,
    /// Whether the run was limited by the bandwidth wall rather than by
    /// latency.
    pub bandwidth_bound: bool,
}

impl SimOutcome {
    /// UIPS in billions — the numerator of the paper's Fig. 3 efficiency
    /// metric (BUIPS/Watt).
    pub fn buips(&self) -> f64 {
        self.uips / 1.0e9
    }
}

/// The interval-model server simulator.
///
/// Every core runs one instance of the same [`Kernel`] (the paper pins
/// one LXC container per core and runs the VMs in lock-step for the
/// worst case). Per-core execution time is solved self-consistently with
/// the shared-memory contention model:
///
/// ```text
/// T = (compute_cycles + llc_stall_cycles) / f
///   + dram_accesses × L_eff(ρ) / MLP                (latency term)
/// T ≥ total_bytes / usable_bandwidth                (bandwidth wall)
/// ρ = chip_traffic(T) / peak_bandwidth              (fixed point)
/// ```
///
/// # Examples
///
/// ```
/// use ntc_archsim::{Kernel, Platform, ServerSim};
/// use ntc_units::Frequency;
///
/// let sim = ServerSim::new(Platform::ntc_server());
/// let slow = sim.run(&Kernel::mid_mem(), Frequency::from_ghz(1.0));
/// let fast = sim.run(&Kernel::mid_mem(), Frequency::from_ghz(2.5));
/// assert!(slow.exec_time > fast.exec_time);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSim {
    platform: Platform,
}

impl ServerSim {
    /// Creates a simulator for `platform`.
    pub fn new(platform: Platform) -> Self {
        Self { platform }
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs `kernel` on every core at core frequency `f` and returns the
    /// converged outcome.
    ///
    /// # Panics
    ///
    /// Panics if `f` is zero.
    pub fn run(&self, kernel: &Kernel, f: Frequency) -> SimOutcome {
        assert!(f > Frequency::ZERO, "core frequency must be positive");
        let p = &self.platform;
        let core = &p.core;
        let n = p.num_cores as f64;

        let compute_cycles = core.compute_cycles(kernel.instructions());
        let llc_accesses = kernel.llc_accesses();
        let llc_stall_cycles = core.llc_stall_cycles(llc_accesses, p.llc_latency_cycles);
        let dram_accesses = kernel.dram_accesses(p.llc_share_per_core());
        let bytes_per_core = dram_accesses * 64.0;

        let on_chip_secs = (compute_cycles + llc_stall_cycles) / f.as_hz();

        // Self-consistent execution time under shared-memory contention.
        // With b = on-chip seconds, S = unloaded DRAM stall seconds and
        // W = total-traffic seconds at peak bandwidth, the M/D/1-inflated
        // interval equation
        //
        //   T = b + S · (1 + ρ/(2(1−ρ))),   ρ = W/T
        //
        // reduces to the quadratic  T² − (b+S+W)·T + (b+S)·W − S·W/2 = 0
        // whose larger root is the (unique) solution above both b+S and W.
        let b = on_chip_secs;
        let s = core.dram_stall_seconds(dram_accesses, p.memory.base_latency_ns);
        let w = n * bytes_per_core / p.memory.peak_bandwidth;
        let t = if w <= 0.0 || s <= 0.0 {
            b + s
        } else {
            let sum = b + s + w;
            let disc = (sum * sum - 4.0 * ((b + s) * w - s * w / 2.0)).max(0.0);
            (sum + disc.sqrt()) / 2.0
        };

        // Bandwidth wall: the chip cannot move its total traffic faster
        // than the usable bandwidth allows.
        let wall = p.memory.min_transfer_time(n * bytes_per_core);
        let bandwidth_bound = wall > t;
        let exec = t.max(wall).max(f64::MIN_POSITIVE);
        let rho = p.memory.utilization(n * bytes_per_core / exec);

        let dram_stall = exec - on_chip_secs;
        let write_frac = kernel.write_fraction();
        SimOutcome {
            exec_time: Seconds::new(exec),
            instructions_per_core: kernel.instructions(),
            uips: n * kernel.instructions() as f64 / exec,
            wfm_fraction: (dram_stall / exec).clamp(0.0, 1.0),
            llc_stall_fraction: ((llc_stall_cycles / f.as_hz()) / exec).clamp(0.0, 1.0),
            llc_accesses_per_sec: n * llc_accesses / exec,
            dram_read_bytes_per_sec: n * bytes_per_core * (1.0 - write_frac) / exec,
            dram_write_bytes_per_sec: n * bytes_per_core * write_frac / exec,
            dram_utilization: rho,
            bandwidth_bound,
        }
    }

    /// Runs the kernel across a frequency sweep, returning `(f, outcome)`
    /// pairs — the raw material of Figs. 2 and 3.
    pub fn sweep(&self, kernel: &Kernel, freqs: &[Frequency]) -> Vec<(Frequency, SimOutcome)> {
        freqs.iter().map(|&f| (f, self.run(kernel, f))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(g: f64) -> Frequency {
        Frequency::from_ghz(g)
    }

    #[test]
    fn cpu_bound_time_scales_inverse_with_frequency() {
        let sim = ServerSim::new(Platform::ntc_server());
        let k = Kernel::low_mem();
        let t1 = sim.run(&k, ghz(1.0)).exec_time.as_secs();
        let t2 = sim.run(&k, ghz(2.0)).exec_time.as_secs();
        let ratio = t1 / t2;
        assert!(
            (1.8..=2.05).contains(&ratio),
            "CPU-bound kernel should scale ~linearly with f, ratio {ratio}"
        );
    }

    #[test]
    fn memory_bound_time_is_frequency_insensitive() {
        let sim = ServerSim::new(Platform::ntc_server());
        let k = Kernel::high_mem();
        let t1 = sim.run(&k, ghz(1.5)).exec_time.as_secs();
        let t2 = sim.run(&k, ghz(2.5)).exec_time.as_secs();
        let ratio = t1 / t2;
        assert!(
            ratio < 1.5,
            "high-mem kernel must be much less frequency-sensitive, ratio {ratio}"
        );
    }

    #[test]
    fn high_mem_hits_the_bandwidth_wall_on_ntc() {
        let sim = ServerSim::new(Platform::ntc_server());
        let out = sim.run(&Kernel::high_mem(), ghz(2.5));
        assert!(
            out.bandwidth_bound || out.dram_utilization > 0.65,
            "16 high-mem VMs must drive the single DDR4 channel into heavy contention, rho {}",
            out.dram_utilization
        );
    }

    #[test]
    fn x86_has_bandwidth_headroom() {
        let sim = ServerSim::new(Platform::xeon_x5650());
        let out = sim.run(&Kernel::high_mem(), ghz(2.66));
        assert!(
            !out.bandwidth_bound,
            "the six-channel Xeon must not be bandwidth-bound"
        );
    }

    #[test]
    fn wfm_fraction_orders_with_memory_intensity() {
        let sim = ServerSim::new(Platform::ntc_server());
        let f = ghz(2.0);
        let low = sim.run(&Kernel::low_mem(), f).wfm_fraction;
        let mid = sim.run(&Kernel::mid_mem(), f).wfm_fraction;
        let high = sim.run(&Kernel::high_mem(), f).wfm_fraction;
        assert!(low < mid && mid < high);
        assert!(low < 0.1, "low-mem is CPU-bound, WFM {low}");
        assert!(high > 0.3, "high-mem mostly waits for memory, WFM {high}");
    }

    #[test]
    fn uips_consistency() {
        let sim = ServerSim::new(Platform::ntc_server());
        let out = sim.run(&Kernel::mid_mem(), ghz(2.0));
        let expect = 16.0 * out.instructions_per_core as f64 / out.exec_time.as_secs();
        assert!((out.uips - expect).abs() < 1.0);
    }

    #[test]
    fn fraction_accounting() {
        let sim = ServerSim::new(Platform::thunderx());
        let out = sim.run(&Kernel::mid_mem(), ghz(2.0));
        assert!(out.wfm_fraction >= 0.0 && out.wfm_fraction <= 1.0);
        assert!(out.llc_stall_fraction >= 0.0 && out.llc_stall_fraction <= 1.0);
        assert!(out.wfm_fraction + out.llc_stall_fraction <= 1.0 + 1e-9);
    }

    #[test]
    fn sweep_returns_all_points() {
        let sim = ServerSim::new(Platform::ntc_server());
        let freqs: Vec<Frequency> = [0.5, 1.0, 1.5].iter().map(|&g| ghz(g)).collect();
        let pts = sim.sweep(&Kernel::low_mem(), &freqs);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].1.exec_time > pts[2].1.exec_time);
    }
}
