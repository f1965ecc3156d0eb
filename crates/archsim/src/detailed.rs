//! Detailed execution mode: pipeline × cache hierarchy × DDR timing.
//!
//! The interval model ([`crate::ServerSim`]) answers the paper's
//! questions analytically; this module is the slow, mechanism-level
//! cross-check (the role gem5 played for the authors). A synthetic
//! address stream with the kernel's working set drives the real
//! set-associative hierarchy; each load's service level determines its
//! latency (L1/L2/LLC in core cycles, DRAM through the bank-level
//! [`crate::ddr::DdrController`]); the [`crate::pipeline::Pipeline`]
//! executes the resulting micro-op stream cycle by cycle.
//!
//! The `detailed_vs_interval_*` tests close the loop: both modes must
//! agree on the qualitative behaviour (frequency sensitivity, platform
//! ordering) that every figure of the paper rests on.

use ntc_units::{Frequency, Seconds};

use crate::cache::Hierarchy;
use crate::ddr::{DdrController, DdrTiming};
use crate::pipeline::{Pipeline, PipelineConfig, Uop};
use crate::stream::AddressStream;
use crate::{CoreKind, Kernel, Platform};

/// Result of a detailed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedOutcome {
    /// Micro-ops executed (the sampled window).
    pub uops: u64,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1D miss ratio observed.
    pub l1d_miss_ratio: f64,
    /// LLC-slice miss ratio observed.
    pub llc_miss_ratio: f64,
    /// DRAM accesses issued.
    pub dram_accesses: u64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Projected full-kernel execution time at the given frequency.
    pub projected_exec_time: Seconds,
}

/// Configuration of a detailed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailedConfig {
    /// Micro-ops to simulate (a sample of the kernel; the projection
    /// scales to the full instruction count).
    pub sample_uops: usize,
    /// RNG seed for the address stream.
    pub seed: u64,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        Self {
            sample_uops: 200_000,
            seed: 42,
        }
    }
}

/// The detailed simulator for one core of a platform.
#[derive(Debug, Clone)]
pub struct DetailedSim {
    platform: Platform,
    config: DetailedConfig,
}

impl DetailedSim {
    /// Creates a detailed simulator.
    pub fn new(platform: Platform, config: DetailedConfig) -> Self {
        assert!(config.sample_uops > 0, "need a non-empty sample");
        Self { platform, config }
    }

    /// The pipeline geometry for this platform's core kind.
    fn pipeline_config(&self) -> PipelineConfig {
        match self.platform.core.kind {
            CoreKind::OutOfOrder => PipelineConfig::cortex_a57(),
            CoreKind::InOrder => PipelineConfig::cortex_a53(),
        }
    }

    /// The DDR timing for this platform (DDR4 for the ARM servers,
    /// DDR3 for the Xeons — distinguished by peak bandwidth).
    fn ddr_timing(&self) -> DdrTiming {
        if self.platform.memory.peak_bandwidth > 30.0e9 {
            DdrTiming::ddr3_1333()
        } else {
            DdrTiming::ddr4_2400()
        }
    }

    /// Runs `kernel` on one core at frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is zero.
    pub fn run(&self, kernel: &Kernel, f: Frequency) -> DetailedOutcome {
        assert!(f > Frequency::ZERO, "core frequency must be positive");
        let cycle_ns = 1.0e9 / f.as_hz();

        // Per-uop memory-op probability from the kernel's LLC access
        // rate: an LLC access implies the load missed L1 and L2, so the
        // raw load fraction is higher; derive it from a nominal 30%
        // load mix scaled by memory intensity.
        let load_fraction = (0.1 + kernel.llc_apki() / 400.0).min(0.5);

        // Locality exponent chosen so the fraction of fresh (uniform)
        // addresses matches the kernel's DRAM rate: a fresh address in
        // a multi-hundred-MB working set almost surely misses the
        // hierarchy, so uniform_fraction ~ DPKI / (1000 x load_fraction).
        let uniform_fraction =
            (kernel.dram_dpki() / (1000.0 * load_fraction)).clamp(1.0 / 400.0, 0.9);
        let locality = (1.0 / uniform_fraction - 1.0).clamp(0.2, 400.0);
        let mut stream = AddressStream::new(kernel.working_set(), locality, self.config.seed);
        let mut hierarchy = Hierarchy::new(
            crate::cache::CacheConfig::ntc_l1d(),
            crate::cache::CacheConfig::ntc_l2(),
            crate::cache::CacheConfig::new(self.platform.llc_share_per_core(), 16, 64),
        );
        let mut ddr = DdrController::new(self.ddr_timing(), 16);

        // Warm the hierarchy with 10% of the sample so cold misses do
        // not dominate the measurement.
        for _ in 0..self.config.sample_uops / 10 {
            let a = stream.next_address();
            hierarchy.access(a, false);
        }
        hierarchy.reset_stats();

        // Build the uop stream: each load's latency comes from where it
        // hits. We track virtual time coarsely for DDR arrival times.
        let mut uops = Vec::with_capacity(self.config.sample_uops);
        let mut vtime_ns = 0.0f64;
        let mut rng_toggle = 0u64;
        for _ in 0..self.config.sample_uops {
            rng_toggle = rng_toggle.wrapping_mul(6364136223846793005).wrapping_add(1);
            let is_load = (rng_toggle >> 33) as f64 / (u32::MAX as f64) < load_fraction;
            if !is_load {
                uops.push(Uop::Alu);
                vtime_ns += cycle_ns / self.pipeline_config().width as f64;
                continue;
            }
            let addr = stream.next_address();
            let before = hierarchy.stats();
            hierarchy.access(addr, false);
            let after = hierarchy.stats();
            let latency_cycles = if after.l1d.misses == before.l1d.misses {
                4.0 // L1 hit
            } else if after.l2.misses == before.l2.misses {
                12.0 // L2 hit
            } else if after.llc.misses == before.llc.misses {
                self.platform.llc_latency_cycles
            } else {
                // DRAM access through the bank-level controller.
                let done = ddr.access(addr, vtime_ns);
                let dram_ns = done - vtime_ns;
                self.platform.llc_latency_cycles + dram_ns / cycle_ns
            };
            vtime_ns += latency_cycles * cycle_ns / 4.0; // optimistic overlap
            uops.push(Uop::Load {
                latency: latency_cycles.ceil() as u32,
            });
        }

        let out = Pipeline::new(self.pipeline_config()).run(&uops);
        let hstats = hierarchy.stats();
        let dstats = ddr.stats();

        let scale = kernel.instructions() as f64 / self.config.sample_uops as f64;
        let projected = out.cycles as f64 * scale / f.as_hz();

        DetailedOutcome {
            uops: out.retired,
            cycles: out.cycles,
            ipc: out.ipc(),
            l1d_miss_ratio: hstats.l1d.miss_ratio(),
            llc_miss_ratio: hstats.llc.miss_ratio(),
            dram_accesses: dstats.requests(),
            dram_row_hit_rate: dstats.hit_rate(),
            projected_exec_time: Seconds::new(projected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSim;

    fn detailed(platform: Platform) -> DetailedSim {
        DetailedSim::new(
            platform,
            DetailedConfig {
                sample_uops: 60_000,
                seed: 7,
            },
        )
    }

    #[test]
    fn ipc_orders_by_memory_intensity() {
        let sim = detailed(Platform::ntc_server());
        let f = Frequency::from_ghz(2.0);
        let low = sim.run(&Kernel::low_mem(), f);
        let high = sim.run(&Kernel::high_mem(), f);
        assert!(
            low.ipc > high.ipc,
            "low-mem must retire faster: {:.2} vs {:.2}",
            low.ipc,
            high.ipc
        );
        assert!(low.llc_miss_ratio <= high.llc_miss_ratio + 0.05);
    }

    #[test]
    fn detailed_vs_interval_frequency_sensitivity() {
        // Both modes must agree that low-mem is frequency-sensitive.
        let det = detailed(Platform::ntc_server());
        let int = ServerSim::new(Platform::ntc_server());
        let t_det_1 = det.run(&Kernel::low_mem(), Frequency::from_ghz(1.0));
        let t_det_2 = det.run(&Kernel::low_mem(), Frequency::from_ghz(2.0));
        let r_det = t_det_1.projected_exec_time.as_secs() / t_det_2.projected_exec_time.as_secs();
        let r_int = int
            .run(&Kernel::low_mem(), Frequency::from_ghz(1.0))
            .exec_time
            .as_secs()
            / int
                .run(&Kernel::low_mem(), Frequency::from_ghz(2.0))
                .exec_time
                .as_secs();
        assert!(
            (r_det - r_int).abs() < 0.5,
            "frequency scaling must agree: detailed {r_det:.2} vs interval {r_int:.2}"
        );
    }

    #[test]
    fn detailed_vs_interval_platform_ordering() {
        // The A53 ThunderX must lose to the A57 NTC server in both
        // modes on memory-heavy work.
        let f = Frequency::from_ghz(2.0);
        let det_ntc = detailed(Platform::ntc_server()).run(&Kernel::mid_mem(), f);
        let det_tx = detailed(Platform::thunderx()).run(&Kernel::mid_mem(), f);
        assert!(
            det_ntc.projected_exec_time < det_tx.projected_exec_time,
            "detailed mode must rank NTC above ThunderX"
        );
    }

    #[test]
    fn dram_row_locality_is_realistic() {
        let sim = detailed(Platform::ntc_server());
        let out = sim.run(&Kernel::high_mem(), Frequency::from_ghz(2.0));
        assert!(out.dram_accesses > 0, "high-mem must reach DRAM");
        assert!(
            (0.0..=1.0).contains(&out.dram_row_hit_rate),
            "hit rate in range"
        );
    }

    #[test]
    fn sample_is_fully_retired() {
        let sim = detailed(Platform::ntc_server());
        let out = sim.run(&Kernel::low_mem(), Frequency::from_ghz(1.5));
        assert_eq!(out.uops, 60_000);
        assert!(out.cycles > 0);
    }
}
