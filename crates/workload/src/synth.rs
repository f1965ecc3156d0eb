use std::f64::consts::TAU;

use ntc_trace::{SampleGrid, TimeSeries};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Fleet, MemClass, Vm, VmId};

/// Number of correlation groups: VM `i` joins group `i % NUM_GROUPS`.
const NUM_GROUPS: usize = 12;

/// Seeded synthesizer of Google-cluster-like utilization traces.
///
/// Each VM's CPU trace is composed of:
///
/// * a **daily sinusoidal profile** shared by its *correlation group*
///   (VMs of the same service peak together — the structure COAT and
///   EPACT exploit),
/// * a per-VM **AR(1) noise** process,
/// * rare **abrupt level shifts** (deployment/failover events) that defeat
///   the predictor and produce the violations of Fig. 4,
/// * clamping to the physical range (one core of the 16-core server).
///
/// Memory traces follow the VM's [`MemClass`] mean with gentle daily
/// modulation — memory footprints move far less than CPU load.
///
/// # Examples
///
/// ```
/// use ntc_workload::ClusterTraceGenerator;
///
/// let fleet = ClusterTraceGenerator::google_like(100, 7).generate();
/// assert_eq!(fleet.len(), 100);
/// assert_eq!(fleet.grid().len(), 2 * 2016); // training week + evaluation week
/// ```
#[derive(Debug, Clone)]
pub struct ClusterTraceGenerator {
    num_vms: usize,
    weeks: usize,
    seed: u64,
    cores_per_server: usize,
    vm_mem_gb: f64,
    server_mem_gb: f64,
    shift_probability_per_day: f64,
}

impl ClusterTraceGenerator {
    /// The paper's setting: `num_vms` VMs (600 in the evaluation), two
    /// weeks of 5-minute samples (the first week trains the ARIMA
    /// predictor, the second is evaluated), 16-core servers with 16 GB,
    /// 1 GB containers.
    pub fn google_like(num_vms: usize, seed: u64) -> Self {
        Self {
            num_vms,
            weeks: 2,
            seed,
            cores_per_server: 16,
            vm_mem_gb: 1.0,
            server_mem_gb: 16.0,
            shift_probability_per_day: 0.08,
        }
    }

    /// Overrides the number of weeks generated.
    ///
    /// # Panics
    ///
    /// Panics if `weeks == 0`.
    pub fn with_weeks(mut self, weeks: usize) -> Self {
        assert!(weeks > 0, "horizon must cover at least one week");
        self.weeks = weeks;
        self
    }

    /// Overrides the abrupt-shift probability per VM-day (0 disables
    /// shifts, making traces near-perfectly predictable).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_shift_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.shift_probability_per_day = p;
        self
    }

    /// Generates the fleet.
    pub fn generate(&self) -> Fleet {
        let grid = SampleGrid::new(self.weeks * 2016, ntc_units::Seconds::from_minutes(5.0), 12);
        let per_day = grid.samples_per_day();
        let n = grid.len();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-group daily profiles: phase, amplitude and a second
        // harmonic; all VMs in a group share them.
        let groups: Vec<(f64, f64, f64, f64)> = (0..NUM_GROUPS)
            .map(|_| {
                (
                    rng.gen_range(0.0..1.0),   // phase (fraction of a day)
                    rng.gen_range(0.25..0.45), // fundamental amplitude
                    rng.gen_range(0.05..0.15), // second-harmonic amplitude
                    rng.gen_range(0.35..0.65), // base level
                )
            })
            .collect();

        let max_cpu = 100.0 / self.cores_per_server as f64;
        let mem_scale = self.vm_mem_gb / self.server_mem_gb;

        let vms = (0..self.num_vms)
            .map(|i| {
                let group = i % NUM_GROUPS;
                let (phase, amp1, amp2, base) = groups[group];
                let class = match i % 3 {
                    0 => MemClass::Low,
                    1 => MemClass::Mid,
                    _ => MemClass::High,
                };

                // Per-VM variations around the group profile.
                let vm_phase = phase + rng.gen_range(-0.03..0.03);
                let vm_base = (base + rng.gen_range(-0.08..0.08)).clamp(0.15, 0.85);
                let ar_coeff = rng.gen_range(0.55..0.85);
                let noise_sigma = rng.gen_range(0.015..0.05);

                let mut cpu = Vec::with_capacity(n);
                let mut mem = Vec::with_capacity(n);
                let mut ar = 0.0f64;
                let mut shift = 0.0f64;
                for t in 0..n {
                    let day_pos = (t % per_day) as f64 / per_day as f64;
                    let diurnal = amp1 * (TAU * (day_pos - vm_phase)).sin()
                        + amp2 * (2.0 * TAU * (day_pos - vm_phase)).sin();
                    ar = ar_coeff * ar + rng.gen_range(-1.0..1.0) * noise_sigma;
                    // Abrupt level shifts arrive ~shift_probability per day
                    // and decay over several hours.
                    if rng.gen::<f64>() < self.shift_probability_per_day / per_day as f64 {
                        shift += rng.gen_range(-0.35..0.35);
                    }
                    shift *= 0.999;

                    let level = (vm_base + diurnal + ar + shift).clamp(0.02, 1.0);
                    cpu.push(level * max_cpu);

                    // Memory follows the class mean with a small diurnal
                    // swing and a fraction of the CPU shift.
                    let mem_util_of_vm = (class.mean_util_of_vm() / 100.0
                        * (1.0 + 0.12 * (TAU * (day_pos - vm_phase)).sin() + 0.3 * shift))
                        .clamp(0.02, 0.60);
                    mem.push(mem_util_of_vm * 100.0 * mem_scale);
                }

                Vm::new(
                    VmId::new(i),
                    class,
                    TimeSeries::from_values(cpu),
                    TimeSeries::from_values(mem),
                )
            })
            .collect();

        Fleet::new(grid, vms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_trace::stats;

    fn small_fleet() -> Fleet {
        ClusterTraceGenerator::google_like(48, 1234).generate()
    }

    #[test]
    fn deterministic_under_seed() {
        let a = ClusterTraceGenerator::google_like(10, 9).generate();
        let b = ClusterTraceGenerator::google_like(10, 9).generate();
        assert_eq!(a.vms()[3].cpu, b.vms()[3].cpu);
        let c = ClusterTraceGenerator::google_like(10, 10).generate();
        assert_ne!(a.vms()[3].cpu, c.vms()[3].cpu);
    }

    #[test]
    fn traces_respect_physical_bounds() {
        let fleet = small_fleet();
        for vm in fleet.vms() {
            assert!(vm.cpu.peak() <= 6.25 + 1e-9, "one core of 16 max");
            assert!(vm.cpu.floor() >= 0.0);
            // 1 GB VM on a 16 GB server: at most 60% of 1/16th.
            assert!(vm.mem.peak() <= 60.0 / 16.0 + 1e-9);
            assert!(vm.mem.floor() > 0.0);
        }
    }

    #[test]
    fn same_group_vms_correlate_more() {
        let fleet = ClusterTraceGenerator::google_like(48, 99)
            .with_shift_probability(0.0)
            .generate();
        // VMs 0 and 12 share group 0; VMs 0 and 6 are in different groups.
        let same =
            stats::pearson_correlation(fleet.vms()[0].cpu.values(), fleet.vms()[12].cpu.values());
        let cross =
            stats::pearson_correlation(fleet.vms()[0].cpu.values(), fleet.vms()[6].cpu.values());
        assert!(
            same > cross,
            "group-mates must be more correlated: same {same:.3} vs cross {cross:.3}"
        );
        assert!(same > 0.5, "group-mates share the daily profile");
    }

    #[test]
    fn daily_periodicity_is_strong() {
        let fleet = ClusterTraceGenerator::google_like(6, 5)
            .with_shift_probability(0.0)
            .generate();
        let vm = &fleet.vms()[0];
        let day = fleet.grid().samples_per_day();
        // Correlate day 1 against day 2 of the same VM.
        let d1 = vm.cpu.window(0..day);
        let d2 = vm.cpu.window(day..2 * day);
        let r = d1.correlation(&d2);
        assert!(r > 0.6, "consecutive days must look alike, r = {r:.3}");
    }

    #[test]
    fn classes_are_balanced_and_ordered() {
        let fleet = small_fleet();
        let mean_mem = |class: MemClass| -> f64 {
            let vms: Vec<_> = fleet.vms().iter().filter(|v| v.class == class).collect();
            vms.iter().map(|v| v.mem.mean()).sum::<f64>() / vms.len() as f64
        };
        let low = mean_mem(MemClass::Low);
        let mid = mean_mem(MemClass::Mid);
        let high = mean_mem(MemClass::High);
        assert!(low < mid && mid < high);
        // Low ~ 7% of 1/16 server = 0.44; high ~ 43%/16 = 2.7.
        assert!((0.2..0.8).contains(&low), "low-mem mean {low:.2}");
        assert!((1.8..3.6).contains(&high), "high-mem mean {high:.2}");
    }

    #[test]
    fn shifts_add_unpredictability() {
        let calm = ClusterTraceGenerator::google_like(12, 3)
            .with_shift_probability(0.0)
            .generate();
        let wild = ClusterTraceGenerator::google_like(12, 3)
            .with_shift_probability(0.9)
            .generate();
        // Compare week-over-week self-similarity: shifts reduce it.
        let self_sim = |fleet: &Fleet| -> f64 {
            let vm = &fleet.vms()[0];
            let w = 2016;
            vm.cpu.window(0..w).correlation(&vm.cpu.window(w..2 * w))
        };
        assert!(self_sim(&calm) > self_sim(&wild));
    }
}
