//! Descriptive statistics of a generated fleet — used to verify that
//! the synthetic traces carry the structure the paper's Google Cluster
//! sample had (utilization ranges, class balance, correlation mass).

use ntc_trace::stats;

use crate::Fleet;

/// Summary statistics of one fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Number of VMs.
    pub num_vms: usize,
    /// Number of samples per VM.
    pub horizon: usize,
    /// Mean of all CPU samples (percent of server capacity).
    pub mean_cpu: f64,
    /// Peak of the aggregate CPU demand.
    pub peak_aggregate_cpu: f64,
    /// Mean of all memory samples.
    pub mean_mem: f64,
    /// Peak of the aggregate memory demand.
    pub peak_aggregate_mem: f64,
    /// VMs per memory class, in `[low, mid, high]` order.
    pub class_counts: [usize; 3],
    /// Mean pairwise CPU correlation over a sample of VM pairs.
    pub mean_pairwise_correlation: f64,
}

impl FleetStats {
    /// Computes the statistics for `fleet`.
    ///
    /// Pairwise correlation is estimated over a deterministic sample of
    /// at most 512 pairs (the full matrix is quadratic in fleet size).
    pub fn compute(fleet: &Fleet) -> Self {
        let vms = fleet.vms();
        let n = vms.len();
        let horizon = fleet.grid().len();

        let mut cpu_sum = 0.0;
        let mut mem_sum = 0.0;
        let mut class_counts = [0usize; 3];
        for vm in vms {
            cpu_sum += vm.cpu.mean();
            mem_sum += vm.mem.mean();
            class_counts[vm.class as usize] += 1;
        }

        // Deterministic pair sample: stride through the pair space.
        let mut corr_sum = 0.0;
        let mut pairs = 0usize;
        let max_pairs = 512usize;
        let stride = (n * (n.saturating_sub(1)) / 2 / max_pairs).max(1);
        let mut k = 0usize;
        'outer: for i in 0..n {
            for j in (i + 1)..n {
                if k.is_multiple_of(stride) {
                    corr_sum +=
                        stats::pearson_correlation(vms[i].cpu.values(), vms[j].cpu.values());
                    pairs += 1;
                    if pairs >= max_pairs {
                        break 'outer;
                    }
                }
                k += 1;
            }
        }

        Self {
            num_vms: n,
            horizon,
            mean_cpu: cpu_sum / n as f64,
            peak_aggregate_cpu: fleet.aggregate_cpu().peak(),
            mean_mem: mem_sum / n as f64,
            peak_aggregate_mem: fleet.aggregate_mem().peak(),
            class_counts,
            mean_pairwise_correlation: if pairs == 0 {
                0.0
            } else {
                corr_sum / pairs as f64
            },
        }
    }

    /// The data-center CPU utilization rate this fleet would impose on
    /// `num_servers` servers at Fmax, as a percentage.
    pub fn dc_utilization_pct(&self, num_servers: usize) -> f64 {
        assert!(num_servers > 0, "need at least one server");
        self.peak_aggregate_cpu / num_servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterTraceGenerator;

    #[test]
    fn stats_are_plausible() {
        let fleet = ClusterTraceGenerator::google_like(60, 42).generate();
        let s = FleetStats::compute(&fleet);
        assert_eq!(s.num_vms, 60);
        assert_eq!(s.horizon, 2 * 2016);
        assert!(s.mean_cpu > 0.5 && s.mean_cpu < 6.25);
        assert!(s.peak_aggregate_cpu > s.mean_cpu * 60.0 * 0.5);
        assert_eq!(s.class_counts.iter().sum::<usize>(), 60);
        // generator assigns classes round-robin
        assert_eq!(s.class_counts, [20, 20, 20]);
    }

    #[test]
    fn correlated_groups_show_in_the_mean() {
        let corr = FleetStats::compute(
            &ClusterTraceGenerator::google_like(48, 18)
                .with_shift_probability(0.0)
                .generate(),
        )
        .mean_pairwise_correlation;
        // 12 groups of 4 VMs sharing daily profiles: the sampled mean
        // pairwise correlation is clearly positive.
        assert!(
            corr > 0.1,
            "expected positive correlation mass, got {corr:.3}"
        );
    }

    #[test]
    fn dc_utilization() {
        let fleet = ClusterTraceGenerator::google_like(60, 42).generate();
        let s = FleetStats::compute(&fleet);
        let u600 = s.dc_utilization_pct(600);
        let u60 = s.dc_utilization_pct(60);
        assert!((u60 - 10.0 * u600).abs() < 1e-9);
    }
}
