use ntc_units::Frequency;

use crate::{AllocationPolicy, SlotContext, SlotPlan};

/// The per-server target utilization, percent of Fmax-capacity: servers
/// idle near the bottom of the DVFS range.
const TARGET_UTIL: f64 = 25.0;

/// The load-balancing extreme: spread VMs thinly so every server runs
/// cool and slow.
///
/// §V-A argues that on NTC hardware *neither* consolidation *nor* load
/// balancing is optimal — consolidation overpays in the superlinear
/// high-frequency region, load balancing overpays in per-server static
/// power. This policy implements the latter extreme for comparison: it
/// opens enough servers to keep each below 25% of Fmax-capacity (servers
/// idle near the bottom of the DVFS range) and assigns each VM to the
/// least-loaded server.
///
/// # Examples
///
/// ```
/// use ntc_core::{AllocationPolicy, LoadBalance};
///
/// let policy = LoadBalance::new();
/// assert_eq!(policy.name(), "LOAD-BAL");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadBalance {
    _private: (),
}

impl LoadBalance {
    /// Creates the policy.
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl AllocationPolicy for LoadBalance {
    fn name(&self) -> &str {
        "LOAD-BAL"
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let server = ctx.server();
        let fmax = server.fmax();
        let peak = ctx.peak_aggregate_cpu();
        let n = ((peak / TARGET_UTIL).ceil() as usize).clamp(1, ctx.max_servers());

        // Least-loaded-first balancing on mean predicted CPU.
        let cpu = ctx.predicted_cpu();
        let mut load = vec![0.0f64; n];
        let mut order: Vec<usize> = (0..cpu.len()).collect();
        order.sort_by(|&a, &b| {
            cpu[b]
                .mean()
                .partial_cmp(&cpu[a].mean())
                .expect("finite utilizations")
        });
        let mut assignment = vec![0usize; cpu.len()];
        for vm in order {
            let (j, _) = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .expect("at least one server");
            load[j] += cpu[vm].mean();
            assignment[vm] = j;
        }

        // Plan frequency: the level serving the per-server peak share.
        let per_server_peak = peak / n as f64;
        let needed =
            Frequency::from_mhz((per_server_peak / 100.0 * fmax.as_mhz()).min(fmax.as_mhz()));
        let planned = server
            .cores()
            .vf_curve()
            .level_at_or_above(needed)
            .unwrap_or(fmax);

        SlotPlan::new(
            assignment,
            n,
            TARGET_UTIL.max(per_server_peak.min(100.0)).max(1.0),
            planned,
            server.fmin(),
            fmax,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_power::ServerPowerModel;
    use ntc_trace::TimeSeries;

    #[test]
    fn spreads_across_many_servers() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 5.0); 40]; // 200% total
        let mem = vec![TimeSeries::constant(12, 1.0); 40];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let lb = LoadBalance::new().allocate(&ctx);
        let epact = crate::Epact::new().allocate(&ctx);
        // 200% at 25% target -> 8 servers; EPACT needs ~4.
        assert_eq!(lb.num_servers(), 8);
        assert!(lb.num_servers() > epact.num_servers());
    }

    #[test]
    fn balances_evenly() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 4.0); 24];
        let mem = vec![TimeSeries::constant(12, 1.0); 24];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = LoadBalance::new().allocate(&ctx);
        let counts: Vec<usize> = plan.vms_per_server().iter().map(|v| v.len()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "least-loaded must even out: {counts:?}");
    }

    #[test]
    fn respects_server_limit() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 6.0); 30];
        let mem = vec![TimeSeries::constant(12, 1.0); 30];
        let ctx = SlotContext::new(&cpu, &mem, &server, 3);
        let plan = LoadBalance::new().allocate(&ctx);
        assert!(plan.num_servers() <= 3);
    }
}
