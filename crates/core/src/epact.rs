use crate::{eq1, AllocationPolicy, OneDimAllocator, SlotContext, SlotPlan, TwoDimAllocator};

/// EPACT: the Energy Proportionality-Aware dynamiC allocaTion method
/// (§V-B of the paper).
///
/// Per slot, EPACT:
///
/// 1. computes the Eq. 1 estimates `N̂cpu` / `N̂mem` from the predicted
///    utilization patterns;
/// 2. in the CPU-dominated case, exhaustively explores server counts
///    between the two estimates for the slot frequency `F_T_opt` with
///    the lowest worst-case data-center power, then packs VMs with the
///    correlation-aware 1-D FFD of Algorithm 1, which also keeps every
///    server inside the memory cap;
/// 3. in the memory-dominated case, fixes the server count at `N̂mem`,
///    derives `Fopt` from spreading the CPU peak, and packs with the
///    Eq. 2 merit function of Algorithm 2 (CPU *and* memory caps);
/// 4. leaves the online governor free to raise frequency up to Fmax per
///    sample — the slack that absorbs mispredictions (Fig. 4).
///
/// # Examples
///
/// ```
/// use ntc_core::{AllocationPolicy, Epact};
/// # use ntc_core::SlotContext;
/// # use ntc_power::ServerPowerModel;
/// # use ntc_trace::TimeSeries;
/// let policy = Epact::new();
/// assert_eq!(policy.name(), "EPACT");
/// # let server = ServerPowerModel::ntc();
/// # let cpu = vec![TimeSeries::constant(12, 5.0); 8];
/// # let mem = vec![TimeSeries::constant(12, 1.0); 8];
/// # let ctx = SlotContext::new(&cpu, &mem, &server, 100);
/// # let _ = policy.allocate(&ctx);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Epact {
    correlation_only: bool,
}

impl Epact {
    /// Creates the policy.
    pub fn new() -> Self {
        Self {
            correlation_only: false,
        }
    }

    /// Creates the ablated policy whose memory-dominated Algorithm 2
    /// path scores servers by correlation alone, dropping the Eq. 2
    /// distance term (see
    /// [`TwoDimAllocator::correlation_only`](crate::TwoDimAllocator::correlation_only)).
    pub fn correlation_only() -> Self {
        Self {
            correlation_only: true,
        }
    }
}

impl AllocationPolicy for Epact {
    fn name(&self) -> &str {
        if self.correlation_only {
            "EPACT-corrOnly"
        } else {
            "EPACT"
        }
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let server = ctx.server();
        let fmax = server.fmax();
        let decision = eq1::decide(ctx, server.ntc_optimal_frequency());
        let cap_cpu = decision.fopt.ratio(fmax) * 100.0;

        let assignments = if decision.cpu_dominated {
            let alloc = OneDimAllocator::new(decision.fopt, fmax);
            // ctx.corr_cpu() is windowed over the attached day caches
            // when there are some (see SlotContext::with_day_window);
            // Algorithm 1 scans a candidate table built from it.
            alloc.allocate_with_cache(ctx.predicted_cpu(), ctx.predicted_mem(), &ctx.corr_cpu())
        } else {
            let mut alloc = TwoDimAllocator::new(cap_cpu, decision.num_servers);
            if self.correlation_only {
                alloc = alloc.correlation_only();
            }
            alloc.allocate_with_caches(
                ctx.predicted_cpu(),
                ctx.predicted_mem(),
                &ctx.corr_cpu(),
                &ctx.corr_mem(),
            )
        };

        let num_servers = ctx.servers_used(self.name(), &assignments);
        SlotPlan::new(
            assignments,
            num_servers,
            cap_cpu,
            decision.fopt,
            server.fmin(), // EPACT keeps full DVFS slack online,
            fmax,          // downward and upward
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_power::ServerPowerModel;
    use ntc_trace::TimeSeries;

    #[test]
    fn cpu_dominated_slot_runs_near_f_ntc_opt() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 5.0); 60];
        let mem = vec![TimeSeries::constant(12, 0.4); 60];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = Epact::new().allocate(&ctx);
        assert!(
            (1.4..=2.2).contains(&plan.planned_freq().as_ghz()),
            "EPACT must target ~1.9 GHz, got {}",
            plan.planned_freq()
        );
        assert_eq!(plan.dvfs_ceiling(), server.fmax());
        // 300% demand at cap ~61.3% -> ~5-6 servers
        assert!(
            (5..=7).contains(&plan.num_servers()),
            "got {} servers",
            plan.num_servers()
        );
    }

    #[test]
    fn memory_dominated_slot_uses_alg2() {
        let server = ServerPowerModel::ntc();
        // Heavy memory, light CPU: N̂mem ~ 8 > N̂cpu ~ 1.
        let cpu = vec![TimeSeries::constant(12, 0.3); 40];
        let mem = vec![TimeSeries::constant(12, 20.0); 40];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = Epact::new().allocate(&ctx);
        assert_eq!(plan.num_servers(), 8, "800% memory -> 8 servers");
        // frequency follows the (tiny) CPU demand
        assert_eq!(plan.planned_freq(), server.fmin());
        // packing respects the memory cap everywhere
        let per_server = plan.aggregate_per_server(&mem);
        for s in &per_server {
            assert!(!s.exceeds(100.0, 1e-6));
        }
    }

    #[test]
    fn every_vm_is_placed_exactly_once() {
        let server = ServerPowerModel::ntc();
        let cpu: Vec<TimeSeries> = (0..25)
            .map(|i| TimeSeries::constant(12, 1.0 + (i % 5) as f64))
            .collect();
        let mem = vec![TimeSeries::constant(12, 1.5); 25];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = Epact::new().allocate(&ctx);
        assert_eq!(plan.assignments().len(), 25);
        let placed: usize = plan.vms_per_server().iter().map(|v| v.len()).sum();
        assert_eq!(placed, 25);
    }

    #[test]
    fn plan_cpu_respects_cap() {
        let server = ServerPowerModel::ntc();
        let cpu: Vec<TimeSeries> = (0..48)
            .map(|i| {
                TimeSeries::from_values((0..12).map(|t| 3.0 + ((i + t) % 7) as f64 * 0.5).collect())
            })
            .collect();
        let mem = vec![TimeSeries::constant(12, 1.0); 48];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = Epact::new().allocate(&ctx);
        for agg in plan.aggregate_per_server(&cpu) {
            assert!(
                !agg.exceeds(plan.cap_cpu(), 1e-6),
                "a server exceeds the planned cap"
            );
        }
    }
}
