use ntc_trace::{CorrelationCache, LazyPatternStats, TimeSeries, SLOTS_PER_DAY};

use crate::{AllocationPolicy, SlotContext, SlotPlan, MEM_CAP};

/// Correlation-aware consolidation packing shared by [`Coat`] and
/// [`CoatOpt`]: first-fit-decreasing into as few servers as possible,
/// preferring the feasible server whose complementary pattern best
/// matches the VM (the CPU-load-correlation awareness of Kim et al.,
/// DATE'13) and checking both `cap_cpu` and the memory cap [`MEM_CAP`]
/// per sample.
///
/// `cache` holds the Pearson terms over `cpu`, built by the slot
/// context.
fn consolidate(
    cpu: &[TimeSeries],
    mem: &[TimeSeries],
    cap_cpu: f64,
    cache: &CorrelationCache,
) -> Vec<usize> {
    let slot_len = cpu[0].len();
    let mut order: Vec<usize> = (0..cpu.len()).collect();
    order.sort_by(|&a, &b| {
        cpu[b]
            .peak()
            .partial_cmp(&cpu[a].peak())
            .expect("finite utilizations")
    });

    let mut srv_cpu: Vec<TimeSeries> = Vec::new();
    let mut srv_mem: Vec<TimeSeries> = Vec::new();
    let mut stats: Vec<LazyPatternStats> = Vec::new();
    let mut assignment = vec![usize::MAX; cpu.len()];
    for vm in order {
        // Among servers that fit, pick the one with the most
        // complementary (least correlated) load. Only a server that
        // fits sums cov(S, vm); the winner's sum feeds its admission.
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..srv_cpu.len() {
            // Short-circuit: a CPU-infeasible server skips the memory scan.
            if srv_cpu[j].sum_exceeds(&cpu[vm], cap_cpu, 1e-9)
                || srv_mem[j].sum_exceeds(&mem[vm], MEM_CAP, 1e-9)
            {
                continue;
            }
            let cov = stats[j].covariance_with(cache, vm);
            let phi = stats[j].complement_correlation(cache, vm, cov);
            if best.is_none_or(|(_, b, _)| phi > b) {
                best = Some((j, phi, cov));
            }
        }
        let (j, cov) = match best {
            Some((j, _, cov)) => (j, cov),
            None => {
                srv_cpu.push(TimeSeries::zeros(slot_len));
                srv_mem.push(TimeSeries::zeros(slot_len));
                stats.push(LazyPatternStats::new());
                (srv_cpu.len() - 1, 0.0)
            }
        };
        srv_cpu[j].add_in_place(&cpu[vm]);
        srv_mem[j].add_in_place(&mem[vm]);
        stats[j].admit(cache, vm, cov);
        assignment[vm] = j;
    }
    assignment
}

/// COAT: COnsolidation-Aware allocaTion (the paper's rendering of Kim et
/// al., DATE'13) — the state-of-the-art baseline EPACT is compared
/// against.
///
/// COAT consolidates VMs onto the minimum number of servers, filling
/// each to its *maximum* capacity (100% at Fmax), using CPU-load
/// correlation to avoid co-locating VMs that peak together, and turns
/// everything else off. On conventional servers this is near-optimal; on
/// energy-proportional NTC servers it forces the inefficient Fmax
/// operating point and leaves no slack for mispredictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coat {
    _private: (),
}

impl Coat {
    /// Creates the policy.
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl AllocationPolicy for Coat {
    fn name(&self) -> &str {
        "COAT"
    }

    fn reallocation_period_slots(&self) -> usize {
        SLOTS_PER_DAY // daily patterns, after Kim et al.
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let fmax = ctx.server().fmax();
        let assignments = consolidate(
            ctx.predicted_cpu(),
            ctx.predicted_mem(),
            100.0,
            &ctx.corr_cpu(),
        );
        let num_servers = ctx.servers_used(self.name(), &assignments);
        SlotPlan::new(
            assignments,
            num_servers,
            100.0,
            fmax,
            fmax, // consolidation runs servers at the highest frequency
            fmax,
        )
    }
}

/// COAT-OPT: COAT with the *optimal fixed cap* — consolidation against
/// the capacity at the frequency that minimizes worst-case data-center
/// power (`F_NTC_opt`, ≈1.9 GHz, from
/// [`ServerPowerModel::ntc_optimal_frequency`](ntc_power::ServerPowerModel::ntc_optimal_frequency)),
/// kept fixed for the whole horizon.
///
/// The fixed cap removes COAT's biggest inefficiency (running at Fmax)
/// but, unlike EPACT, cannot adapt the cap to the slot's workload mix
/// nor raise frequency beyond it to absorb mispredictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoatOpt {
    _private: (),
}

impl CoatOpt {
    /// Creates the policy.
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl AllocationPolicy for CoatOpt {
    fn name(&self) -> &str {
        "COAT-OPT"
    }

    fn reallocation_period_slots(&self) -> usize {
        SLOTS_PER_DAY // the cap is fixed and the packing follows daily patterns
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let fmax = ctx.server().fmax();
        let fopt = ctx.server().ntc_optimal_frequency();
        let cap_cpu = fopt.ratio(fmax) * 100.0;
        let assignments = consolidate(
            ctx.predicted_cpu(),
            ctx.predicted_mem(),
            cap_cpu,
            &ctx.corr_cpu(),
        );
        let num_servers = ctx.servers_used(self.name(), &assignments);
        SlotPlan::new(
            assignments,
            num_servers,
            cap_cpu,
            fopt,
            fopt, // the cap frequency is fixed for the whole horizon:
            fopt, // no online slack below or above it
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_power::ServerPowerModel;

    fn ctx_fixture<'a>(
        cpu: &'a [TimeSeries],
        mem: &'a [TimeSeries],
        server: &'a ServerPowerModel,
    ) -> SlotContext<'a> {
        SlotContext::new(cpu, mem, server, 600)
    }

    #[test]
    fn coat_consolidates_to_fewer_servers_than_epact() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 5.0); 60];
        let mem = vec![TimeSeries::constant(12, 0.5); 60];
        let ctx = ctx_fixture(&cpu, &mem, &server);
        let coat = Coat::new().allocate(&ctx);
        let epact = crate::Epact::new().allocate(&ctx);
        assert!(
            coat.num_servers() < epact.num_servers(),
            "COAT ({}) must use fewer servers than EPACT ({})",
            coat.num_servers(),
            epact.num_servers()
        );
        assert_eq!(coat.planned_freq(), server.fmax());
    }

    #[test]
    fn coat_opt_uses_optimal_fixed_cap() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 5.0); 30];
        let mem = vec![TimeSeries::constant(12, 0.5); 30];
        let ctx = ctx_fixture(&cpu, &mem, &server);
        let plan = CoatOpt::new().allocate(&ctx);
        assert!(
            (1.4..=2.2).contains(&plan.planned_freq().as_ghz()),
            "COAT-OPT cap must sit at F_NTC_opt, got {}",
            plan.planned_freq()
        );
        assert_eq!(
            plan.dvfs_ceiling(),
            plan.planned_freq(),
            "the cap is fixed: no slack above it"
        );
        // and it needs more servers than plain COAT
        let coat = Coat::new().allocate(&ctx);
        assert!(plan.num_servers() >= coat.num_servers());
    }

    #[test]
    fn consolidation_respects_caps() {
        let server = ServerPowerModel::ntc();
        let cpu: Vec<TimeSeries> = (0..40)
            .map(|i| TimeSeries::constant(12, 4.0 + (i % 4) as f64))
            .collect();
        let mem = vec![TimeSeries::constant(12, 2.0); 40];
        let ctx = ctx_fixture(&cpu, &mem, &server);
        for plan in [Coat::new().allocate(&ctx), CoatOpt::new().allocate(&ctx)] {
            for agg in plan.aggregate_per_server(&cpu) {
                assert!(!agg.exceeds(plan.cap_cpu(), 1e-6));
            }
        }
    }

    #[test]
    fn correlation_awareness_separates_peaking_vms() {
        let server = ServerPowerModel::ntc();
        let spiky = TimeSeries::from_values(vec![55.0, 5.0, 55.0, 5.0]);
        let calm = TimeSeries::from_values(vec![5.0, 55.0, 5.0, 55.0]);
        let cpu = vec![spiky.clone(), spiky, calm.clone(), calm];
        let mem = vec![TimeSeries::constant(4, 1.0); 4];
        let ctx = ctx_fixture(&cpu, &mem, &server);
        let plan = Coat::new().allocate(&ctx);
        // the two spiky VMs must not share a server (sum would be 110)
        assert_ne!(plan.assignments()[0], plan.assignments()[1]);
    }
}
