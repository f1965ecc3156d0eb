//! Ablations of EPACT's design choices:
//!
//! 1. Algorithm 1's correlation matching (the φ term) against plain
//!    first-fit, over a week with ARIMA predictions;
//! 2. the Eq. 2 distance term of Algorithm 2 on a memory-dominated
//!    slot;
//! 3. §V-A: EPACT against both extremes, consolidation (COAT) and load
//!    balancing, plus COAT-OPT, with oracle predictions.
//!
//! Run with: `cargo run --release --example ablations [num_vms]`
//! (defaults to 120 VMs).

use ntc_dc::datacenter::{experiments, FleetSpec, WeekSim};
use ntc_dc::forecast::ArimaPredictor;
use ntc_dc::policy::{AllocationPolicy, Epact, SlotContext, SlotPlan, TwoDimAllocator, MEM_CAP};
use ntc_dc::power::ServerPowerModel;
use ntc_dc::trace::TimeSeries;

/// EPACT with Algorithm 1's correlation matching replaced by plain
/// first-fit under the same CPU and memory caps (the ablation's
/// control arm).
#[derive(Debug)]
struct PlainFirstFit;

impl AllocationPolicy for PlainFirstFit {
    fn name(&self) -> &str {
        "EPACT-noCorr"
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let server = ctx.server();
        let fmax = server.fmax();
        let fopt = server.ntc_optimal_frequency();
        let cap = fopt.ratio(fmax) * 100.0;
        let (cpu, mem) = (ctx.predicted_cpu(), ctx.predicted_mem());
        let empty = TimeSeries::zeros(ctx.slot_len());
        // (CPU, memory) load of every open server
        let mut srv: Vec<(TimeSeries, TimeSeries)> = Vec::new();
        let mut assignment = vec![0usize; cpu.len()];
        for vm in 0..cpu.len() {
            let slot = srv
                .iter()
                .position(|(c, m)| {
                    !c.sum_exceeds(&cpu[vm], cap, 1e-9) && !m.sum_exceeds(&mem[vm], MEM_CAP, 1e-9)
                })
                .unwrap_or_else(|| {
                    srv.push((empty.clone(), empty.clone()));
                    srv.len() - 1
                });
            srv[slot].0.add_in_place(&cpu[vm]);
            srv[slot].1.add_in_place(&mem[vm]);
            assignment[vm] = slot;
        }
        let n = srv.len();
        SlotPlan::new(assignment, n, cap, fopt, server.fmin(), fmax)
    }
}

fn print_correlation_ablation(fleet: FleetSpec) {
    let fleet = fleet.generate();
    let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
    let predictor = ArimaPredictor::daily(fleet.grid().samples_per_day());
    let with_corr = sim.run(&Epact::new(), &predictor);
    let without = sim.run(&PlainFirstFit, &predictor);
    println!("\n=== Ablation: Alg. 1 correlation matching ===");
    println!(
        "{:<14} {:>12} {:>16} {:>14}",
        "variant", "violations", "energy (MJ)", "mean servers"
    );
    for o in [&with_corr, &without] {
        println!(
            "{:<14} {:>12} {:>16.1} {:>14.1}",
            o.policy,
            o.total_violations(),
            o.total_energy().as_megajoules(),
            o.mean_active_servers()
        );
    }
}

fn print_merit_ablation() {
    // Memory-dominated synthetic slot: Alg. 2 with the full Eq. 2 merit
    // vs the correlation-only variant. The distance term packs tighter,
    // so it should need no more servers.
    let slot = 12;
    let n = 48;
    let cpu: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values(
                (0..slot)
                    .map(|t| 2.0 + ((i + t) % 5) as f64 * 0.8)
                    .collect(),
            )
        })
        .collect();
    let mem: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values(
                (0..slot)
                    .map(|t| 10.0 + ((i * 3 + t) % 7) as f64 * 2.5)
                    .collect(),
            )
        })
        .collect();
    let servers_used = |a: &[usize]| a.iter().copied().max().unwrap() + 1;
    let full = TwoDimAllocator::new(61.3, 8).allocate(&cpu, &mem);
    let corr_only = TwoDimAllocator::new(61.3, 8)
        .correlation_only()
        .allocate(&cpu, &mem);
    println!("\n=== Ablation: Eq. 2 distance term (memory-dominated slot) ===");
    println!(
        "full merit: {} servers | correlation-only: {} servers",
        servers_used(&full),
        servers_used(&corr_only)
    );
}

fn print_policy_comparison(fleet: FleetSpec) {
    let outcomes = experiments::policy_comparison(fleet, 600);
    println!("\n=== §V-A: EPACT vs both extremes (oracle predictions) ===");
    println!(
        "{:<10} {:>14} {:>16} {:>12}",
        "policy", "mean servers", "energy (MJ)", "migrations"
    );
    for o in &outcomes {
        println!(
            "{:<10} {:>14.1} {:>16.1} {:>12}",
            o.policy,
            o.mean_active_servers(),
            o.total_energy().as_megajoules(),
            o.total_migrations()
        );
    }
}

fn main() {
    let num_vms: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let fleet = FleetSpec {
        num_vms,
        seed: 2018,
        weeks: 2,
    };
    print_correlation_ablation(fleet);
    print_merit_ablation();
    print_policy_comparison(fleet);
}
