//! Ablation benches for the design choices DESIGN.md §7 calls out:
//!
//! 1. correlation-aware matching (Alg. 1's φ term) vs plain first-fit;
//! 2. ARIMA vs seasonal-naive prediction (violations and energy);
//! 3. the energy-proportionality gap between the NTC and conventional
//!    server that makes all of this matter.

use criterion::{criterion_group, criterion_main, Criterion};
use ntc_bench::bench_fleet;
use ntc_core::{AllocationPolicy, Epact, OneDimAllocator, SlotContext, SlotPlan};
use ntc_datacenter::WeekSim;
use ntc_forecast::{ArimaPredictor, SeasonalNaive};
use ntc_power::proportionality::ep_index;
use ntc_power::ServerPowerModel;
use ntc_trace::TimeSeries;
use std::hint::black_box;

/// EPACT with Algorithm 1's correlation matching replaced by plain
/// first-fit (the ablation's control arm).
#[derive(Debug)]
struct PlainFirstFit;

impl AllocationPolicy for PlainFirstFit {
    fn name(&self) -> &str {
        "EPACT-noCorr"
    }

    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan {
        let server = ctx.server();
        let fmax = server.fmax();
        let dc = ntc_power::DataCenterPowerModel::new(server.clone(), ctx.max_servers());
        let fopt = dc.ntc_optimal_frequency();
        let cap = fopt.ratio(fmax) * 100.0;
        let cpu = ctx.predicted_cpu();
        let slot_len = ctx.slot_len();
        let mut srv: Vec<TimeSeries> = Vec::new();
        let mut assignment = vec![0usize; cpu.len()];
        for (vm, series) in cpu.iter().enumerate() {
            let slot = srv
                .iter()
                .position(|s| !s.add(series).exceeds(cap, 1e-9))
                .unwrap_or_else(|| {
                    srv.push(TimeSeries::zeros(slot_len));
                    srv.len() - 1
                });
            srv[slot] = srv[slot].add(series);
            assignment[vm] = slot;
        }
        let n = srv.len();
        SlotPlan::new(assignment, n, cap, 100.0, fopt, server.fmin(), fmax)
    }
}

fn print_correlation_ablation() {
    let fleet = bench_fleet();
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

fn print_forecast_ablation() {
    let fleet = bench_fleet();
    let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
    let per_day = fleet.grid().samples_per_day();
    let arima = sim.run(&Epact::new(), &ArimaPredictor::daily(per_day));
    let naive = sim.run(&Epact::new(), &SeasonalNaive::new(per_day));
    let oracle = sim.run_with_oracle(&Epact::new());
    println!("\n=== Ablation: predictor choice under EPACT ===");
    println!(
        "{:<16} {:>12} {:>16}",
        "predictor", "violations", "energy (MJ)"
    );
    for (name, o) in [
        ("ARIMA", &arima),
        ("seasonal-naive", &naive),
        ("oracle", &oracle),
    ] {
        println!(
            "{:<16} {:>12} {:>16.1}",
            name,
            o.total_violations(),
            o.total_energy().as_megajoules()
        );
    }
}

fn print_merit_ablation() {
    // Memory-dominated synthetic slot: Alg. 2 with the full Eq. 2 merit
    // vs the correlation-only variant. The distance term packs tighter,
    // so it should need no more servers.
    use ntc_core::TwoDimAllocator;
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
    let full = TwoDimAllocator::new(61.3, 100.0, 8).allocate(&cpu, &mem);
    let corr_only = TwoDimAllocator::new(61.3, 100.0, 8)
        .correlation_only()
        .allocate(&cpu, &mem);
    println!("\n=== Ablation: Eq. 2 distance term (memory-dominated slot) ===");
    println!(
        "full merit: {} servers | correlation-only: {} servers",
        servers_used(&full),
        servers_used(&corr_only)
    );
}

fn print_policy_comparison() {
    use ntc_datacenter::experiments::policy_comparison;
    let fleet = bench_fleet();
    let outcomes = policy_comparison(&fleet, 600);
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

fn print_proportionality() {
    let ntc = ServerPowerModel::ntc();
    let conv = ServerPowerModel::conventional_e5_2620();
    println!("\n=== Energy-proportionality indices (1 = ideal) ===");
    println!(
        "NTC server @ Fmax: {:.3} | conventional @ Fmax: {:.3}",
        ep_index(&ntc, ntc.fmax(), 50),
        ep_index(&conv, conv.fmax(), 50)
    );
}

fn bench(c: &mut Criterion) {
    print_correlation_ablation();
    print_forecast_ablation();
    print_merit_ablation();
    print_policy_comparison();
    print_proportionality();

    // Time the Algorithm 1 packing kernel itself.
    let fleet = bench_fleet();
    let cpu: Vec<TimeSeries> = fleet.vms().iter().map(|v| v.cpu.window(0..12)).collect();
    let alloc = OneDimAllocator::new(
        ntc_units::Frequency::from_ghz(1.9),
        ntc_units::Frequency::from_ghz(3.1),
    );
    c.bench_function("ablations/alg1_packing_120vms", |b| {
        b.iter(|| black_box(alloc.allocate(&cpu)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
