//! Cross-crate property-based tests: allocation-policy and power-model
//! invariants over randomized fleets and loads, the day-window fast
//! path against the per-slot rebuild, plus the spec_json round trip
//! over randomized experiment specs.

use std::ops::Range;

use ntc_dc::datacenter::{
    spec_json, BackendSpec, ExperimentSpec, FailurePolicy, FleetSpec, PolicySpec, PredictorSpec,
    ServerSpec,
};
use ntc_dc::policy::{AllocationPolicy, Coat, CoatOpt, Epact, SlotContext};
use ntc_dc::power::ServerPowerModel;
use ntc_dc::trace::{DayCache, TimeSeries};
use ntc_dc::units::{Frequency, Percent};
use ntc_dc::workload::{ClusterTraceGenerator, Fleet};
use proptest::prelude::*;

/// A strategy over arbitrary multi-axis experiment specs: random fleet
/// sets (sizes, seeds, horizons), static-power scales, QoS floors,
/// accounting-backend sets, failure policies and axis subsets.
fn arb_spec() -> impl Strategy<Value = ExperimentSpec> {
    let fleets = prop::collection::vec(
        (1usize..200, 0u64..=u64::MAX, 2usize..5).prop_map(|(num_vms, seed, weeks)| FleetSpec {
            num_vms,
            seed,
            weeks,
        }),
        1..4,
    );
    let scales = prop::collection::vec(0.0f64..4.0, 1..4);
    let floors = prop::collection::vec(
        (0usize..2, 100.0f64..2500.0).prop_map(|(none, mhz)| (none == 0).then_some(mhz)),
        1..3,
    );
    let backends = (0usize..4).prop_map(|i| match i {
        0 => vec![BackendSpec::Analytic],
        1 => vec![BackendSpec::Archsim],
        2 => vec![BackendSpec::Analytic, BackendSpec::Archsim],
        _ => vec![BackendSpec::Archsim, BackendSpec::Analytic],
    });
    (
        (fleets, scales, floors, backends),
        (0usize..4, 1usize..1000, 0usize..4),
    )
        .prop_map(
            |(
                (fleets, static_power_scales, qos_floors_mhz, backends),
                (knobs, max_servers, corr),
            )| {
                let mut spec = ExperimentSpec::default_sweep();
                spec.name = format!("prop-{knobs}-{max_servers}");
                spec.fleets = fleets;
                spec.static_power_scales = static_power_scales;
                spec.qos_floors_mhz = qos_floors_mhz;
                spec.backends = backends;
                spec.max_servers = max_servers;
                spec.ablation.correlation_only = corr & 1 == 1;
                spec.failure_policy = if corr & 2 == 2 {
                    FailurePolicy::FailFast
                } else {
                    FailurePolicy::KeepGoing
                };
                if knobs % 2 == 1 {
                    spec.policies.push(PolicySpec::LoadBalance);
                    spec.servers = vec![ServerSpec::Ntc];
                }
                spec.predictor = match knobs {
                    0 => PredictorSpec::Oracle,
                    1 => PredictorSpec::Arima,
                    _ => PredictorSpec::SeasonalNaive,
                };
                spec
            },
        )
}

fn vm_series(n_vms: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..6.25, len), n_vms)
}

fn mem_series(n_vms: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.1f64..3.0, len), n_vms)
}

/// Per-VM CPU and memory windows of `fleet`'s traces over `range`.
fn windows(fleet: &Fleet, range: Range<usize>) -> (Vec<TimeSeries>, Vec<TimeSeries>) {
    (
        fleet
            .vms()
            .iter()
            .map(|v| v.cpu.window(range.clone()))
            .collect(),
        fleet
            .vms()
            .iter()
            .map(|v| v.mem.window(range.clone()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_policy_places_all_vms_and_respects_caps(
        cpu in vm_series(12, 6),
        mem in mem_series(12, 6),
    ) {
        let server = ServerPowerModel::ntc();
        let cpu: Vec<TimeSeries> = cpu.into_iter().map(TimeSeries::from_values).collect();
        let mem: Vec<TimeSeries> = mem.into_iter().map(TimeSeries::from_values).collect();
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        for policy in [
            &Epact::new() as &dyn AllocationPolicy,
            &Coat::new(),
            &CoatOpt::new(),
        ] {
            let plan = policy.allocate(&ctx);
            prop_assert_eq!(plan.assignments().len(), 12);
            // every VM assigned to a live server
            prop_assert!(plan.assignments().iter().all(|&s| s < plan.num_servers()));
            // the packing never exceeds the policy's own CPU cap
            // (single VMs above the cap are impossible here: max 6.25%)
            for agg in plan.aggregate_per_server(&cpu) {
                prop_assert!(!agg.exceeds(plan.cap_cpu(), 1e-6));
            }
            // frequency plan is internally consistent
            prop_assert!(plan.planned_freq() <= plan.dvfs_ceiling());
            prop_assert!(plan.dvfs_floor() <= plan.planned_freq());
        }
    }

    #[test]
    fn epact_never_uses_more_servers_than_vms(
        cpu in vm_series(10, 4),
        mem in mem_series(10, 4),
    ) {
        let server = ServerPowerModel::ntc();
        let cpu: Vec<TimeSeries> = cpu.into_iter().map(TimeSeries::from_values).collect();
        let mem: Vec<TimeSeries> = mem.into_iter().map(TimeSeries::from_values).collect();
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let plan = Epact::new().allocate(&ctx);
        prop_assert!(plan.num_servers() <= 10);
    }

    #[test]
    fn server_power_is_monotone_in_utilization(
        u1 in 0.0f64..100.0,
        u2 in 0.0f64..100.0,
        ghz in 0.1f64..3.1,
    ) {
        let server = ServerPowerModel::ntc();
        let f = Frequency::from_ghz(ghz);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let p_lo = server.power(f, Percent::new(lo), Percent::ZERO);
        let p_hi = server.power(f, Percent::new(hi), Percent::ZERO);
        prop_assert!(p_lo <= p_hi, "power must grow with load: {p_lo} vs {p_hi}");
    }

    #[test]
    fn server_power_is_monotone_in_frequency_at_full_load(
        g1 in 0.1f64..3.1,
        g2 in 0.1f64..3.1,
    ) {
        let server = ServerPowerModel::ntc();
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let p_lo = server.power(Frequency::from_ghz(lo), Percent::FULL, Percent::ZERO);
        let p_hi = server.power(Frequency::from_ghz(hi), Percent::FULL, Percent::ZERO);
        prop_assert!(p_lo <= p_hi);
    }

    #[test]
    fn power_breakdown_components_are_finite_and_positive(
        ghz in 0.1f64..3.1,
        cpu in 0.0f64..100.0,
        mem in 0.0f64..100.0,
    ) {
        let server = ServerPowerModel::ntc();
        let f = Frequency::from_ghz(ghz);
        let p = server.power(f, Percent::new(cpu), Percent::new(mem));
        prop_assert!(p.as_watts().is_finite());
        prop_assert!(p.as_watts() > 20.0, "uncore floor keeps power above ~27 W");
        prop_assert!(p.as_watts() < 200.0, "a single server stays under 200 W");
    }

    #[test]
    fn spec_json_round_trips_every_spec(spec in arb_spec()) {
        // The codec must preserve every axis exactly — fleet sets
        // (full-range u64 seeds), static-power scales (f64-exact), QoS
        // floors, backend sets, predictor, ablation flags — through
        // render + reparse.
        let text = spec_json::to_json(&spec);
        let back = match spec_json::from_json(&text) {
            Ok(back) => back,
            Err(e) => panic!("reparse failed: {e}\n{text}"),
        };
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn day_window_plans_equal_the_per_slot_rebuild(
        num_vms in 2usize..32,
        seed in 0u64..=u64::MAX,
        day in 0usize..7,
    ) {
        // The fast path answers a window's covariances from a day's
        // DayCache pair instead of rebuilding them from the window. The
        // two agree only to ulps, yet every plan must be identical:
        // EPACT on each hourly slot, COAT and COAT-OPT on the whole day.
        // Below ~16 VMs every plan fits one server and covariances
        // decide nothing; from ~32 VMs on, EPACT meets score near-ties
        // that ulp-level differences resolve either way (about one
        // plan in 2,000), so the sizes in between test the fast path.
        // EPACT's slot-level day caches, built as WeekSim builds them
        // from the slot's own predictions (one block per slot), hold the
        // day-level window's values in the same blocks, so their plans
        // must equal the day-level ones at every size.
        let fleet = ClusterTraceGenerator::google_like(num_vms, seed).generate();
        let grid = fleet.grid();
        let (sps, per_day) = (grid.samples_per_slot(), grid.samples_per_day());
        let day_start = grid.len() - (7 - day) * per_day;
        let (day_cpu, day_mem) = windows(&fleet, day_start..day_start + per_day);
        let dc_cpu = DayCache::with_block_size(&day_cpu, sps);
        let dc_mem = DayCache::with_block_size(&day_mem, sps);
        let (epact, coat, coat_opt) = (Epact::new(), Coat::new(), CoatOpt::new());
        let mut runs: Vec<(&dyn AllocationPolicy, Range<usize>)> = (0..per_day)
            .step_by(sps)
            .map(|offset| (&epact as &dyn AllocationPolicy, offset..offset + sps))
            .collect();
        runs.push((&coat, 0..per_day));
        runs.push((&coat_opt, 0..per_day));
        for server in [ServerPowerModel::ntc(), ServerPowerModel::conventional_e5_2620()] {
            for (policy, window) in &runs {
                let (cpu, mem) =
                    windows(&fleet, day_start + window.start..day_start + window.end);
                let rebuilt = policy.allocate(&SlotContext::new(&cpu, &mem, &server, 600));
                let cached = policy.allocate(
                    &SlotContext::new(&cpu, &mem, &server, 600)
                        .with_day_window(&dc_cpu, &dc_mem, window.start),
                );
                let slot_level = (window.len() == sps).then(|| {
                    let (slot_cpu, slot_mem) = (
                        DayCache::with_block_size(&cpu, sps),
                        DayCache::with_block_size(&mem, sps),
                    );
                    policy.allocate(
                        &SlotContext::new(&cpu, &mem, &server, 600)
                            .with_day_window(&slot_cpu, &slot_mem, 0),
                    )
                });
                let arms = std::iter::once(("rebuilt", &rebuilt))
                    .chain(slot_level.as_ref().map(|plan| ("slot-level", plan)));
                for (arm, plan) in arms {
                    let at = format!(
                        "{} {arm} on {window:?} of day {day}, seed {seed}",
                        policy.name()
                    );
                    prop_assert_eq!(plan.assignments(), cached.assignments(), "{}", at);
                    prop_assert_eq!(plan.num_servers(), cached.num_servers(), "{}", at);
                    prop_assert_eq!(plan.planned_freq(), cached.planned_freq(), "{}", at);
                    prop_assert_eq!(
                        (plan.dvfs_floor(), plan.dvfs_ceiling()),
                        (cached.dvfs_floor(), cached.dvfs_ceiling()),
                        "{}",
                        at
                    );
                }
            }
        }
    }

    #[test]
    fn archsim_exec_time_is_monotone_nonincreasing_in_frequency(
        g1 in 0.2f64..2.5,
        g2 in 0.2f64..2.5,
    ) {
        use ntc_dc::archsim::{Kernel, Platform, ServerSim};
        let sim = ServerSim::new(Platform::ntc_server());
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        for k in Kernel::paper_classes() {
            let t_lo = sim.run(&k, Frequency::from_ghz(lo)).exec_time;
            let t_hi = sim.run(&k, Frequency::from_ghz(hi)).exec_time;
            prop_assert!(
                t_hi.as_secs() <= t_lo.as_secs() * (1.0 + 1e-9),
                "{}: higher frequency must not be slower",
                k.name()
            );
        }
    }
}
