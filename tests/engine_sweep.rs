//! Engine integration: a sweep over a small synthetic fleet must be
//! bit-identical however it is scheduled, and reproduce the paper's
//! headline ordering (EPACT saves energy over COAT on NTC servers).

use ntc_dc::datacenter::{
    BackendSpec, CellStage, Engine, ExperimentSpec, FailurePolicy, FaultSpec, PolicySpec,
    PredictorSpec, ServerSpec, WeekOutcome, WeekSim,
};
use ntc_dc::forecast::{ArimaPredictor, SeasonalNaive};
use ntc_dc::units::Frequency;

fn small_sweep() -> ExperimentSpec {
    let mut spec = ExperimentSpec::default_sweep();
    spec.fleets[0].num_vms = 24;
    spec.max_servers = 300;
    assert_eq!(
        spec.cells().len(),
        6,
        "the default sweep must exercise >= 6 cells"
    );
    spec
}

/// The acceptance shape: >= 2 fleet seeds and >= 2 static-power scales
/// in one spec.
fn multi_axis_sweep() -> ExperimentSpec {
    let mut spec = ExperimentSpec::default_sweep().with_seeds(&[11, 12]);
    spec.fleets.iter_mut().for_each(|f| f.num_vms = 12);
    spec.static_power_scales = vec![0.5, 1.0];
    spec.servers = vec![ServerSpec::Ntc];
    spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
    spec.max_servers = 150;
    spec
}

/// Every cell of `spec` run alone through the public `WeekSim` API,
/// built as the engine builds it: the scaled server model, the cell's
/// backend and QoS floor, the policy with the spec's ablation flags,
/// and the spec's predictor. Nothing is shared between cells, so this
/// is the reference every engine sweep must match bit for bit.
fn per_cell_weeks(spec: &ExperimentSpec) -> Vec<WeekOutcome> {
    spec.cells()
        .iter()
        .map(|cell| {
            let fleet = cell.fleet.generate();
            let mut builder = WeekSim::builder(&fleet, cell.server_model(), spec.max_servers)
                .backend(cell.backend.build(cell.server));
            if let Some(mhz) = cell.qos_floor_mhz {
                builder = builder.qos_floor(Frequency::from_mhz(mhz));
            }
            let sim = builder.build_or_panic();
            let policy = cell.policy.build(spec.ablation);
            let per_day = fleet.grid().samples_per_day();
            match spec.predictor {
                PredictorSpec::Oracle => sim.run_with_oracle(policy.as_ref()),
                PredictorSpec::Arima => sim.run(policy.as_ref(), &ArimaPredictor::daily(per_day)),
                PredictorSpec::SeasonalNaive => {
                    sim.run(policy.as_ref(), &SeasonalNaive::new(per_day))
                }
            }
        })
        .collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let spec = small_sweep();
    let parallel = Engine::new().run(&spec).expect("parallel run");
    let sequential = Engine::with_threads(1).run(&spec).expect("sequential run");
    assert!(Engine::new().threads() >= 1);
    assert_eq!(parallel.cells.len(), 6);
    // WeekOutcome derives PartialEq over every slot metric, so this is
    // a bit-for-bit comparison of all 168 slots of all 6 cells.
    assert_eq!(parallel.outcomes(), sequential.outcomes());
    // And a second parallel run cannot differ either.
    let again = Engine::with_threads(3).run(&spec).expect("second run");
    assert_eq!(parallel.outcomes(), again.outcomes());
}

#[test]
fn multi_axis_sweep_is_bit_identical_to_sequential() {
    // 2 seeds x 2 static-power scales x 2 policies = 8 cells; the
    // parallel schedule (including the fleet-cache race) must not be
    // able to change a single bit of any outcome.
    let spec = multi_axis_sweep();
    let parallel = Engine::new().run(&spec).expect("parallel run");
    let sequential = Engine::with_threads(1).run(&spec).expect("sequential run");
    assert_eq!(parallel.cells.len(), 8);
    assert_eq!(parallel.outcomes(), sequential.outcomes());

    // Seed-averaged aggregation is a pure fold over the cells, so it is
    // identical too: one group per (policy, scale), each fed by 2 seeds.
    let groups = parallel.seed_groups();
    assert_eq!(groups.len(), 4);
    assert!(groups.iter().all(|g| g.runs == 2));
    let sequential_groups = sequential.seed_groups();
    assert_eq!(groups, sequential_groups);
}

#[test]
fn cached_sweep_is_bit_identical_to_uncached() {
    // The golden equivalence for the engine's shared fleets and plans:
    // a parallel sweep over every axis a plan key may merge — 2 seeds
    // x 2 static-power scales x 2 QoS floors x 2 backends x 4
    // policies — must reproduce each cell run alone bit for bit, while
    // actually deduplicating work: COAT plans purely at Fmax, so its
    // plans are shared across the two scale arms (7 planning slots x 2
    // fleets of reuse at minimum), and floor and backend arms share
    // every plan.
    let mut spec = multi_axis_sweep();
    spec.qos_floors_mhz = vec![None, Some(1800.0)];
    spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
    spec.policies = vec![
        PolicySpec::Epact,
        PolicySpec::Coat,
        PolicySpec::CoatOpt,
        PolicySpec::LoadBalance,
    ];
    let cached = Engine::new().run(&spec).expect("cached run");
    assert_eq!(cached.cells.len(), 64);
    let cells: Vec<_> = cached.cells.iter().map(|c| c.cell).collect();
    assert_eq!(cells, spec.cells());
    let alone = per_cell_weeks(&spec);
    assert_eq!(cached.outcomes(), alone.iter().collect::<Vec<_>>());

    let totals = cached.cache_totals();
    assert!(
        totals.plan_hits >= 14,
        "COAT's scale arms must share plans, got {totals:?}"
    );
    assert!(totals.plan_misses > 0, "someone must have planned");
    // Oracle sweep: no forecasts at all.
    assert_eq!(totals.forecast_hits + totals.forecast_misses, 0);
}

#[test]
fn analytic_backend_is_bit_identical_to_pre_pipeline_weeksim() {
    // Golden fingerprints captured from the monolithic WeekSim loop
    // *before* it was decomposed into the forecast/plan/govern/account
    // stages. The AnalyticBackend must reproduce every one of them bit
    // for bit: 2 seeds x 2 static-power scales x {EPACT, COAT} on the
    // NTC server with oracle predictions.
    const GOLDEN: [(u64, usize, usize, u64); 8] = [
        (0x418438efa23853a3, 0, 1084, 0x3ffa000000000000), // seed 11 scale 0.5 EPACT
        (0x418db52266d22d60, 0, 0, 0x3ff0000000000000),    // seed 11 scale 0.5 COAT
        (0x418722732ee2c65d, 0, 792, 0x3ff7249249249249),  // seed 11 scale 1.0 EPACT
        (0x418fded866d22d60, 0, 0, 0x3ff0000000000000),    // seed 11 scale 1.0 COAT
        (0x4184562eb41653dd, 0, 1154, 0x3ffa79e79e79e79e), // seed 12 scale 0.5 EPACT
        (0x418d9d3b8e6f7df0, 0, 0, 0x3ff0000000000000),    // seed 12 scale 0.5 COAT
        (0x4186d1cb5fdf9553, 0, 567, 0x3ff50c30c30c30c3),  // seed 12 scale 1.0 EPACT
        (0x418fc6f18e6f7df1, 0, 0, 0x3ff0000000000000),    // seed 12 scale 1.0 COAT
    ];
    let mut spec = multi_axis_sweep();
    spec.fleets.iter_mut().for_each(|f| f.num_vms = 24);
    let sweep = Engine::new().run(&spec).expect("golden sweep");
    assert_eq!(sweep.cells.len(), GOLDEN.len());
    for (cell, &(energy, violations, migrations, servers)) in sweep.cells.iter().zip(&GOLDEN) {
        let label = cell.cell.label(spec.ablation);
        let seed = cell.cell.fleet.seed;
        assert_eq!(
            cell.outcome.total_energy().as_joules().to_bits(),
            energy,
            "energy drifted in {label} seed {seed}"
        );
        assert_eq!(cell.outcome.total_violations(), violations, "{label}");
        assert_eq!(cell.outcome.total_migrations(), migrations, "{label}");
        assert_eq!(
            cell.outcome.mean_active_servers().to_bits(),
            servers,
            "mean servers drifted in {label} seed {seed}"
        );
    }
}

#[test]
fn multi_server_packing_is_bit_identical_to_golden() {
    // Golden fingerprints of a fleet large enough that every policy
    // packs onto several servers (COAT 4, COAT-OPT ~7, EPACT 3.5-5), so
    // the correlation scores decide real placements: one 96-VM oracle
    // fleet x {EPACT, COAT, COAT-OPT} x {NTC, conv}. Captured before
    // the packers' covariance terms went lazy; any drift in a packer's
    // arithmetic moves a placement and with it these bits.
    const GOLDEN: [(u64, usize, usize, u64); 6] = [
        (0x41a5f784c7198261, 0, 11075, 0x401430c30c30c30c), // EPACT/NTC
        (0x41afedf9ade24f18, 0, 137, 0x4010000000000000),   // COAT/NTC
        (0x41aaa74fdbb4ab74, 0, 203, 0x401b6db6db6db6db),   // COAT-OPT/NTC
        (0x41ade0382ed82e8d, 0, 9953, 0x400c3cf3cf3cf3cf),  // EPACT/conv
        (0x41b14fba1c6dd3c2, 0, 137, 0x4010000000000000),   // COAT/conv
        (0x41b14fba1c6dd3c2, 0, 137, 0x4010000000000000),   // COAT-OPT/conv
    ];
    let mut spec = ExperimentSpec::default_sweep().with_seeds(&[11]);
    spec.fleets[0].num_vms = 96;
    spec.max_servers = 600;
    let sweep = Engine::with_threads(1).run(&spec).expect("golden sweep");
    assert_eq!(sweep.cells.len(), GOLDEN.len());
    for (cell, &(energy, violations, migrations, servers)) in sweep.cells.iter().zip(&GOLDEN) {
        let label = cell.cell.label(spec.ablation);
        assert_eq!(
            cell.outcome.total_energy().as_joules().to_bits(),
            energy,
            "energy drifted in {label}"
        );
        assert_eq!(cell.outcome.total_violations(), violations, "{label}");
        assert_eq!(cell.outcome.total_migrations(), migrations, "{label}");
        assert_eq!(
            cell.outcome.mean_active_servers().to_bits(),
            servers,
            "mean servers drifted in {label}"
        );
    }
}

#[test]
fn cross_backend_sweep_shares_plans_and_groups_per_backend() {
    // The acceptance shape: `--backends analytic,archsim --seeds 1,2`
    // through one engine. Both backends share every upstream stage, so
    // migrations and server counts agree arm for arm, the plan cache
    // dedups across the backend axis, and seed averaging groups per
    // backend.
    let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2]);
    spec.fleets.iter_mut().for_each(|f| f.num_vms = 24);
    spec.servers = vec![ServerSpec::Ntc];
    spec.policies = vec![PolicySpec::Epact];
    spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
    spec.max_servers = 150;
    let sweep = Engine::new().run(&spec).expect("cross-backend sweep");
    assert_eq!(sweep.cells.len(), 4); // 2 seeds x 2 backends
    for pair in sweep.cells.chunks_exact(2) {
        let (analytic, archsim) = (&pair[0], &pair[1]);
        assert_eq!(analytic.cell.backend, BackendSpec::Analytic);
        assert_eq!(archsim.cell.backend, BackendSpec::Archsim);
        assert_eq!(
            analytic.outcome.total_migrations(),
            archsim.outcome.total_migrations(),
            "backends must share the plan stage"
        );
        assert_eq!(
            analytic.outcome.mean_active_servers(),
            archsim.outcome.mean_active_servers()
        );
        assert!(archsim.outcome.total_energy().as_joules() > 0.0);
        assert!(archsim.outcome.total_violations() >= analytic.outcome.total_violations());
    }
    let groups = sweep.seed_groups();
    assert_eq!(groups.len(), 2, "one seed-averaged group per backend");
    assert!(groups.iter().all(|g| g.runs == 2));
    assert!(groups[1].label(spec.ablation).ends_with("/archsim"));
    // EPACT replans every slot; 2 seeds x 2 backends over 1 fleet per
    // seed -> each plan group computed once (168 misses) and reused by
    // the other backend arm (168 hits), per seed.
    let totals = sweep.cache_totals();
    assert_eq!(
        (totals.plan_misses, totals.plan_hits),
        (336, 336),
        "cross-backend arms must share plan groups"
    );
}

/// A forecasting sweep: 2 fleets x {EPACT, COAT} on the NTC server,
/// so every cell plans from its own forecasts. Cell order: 0 = seed 31
/// EPACT, 1 = seed 31 COAT, 2 = seed 32 EPACT, 3 = seed 32 COAT.
fn forecasting_sweep(predictor: PredictorSpec) -> ExperimentSpec {
    let mut spec = ExperimentSpec::default_sweep().with_seeds(&[31, 32]);
    spec.fleets.iter_mut().for_each(|f| f.num_vms = 12);
    spec.servers = vec![ServerSpec::Ntc];
    spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
    spec.predictor = predictor;
    spec.max_servers = 150;
    spec
}

#[test]
fn forecasting_sweep_is_bit_identical_however_scheduled() {
    // The engine fits every day forecast up front across its workers;
    // the parallel and single-worker engines must still agree on every
    // bit of every cell with each cell run alone, forecasting its own
    // days.
    for predictor in [PredictorSpec::Arima, PredictorSpec::SeasonalNaive] {
        let spec = forecasting_sweep(predictor);
        let parallel = Engine::new().run(&spec).expect("parallel run");
        let sequential = Engine::with_threads(1).run(&spec).expect("sequential run");
        let alone = per_cell_weeks(&spec);
        assert_eq!(parallel.cells.len(), 4, "{predictor:?}");
        assert_eq!(parallel.outcomes(), sequential.outcomes(), "{predictor:?}");
        assert_eq!(
            parallel.outcomes(),
            alone.iter().collect::<Vec<_>>(),
            "{predictor:?}"
        );

        // Cached: each (fleet, day) forecast is fitted once, before the
        // cells, and all 4 cells x 7 days of lookups hit.
        for cached in [&parallel, &sequential] {
            let totals = cached.cache_totals();
            assert_eq!(totals.forecast_misses, 2 * 7, "{predictor:?}");
            assert_eq!(totals.forecast_hits, 4 * 7, "{predictor:?}");
            assert_eq!(cached.sweep_cache.forecast_misses, 2 * 7);
        }
    }
}

#[test]
fn fault_injection_forecast_stage_isolates_arima_cells() {
    // Forecasts are filled before the cells run, yet a cell still
    // enters its forecast stage on each planning day: a panic there
    // fails that cell alone, and the others stay bit-identical to a
    // clean sequential run.
    let spec = forecasting_sweep(PredictorSpec::Arima);
    let clean = Engine::with_threads(1).run(&spec).expect("clean run");
    assert!(clean.is_complete());

    let faulted = Engine::new()
        .inject_fault(FaultSpec::panic_at(2, CellStage::Forecast))
        .run(&spec)
        .expect("a faulted cell must not abort the sweep");
    assert_eq!(faulted.total_cells(), 4);
    assert_eq!(faulted.succeeded().len(), 3);
    let failure = &faulted.failed()[0];
    assert_eq!(failure.index, 2);
    assert_eq!(failure.label, clean.cells[2].cell.label(spec.ablation));
    assert_eq!(failure.stage(), Some(CellStage::Forecast));
    assert_eq!(failure.kind_label(), "panic");
    assert!(
        failure.message().contains("injected fault"),
        "panic payload must survive capture: {}",
        failure.message()
    );
    for (survivor, clean_idx) in faulted.succeeded().iter().zip([0usize, 1, 3]) {
        let reference = &clean.cells[clean_idx];
        assert_eq!(survivor.cell, reference.cell);
        assert_eq!(survivor.outcome, reference.outcome);
        assert_eq!(
            survivor.outcome.total_energy().as_joules().to_bits(),
            reference.outcome.total_energy().as_joules().to_bits(),
            "energy drifted in cell {clean_idx} next to a faulted sibling"
        );
    }
    // The fault hit a cell, not the up-front step: every day forecast
    // was still fitted exactly once.
    assert_eq!(faulted.cache_totals().forecast_misses, 2 * 7);
}

/// The fault-injection acceptance shape: a 2-seed x 2-policy sweep so
/// one faulted cell leaves three healthy neighbours across both axes.
/// Cell order (fleet outermost, policy innermost): 0 = seed 21 EPACT,
/// 1 = seed 21 COAT, 2 = seed 22 EPACT, 3 = seed 22 COAT.
fn fault_sweep() -> ExperimentSpec {
    let mut spec = ExperimentSpec::default_sweep().with_seeds(&[21, 22]);
    spec.fleets.iter_mut().for_each(|f| f.num_vms = 12);
    spec.servers = vec![ServerSpec::Ntc];
    spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
    spec.max_servers = 150;
    spec
}

#[test]
fn fault_injection_keep_going_isolates_healthy_cells() {
    // One cell panicking mid-plan must not perturb a single bit of any
    // other cell: the survivors of the faulted parallel sweep must be
    // bit-identical to a clean single-threaded sequential run.
    let spec = fault_sweep();
    let clean = Engine::with_threads(1).run(&spec).expect("clean run");
    assert_eq!(clean.cells.len(), 4);
    assert!(clean.is_complete());

    let faulted = Engine::new()
        .inject_fault(FaultSpec::panic_at(1, CellStage::Plan))
        .run(&spec)
        .expect("a faulted cell must not abort the sweep");
    assert_eq!(faulted.total_cells(), 4);
    assert_eq!(faulted.succeeded().len(), 3);
    assert_eq!(faulted.failed().len(), 1);
    assert!(!faulted.is_complete());

    // The failed cell is reported with its identity, stage, and cause.
    let failure = &faulted.failed()[0];
    assert_eq!(failure.index, 1);
    assert_eq!(failure.label, clean.cells[1].cell.label(spec.ablation));
    assert_eq!(failure.cell.fleet.seed, 21);
    assert_eq!(failure.stage(), Some(CellStage::Plan));
    assert_eq!(failure.kind_label(), "panic");
    assert!(
        failure.message().contains("injected fault"),
        "panic payload must survive capture: {}",
        failure.message()
    );

    // Survivors are the clean cells 0, 2, 3 — compare bit for bit, both
    // through WeekOutcome's full PartialEq and through the raw energy
    // bit patterns.
    for (survivor, clean_idx) in faulted.succeeded().iter().zip([0usize, 2, 3]) {
        let reference = &clean.cells[clean_idx];
        assert_eq!(survivor.cell, reference.cell);
        assert_eq!(survivor.outcome, reference.outcome);
        assert_eq!(
            survivor.outcome.total_energy().as_joules().to_bits(),
            reference.outcome.total_energy().as_joules().to_bits(),
            "energy drifted in cell {clean_idx} next to a faulted sibling"
        );
    }

    // Seed aggregation skips the failed cell without poisoning the
    // statistics: EPACT still averages both seeds, COAT drops to one
    // run, and nothing goes NaN.
    let groups = faulted.seed_groups();
    assert_eq!(groups.len(), 2);
    let epact = &groups[0];
    let coat = &groups[1];
    assert_eq!((epact.policy, epact.runs), (PolicySpec::Epact, 2));
    assert_eq!((coat.policy, coat.runs), (PolicySpec::Coat, 1));
    for group in &groups {
        for stat in [
            group.energy_mj,
            group.violations,
            group.migrations,
            group.mean_active_servers,
        ] {
            assert!(stat.mean.is_finite(), "{:?}: NaN mean", group.policy);
            assert!(stat.std.is_finite(), "{:?}: NaN std", group.policy);
        }
    }
    // The intact group matches the clean run exactly.
    assert_eq!(*epact, clean.seed_groups()[0]);
}

#[test]
fn fault_injection_fail_fast_aborts_remaining_cells() {
    // Same sweep under FailFast on one thread, so the claim order is
    // the spec order: cell 0 completes, cell 1 panics, cells 2 and 3
    // are reported as skipped instead of running.
    let mut spec = fault_sweep();
    spec.failure_policy = FailurePolicy::FailFast;
    let clean = Engine::with_threads(1)
        .run(&fault_sweep())
        .expect("clean run");

    let faulted = Engine::with_threads(1)
        .inject_fault(FaultSpec::panic_at(1, CellStage::Plan))
        .run(&spec)
        .expect("fail-fast still returns the partial result");
    assert_eq!(faulted.total_cells(), 4);
    assert_eq!(faulted.succeeded().len(), 1);
    assert_eq!(faulted.failed().len(), 3);

    // The completed cell is untouched by the abort.
    assert_eq!(faulted.succeeded()[0].outcome, clean.cells[0].outcome);

    // Cell 1 carries the panic; the unstarted cells are skipped with no
    // stage (they never entered the pipeline).
    let failures = faulted.failed();
    assert_eq!(failures[0].index, 1);
    assert_eq!(failures[0].stage(), Some(CellStage::Plan));
    assert_eq!(failures[0].kind_label(), "panic");
    for (failure, index) in failures[1..].iter().zip([2usize, 3]) {
        assert_eq!(failure.index, index);
        assert_eq!(failure.stage(), None);
        assert_eq!(failure.kind_label(), "skipped");
        assert!(failure.message().contains("fail-fast"));
    }
}

#[test]
fn epact_saves_energy_over_coat_on_ntc() {
    let spec = small_sweep();
    let sweep = Engine::new().run(&spec).expect("sweep");
    let energy = |policy: PolicySpec| {
        sweep
            .cells
            .iter()
            .find(|c| c.cell.policy == policy && c.cell.server == ServerSpec::Ntc)
            .expect("cell present")
            .outcome
            .total_energy()
    };
    assert!(
        energy(PolicySpec::Epact) <= energy(PolicySpec::Coat),
        "EPACT must not spend more energy than COAT on the NTC server"
    );
}
