//! The parallel experiment engine.
//!
//! Every figure and table of the paper is a sweep over independent
//! (policy, configuration) cells: run a [`WeekSim`] week per cell,
//! tabulate. [`ExperimentSpec`] declares such a sweep once — policy
//! set, server models, predictor, a *set* of fleets (seeds/sizes), QoS
//! floors, static-power scales and ablation flags — and [`Engine`] fans
//! the cells across a scoped worker pool sized from
//! [`std::thread::available_parallelism`], collecting [`WeekOutcome`]s
//! deterministically in spec order: every cell is a pure function of
//! the spec, so the schedule cannot change the results, only the
//! wall-clock. Each distinct [`FleetSpec`] is generated exactly once,
//! behind an `Arc`, however many cells share it and however the workers
//! interleave.
//!
//! A forecasting sweep (ARIMA or seasonal-naive predictor) fits its
//! forecasts before any cell runs. The same workers first
//! generate each distinct fleet, then claim chunks of the (fleet, day,
//! VM, CPU/memory) series of the 7 evaluation days, so the fits spread
//! over the whole pool instead of queueing behind the one cell that
//! reaches a day first. Each series is a pure function of its history,
//! so this changes no bit of any forecast; the cells then read every
//! day forecast from the shared table.
//!
//! Cells are also *fault-isolated*: each one runs under
//! [`std::panic::catch_unwind`], and a panicking cell becomes a
//! structured [`CellError`] in [`SweepResult::failed`] instead of
//! tearing down the sweep — every healthy cell's result is
//! bit-identical to a clean run. The spec's [`FailurePolicy`] chooses
//! between finishing the remaining cells (the default) and aborting
//! them via a shared flag ([`FailurePolicy::FailFast`]); see the
//! [`fault`](crate::fault) module for the full failure model and the
//! deterministic fault-injection instrument that proves the isolation
//! guarantee.
//!
//! # Examples
//!
//! ```
//! use ntc_datacenter::{Engine, ExperimentSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep();
//! spec.fleets[0].num_vms = 16; // keep the doctest fast
//! spec.max_servers = 200;
//! let sweep = Engine::new().run(&spec).unwrap();
//! assert_eq!(sweep.cells.len(), 6); // 3 policies x 2 server models
//! ```
//!
//! Seed-averaged runs are one more axis of the same spec:
//!
//! ```
//! use ntc_datacenter::{Engine, ExperimentSpec, PolicySpec, ServerSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2]);
//! spec.fleets.iter_mut().for_each(|f| f.num_vms = 10);
//! spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
//! spec.servers = vec![ServerSpec::Ntc];
//! spec.max_servers = 100;
//! let sweep = Engine::new().run(&spec).unwrap();
//! assert_eq!(sweep.cells.len(), 4); // 2 seeds x 2 policies
//! let groups = sweep.seed_groups();
//! assert_eq!(groups.len(), 2); // averaged over the fleet axis
//! assert_eq!(groups[0].runs, 2);
//! ```

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ntc_core::{AllocationPolicy, Coat, CoatOpt, Epact, Error, LoadBalance, SlotPlan};
use ntc_forecast::{ArimaPredictor, Predictor, SeasonalNaive};
use ntc_power::ServerPowerModel;
use ntc_trace::TimeSeries;
use ntc_units::Frequency;
use ntc_workload::{ClusterTraceGenerator, Fleet};

use crate::backend::BackendSpec;
use crate::cache::{
    fetch_or_compute, CacheStats, DayForecast, OnceTable, PlanKey, RunCaches, EVAL_DAYS, EVAL_SLOTS,
};
use crate::fault::{self, CellError, CellStage, FailureCause, FailurePolicy, FaultSpec};
use crate::weeksim::forecast_series;
use crate::{MeanStd, WeekOutcome, WeekSim};

/// One synthetic fleet of a sweep's fleet set (see
/// [`ClusterTraceGenerator::google_like`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of VMs.
    pub num_vms: usize,
    /// Generator seed; every cell over this fleet shares the traces.
    pub seed: u64,
    /// Trace horizon in weeks (minimum 2: training + evaluation).
    pub weeks: usize,
}

impl FleetSpec {
    /// 5-minute samples in one week — the generator's grid granularity.
    pub const WEEK_SAMPLES: usize = 7 * 24 * 12;

    /// Materializes the fleet.
    pub fn generate(&self) -> Fleet {
        ClusterTraceGenerator::google_like(self.num_vms, self.seed)
            .with_weeks(self.weeks)
            .generate()
    }
}

/// An allocation policy in the sweep's policy set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's contribution (§V-B).
    Epact,
    /// Consolidation at maximum capacity (Kim et al., DATE'13).
    Coat,
    /// Consolidation at the optimal fixed cap.
    CoatOpt,
    /// Load balancing over all servers (the anti-consolidation extreme).
    LoadBalance,
}

impl PolicySpec {
    /// Instantiates the policy, honouring the spec's ablation flags.
    pub fn build(&self, ablation: AblationFlags) -> Box<dyn AllocationPolicy> {
        match self {
            PolicySpec::Epact if ablation.correlation_only => Box::new(Epact::correlation_only()),
            PolicySpec::Epact => Box::new(Epact::new()),
            PolicySpec::Coat => Box::new(Coat::new()),
            PolicySpec::CoatOpt => Box::new(CoatOpt::new()),
            PolicySpec::LoadBalance => Box::new(LoadBalance::new()),
        }
    }
}

/// A server power model in the sweep's server set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerSpec {
    /// The NTC many-core server (Table 1).
    Ntc,
    /// The conventional Xeon E5-2620 reference.
    Conventional,
}

impl ServerSpec {
    /// Instantiates the power model.
    pub fn model(&self) -> ServerPowerModel {
        match self {
            ServerSpec::Ntc => ServerPowerModel::ntc(),
            ServerSpec::Conventional => ServerPowerModel::conventional_e5_2620(),
        }
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            ServerSpec::Ntc => "NTC",
            ServerSpec::Conventional => "conv",
        }
    }
}

/// The forecast pipeline shared by every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Perfect predictions (the actual traces) — isolates allocation
    /// quality from forecast quality.
    Oracle,
    /// The paper's pipeline: ARIMA retrained daily on all history.
    Arima,
    /// Same-time-yesterday baseline.
    SeasonalNaive,
}

impl PredictorSpec {
    /// The day-ahead predictor for fleets sampled `samples_per_day`
    /// times a day, or `None` for oracle predictions.
    pub(crate) fn build(&self, samples_per_day: usize) -> Option<Box<dyn Predictor>> {
        match self {
            PredictorSpec::Oracle => None,
            PredictorSpec::Arima => Some(Box::new(ArimaPredictor::daily(samples_per_day))),
            PredictorSpec::SeasonalNaive => Some(Box::new(SeasonalNaive::new(samples_per_day))),
        }
    }
}

/// Ablation switches applied across the sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationFlags {
    /// Drop the Eq. 2 distance term in EPACT's memory-dominated path,
    /// scoring servers by correlation alone.
    pub correlation_only: bool,
}

/// A declarative experiment sweep: the cross product of `fleets`,
/// `static_power_scales`, `servers`, `qos_floors_mhz` and `policies`.
///
/// This is the single entry point that the CLI's sweeps, the week
/// runners of [`experiments`](crate::experiments) and the examples all
/// share; see [`spec_json`](crate::spec_json) for its JSON form.
/// Multiple fleets model seed-averaged runs (same size, different
/// seeds) or size sweeps; `static_power_scales` multiplies each server
/// model's motherboard ("static") power — the Fig. 7 knob.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Display name of the sweep.
    pub name: String,
    /// The fleet set (outermost axis of the cell cross product). Cells
    /// over the same `FleetSpec` share one generated fleet.
    pub fleets: Vec<FleetSpec>,
    /// Motherboard static-power scale factors (second axis); `1.0` is
    /// the paper's baseline server. Use `vec![1.0]` for a single arm.
    pub static_power_scales: Vec<f64>,
    /// Server-model set (third axis).
    pub servers: Vec<ServerSpec>,
    /// QoS frequency floors in MHz (fourth axis); `None` = pure
    /// demand-proportional DVFS. Use `vec![None]` for a single arm.
    pub qos_floors_mhz: Vec<Option<f64>>,
    /// Accounting-backend set (fifth axis); analytic power-model
    /// integration and/or detailed archsim accounting. Use
    /// `vec![BackendSpec::Analytic]` for the paper's single arm.
    pub backends: Vec<BackendSpec>,
    /// Policy set (innermost axis).
    pub policies: Vec<PolicySpec>,
    /// Forecast pipeline shared by every cell.
    pub predictor: PredictorSpec,
    /// Physical servers available to every cell.
    pub max_servers: usize,
    /// Sweep-wide ablation switches.
    pub ablation: AblationFlags,
    /// What the engine does with the remaining cells once one fails
    /// (default: [`FailurePolicy::KeepGoing`]).
    pub failure_policy: FailurePolicy,
}

impl ExperimentSpec {
    /// The paper's headline comparison: EPACT vs COAT vs COAT-OPT on
    /// both server models, oracle predictions, no QoS floor — six
    /// cells over one fleet.
    pub fn default_sweep() -> Self {
        Self {
            name: "policy-comparison".to_string(),
            fleets: vec![FleetSpec {
                num_vms: 48,
                seed: 2024,
                weeks: 2,
            }],
            static_power_scales: vec![1.0],
            servers: vec![ServerSpec::Ntc, ServerSpec::Conventional],
            qos_floors_mhz: vec![None],
            backends: vec![BackendSpec::Analytic],
            policies: vec![PolicySpec::Epact, PolicySpec::Coat, PolicySpec::CoatOpt],
            predictor: PredictorSpec::Oracle,
            max_servers: 600,
            ablation: AblationFlags::default(),
            failure_policy: FailurePolicy::default(),
        }
    }

    /// Replaces the fleet set with one fleet per seed, all sized like
    /// the current first fleet — the seed-averaged form of this sweep.
    ///
    /// # Panics
    ///
    /// Panics if the spec currently has no fleets to use as template.
    #[must_use]
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        let base = *self.fleets.first().expect("spec needs a template fleet");
        self.fleets = seeds
            .iter()
            .map(|&seed| FleetSpec { seed, ..base })
            .collect();
        self
    }

    /// Expands the cross product into concrete cells, in the
    /// deterministic order results are reported: fleets outermost, then
    /// static-power scales, then servers, then QoS floors, then
    /// accounting backends, then policies.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &fleet in &self.fleets {
            for &scale in &self.static_power_scales {
                for &server in &self.servers {
                    for &floor in &self.qos_floors_mhz {
                        for &backend in &self.backends {
                            for &policy in &self.policies {
                                out.push(CellSpec {
                                    fleet,
                                    static_power_scale: scale,
                                    policy,
                                    server,
                                    qos_floor_mhz: floor,
                                    backend,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks every axis before any fleet is generated.
    fn validate(&self) -> Result<(), Error> {
        if self.max_servers == 0 {
            return Err(Error::NoServers);
        }
        for fleet in &self.fleets {
            if fleet.num_vms == 0 {
                return Err(Error::NoVms);
            }
            let Some(have) = fleet.weeks.checked_mul(FleetSpec::WEEK_SAMPLES) else {
                return Err(Error::HorizonTooLong { weeks: fleet.weeks });
            };
            let need = 2 * FleetSpec::WEEK_SAMPLES;
            if have < need {
                return Err(Error::HorizonTooShort { have, need });
            }
        }
        for &scale in &self.static_power_scales {
            if !scale.is_finite() || scale < 0.0 {
                return Err(Error::BadStaticPowerScale { scale });
            }
        }
        for &mhz in self.qos_floors_mhz.iter().flatten() {
            if !mhz.is_finite() || mhz < 0.0 {
                return Err(Error::BadQosFloor { mhz });
            }
        }
        Ok(())
    }
}

/// Shared label formatting for a (policy, server, floor, scale,
/// backend) configuration — the part of a cell's identity every fleet
/// shares. The default analytic backend is elided so legacy labels
/// stay unchanged.
fn config_label(
    policy: PolicySpec,
    server: ServerSpec,
    qos_floor_mhz: Option<f64>,
    static_power_scale: f64,
    backend: BackendSpec,
    ablation: AblationFlags,
) -> String {
    let policy = policy.build(ablation);
    let mut label = match qos_floor_mhz {
        Some(mhz) => format!("{}/{}@{:.0}MHz", policy.name(), server.label(), mhz),
        None => format!("{}/{}", policy.name(), server.label()),
    };
    if static_power_scale != 1.0 {
        label.push_str(&format!("/sp{static_power_scale:.2}"));
    }
    if backend != BackendSpec::Analytic {
        label.push('/');
        label.push_str(backend.label());
    }
    label
}

/// One (policy, configuration) cell of a sweep, carrying the full
/// identity of its arm: fleet, static-power scale, policy, server and
/// QoS floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The fleet this cell runs over.
    pub fleet: FleetSpec,
    /// Motherboard static-power scale applied to the server model
    /// (`1.0` = unmodified).
    pub static_power_scale: f64,
    /// The allocation policy under evaluation.
    pub policy: PolicySpec,
    /// The server power model.
    pub server: ServerSpec,
    /// Optional QoS frequency floor in MHz.
    pub qos_floor_mhz: Option<f64>,
    /// The accounting backend pricing this cell's governed slots.
    pub backend: BackendSpec,
}

impl CellSpec {
    /// Human-readable cell label, e.g. `EPACT/NTC`,
    /// `COAT/conv@1800MHz`, `EPACT/NTC/sp0.50` for a scaled arm or
    /// `EPACT/NTC/archsim` for a non-default backend. The fleet is not
    /// part of the label — print its seed separately when a sweep
    /// spans several.
    pub fn label(&self, ablation: AblationFlags) -> String {
        config_label(
            self.policy,
            self.server,
            self.qos_floor_mhz,
            self.static_power_scale,
            self.backend,
            ablation,
        )
    }

    /// The server power model with this cell's static-power scale
    /// applied to the motherboard component.
    pub fn server_model(&self) -> ServerPowerModel {
        let model = self.server.model();
        if self.static_power_scale == 1.0 {
            return model;
        }
        let motherboard = model.uncore().motherboard();
        model.with_static_power(motherboard * self.static_power_scale)
    }
}

/// One evaluated cell: its spec, the week outcome and the cell's own
/// wall-clock.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that was run.
    pub cell: CellSpec,
    /// The evaluated week.
    pub outcome: WeekOutcome,
    /// Plan/forecast cache hits and misses of this cell's run.
    pub cache: CacheStats,
    /// Wall-clock time this cell took on its worker (in an oracle
    /// sweep, the first cell touching a fleet pays its generation here;
    /// a forecasting sweep generates its fleets and fits its forecasts
    /// before any cell starts).
    pub wall: Duration,
}

/// A finished sweep — possibly partial: cells that completed in spec
/// order, plus a [`CellError`] for every cell that panicked or was
/// skipped by [`FailurePolicy::FailFast`]. A clean sweep has an empty
/// [`failures`](SweepResult::failures) vector and behaves exactly as
/// before.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One outcome per *completed* cell, in [`ExperimentSpec::cells`]
    /// order. Failed cells are absent here and present in
    /// [`failures`](SweepResult::failures) instead.
    pub cells: Vec<CellOutcome>,
    /// Every cell that did not complete, in spec order, with the
    /// pipeline stage and cause captured per cell.
    pub failures: Vec<CellError>,
    /// End-to-end wall-clock including fleet generation.
    pub wall: Duration,
    /// Worker threads the engine used.
    pub threads: usize,
    /// Cache counters recorded outside every cell: each day forecast
    /// the engine fitted up front, before the cells ran, is one
    /// forecast miss here (see [`Engine`]).
    pub sweep_cache: CacheStats,
}

impl SweepResult {
    /// The cells that completed, in spec order — an alias for
    /// [`cells`](SweepResult::cells) that reads well next to
    /// [`failed`](SweepResult::failed).
    pub fn succeeded(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// The cells that failed (or were skipped by fail-fast), in spec
    /// order; empty for a clean sweep.
    pub fn failed(&self) -> &[CellError] {
        &self.failures
    }

    /// Whether every cell of the spec completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Cells the spec expanded to, completed or not.
    pub fn total_cells(&self) -> usize {
        self.cells.len() + self.failures.len()
    }

    /// The week outcomes alone, in spec order — the payload determinism
    /// checks compare (per-cell wall-clock is scheduling noise).
    pub fn outcomes(&self) -> Vec<&WeekOutcome> {
        self.cells.iter().map(|c| &c.outcome).collect()
    }

    /// Plan/forecast cache hits and misses summed over every cell and
    /// the engine's up-front forecasts — what `ntcdc sweep
    /// --cache-stats` prints.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = self.sweep_cache;
        for cell in &self.cells {
            total.merge(cell.cache);
        }
        total
    }

    /// Aggregates the cells over the fleet axis: every (policy, server,
    /// QoS floor, static-power scale, backend) configuration becomes
    /// one group with mean and sample standard deviation of its
    /// headline metrics across the fleets (seeds) that ran it. Groups
    /// appear in first spec-order occurrence, so a single-fleet sweep
    /// degenerates to one group per cell with zero spread. Failed
    /// cells are simply absent, so a group's `runs` may be smaller
    /// than the fleet set — the statistics stay NaN-free because
    /// [`MeanStd::of`] handles short samples.
    pub fn seed_groups(&self) -> Vec<GroupOutcome> {
        // f64 axes are compared by bit pattern: all values of one group
        // originate from the same spec literal, so bits match exactly.
        type Key = (PolicySpec, ServerSpec, Option<u64>, u64, BackendSpec);
        let mut keys: Vec<Key> = Vec::new();
        let mut buckets: Vec<Vec<&CellOutcome>> = Vec::new();
        for cell in &self.cells {
            let key = (
                cell.cell.policy,
                cell.cell.server,
                cell.cell.qos_floor_mhz.map(f64::to_bits),
                cell.cell.static_power_scale.to_bits(),
                cell.cell.backend,
            );
            match keys.iter().position(|k| *k == key) {
                Some(i) => buckets[i].push(cell),
                None => {
                    keys.push(key);
                    buckets.push(vec![cell]);
                }
            }
        }
        buckets
            .into_iter()
            .map(|cells| {
                let first = cells[0].cell;
                let stat = |f: &dyn Fn(&WeekOutcome) -> f64| {
                    MeanStd::of(&cells.iter().map(|c| f(&c.outcome)).collect::<Vec<_>>())
                };
                GroupOutcome {
                    policy: first.policy,
                    server: first.server,
                    qos_floor_mhz: first.qos_floor_mhz,
                    static_power_scale: first.static_power_scale,
                    backend: first.backend,
                    runs: cells.len(),
                    energy_mj: stat(&|o| o.total_energy().as_megajoules()),
                    violations: stat(&|o| o.total_violations() as f64),
                    migrations: stat(&|o| o.total_migrations() as f64),
                    mean_active_servers: stat(&|o| o.mean_active_servers()),
                }
            })
            .collect()
    }
}

/// One seed-averaged configuration of a sweep: the headline metrics of
/// every fleet that ran this (policy, server, floor, scale) arm,
/// collapsed to mean ± sample standard deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// The allocation policy of this group.
    pub policy: PolicySpec,
    /// The server power model of this group.
    pub server: ServerSpec,
    /// Optional QoS frequency floor in MHz.
    pub qos_floor_mhz: Option<f64>,
    /// Motherboard static-power scale of this group.
    pub static_power_scale: f64,
    /// The accounting backend of this group.
    pub backend: BackendSpec,
    /// Fleets (seeds/sizes) aggregated into this group.
    pub runs: usize,
    /// Total energy over the horizon, megajoules.
    pub energy_mj: MeanStd,
    /// Total SLA violations over the horizon.
    pub violations: MeanStd,
    /// Total VM migrations over the horizon.
    pub migrations: MeanStd,
    /// Mean number of active servers.
    pub mean_active_servers: MeanStd,
}

impl GroupOutcome {
    /// Human-readable group label — the cell label minus the fleet.
    pub fn label(&self, ablation: AblationFlags) -> String {
        config_label(
            self.policy,
            self.server,
            self.qos_floor_mhz,
            self.static_power_scale,
            self.backend,
            ablation,
        )
    }
}

/// Parallel experiment runner over [`ExperimentSpec`] cells.
///
/// Cells are pulled off a shared atomic counter by `threads` scoped
/// workers and written into their spec-order slots, so results are
/// bit-identical however the cells are scheduled; a
/// `with_threads(1)` engine runs them all on the calling thread, the
/// reference every parallel run must match. Each cell runs under
/// `catch_unwind`; see [`SweepResult::failed`] and the
/// [`fault`](crate::fault) module.
///
/// The engine always shares work between cells. Each distinct fleet
/// is generated once. Cells whose planning inputs coincide — QoS-floor
/// and backend arms, or static-power-scale arms of a policy that plans
/// at `Fmax` — share one plan per slot, and all cells over a fleet
/// share its day-ahead forecasts. A forecasting sweep fits those
/// forecasts before the cells start: its workers generate each
/// distinct fleet, then claim chunks of the days' series. Each fitted
/// day counts one forecast miss in [`SweepResult::sweep_cache`], and
/// each cell that reads it one hit; a plan counts one miss where it is
/// computed and one hit per cell that reuses it. Every shared value is
/// a pure function of the spec, so each cell's outcome is bit-identical
/// to the same cell run alone through [`WeekSim`], which plans every
/// slot on the same numerical path.
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
    fault: Option<FaultSpec>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine sized from [`std::thread::available_parallelism`]
    /// (1 if that is unavailable).
    pub fn new() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// An engine with an explicit worker count, clamped to at least 1 —
    /// `with_threads(0)` yields a sequential engine, never an empty
    /// pool.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            fault: None,
        }
    }

    /// Arms a deterministic [`FaultSpec`] for the next run — the
    /// test/chaos instrument behind the engine's isolation guarantee.
    /// The targeted cell fails at the targeted stage; every other cell
    /// must (and, by test, does) stay bit-identical to a clean run.
    /// Not part of [`ExperimentSpec`] on purpose: a fault is a
    /// property of one engine invocation, never of the serialized
    /// experiment.
    #[must_use]
    pub fn inject_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The worker-pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `spec` across the worker pool, returning
    /// outcomes in spec order.
    ///
    /// # Errors
    ///
    /// Returns an error only for a sweep that cannot start at all: any
    /// fleet is empty, shorter than two weeks or too long to count its
    /// samples in a `usize`, `max_servers == 0`, a
    /// static-power scale or QoS floor is negative or non-finite, or
    /// the (valid) spec expands to no cells. These are all the
    /// conditions a cell's setup relies on, so no spec error reaches a
    /// cell.
    /// *Per-cell* failures — panics inside a running cell — do not
    /// surface here: the sweep completes under the spec's
    /// [`FailurePolicy`] and reports them in [`SweepResult::failed`].
    pub fn run(&self, spec: &ExperimentSpec) -> Result<SweepResult, Error> {
        let started = Instant::now();
        // Axis contents are validated before emptiness so an invalid
        // *and* empty spec reports its actual root cause, not the
        // secondary EmptySpec symptom.
        spec.validate()?;
        let cells = spec.cells();
        if cells.is_empty() {
            return Err(Error::EmptySpec);
        }
        let caches = SweepCaches {
            fleets: OnceTable::new(1, spec.fleets.iter().copied()),
            plans: OnceTable::new(EVAL_SLOTS, cells.iter().map(|c| PlanKey::new(spec, c))),
            forecasts: (spec.predictor != PredictorSpec::Oracle)
                .then(|| OnceTable::new(EVAL_DAYS, spec.fleets.iter().copied())),
        };

        // Forecasting sweeps fit every day forecast up front, across
        // the whole pool; the cells then find each one filled.
        let sweep_cache = match &caches.forecasts {
            Some(forecasts) => forecast_up_front(spec, &caches.fleets, forecasts, self.threads),
            None => CacheStats::default(),
        };

        let workers = self.threads.min(cells.len()).max(1);
        let abort = AtomicBool::new(false);
        // OnceLock slots are poison-free by construction: a worker
        // panic can never turn into a second PoisonError panic at
        // collection time, and every slot is written exactly once.
        let slots: Vec<OnceLock<Result<CellOutcome, CellError>>> =
            cells.iter().map(|_| OnceLock::new()).collect();
        let run = RunControl {
            fault: self.fault,
            policy: spec.failure_policy,
            abort: &abort,
        };
        for_each_claimed(workers, cells.len(), |i| {
            claim_cell(i, &cells[i], &slots[i], spec, &caches, &run);
        });

        let mut done = Vec::new();
        let mut failures = Vec::new();
        for slot in slots {
            match slot
                .into_inner()
                .expect("every index below cells.len() was claimed")
            {
                Ok(outcome) => done.push(outcome),
                Err(failure) => failures.push(failure),
            }
        }
        Ok(SweepResult {
            cells: done,
            failures,
            wall: started.elapsed(),
            threads: workers,
            sweep_cache,
        })
    }
}

/// Every shared table one sweep's workers draw on: the lazily
/// generated fleets, one per distinct [`FleetSpec`], the deduplicated
/// plan rows and, in a forecasting sweep, the per-fleet day forecasts.
#[derive(Debug)]
struct SweepCaches {
    fleets: OnceTable<FleetSpec, Fleet>,
    plans: OnceTable<PlanKey, SlotPlan>,
    forecasts: Option<OnceTable<FleetSpec, DayForecast>>,
}

/// The per-run failure machinery shared by every worker: the armed
/// fault (if any), the spec's failure policy and the fail-fast abort
/// flag.
#[derive(Debug)]
struct RunControl<'a> {
    fault: Option<FaultSpec>,
    policy: FailurePolicy,
    abort: &'a AtomicBool,
}

/// Runs `job(i)` for every `i < count` on up to `workers` scoped
/// threads (on the calling thread when one suffices). Each worker
/// claims the next unclaimed index off one shared counter until none
/// remain, so jobs balance however long each takes. The engine's one
/// claim loop: it drives the up-front forecast fits and the cells.
fn for_each_claimed(workers: usize, count: usize, job: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        job(i);
    };
    let workers = workers.min(count);
    if workers <= 1 {
        drain();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(drain);
            }
        });
    }
}

/// Runs claimed cell `i` and writes its `Result` into its spec-order
/// slot.
///
/// The cell runs under `catch_unwind`, and a panic is the one way it
/// fails: the panic becomes a [`CellError`] attributed to the stage
/// the worker's thread-local tracker last entered (the whole cell runs
/// on this thread, so the tracker is exact). Under
/// [`FailurePolicy::FailFast`] any failure raises the shared abort flag
/// and unstarted cells are recorded as [`FailureCause::Skipped`]; cells
/// already running on other workers finish normally.
fn claim_cell(
    i: usize,
    cell: &CellSpec,
    slot: &OnceLock<Result<CellOutcome, CellError>>,
    spec: &ExperimentSpec,
    caches: &SweepCaches,
    run: &RunControl<'_>,
) {
    let result = if run.abort.load(Ordering::Relaxed) {
        Err(FailureCause::Skipped)
    } else {
        fault::arm(run.fault.as_ref(), i);
        let caught = catch_unwind(AssertUnwindSafe(|| run_cell(spec, caches, cell)));
        fault::disarm();
        caught.map_err(|payload| FailureCause::Panic {
            stage: fault::current_stage(),
            payload: panic_message(payload),
        })
    };
    if result.is_err() && run.policy == FailurePolicy::FailFast {
        run.abort.store(true, Ordering::Relaxed);
    }
    let result = result.map_err(|cause| CellError {
        index: i,
        label: cell.label(spec.ablation),
        cell: *cell,
        cause,
    });
    slot.set(result)
        .expect("each cell index is claimed exactly once");
}

/// Forecast series one claim of the up-front step fits: enough that
/// claiming costs nothing next to the fits (about 100 µs each for
/// ARIMA), few enough that the last claims balance across workers.
const SERIES_PER_CLAIM: usize = 16;

/// Fits every day forecast of `table` before any cell runs, on up to
/// `threads` workers, and returns the step's counters: one forecast
/// miss per day forecast it stored.
///
/// The first claims generate each distinct fleet through the fleet
/// table; the rest fit [`SERIES_PER_CLAIM`] series of one (fleet, day)
/// forecast each. Once every worker is done, each day whose series all
/// succeeded is assembled in VM order and stored in its lock. Each
/// claim runs under `catch_unwind`, so a panicking fit only leaves its
/// day's lock empty: the cell that needs the day then computes it in
/// its own forecast stage, which reports any failure as that cell's.
fn forecast_up_front(
    spec: &ExperimentSpec,
    fleets: &OnceTable<FleetSpec, Fleet>,
    table: &OnceTable<FleetSpec, DayForecast>,
    threads: usize,
) -> CacheStats {
    /// One (fleet, day) forecast: its lock and a slot per series.
    struct Day<'t> {
        fleet: &'t FleetSpec,
        day: usize,
        lock: &'t OnceLock<Arc<DayForecast>>,
        series: Vec<OnceLock<TimeSeries>>,
    }
    let keys: Vec<&FleetSpec> = table.rows().map(|(key, _)| key).collect();
    let days: Vec<Day<'_>> = table
        .rows()
        .flat_map(|(fleet, row)| {
            row.iter().enumerate().map(move |(day, lock)| Day {
                fleet,
                day,
                lock,
                series: (0..DayForecast::series_count(fleet.num_vms))
                    .map(|_| OnceLock::new())
                    .collect(),
            })
        })
        .collect();
    let claims: Vec<(&Day<'_>, Range<usize>)> = days
        .iter()
        .flat_map(|day| {
            let n = day.series.len();
            (0..n)
                .step_by(SERIES_PER_CLAIM)
                .map(move |s| (day, s..n.min(s + SERIES_PER_CLAIM)))
        })
        .collect();

    for_each_claimed(threads, keys.len() + claims.len(), |job| {
        // A panic leaves the claim's slots (or fleet lock) empty.
        let _ = catch_unwind(AssertUnwindSafe(|| match job.checked_sub(keys.len()) {
            None => drop(fleet_of(fleets, keys[job])),
            Some(claim) => {
                let (day, series) = &claims[claim];
                let fleet = fleet_of(fleets, day.fleet);
                let per_day = fleet.grid().samples_per_day();
                let Some(predictor) = spec.predictor.build(per_day) else {
                    return;
                };
                for s in series.clone() {
                    let forecast = forecast_series(predictor.as_ref(), &fleet, day.day, s);
                    let _ = day.series[s].set(forecast);
                }
            }
        }));
    });

    let mut stats = CacheStats::default();
    for day in days {
        let series: Option<Vec<TimeSeries>> =
            day.series.into_iter().map(OnceLock::into_inner).collect();
        if let Some(series) = series {
            let (_, computed) =
                fetch_or_compute(Some(day.lock), || DayForecast::from_series(series));
            stats.forecast_misses += usize::from(computed);
        }
    }
    stats
}

/// `spec`'s fleet, generated on first use through the fleet table.
fn fleet_of(fleets: &OnceTable<FleetSpec, Fleet>, spec: &FleetSpec) -> Arc<Fleet> {
    fetch_or_compute(fleets.row(spec).first(), || spec.generate()).0
}

/// Renders a caught panic payload; `panic!` carries `&str` or `String`
/// in practice, anything else gets a placeholder.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates one cell: resolve the fleet through its table, build the
/// simulator with the scaled server model, instantiate the policy and
/// predictor, run the week with this cell's plan and forecast rows
/// attached (a forecast row the up-front step filled is only read).
/// Pure in (spec, cell) — every cache initializer is a deterministic
/// function of the spec, so the determinism guarantee still rests here
/// whichever worker wins a lock race. (A panicking
/// initializer leaves its `OnceLock` unset, so a faulted cell cannot
/// corrupt a shared cache either — siblings recompute the same value.)
///
/// Nothing here reports an error: [`ExperimentSpec::validate`] has
/// already rejected every spec the setup stage could not build, so
/// whatever does go wrong is a panic, caught in [`claim_cell`].
fn run_cell(spec: &ExperimentSpec, caches: &SweepCaches, cell: &CellSpec) -> CellOutcome {
    let started = Instant::now();
    fault::enter(CellStage::Fleet);
    let fleet = fleet_of(&caches.fleets, &cell.fleet);
    fault::enter(CellStage::Setup);
    let mut builder = WeekSim::builder(&fleet, cell.server_model(), spec.max_servers)
        .backend(cell.backend.build(cell.server));
    if let Some(mhz) = cell.qos_floor_mhz {
        builder = builder.qos_floor(Frequency::from_mhz(mhz));
    }
    let sim = builder.build_or_panic();
    let policy = cell.policy.build(spec.ablation);
    let per_day = fleet.grid().samples_per_day();
    let run_caches = RunCaches {
        plans: Some(caches.plans.row(&PlanKey::new(spec, cell))),
        forecasts: caches.forecasts.as_ref().map(|f| f.row(&cell.fleet)),
    };
    let predictor = spec.predictor.build(per_day);
    let (outcome, cache) = sim.run_counted(policy.as_ref(), predictor.as_deref(), &run_caches);
    CellOutcome {
        cell: *cell,
        outcome,
        cache,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::default_sweep();
        spec.fleets[0].num_vms = 12;
        spec.max_servers = 100;
        spec.servers = vec![ServerSpec::Ntc];
        spec
    }

    #[test]
    fn cells_expand_in_spec_order() {
        let spec = ExperimentSpec::default_sweep();
        let cells = spec.cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].policy, PolicySpec::Epact);
        assert_eq!(cells[0].server, ServerSpec::Ntc);
        assert_eq!(cells[3].server, ServerSpec::Conventional);
    }

    #[test]
    fn fleet_and_scale_axes_multiply_cells() {
        let spec = tiny_spec()
            .with_seeds(&[1, 2, 3])
            .tap(|s| s.static_power_scales = vec![0.5, 1.0]);
        let cells = spec.cells();
        // 3 fleets x 2 scales x 1 server x 1 floor x 3 policies
        assert_eq!(cells.len(), 18);
        // fleets outermost: first 6 cells share seed 1
        assert!(cells[..6].iter().all(|c| c.fleet.seed == 1));
        assert_eq!(cells[0].static_power_scale, 0.5);
        assert_eq!(cells[3].static_power_scale, 1.0);
        assert_eq!(cells[6].fleet.seed, 2);
    }

    /// Small helper so the fixture above stays an expression.
    trait Tap: Sized {
        fn tap(self, f: impl FnOnce(&mut Self)) -> Self;
    }
    impl Tap for ExperimentSpec {
        fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }

    #[test]
    fn claim_loop_runs_every_job_once() {
        for workers in [1, 3] {
            let runs: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            for_each_claimed(workers, runs.len(), |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
        for_each_claimed(2, 0, |_| unreachable!("no jobs to claim"));
    }

    #[test]
    fn empty_policy_set_is_rejected() {
        let mut spec = tiny_spec();
        spec.policies.clear();
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert!(matches!(err, Error::EmptySpec));
    }

    #[test]
    fn empty_fleet_set_is_rejected() {
        let mut spec = tiny_spec();
        spec.fleets.clear();
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert!(matches!(err, Error::EmptySpec));
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let mut spec = tiny_spec();
        spec.fleets[0].num_vms = 0;
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert!(matches!(err, Error::NoVms));
    }

    #[test]
    fn invalid_and_empty_spec_reports_the_validation_error() {
        // Pins the ordering fix: validation runs before the emptiness
        // check, so a spec that is invalid AND expands to no cells
        // names its real root cause instead of EmptySpec.
        let mut spec = tiny_spec();
        spec.policies.clear();
        spec.fleets[0].num_vms = 0;
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert!(matches!(err, Error::NoVms), "got {err:?}");
    }

    #[test]
    fn faulted_cell_becomes_a_failure_not_a_crash() {
        // A panic is reported at the stage it struck, whether the
        // engine (fleet, setup) or the slot pipeline was running.
        let spec = tiny_spec();
        for stage in [
            CellStage::Fleet,
            CellStage::Setup,
            CellStage::Plan,
            CellStage::Govern,
            CellStage::Account,
        ] {
            let sweep = Engine::with_threads(2)
                .inject_fault(FaultSpec::panic_at(1, stage))
                .run(&spec)
                .unwrap();
            assert_eq!(sweep.total_cells(), 3);
            assert!(!sweep.is_complete());
            assert_eq!(sweep.succeeded().len(), 2);
            let failure = &sweep.failed()[0];
            assert_eq!(failure.index, 1);
            assert_eq!(failure.label, "COAT/NTC");
            assert_eq!(failure.stage(), Some(stage));
            assert_eq!(failure.kind_label(), "panic");
            assert_eq!(
                failure.to_string(),
                format!(
                    "cell 1 (COAT/NTC) panicked at stage {stage}: injected fault at stage {stage}"
                )
            );
        }
    }

    #[test]
    fn fail_fast_skips_unstarted_cells() {
        let mut spec = tiny_spec();
        spec.failure_policy = FailurePolicy::FailFast;
        // One worker makes the claim order deterministic: cell 0
        // completes, cell 1 faults, cell 2 is skipped.
        let sweep = Engine::with_threads(1)
            .inject_fault(FaultSpec::panic_at(1, CellStage::Plan))
            .run(&spec)
            .unwrap();
        assert_eq!(sweep.succeeded().len(), 1);
        assert_eq!(sweep.failed().len(), 2);
        assert_eq!(sweep.failed()[0].stage(), Some(CellStage::Plan));
        assert_eq!(sweep.failed()[1].stage(), None);
        assert_eq!(sweep.failed()[1].kind_label(), "skipped");
    }

    #[test]
    fn short_horizon_is_rejected() {
        let mut spec = tiny_spec();
        spec.fleets[0].weeks = 1;
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert!(matches!(err, Error::HorizonTooShort { .. }));
        // The shortest horizon whose sample count overflows a `usize`:
        // rejected in every build, not wrapped or panicking.
        let weeks = usize::MAX / FleetSpec::WEEK_SAMPLES + 1;
        spec.fleets[0].weeks = weeks;
        let err = Engine::with_threads(2).run(&spec).unwrap_err();
        assert_eq!(err, Error::HorizonTooLong { weeks });
    }

    #[test]
    fn bad_static_power_scale_is_rejected() {
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let mut spec = tiny_spec();
            spec.static_power_scales = vec![1.0, bad];
            let err = Engine::with_threads(2).run(&spec).unwrap_err();
            assert!(
                matches!(err, Error::BadStaticPowerScale { .. }),
                "{bad} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn bad_qos_floor_is_rejected() {
        // A floor no frequency can take is a spec error, reported
        // before any cell runs rather than as a failed cell.
        for bad in [-500.0, f64::NAN, f64::INFINITY] {
            let mut spec = tiny_spec();
            spec.qos_floors_mhz = vec![None, Some(bad)];
            let err = Engine::with_threads(2).run(&spec).unwrap_err();
            assert!(
                matches!(err, Error::BadQosFloor { .. }),
                "{bad} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn with_threads_zero_clamps_to_one() {
        // Regression: a zero-thread pool must not be constructible —
        // it would spawn no workers and hang/return nothing.
        let engine = Engine::with_threads(0);
        assert_eq!(engine.threads(), 1);
        let sweep = engine.run(&tiny_spec()).unwrap();
        assert_eq!(sweep.threads, 1);
        assert_eq!(sweep.cells.len(), 3);
    }

    #[test]
    fn sweep_reports_cells_in_spec_order() {
        let spec = tiny_spec();
        let sweep = Engine::with_threads(4).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 3);
        let names: Vec<&str> = sweep
            .cells
            .iter()
            .map(|c| c.outcome.policy.as_str())
            .collect();
        assert_eq!(names, ["EPACT", "COAT", "COAT-OPT"]);
    }

    #[test]
    fn ablation_flag_reaches_epact() {
        let mut spec = tiny_spec();
        spec.policies = vec![PolicySpec::Epact];
        spec.ablation.correlation_only = true;
        let sweep = Engine::with_threads(1).run(&spec).unwrap();
        assert_eq!(sweep.cells[0].outcome.policy, "EPACT-corrOnly");
    }

    #[test]
    fn qos_floor_axis_multiplies_cells() {
        let mut spec = tiny_spec();
        spec.qos_floors_mhz = vec![None, Some(1800.0)];
        let sweep = Engine::with_threads(4).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 6);
        // The floored arms can only cost energy.
        for (plain, floored) in sweep.cells[..3].iter().zip(&sweep.cells[3..]) {
            assert_eq!(plain.cell.policy, floored.cell.policy);
            assert!(floored.outcome.total_energy() >= plain.outcome.total_energy());
        }
    }

    #[test]
    fn backend_axis_multiplies_cells_and_dedups_plans() {
        let mut spec = tiny_spec();
        spec.policies = vec![PolicySpec::Epact];
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        let sweep = Engine::with_threads(2).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 2);
        assert_eq!(sweep.cells[0].cell.backend, BackendSpec::Analytic);
        assert_eq!(sweep.cells[1].cell.backend, BackendSpec::Archsim);
        // The upstream stages are backend-independent: same plans,
        // same migrations and server counts; only pricing differs.
        let (a, b) = (&sweep.cells[0].outcome, &sweep.cells[1].outcome);
        assert_eq!(a.total_migrations(), b.total_migrations());
        assert_eq!(a.mean_active_servers(), b.mean_active_servers());
        let groups = sweep.seed_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].backend, BackendSpec::Analytic);
        assert_eq!(groups[1].backend, BackendSpec::Archsim);
        assert!(groups[1].label(spec.ablation).ends_with("/archsim"));
        assert!(!groups[0].label(spec.ablation).contains("analytic"));
        // Cross-backend plan dedup is sound (empty backend
        // fingerprints): EPACT's 168 slots are planned once and hit by
        // the sibling cell, whichever worker wins each race.
        let totals = sweep.cache_totals();
        assert_eq!(totals.plan_misses, 168);
        assert_eq!(totals.plan_hits, 168);
    }

    #[test]
    fn duplicate_fleets_share_one_generation() {
        // Two identical FleetSpecs dedup to one cache entry, and their
        // cells produce identical outcomes.
        let mut spec = tiny_spec();
        spec.fleets = vec![spec.fleets[0], spec.fleets[0]];
        spec.policies = vec![PolicySpec::Epact];
        let sweep = Engine::with_threads(2).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 2);
        assert_eq!(sweep.cells[0].outcome, sweep.cells[1].outcome);
        let groups = sweep.seed_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].runs, 2);
        assert_eq!(groups[0].energy_mj.std, 0.0);
    }

    #[test]
    fn seed_groups_average_over_the_fleet_axis() {
        let mut spec = tiny_spec().with_seeds(&[5, 6]);
        spec.policies = vec![PolicySpec::Epact, PolicySpec::Coat];
        let sweep = Engine::with_threads(4).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 4);
        let groups = sweep.seed_groups();
        assert_eq!(groups.len(), 2);
        for (g, policy) in groups.iter().zip([PolicySpec::Epact, PolicySpec::Coat]) {
            assert_eq!(g.policy, policy);
            assert_eq!(g.runs, 2);
            let per_seed: Vec<f64> = sweep
                .cells
                .iter()
                .filter(|c| c.cell.policy == policy)
                .map(|c| c.outcome.total_energy().as_megajoules())
                .collect();
            let mean = (per_seed[0] + per_seed[1]) / 2.0;
            assert!((g.energy_mj.mean - mean).abs() < 1e-9);
            assert!(g.energy_mj.std >= 0.0);
        }
    }

    #[test]
    fn static_power_scale_raises_energy() {
        let mut spec = tiny_spec();
        spec.policies = vec![PolicySpec::Epact];
        spec.static_power_scales = vec![0.5, 2.0];
        let sweep = Engine::with_threads(2).run(&spec).unwrap();
        assert_eq!(sweep.cells.len(), 2);
        assert!(
            sweep.cells[0].outcome.total_energy() < sweep.cells[1].outcome.total_energy(),
            "more static power must cost more energy"
        );
    }
}
