//! The traced replay: one cell's week, rebuilt from the layers' public
//! calls in `WeekSim`'s stage order, with a span around each call.
//!
//! Per planning period the replay forecasts the day
//! ([`Predictor::forecast`] per VM), builds the day's moment caches
//! ([`DayCache::with_block_size`]), plans
//! ([`SlotContext::new`] + [`SlotContext::with_day_window`] +
//! [`AllocationPolicy::allocate`]) and counts migrations
//! ([`ntc_core::migration_count`]); per slot it governs every active
//! server-sample ([`DvfsGovernor::govern_sample`] into a
//! [`GovernedSlot`]) and prices the slot ([`SlotBackend::account`]).
//! Window copies and per-server aggregation run outside any span; they
//! are the week's residual. The result must equal the untraced
//! `WeekSim` run bit for bit, or the trace is invalid.

use std::ops::Range;
use std::rc::Rc;

use ntc_core::{AllocationPolicy, DvfsGovernor, SlotContext, SlotPlan};
use ntc_datacenter::{
    CellSpec, ExperimentSpec, GovernedSlot, PredictorSpec, SlotBackend, SlotOutcome, WeekOutcome,
    WeekSim,
};
use ntc_forecast::{ArimaPredictor, Predictor, SeasonalNaive};
use ntc_trace::{DayCache, TimeSeries};
use ntc_units::Frequency;
use ntc_workload::{Fleet, MemClass};

use crate::span::Tracer;

/// The predictor a spec's cells forecast with (`None` for the oracle).
pub fn predictor(spec: &ExperimentSpec, fleet: &Fleet) -> Option<Box<dyn Predictor>> {
    let per_day = fleet.grid().samples_per_day();
    match spec.predictor {
        PredictorSpec::Oracle => None,
        PredictorSpec::Arima => Some(Box::new(ArimaPredictor::daily(per_day))),
        PredictorSpec::SeasonalNaive => Some(Box::new(SeasonalNaive::new(per_day))),
    }
}

/// Runs `policy` on `cell`'s configuration through an untraced,
/// uncached `WeekSim`, built as the engine builds it.
pub fn run_week(
    fleet: &Fleet,
    spec: &ExperimentSpec,
    cell: &CellSpec,
    policy: &dyn AllocationPolicy,
) -> WeekOutcome {
    let mut builder = WeekSim::builder(fleet, cell.server_model(), spec.max_servers)
        .backend(cell.backend.build(cell.server));
    if let Some(mhz) = cell.qos_floor_mhz {
        builder = builder.qos_floor(Frequency::from_mhz(mhz));
    }
    let sim = builder.build_or_panic();
    match predictor(spec, fleet) {
        Some(p) => sim.run(policy, p.as_ref()),
        None => sim.run_with_oracle(policy),
    }
}

/// Per-VM CPU and memory windows of the actual traces over `range`.
pub fn actual_windows(fleet: &Fleet, range: Range<usize>) -> (Vec<TimeSeries>, Vec<TimeSeries>) {
    let cut = |pick: fn(&ntc_workload::Vm) -> &TimeSeries| {
        fleet
            .vms()
            .iter()
            .map(|v| pick(v).window(range.clone()))
            .collect()
    };
    (cut(|v| &v.cpu), cut(|v| &v.mem))
}

/// Sample index where the evaluation week (the fleet's last) begins.
pub fn eval_start(fleet: &Fleet) -> usize {
    fleet.grid().len() - 7 * fleet.grid().samples_per_day()
}

fn class_rank(class: MemClass) -> u8 {
    match class {
        MemClass::Low => 0,
        MemClass::Mid => 1,
        MemClass::High => 2,
    }
}

/// Reusable per-slot buffers: actual windows, per-server aggregates,
/// occupancy and each server's dominant memory class.
#[derive(Debug, Default)]
pub struct SlotState {
    actual_cpu: Vec<TimeSeries>,
    actual_mem: Vec<TimeSeries>,
    per_server_cpu: Vec<TimeSeries>,
    per_server_mem: Vec<TimeSeries>,
    occupancy: Vec<bool>,
    dominant: Vec<MemClass>,
}

impl SlotState {
    /// Derives occupancy and dominant classes from a new plan.
    pub fn adopt(&mut self, fleet: &Fleet, plan: &SlotPlan) {
        self.occupancy.clear();
        self.occupancy.resize(plan.num_servers(), false);
        self.dominant.clear();
        self.dominant.resize(plan.num_servers(), MemClass::Low);
        for (vm, &srv) in plan.assignments().iter().enumerate() {
            self.occupancy[srv] = true;
            let class = fleet.vms()[vm].class;
            if class_rank(class) > class_rank(self.dominant[srv]) {
                self.dominant[srv] = class;
            }
        }
    }

    /// Copies the slot's actual windows and sums them per server.
    pub fn aggregate(&mut self, fleet: &Fleet, plan: &SlotPlan, range: Range<usize>) {
        let n = fleet.len();
        self.actual_cpu.resize(n, TimeSeries::zeros(0));
        self.actual_mem.resize(n, TimeSeries::zeros(0));
        for ((cpu, mem), vm) in self
            .actual_cpu
            .iter_mut()
            .zip(self.actual_mem.iter_mut())
            .zip(fleet.vms())
        {
            cpu.copy_window_from(&vm.cpu, range.clone());
            mem.copy_window_from(&vm.mem, range.clone());
        }
        plan.aggregate_per_server_into(&self.actual_cpu, &mut self.per_server_cpu);
        plan.aggregate_per_server_into(&self.actual_mem, &mut self.per_server_mem);
    }

    /// The govern stage: one operating point per active server-sample,
    /// server-major. Returns the samples governed.
    pub fn govern(
        &self,
        governor: &DvfsGovernor,
        plan: &SlotPlan,
        qos_floor: Option<Frequency>,
        fleet: &Fleet,
        out: &mut GovernedSlot,
    ) -> usize {
        let sps = fleet.grid().samples_per_slot();
        out.reset(fleet.grid().sample_period(), sps);
        let mut samples = 0;
        for (srv, &active) in self.occupancy.iter().enumerate() {
            if !active {
                continue;
            }
            out.push_server(self.dominant[srv]);
            for k in 0..sps {
                out.push_sample(governor.govern_sample(
                    self.per_server_cpu[srv].at(k),
                    self.per_server_mem[srv].at(k),
                    plan.dvfs_ceiling(),
                    plan.dvfs_floor(),
                    qos_floor,
                ));
                samples += 1;
            }
        }
        samples
    }
}

/// What the traced replay of one cell produced.
#[derive(Debug)]
pub struct Replay {
    /// The replayed week.
    pub outcome: WeekOutcome,
    /// The plan in force in each slot.
    pub plans: Vec<Rc<SlotPlan>>,
    /// Spans of the replay; the root span is named `week`.
    pub tracer: Tracer,
    /// `Predictor::forecast` calls.
    pub forecast_calls: usize,
    /// `DayCache` pairs built.
    pub daycache_builds: usize,
    /// `allocate` calls.
    pub plan_calls: usize,
    /// Server-samples governed.
    pub governed_samples: usize,
    /// Slots accounted.
    pub accounted_slots: usize,
    /// Samples each active server is governed for per slot.
    pub samples_per_slot: usize,
}

impl Replay {
    /// Wall time of the root `week` span.
    pub fn week_time(&self) -> std::time::Duration {
        self.tracer.durations("week").iter().sum()
    }
}

/// Replays `cell`'s week over `fleet` with spans around every layer
/// call (see the [module docs](self)).
pub fn replay(fleet: &Fleet, spec: &ExperimentSpec, cell: &CellSpec) -> Replay {
    let server = cell.server_model();
    let backend: Box<dyn SlotBackend> = cell.backend.build(cell.server);
    let policy = cell.policy.build(spec.ablation);
    let predictor = predictor(spec, fleet);
    let qos_floor = cell.qos_floor_mhz.map(Frequency::from_mhz);
    let governor = DvfsGovernor::new(&server);

    let grid = fleet.grid();
    let sps = grid.samples_per_slot();
    let per_day = grid.samples_per_day();
    let slots_per_day = per_day / sps;
    let start0 = eval_start(fleet);
    let slots = (grid.len() - start0) / sps;
    let period = policy.reallocation_period_slots().clamp(1, slots_per_day);

    let mut r = Replay {
        outcome: WeekOutcome {
            policy: policy.name().to_string(),
            slots: Vec::with_capacity(slots),
        },
        plans: Vec::with_capacity(slots),
        tracer: Tracer::new(),
        forecast_calls: 0,
        daycache_builds: 0,
        plan_calls: 0,
        governed_samples: 0,
        accounted_slots: 0,
        samples_per_slot: sps,
    };
    let tracer = &mut r.tracer;
    let mut forecast: Option<(usize, Vec<TimeSeries>, Vec<TimeSeries>)> = None;
    let mut moments: Option<(usize, DayCache, DayCache)> = None;
    let mut current: Option<Rc<SlotPlan>> = None;
    let mut state = SlotState::default();
    let mut governed = GovernedSlot::new();

    let week = tracer.enter("week");
    for slot in 0..slots {
        let start = start0 + slot * sps;
        let migrations = if slot % period == 0 {
            let day = slot / slots_per_day;
            let day_start = start0 + day * per_day;
            let window_len = sps * period.min(slots - slot);
            let offset = (slot % slots_per_day) * sps;

            if let Some(p) = &predictor {
                if forecast.as_ref().map(|f| f.0) != Some(day) {
                    let span = tracer.enter("forecast");
                    let mut series = |pick: fn(&ntc_workload::Vm) -> &TimeSeries| {
                        fleet
                            .vms()
                            .iter()
                            .map(|v| {
                                let history = pick(v).window(0..day_start);
                                let s = tracer.enter("forecast.series");
                                let fc = p.forecast(&history, per_day);
                                tracer.exit(s);
                                fc
                            })
                            .collect::<Vec<_>>()
                    };
                    let cpu = series(|v| &v.cpu);
                    let mem = series(|v| &v.mem);
                    tracer.exit(span);
                    r.forecast_calls += cpu.len() + mem.len();
                    forecast = Some((day, cpu, mem));
                    moments = None;
                }
            }
            if moments.as_ref().map(|m| m.0) != Some(day) {
                let span = tracer.enter("trace");
                let (cpu, mem) = match &forecast {
                    Some((_, cpu, mem)) => (
                        DayCache::with_block_size(cpu, sps),
                        DayCache::with_block_size(mem, sps),
                    ),
                    None => {
                        let (cpu, mem) = actual_windows(fleet, day_start..day_start + per_day);
                        (
                            DayCache::with_block_size(&cpu, sps),
                            DayCache::with_block_size(&mem, sps),
                        )
                    }
                };
                tracer.exit(span);
                r.daycache_builds += 1;
                moments = Some((day, cpu, mem));
            }
            let (pred_cpu, pred_mem) = match &forecast {
                Some((_, cpu, mem)) => (
                    cpu.iter()
                        .map(|s| s.window(offset..offset + window_len))
                        .collect(),
                    mem.iter()
                        .map(|s| s.window(offset..offset + window_len))
                        .collect(),
                ),
                None => actual_windows(fleet, start..start + window_len),
            };

            let span = tracer.enter("plan");
            let mut ctx = SlotContext::new(&pred_cpu, &pred_mem, &server, spec.max_servers);
            if let Some((_, dc_cpu, dc_mem)) = &moments {
                if offset + window_len <= per_day {
                    ctx = ctx.with_day_window(dc_cpu, dc_mem, offset);
                }
            }
            let plan = Rc::new(policy.allocate(&ctx));
            tracer.exit(span);
            r.plan_calls += 1;

            let span = tracer.enter("migrate");
            let migrations = current
                .as_ref()
                .map_or(0, |prev| ntc_core::migration_count(prev, &plan));
            tracer.exit(span);
            state.adopt(fleet, &plan);
            current = Some(plan);
            migrations
        } else {
            0
        };
        let plan = current.clone().expect("plan set at period start");
        state.aggregate(fleet, &plan, start..start + sps);

        let span = tracer.enter("govern");
        r.governed_samples += state.govern(&governor, &plan, qos_floor, fleet, &mut governed);
        tracer.exit(span);

        let span = tracer.enter("account");
        let accounts = backend.account(&server, &governed);
        tracer.exit(span);
        r.accounted_slots += 1;

        r.outcome.slots.push(SlotOutcome {
            violations: accounts.violations,
            active_servers: governed.num_servers(),
            migrations,
            energy: accounts.energy,
            planned_freq: plan.planned_freq(),
            mean_freq: accounts.mean_freq(),
        });
        r.plans.push(plan);
    }
    tracer.exit(week);
    r
}
