use std::ops::Range;
use std::sync::Arc;

use ntc_core::{AllocationPolicy, DvfsGovernor, SlotContext, SlotPlan};
use ntc_forecast::Predictor;
use ntc_power::ServerPowerModel;
use ntc_trace::{DayCache, TimeSeries};
use ntc_units::Frequency;
use ntc_workload::{Fleet, MemClass};

use crate::backend::{mem_class_rank, AnalyticBackend, GovernedSlot, SlotBackend};
use crate::cache::{fetch_or_compute, CacheStats, DayForecast, RunCaches};
use crate::fault::{self, CellStage};
use crate::{SlotOutcome, WeekOutcome};

/// Drives an allocation policy over the evaluation week through the
/// staged slot pipeline: **forecast** (day-ahead predictions) →
/// **plan** (the policy packs VMs and fixes the DVFS band) →
/// **govern** (the online governor settles one operating point per
/// active server-sample) → **account** (the configured
/// [`SlotBackend`] prices those points into energy and violations).
///
/// The fleet must carry at least two weeks of traces: everything before
/// the final week is treated as predictor training history (the paper
/// trains ARIMA on the previous week), and the final 168 slots are the
/// evaluated horizon.
#[derive(Debug)]
pub struct WeekSim<'a> {
    fleet: &'a Fleet,
    server: ServerPowerModel,
    max_servers: usize,
    eval_start: usize,
    qos_floor: Option<Frequency>,
    backend: Box<dyn SlotBackend>,
}

/// Lazily built day-level planning state of one run: the current day's
/// forecast and moment caches, refreshed only when a planning slot
/// crosses a day boundary (and skipped entirely on plan-cache hits).
struct DayState {
    forecast: Option<Arc<DayForecast>>,
    forecast_day: Option<usize>,
    moments: Option<(DayCache, DayCache)>,
    moments_day: Option<usize>,
}

impl DayState {
    fn new() -> Self {
        Self {
            forecast: None,
            forecast_day: None,
            moments: None,
            moments_day: None,
        }
    }

    /// The shared day-boundary refresh: rebuilds `cache` via `build`
    /// only when it does not already describe `day`. Both the forecast
    /// and the moment caches roll forward through this one helper, so
    /// the two stages cannot drift apart in their staleness rules.
    fn refresh<T>(
        cache: &mut Option<T>,
        cached_day: &mut Option<usize>,
        day: usize,
        build: impl FnOnce() -> T,
    ) -> bool {
        if *cached_day == Some(day) {
            return false;
        }
        *cache = Some(build());
        *cached_day = Some(day);
        true
    }
}

/// Builder for [`WeekSim`], collecting the two optional settings — the
/// QoS frequency floor and the accounting backend — before validating
/// the fleet horizon.
///
/// How a plan is computed is not a setting: a policy that re-plans
/// more than once a day (EPACT) answers its slot windows from one
/// [`DayCache`](ntc_trace::DayCache) pair per planning day, while a
/// once-a-day consolidator (COAT, COAT-OPT) rebuilds the moments of
/// its single window, which is cheaper for one window.
///
/// Obtained from [`WeekSim::builder`]; finish with
/// [`build`](WeekSimBuilder::build) (fallible) or
/// [`build_or_panic`](WeekSimBuilder::build_or_panic).
#[derive(Debug)]
pub struct WeekSimBuilder<'a> {
    fleet: &'a Fleet,
    server: ServerPowerModel,
    max_servers: usize,
    qos_floor: Option<Frequency>,
    backend: Option<Box<dyn SlotBackend>>,
}

impl<'a> WeekSimBuilder<'a> {
    /// Adds a QoS frequency floor: no occupied server ever runs below
    /// `floor`, regardless of demand.
    ///
    /// §VI-B3 of the paper establishes per-class minimum QoS-safe
    /// frequencies (1.2 GHz for low-mem, 1.8 GHz for mid/high-mem
    /// batches); a deployment that must honour the 2× degradation bound
    /// even for lightly loaded servers sets the hosted classes' maximum
    /// here. The default (no floor) models pure demand-proportional
    /// DVFS, where a VM's utilization share already reflects its batch
    /// progress.
    #[must_use]
    pub fn qos_floor(mut self, floor: Frequency) -> Self {
        self.qos_floor = Some(floor);
        self
    }

    /// Swaps the accounting backend of the pipeline's account stage
    /// (default: [`AnalyticBackend`]). The forecast, plan and govern
    /// stages are backend-independent — see the conservation contract
    /// in [`crate::backend`].
    #[must_use]
    pub fn backend(mut self, backend: Box<dyn SlotBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Validates the configuration and builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns an error if the fleet horizon is shorter than two weeks
    /// of 5-minute samples (training week + evaluation week) or
    /// `max_servers == 0`.
    pub fn build(self) -> Result<WeekSim<'a>, ntc_core::Error> {
        if self.max_servers == 0 {
            return Err(ntc_core::Error::NoServers);
        }
        let week = 7 * 24 * 12;
        let have = self.fleet.grid().len();
        if have < 2 * week {
            return Err(ntc_core::Error::HorizonTooShort {
                have,
                need: 2 * week,
            });
        }
        Ok(WeekSim {
            fleet: self.fleet,
            server: self.server,
            max_servers: self.max_servers,
            eval_start: have - week,
            qos_floor: self.qos_floor,
            backend: self.backend.unwrap_or_else(|| Box::new(AnalyticBackend)),
        })
    }

    /// Builds the simulator, panicking on invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fleet horizon is shorter than two weeks or
    /// `max_servers == 0`.
    #[track_caller]
    pub fn build_or_panic(self) -> WeekSim<'a> {
        match self.build() {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }
}

impl<'a> WeekSim<'a> {
    /// Starts a builder over `fleet` with `max_servers` physical servers
    /// of the given model; chain the optional knobs (e.g.
    /// [`qos_floor`](WeekSimBuilder::qos_floor)) and finish with
    /// [`WeekSimBuilder::build`].
    pub fn builder(
        fleet: &'a Fleet,
        server: ServerPowerModel,
        max_servers: usize,
    ) -> WeekSimBuilder<'a> {
        WeekSimBuilder {
            fleet,
            server,
            max_servers,
            qos_floor: None,
            backend: None,
        }
    }

    /// Creates a simulator over `fleet` with `max_servers` physical
    /// servers of the given model: the one-line form of
    /// [`WeekSim::builder`] without the optional knobs.
    ///
    /// # Panics
    ///
    /// Panics if the fleet horizon is shorter than two weeks of 5-minute
    /// samples (training week + evaluation week) or `max_servers == 0`.
    #[track_caller]
    pub fn new(fleet: &'a Fleet, server: ServerPowerModel, max_servers: usize) -> Self {
        Self::builder(fleet, server, max_servers).build_or_panic()
    }

    /// Sample index where the evaluation week begins.
    pub fn eval_start(&self) -> usize {
        self.eval_start
    }

    /// Number of evaluated slots (168).
    pub fn eval_slots(&self) -> usize {
        (self.fleet.grid().len() - self.eval_start) / self.fleet.grid().samples_per_slot()
    }

    /// Runs `policy` with per-day forecasts from `predictor` — the
    /// paper's full pipeline (§V-B): ARIMA retrains each day on all
    /// history seen so far and forecasts the day ahead; each hourly slot
    /// is allocated from its window of that forecast.
    pub fn run(&self, policy: &dyn AllocationPolicy, predictor: &dyn Predictor) -> WeekOutcome {
        self.run_counted(policy, Some(predictor), &RunCaches::none())
            .0
    }

    /// Runs `policy` with *oracle* predictions (the actual traces) —
    /// isolates allocation quality from forecast quality, and is what
    /// the allocation ablations use.
    pub fn run_with_oracle(&self, policy: &dyn AllocationPolicy) -> WeekOutcome {
        self.run_counted(policy, None, &RunCaches::none()).0
    }

    /// [`run`](Self::run)/[`run_with_oracle`](Self::run_with_oracle)
    /// with the engine's shared caches threaded in and hit/miss
    /// counters returned; the public wrappers pass [`RunCaches::none`].
    ///
    /// A slot whose plan is already in the shared cache skips *all* of
    /// its prediction work — forecast, day-moment build and packing —
    /// and goes straight to replay.
    pub(crate) fn run_counted(
        &self,
        policy: &dyn AllocationPolicy,
        predictor: Option<&dyn Predictor>,
        caches: &RunCaches<'_>,
    ) -> (WeekOutcome, CacheStats) {
        let grid = self.fleet.grid();
        let sps = grid.samples_per_slot();
        let slots = self.eval_slots();
        let slots_per_day = grid.samples_per_day() / sps;
        let n_vms = self.fleet.len();
        let governor = DvfsGovernor::new(&self.server);

        let mut stats = CacheStats::default();
        let mut state = DayState::new();

        // EPACT re-plans every slot; the consolidation baselines follow
        // daily patterns and keep one plan in force for 24 slots.
        let period = policy.reallocation_period_slots().clamp(1, slots_per_day);
        let mut current_plan: Option<Arc<SlotPlan>> = None;
        let mut migrations_this_slot;

        // Slot-replay buffers, reused across all 168 slots instead of
        // reallocating per-VM windows and per-server aggregates each
        // iteration.
        let mut actual_cpu: Vec<TimeSeries> = vec![TimeSeries::zeros(0); n_vms];
        let mut actual_mem: Vec<TimeSeries> = vec![TimeSeries::zeros(0); n_vms];
        let mut per_server_cpu: Vec<TimeSeries> = Vec::new();
        let mut per_server_mem: Vec<TimeSeries> = Vec::new();
        let mut occupancy: Vec<bool> = Vec::new();
        let mut dominant_class: Vec<MemClass> = Vec::new();
        let mut governed = GovernedSlot::new();

        let mut outcomes = Vec::with_capacity(slots);
        for slot in 0..slots {
            let start = self.eval_start + slot * sps;
            let range = start..start + sps;

            // Stage 1+2 — forecast & plan, refreshed at period starts.
            if slot % period == 0 {
                fault::enter(CellStage::Plan);
                // Shared-plan fast path first: a hit skips forecasting,
                // moment building and packing for the whole period.
                let (new_plan, computed) =
                    fetch_or_compute(caches.plans.and_then(|row| row.get(slot)), || {
                        self.plan_slot(
                            policy, predictor, caches, slot, period, slots, &mut state, &mut stats,
                        )
                    });
                if computed {
                    stats.plan_misses += 1;
                } else {
                    stats.plan_hits += 1;
                }
                migrations_this_slot = match &current_plan {
                    Some(prev) => ntc_core::migration_count(prev, &new_plan),
                    None => 0,
                };
                // Occupancy and per-server worst-case classes are pure
                // functions of the plan: derive them once per period.
                occupancy.clear();
                occupancy.resize(new_plan.num_servers(), false);
                dominant_class.clear();
                dominant_class.resize(new_plan.num_servers(), MemClass::Low);
                for (vm, &srv) in new_plan.assignments().iter().enumerate() {
                    occupancy[srv] = true;
                    let class = self.fleet.vms()[vm].class;
                    if mem_class_rank(class) > mem_class_rank(dominant_class[srv]) {
                        dominant_class[srv] = class;
                    }
                }
                current_plan = Some(new_plan);
            } else {
                migrations_this_slot = 0;
            }
            let plan = current_plan.as_deref().expect("plan set at period start");

            // Replay the slot with the actual traces, recycling the
            // window and aggregate buffers hoisted above.
            for (buf, vm) in actual_cpu.iter_mut().zip(self.fleet.vms()) {
                buf.copy_window_from(&vm.cpu, range.clone());
            }
            for (buf, vm) in actual_mem.iter_mut().zip(self.fleet.vms()) {
                buf.copy_window_from(&vm.mem, range.clone());
            }
            plan.aggregate_per_server_into(&actual_cpu, &mut per_server_cpu);
            plan.aggregate_per_server_into(&actual_mem, &mut per_server_mem);

            // Stage 3 — govern: settle every active server-sample's
            // operating point in server-major, sample-minor order.
            fault::enter(CellStage::Govern);
            governed.reset(grid.sample_period(), sps);
            for (srv, active) in occupancy.iter().enumerate() {
                if !active {
                    continue; // turned off, draws nothing
                }
                governed.push_server(dominant_class[srv]);
                for k in 0..sps {
                    governed.push_sample(governor.govern_sample(
                        per_server_cpu[srv].at(k),
                        per_server_mem[srv].at(k),
                        plan.dvfs_ceiling(),
                        plan.dvfs_floor(),
                        self.qos_floor,
                    ));
                }
            }

            // Stage 4 — account: the backend prices the governed slot.
            fault::enter(CellStage::Account);
            let accounts = self.backend.account(&self.server, &governed);

            outcomes.push(SlotOutcome {
                violations: accounts.violations,
                active_servers: governed.num_servers(),
                migrations: migrations_this_slot,
                energy: accounts.energy,
                planned_freq: plan.planned_freq(),
                mean_freq: accounts.mean_freq(),
            });
        }

        (
            WeekOutcome {
                policy: policy.name().to_string(),
                slots: outcomes,
            },
            stats,
        )
    }

    /// Plans one slot: ensures the day's forecast (and, for a policy
    /// that re-plans within the day, its moment caches) is current,
    /// builds the prediction windows and runs the policy.
    /// Called only on plan-cache misses (or uncached runs).
    #[allow(clippy::too_many_arguments)]
    fn plan_slot(
        &self,
        policy: &dyn AllocationPolicy,
        predictor: Option<&dyn Predictor>,
        caches: &RunCaches<'_>,
        slot: usize,
        period: usize,
        slots: usize,
        state: &mut DayState,
        stats: &mut CacheStats,
    ) -> SlotPlan {
        let grid = self.fleet.grid();
        let sps = grid.samples_per_slot();
        let per_day = grid.samples_per_day();
        let slots_per_day = per_day / sps;
        let day = slot / slots_per_day;
        let start = self.eval_start + slot * sps;

        // Prediction window covering the whole allocation period.
        let window_len = sps * period.min(slots - slot);
        let offset = (slot % slots_per_day) * sps;

        // Refresh the day-ahead forecast lazily: only planning days are
        // forecast, and a day whose plans all hit is never forecast. A
        // new forecast invalidates the moment caches built from it.
        if let Some(p) = predictor {
            if DayState::refresh(&mut state.forecast, &mut state.forecast_day, day, || {
                fault::enter(CellStage::Forecast);
                self.day_forecast(p, day, caches, stats)
            }) {
                state.moments = None;
                state.moments_day = None;
            }
            // Back in the plan stage once the day's forecast stands.
            fault::enter(CellStage::Plan);
        }

        // Day-level moment caches: one build per day serves every
        // re-plan of that day with O(1) windowed covariances, each slot
        // filling its window's block plane once. Only a policy that
        // re-plans within the day reads more than one window of them; a
        // once-a-day consolidator reads a single window, whose lazy
        // scoring the per-slot rebuild serves for less than a full
        // O(V²·len) plane.
        if period < slots_per_day {
            let day_start = self.eval_start + day * per_day;
            let forecast = &state.forecast;
            let fleet = self.fleet;
            // Every plan window is aligned to the slot grid, so the
            // caches answer it from a block plane of pair products.
            DayState::refresh(&mut state.moments, &mut state.moments_day, day, || {
                match (forecast, predictor) {
                    (Some(fc), Some(_)) => (
                        DayCache::with_block_size(&fc.cpu, sps),
                        DayCache::with_block_size(&fc.mem, sps),
                    ),
                    _ => {
                        let (cpu, mem) = actual_windows(fleet, day_start..day_start + per_day);
                        (
                            DayCache::with_block_size(&cpu, sps),
                            DayCache::with_block_size(&mem, sps),
                        )
                    }
                }
            });
        }

        let (pred_cpu, pred_mem): (Vec<TimeSeries>, Vec<TimeSeries>) = match &state.forecast {
            Some(fc) if predictor.is_some() => (
                fc.cpu
                    .iter()
                    .map(|s| s.window(offset..offset + window_len))
                    .collect(),
                fc.mem
                    .iter()
                    .map(|s| s.window(offset..offset + window_len))
                    .collect(),
            ),
            _ => actual_windows(self.fleet, start..start + window_len),
        };
        let mut ctx = SlotContext::new(&pred_cpu, &pred_mem, &self.server, self.max_servers);
        if let Some((dc_cpu, dc_mem)) = &state.moments {
            if offset + window_len <= per_day {
                ctx = ctx.with_day_window(dc_cpu, dc_mem, offset);
            }
        }
        policy.allocate(&ctx)
    }

    /// The day-ahead forecast for `day`, shared through the engine's
    /// forecast cache when one is attached. Matches the eager
    /// day-boundary refresh of the pre-cache simulator bit for bit: the
    /// predictor sees all history up to the day's first sample.
    fn day_forecast(
        &self,
        p: &dyn Predictor,
        day: usize,
        caches: &RunCaches<'_>,
        stats: &mut CacheStats,
    ) -> Arc<DayForecast> {
        let per_day = self.fleet.grid().samples_per_day();
        let day_start = self.eval_start + day * per_day;
        let (forecast, computed) =
            fetch_or_compute(caches.forecasts.and_then(|row| row.get(day)), || {
                DayForecast {
                    cpu: self
                        .fleet
                        .vms()
                        .iter()
                        .map(|v| p.forecast(&v.cpu.window(0..day_start), per_day))
                        .collect(),
                    mem: self
                        .fleet
                        .vms()
                        .iter()
                        .map(|v| p.forecast(&v.mem.window(0..day_start), per_day))
                        .collect(),
                }
            });
        if computed {
            stats.forecast_misses += 1;
        } else {
            stats.forecast_hits += 1;
        }
        forecast
    }
}

/// Per-VM CPU and memory windows of the actual traces over `range` —
/// the shared series cut both the moment build (oracle arm) and the
/// oracle prediction windows draw from.
fn actual_windows(fleet: &Fleet, range: Range<usize>) -> (Vec<TimeSeries>, Vec<TimeSeries>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_core::{Coat, CoatOpt, Epact};
    use ntc_units::Energy;
    use ntc_workload::ClusterTraceGenerator;

    fn small_fleet() -> Fleet {
        ClusterTraceGenerator::google_like(48, 2024).generate()
    }

    #[test]
    fn oracle_run_covers_the_week() {
        let fleet = small_fleet();
        let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let out = sim.run_with_oracle(&Epact::new());
        assert_eq!(out.slots.len(), 168);
        assert!(out.total_energy() > Energy::ZERO);
        assert!(out.mean_active_servers() >= 1.0);
    }

    #[test]
    fn oracle_epact_has_no_violations() {
        // With perfect predictions EPACT packs under cap with Fmax
        // slack: violations must be zero.
        let fleet = small_fleet();
        let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let out = sim.run_with_oracle(&Epact::new());
        assert_eq!(
            out.total_violations(),
            0,
            "oracle EPACT must never overutilize"
        );
    }

    #[test]
    fn coat_uses_fewer_servers_but_more_energy() {
        let fleet = small_fleet();
        let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let epact = sim.run_with_oracle(&Epact::new());
        let coat = sim.run_with_oracle(&Coat::new());
        assert!(
            coat.mean_active_servers() < epact.mean_active_servers(),
            "consolidation must use fewer servers: COAT {:.1} vs EPACT {:.1}",
            coat.mean_active_servers(),
            epact.mean_active_servers()
        );
        assert!(
            epact.total_energy() < coat.total_energy(),
            "EPACT must still save energy: {:.1} vs {:.1} MJ",
            epact.total_energy().as_megajoules(),
            coat.total_energy().as_megajoules()
        );
    }

    #[test]
    fn coat_opt_sits_between() {
        let fleet = small_fleet();
        let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let epact = sim.run_with_oracle(&Epact::new());
        let coat = sim.run_with_oracle(&Coat::new());
        let coat_opt = sim.run_with_oracle(&CoatOpt::new());
        let e_epact = epact.total_energy().as_joules();
        let e_opt = coat_opt.total_energy().as_joules();
        let e_coat = coat.total_energy().as_joules();
        assert!(
            e_epact <= e_opt * 1.02 && e_opt < e_coat,
            "expected EPACT <= COAT-OPT < COAT, got {e_epact:.2e} / {e_opt:.2e} / {e_coat:.2e}"
        );
    }

    #[test]
    fn qos_floor_raises_energy_not_violations() {
        let fleet = small_fleet();
        let plain = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let floored = WeekSim::builder(&fleet, ServerPowerModel::ntc(), 600)
            .qos_floor(Frequency::from_ghz(1.8))
            .build_or_panic();
        let e_plain = plain.run_with_oracle(&Epact::new());
        let e_floor = floored.run_with_oracle(&Epact::new());
        assert!(
            e_floor.total_energy() >= e_plain.total_energy(),
            "a frequency floor can only cost energy"
        );
        assert_eq!(
            e_floor.total_violations(),
            e_plain.total_violations(),
            "the floor must not change violation accounting"
        );
        // mean served frequency rises to at least the floor
        let mean_f = e_floor
            .slots
            .iter()
            .map(|s| s.mean_freq.as_mhz())
            .sum::<f64>()
            / e_floor.slots.len() as f64;
        assert!(mean_f >= 1800.0 - 1e-6, "mean frequency {mean_f} MHz");
    }

    #[test]
    fn archsim_backend_shares_the_upstream_stages() {
        // Swapping the account stage must leave forecast/plan/govern
        // untouched: allocation churn and server counts are identical,
        // only pricing (energy, QoS-aware violations) may differ.
        let fleet = small_fleet();
        let analytic = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
        let archsim = WeekSim::builder(&fleet, ServerPowerModel::ntc(), 600)
            .backend(Box::new(crate::backend::ArchsimBackend::ntc()))
            .build_or_panic();
        let a = analytic.run_with_oracle(&Epact::new());
        let b = archsim.run_with_oracle(&Epact::new());
        assert_eq!(a.total_migrations(), b.total_migrations());
        assert_eq!(a.mean_active_servers(), b.mean_active_servers());
        assert!(
            b.total_violations() >= a.total_violations(),
            "archsim only adds QoS misses on top of demand violations"
        );
        assert!(b.total_energy() > Energy::ZERO);
        for (sa, sb) in a.slots.iter().zip(&b.slots) {
            assert_eq!(sa.planned_freq, sb.planned_freq);
            assert_eq!(sa.mean_freq, sb.mean_freq, "govern stage is shared");
        }
    }

    #[test]
    #[should_panic(expected = "training week")]
    fn single_week_fleet_rejected() {
        let fleet = ClusterTraceGenerator::google_like(4, 1)
            .with_weeks(1)
            .generate();
        let _ = WeekSim::new(&fleet, ServerPowerModel::ntc(), 10);
    }
}
