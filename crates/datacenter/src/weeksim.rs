use std::sync::Arc;

use ntc_core::{AllocationPolicy, DvfsGovernor, SlotContext, SlotPlan};
use ntc_forecast::Predictor;
use ntc_power::ServerPowerModel;
use ntc_trace::{DayCache, TimeSeries, SAMPLES_PER_DAY, SAMPLES_PER_SLOT, SLOTS_PER_DAY};
use ntc_units::Frequency;
use ntc_workload::{Fleet, MemClass};

use crate::backend::{AnalyticBackend, GovernedSlot, SlotBackend};
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

/// Builder for [`WeekSim`], collecting the two optional settings — the
/// QoS frequency floor and the accounting backend — before validating
/// the fleet horizon.
///
/// How a plan is computed is not a setting: a policy that re-plans
/// more than once a day (EPACT) scores each window from block sums of
/// that window (a [`DayCache`](ntc_trace::DayCache) pair over the
/// window's predictions, cut into blocks of one slot), while a
/// once-a-day consolidator (COAT, COAT-OPT) scores its single window
/// from the centered series. Either way a covariance is computed when
/// a scan asks for it.
///
/// Obtained from [`WeekSim::builder`]; finish with
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

    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics with the text of [`ntc_core::Error::NoServers`] if
    /// `max_servers == 0`, or of [`ntc_core::Error::HorizonTooShort`]
    /// if the fleet horizon is shorter than two weeks of 5-minute
    /// samples (training week + evaluation week).
    #[track_caller]
    pub fn build_or_panic(self) -> WeekSim<'a> {
        assert!(self.max_servers > 0, "{}", ntc_core::Error::NoServers);
        let (have, need) = (self.fleet.grid().len(), 2 * EVAL_WEEK);
        assert!(
            have >= need,
            "{}",
            ntc_core::Error::HorizonTooShort { have, need }
        );
        WeekSim {
            fleet: self.fleet,
            server: self.server,
            max_servers: self.max_servers,
            eval_start: eval_start(self.fleet),
            qos_floor: self.qos_floor,
            backend: self.backend.unwrap_or_else(|| Box::new(AnalyticBackend)),
        }
    }
}

impl<'a> WeekSim<'a> {
    /// Starts a builder over `fleet` with `max_servers` physical servers
    /// of the given model; chain the optional knobs (e.g.
    /// [`qos_floor`](WeekSimBuilder::qos_floor)) and finish with
    /// [`WeekSimBuilder::build_or_panic`].
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
    /// its prediction work — forecast, prediction windows and packing —
    /// and goes straight to replay.
    pub(crate) fn run_counted(
        &self,
        policy: &dyn AllocationPolicy,
        predictor: Option<&dyn Predictor>,
        caches: &RunCaches<'_>,
    ) -> (WeekOutcome, CacheStats) {
        let sps = SAMPLES_PER_SLOT;
        let n_vms = self.fleet.len();
        let governor = DvfsGovernor::new(&self.server);

        let mut stats = CacheStats::default();
        // The forecast of the last planned day: the only planning state
        // kept across slots.
        let mut forecast: Option<(usize, Arc<DayForecast>)> = None;

        // EPACT re-plans every slot; the consolidation baselines follow
        // daily patterns and keep one plan in force for 24 slots.
        let period = policy.reallocation_period_slots().clamp(1, SLOTS_PER_DAY);
        let mut current_plan: Option<Arc<SlotPlan>> = None;
        let mut migrations_this_slot;
        // Prediction-window buffers, reused across planning slots like
        // the replay buffers below.
        let mut pred_cpu: Vec<TimeSeries> = vec![TimeSeries::zeros(0); n_vms];
        let mut pred_mem: Vec<TimeSeries> = vec![TimeSeries::zeros(0); n_vms];

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

        let mut outcomes = Vec::with_capacity(EVAL_SLOTS);
        for slot in 0..EVAL_SLOTS {
            let start = self.eval_start + slot * sps;
            let range = start..start + sps;

            // Stage 1+2 — forecast & plan, refreshed at period starts.
            if slot % period == 0 {
                fault::enter(CellStage::Plan);
                // Shared-plan fast path first: a hit skips forecasting
                // and packing for the whole period.
                let (new_plan, computed) =
                    fetch_or_compute(caches.plans.and_then(|row| row.get(slot)), || {
                        // Forecast lazily: only planning days are
                        // forecast, and a day whose plans all hit is
                        // never forecast.
                        let day = slot / SLOTS_PER_DAY;
                        if let Some(p) = predictor {
                            if forecast.as_ref().is_none_or(|(d, _)| *d != day) {
                                fault::enter(CellStage::Forecast);
                                forecast =
                                    Some((day, self.day_forecast(p, day, caches, &mut stats)));
                                // Back in the plan stage once the day's
                                // forecast stands.
                                fault::enter(CellStage::Plan);
                            }
                        }
                        let day_forecast = forecast.as_ref().map(|(_, fc)| &**fc);
                        let windows = (&mut pred_cpu[..], &mut pred_mem[..]);
                        self.plan_slot(policy, day_forecast, slot, period, windows)
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
                    dominant_class[srv] = dominant_class[srv].max(self.fleet.vms()[vm].class);
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
            governed.reset(self.fleet.grid().sample_period(), sps);
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

    /// Plans the period starting at `slot` from `forecast`, the
    /// forecast of the slot's day (`None` plans from the actual
    /// traces): copies the prediction windows into `windows`, the
    /// week's reused per-VM CPU and memory buffers, and runs the
    /// policy. Called only on plan-table misses (or in a run without a
    /// plan table).
    fn plan_slot(
        &self,
        policy: &dyn AllocationPolicy,
        forecast: Option<&DayForecast>,
        slot: usize,
        period: usize,
        (pred_cpu, pred_mem): (&mut [TimeSeries], &mut [TimeSeries]),
    ) -> SlotPlan {
        let sps = SAMPLES_PER_SLOT;

        // Prediction window covering the whole allocation period.
        let window_len = sps * period.min(EVAL_SLOTS - slot);
        let buffers = pred_cpu.iter_mut().zip(pred_mem.iter_mut());
        match forecast {
            Some(fc) => {
                let offset = (slot % SLOTS_PER_DAY) * sps;
                let range = offset..offset + window_len;
                for ((cpu, mem), (fc_cpu, fc_mem)) in buffers.zip(fc.cpu.iter().zip(&fc.mem)) {
                    cpu.copy_window_from(fc_cpu, range.clone());
                    mem.copy_window_from(fc_mem, range.clone());
                }
            }
            None => {
                let start = self.eval_start + slot * sps;
                let range = start..start + window_len;
                for ((cpu, mem), vm) in buffers.zip(self.fleet.vms()) {
                    cpu.copy_window_from(&vm.cpu, range.clone());
                    mem.copy_window_from(&vm.mem, range.clone());
                }
            }
        }
        let ctx = SlotContext::new(pred_cpu, pred_mem, &self.server, self.max_servers);
        // A policy that re-plans within the day scores its window from
        // block sums, one block per slot: the bits of the same window
        // of a whole day cut into slots, which pin EPACT's plans. A
        // once-a-day consolidator scores from the centered series.
        if period < SLOTS_PER_DAY {
            let cpu = DayCache::with_block_size(pred_cpu, sps);
            let mem = DayCache::with_block_size(pred_mem, sps);
            return policy.allocate(&ctx.with_day_window(&cpu, &mem, 0));
        }
        policy.allocate(&ctx)
    }

    /// The day-ahead forecast for `day`, shared through the engine's
    /// forecast cache when one is attached (the engine usually fills
    /// it before any cell runs). Each series follows
    /// [`forecast_series`], so the predictor sees all history up to the
    /// day's first sample.
    fn day_forecast(
        &self,
        p: &dyn Predictor,
        day: usize,
        caches: &RunCaches<'_>,
        stats: &mut CacheStats,
    ) -> Arc<DayForecast> {
        let (forecast, computed) =
            fetch_or_compute(caches.forecasts.and_then(|row| row.get(day)), || {
                let series = 0..DayForecast::series_count(self.fleet.len());
                DayForecast::from_series(
                    series
                        .map(|s| forecast_series(p, self.fleet, day, s))
                        .collect(),
                )
            });
        if computed {
            stats.forecast_misses += 1;
        } else {
            stats.forecast_hits += 1;
        }
        forecast
    }
}

/// Days in the evaluated final week of every fleet: a forecast row.
pub(crate) const EVAL_DAYS: usize = 7;
/// Hourly slots in the evaluated week: a plan row.
pub(crate) const EVAL_SLOTS: usize = EVAL_DAYS * SLOTS_PER_DAY;
/// Samples in the evaluated week.
pub(crate) const EVAL_WEEK: usize = EVAL_SLOTS * SAMPLES_PER_SLOT;

/// Sample index where `fleet`'s evaluation week begins; everything
/// before it is training history.
fn eval_start(fleet: &Fleet) -> usize {
    fleet.grid().len() - EVAL_WEEK
}

/// Series `s` of `fleet`'s forecast for evaluation day `day` (see
/// [`DayForecast::series`] for the numbering). This is the one history
/// rule of every day-ahead forecast, whichever cell or engine worker
/// computes it: the predictor sees samples `0..eval_start + day·per_day`
/// and predicts the day's `per_day` samples.
pub(crate) fn forecast_series(
    predictor: &dyn Predictor,
    fleet: &Fleet,
    day: usize,
    s: usize,
) -> TimeSeries {
    let history_end = eval_start(fleet) + day * SAMPLES_PER_DAY;
    let series = DayForecast::series(fleet, s);
    predictor.forecast(&series.window(0..history_end), SAMPLES_PER_DAY)
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
