//! Cross-cell memoization for the sweep engine: one keyed table of
//! once-initialized values, shared by fleets, day forecasts and plans.
//!
//! A sweep's cells often need the same expensive value: every cell over
//! a fleet needs its traces, every policy/server/scale/floor arm over a
//! fleet needs the same day-ahead forecasts, and cells whose planning
//! inputs coincide need the same per-slot plans. [`OnceTable`] holds one
//! row of `OnceLock<Arc<V>>` per distinct key; the engine builds each
//! table from the spec before any worker starts, and
//! [`fetch_or_compute`] is the one place a lock is filled: the first
//! worker to reach a lock computes its value, everyone else clones the
//! `Arc`. Every value is a pure function of the spec, so which worker
//! wins a race cannot change any result, and a panicking computation
//! leaves its lock unset for a sibling to retry.
//!
//! | table | key | row width |
//! |---|---|---|
//! | fleets | [`FleetSpec`] | 1 |
//! | day forecasts | [`FleetSpec`] | [`EVAL_DAYS`] |
//! | plans | [`PlanKey`] | [`EVAL_SLOTS`] |
//!
//! Forecasts depend on the fleet and the spec-wide predictor alone. The
//! engine fills the forecast table before any cell runs, fitting the
//! days' series on all its workers, and only a day that step failed to
//! fill is computed by a cell. A plan depends on fewer axes than a cell
//! has:
//!
//! * the QoS floor only shapes the online replay, never the plan;
//! * the accounting backend only prices governed slots (the
//!   conservation contract of [`crate::backend`]), so `analytic` and
//!   `archsim` arms share plans;
//! * a static-power scale changes the plan only through the quantities
//!   the policy actually derives from the power model (`F_NTC_opt`, the
//!   DVFS table, full-load powers). When those coincide across scales —
//!   always for COAT, which plans purely at `Fmax` — the packing work
//!   is identical and can be shared.
//!
//! [`PlanKey`] therefore holds the *planning inputs*: a bit-pattern
//! fingerprint of exactly the model-derived numbers each policy reads
//! while allocating, alongside the fleet, policy, ablation and server
//! budget.
//!
//! [`CacheStats`] counts plan and forecast hits and misses. A miss is a
//! value computed, a hit one read from the table; a forecast miss may
//! come from the engine's up-front step or from a cell.
//! `ntcdc sweep --cache-stats` prints the totals.

use std::sync::{Arc, OnceLock};

use ntc_core::SlotPlan;
use ntc_power::{DataCenterPowerModel, ServerPowerModel};
use ntc_trace::TimeSeries;
use ntc_units::Percent;
use ntc_workload::Fleet;

use crate::engine::{CellSpec, ExperimentSpec, FleetSpec, PolicySpec};

/// Hourly slots in the evaluation week — the width of a plan row.
pub(crate) const EVAL_SLOTS: usize = 7 * 24;

/// Days in the evaluation week — the width of a forecast row.
pub(crate) const EVAL_DAYS: usize = 7;

/// Cache hit/miss counters of one cell run, of the engine's up-front
/// forecast step, or, summed, of a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Allocation slots answered from the shared plan cache.
    pub plan_hits: usize,
    /// Allocation slots that had to be planned (and were then shared).
    pub plan_misses: usize,
    /// Day-ahead forecasts a cell read from the shared forecast cache.
    pub forecast_hits: usize,
    /// Day-ahead forecasts computed, either by the engine's up-front
    /// step (counted once per day, outside any cell) or by a cell.
    pub forecast_misses: usize,
}

impl CacheStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.forecast_hits += other.forecast_hits;
        self.forecast_misses += other.forecast_misses;
    }
}

/// One day-ahead forecast for a fleet: per-VM CPU and memory series of
/// one day.
#[derive(Debug)]
pub(crate) struct DayForecast {
    /// Per-VM forecast CPU series (one day long).
    pub cpu: Vec<TimeSeries>,
    /// Per-VM forecast memory series (one day long).
    pub mem: Vec<TimeSeries>,
}

impl DayForecast {
    /// Series a day forecast of a fleet of `vms` VMs holds: a CPU and
    /// a memory series per VM.
    pub fn series_count(vms: usize) -> usize {
        2 * vms
    }

    /// The trace behind forecast series `s`: VM `s`'s CPU for
    /// `s < V`, then VM `s − V`'s memory, for a fleet of `V` VMs.
    pub fn series(fleet: &Fleet, s: usize) -> &TimeSeries {
        let vms = fleet.vms();
        match vms.get(s) {
            Some(vm) => &vm.cpu,
            None => &vms[s - vms.len()].mem,
        }
    }

    /// Assembles a day forecast from its series in [`series`] order.
    ///
    /// [`series`]: DayForecast::series
    pub fn from_series(mut cpu: Vec<TimeSeries>) -> Self {
        let mem = cpu.split_off(cpu.len() / 2);
        Self { cpu, mem }
    }
}

/// One row of `width` once-initialized values per distinct key; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct OnceTable<K, V> {
    rows: Vec<(K, Vec<OnceLock<Arc<V>>>)>,
}

impl<K: PartialEq, V> OnceTable<K, V> {
    /// One row of `width` empty locks per distinct key of `keys`, in
    /// first-occurrence order. Keys are compared by linear search: a
    /// sweep has tens of distinct keys, not thousands.
    pub fn new(width: usize, keys: impl IntoIterator<Item = K>) -> Self {
        let mut rows: Vec<(K, Vec<OnceLock<Arc<V>>>)> = Vec::new();
        for key in keys {
            if !rows.iter().any(|(k, _)| *k == key) {
                rows.push((key, (0..width).map(|_| OnceLock::new()).collect()));
            }
        }
        Self { rows }
    }

    /// The row of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not among the keys the table was built from:
    /// the engine derives every lookup key from the same spec.
    pub fn row(&self, key: &K) -> &[OnceLock<Arc<V>>] {
        let (_, row) = self
            .rows
            .iter()
            .find(|(k, _)| k == key)
            .expect("every lookup key comes from the spec the table was built from");
        row
    }

    /// Every key with its row, in first-occurrence order.
    pub fn rows(&self) -> impl Iterator<Item = (&K, &[OnceLock<Arc<V>>])> {
        self.rows.iter().map(|(key, row)| (key, row.as_slice()))
    }

    /// Number of distinct keys (for diagnostics/tests).
    #[cfg(test)]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

/// The value behind `lock`, computing it when the lock is still empty,
/// and whether this call computed it. Without a lock (no shared table)
/// the value is always computed. A lock that another worker fills
/// while this one waits counts as a hit.
pub(crate) fn fetch_or_compute<V>(
    lock: Option<&OnceLock<Arc<V>>>,
    compute: impl FnOnce() -> V,
) -> (Arc<V>, bool) {
    let Some(lock) = lock else {
        return (Arc::new(compute()), true);
    };
    let mut computed = false;
    let value = lock.get_or_init(|| {
        computed = true;
        Arc::new(compute())
    });
    (Arc::clone(value), computed)
}

/// The identity of a plan row: everything that can change what a
/// policy plans. Cells differing only in QoS floor, in backend (every
/// backend honours the conservation contract of [`crate::backend`]) or
/// in a static-power scale whose derived planning inputs coincide map
/// to the same key and share plans.
#[derive(Debug, PartialEq)]
pub(crate) struct PlanKey {
    fleet: FleetSpec,
    policy: PolicySpec,
    correlation_only: bool,
    max_servers: usize,
    /// Bit patterns of the model-derived numbers the policy reads while
    /// planning; see [`planning_inputs`].
    inputs: Vec<u64>,
}

impl PlanKey {
    /// The plan key of `cell` within `spec`.
    pub fn new(spec: &ExperimentSpec, cell: &CellSpec) -> Self {
        Self {
            fleet: cell.fleet,
            policy: cell.policy,
            correlation_only: spec.ablation.correlation_only,
            max_servers: spec.max_servers,
            inputs: planning_inputs(cell.policy, &cell.server_model(), spec.max_servers),
        }
    }
}

/// The model-derived quantities `policy` reads during `allocate`, as
/// f64 bit patterns. Two server models with equal fingerprints produce
/// bit-identical plans for the policy, whatever else (e.g. static
/// power) differs between them.
fn planning_inputs(policy: PolicySpec, model: &ServerPowerModel, max_servers: usize) -> Vec<u64> {
    let mut v = vec![
        model.fmax().as_mhz().to_bits(),
        model.fmin().as_mhz().to_bits(),
    ];
    match policy {
        // COAT consolidates at Fmax only.
        PolicySpec::Coat => {}
        // COAT-OPT's cap is F_NTC_opt, which reads the full power model.
        PolicySpec::CoatOpt => {
            let dc = DataCenterPowerModel::new(model.clone(), max_servers);
            v.push(dc.ntc_optimal_frequency().as_mhz().to_bits());
        }
        // EPACT reads F_NTC_opt and, in the Eq. 1 exploration, the
        // worst-case power at every DVFS level.
        PolicySpec::Epact => {
            let dc = DataCenterPowerModel::new(model.clone(), max_servers);
            v.push(dc.ntc_optimal_frequency().as_mhz().to_bits());
            for f in model.dvfs_levels() {
                v.push(f.as_mhz().to_bits());
                v.push(
                    model
                        .power(f, Percent::FULL, Percent::ZERO)
                        .as_watts()
                        .to_bits(),
                );
            }
        }
        // Load balancing spreads against the DVFS table.
        PolicySpec::LoadBalance => {
            for f in model.dvfs_levels() {
                v.push(f.as_mhz().to_bits());
            }
        }
    }
    v
}

/// The shared rows one `WeekSim` run reads, handed in by the engine;
/// both are optional so the public (uncached) API and the cached engine
/// path share one code path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCaches<'c> {
    /// This cell's plan row, one lock per evaluation slot.
    pub plans: Option<&'c [OnceLock<Arc<SlotPlan>>]>,
    /// This cell's fleet's forecast row, one lock per evaluation day.
    pub forecasts: Option<&'c [OnceLock<Arc<DayForecast>>]>,
}

impl RunCaches<'_> {
    /// No caching — the plain public run path.
    pub fn none() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerSpec;

    fn spec_with_scales(scales: Vec<f64>) -> ExperimentSpec {
        let mut spec = ExperimentSpec::default_sweep();
        spec.servers = vec![ServerSpec::Ntc];
        spec.static_power_scales = scales;
        spec
    }

    fn plan_table(spec: &ExperimentSpec) -> (Vec<CellSpec>, OnceTable<PlanKey, SlotPlan>) {
        let cells = spec.cells();
        let table = OnceTable::new(EVAL_SLOTS, cells.iter().map(|c| PlanKey::new(spec, c)));
        (cells, table)
    }

    #[test]
    fn coat_plans_dedup_across_static_power_scales() {
        // COAT plans at Fmax only: every scale arm shares one row.
        let mut spec = spec_with_scales(vec![0.5, 1.0, 2.0]);
        spec.policies = vec![PolicySpec::Coat];
        let (cells, table) = plan_table(&spec);
        assert_eq!(cells.len(), 3);
        assert_eq!(table.num_rows(), 1);
        let row = |i: usize| table.row(&PlanKey::new(&spec, &cells[i]));
        assert!(std::ptr::eq(row(0), row(2)));
        assert_eq!(row(0).len(), EVAL_SLOTS);
    }

    #[test]
    fn backend_arms_always_share_plans() {
        // Both built-in backends conserve planning, so the backend is
        // not part of the plan key: one row per policy across the axis.
        use crate::backend::BackendSpec;
        let mut spec = spec_with_scales(vec![1.0]);
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        let (cells, table) = plan_table(&spec);
        assert_eq!(cells.len(), 6);
        assert_eq!(table.num_rows(), 3);
        let row = |i: usize| table.row(&PlanKey::new(&spec, &cells[i]));
        assert!(std::ptr::eq(row(0), row(3)));
    }

    #[test]
    fn qos_floor_arms_always_share_plans() {
        // The floor shapes replay, not planning: one row per policy.
        let mut spec = spec_with_scales(vec![1.0]);
        spec.qos_floors_mhz = vec![None, Some(1200.0), Some(1800.0)];
        let (cells, table) = plan_table(&spec);
        assert_eq!(cells.len(), 9);
        assert_eq!(table.num_rows(), 3);
    }

    #[test]
    fn epact_plans_split_when_f_ntc_opt_moves() {
        // A large static-power change shifts F_NTC_opt, so EPACT's
        // planning inputs differ and the rows must not merge.
        let mut spec = spec_with_scales(vec![0.0, 8.0]);
        spec.policies = vec![PolicySpec::Epact];
        let (cells, table) = plan_table(&spec);
        let inputs: Vec<_> = cells
            .iter()
            .map(|c| planning_inputs(c.policy, &c.server_model(), spec.max_servers))
            .collect();
        assert_ne!(inputs[0], inputs[1], "fingerprints must differ");
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn distinct_fleets_never_share_plans() {
        let mut spec = spec_with_scales(vec![1.0]).with_seeds(&[1, 2]);
        spec.policies = vec![PolicySpec::Coat];
        let (_, table) = plan_table(&spec);
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn forecast_cache_dedups_fleets() {
        let fleets = vec![
            FleetSpec {
                num_vms: 8,
                seed: 1,
                weeks: 2,
            };
            3
        ];
        let table: OnceTable<FleetSpec, DayForecast> = OnceTable::new(EVAL_DAYS, fleets.clone());
        assert_eq!(table.row(&fleets[0]).len(), EVAL_DAYS);
        assert_eq!(table.num_rows(), 1);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = CacheStats {
            plan_hits: 1,
            plan_misses: 2,
            forecast_hits: 3,
            forecast_misses: 4,
        };
        a.merge(CacheStats {
            plan_hits: 10,
            plan_misses: 20,
            forecast_hits: 30,
            forecast_misses: 40,
        });
        assert_eq!(
            a,
            CacheStats {
                plan_hits: 11,
                plan_misses: 22,
                forecast_hits: 33,
                forecast_misses: 44,
            }
        );
    }
}
