//! Layer probes that time one public call at a time, outside any sweep.
//!
//! * [`plan_week`]: every planning call of an oracle week for one
//!   policy, with a fresh [`DayCache`] pair per planning day (so the
//!   lazy block-plane fill is charged to the day's first `allocate`, as
//!   in `WeekSim`) or with the per-slot rebuild.
//! * [`account_week`]: re-governs each slot of a replayed week and
//!   times [`SlotBackend::account`] alone.
//! * [`forecast_day`]: one day of forecasts for every VM.

use std::rc::Rc;
use std::time::{Duration, Instant};

use ntc_core::{DvfsGovernor, SlotContext, SlotPlan};
use ntc_datacenter::{BackendSpec, CellSpec, GovernedSlot, PolicySpec, ServerSpec};
use ntc_forecast::Predictor;
use ntc_trace::DayCache;
use ntc_units::Frequency;
use ntc_workload::Fleet;

use crate::replay::{actual_windows, eval_start, SlotState};

/// Times every `allocate` of an oracle week of `policy` on the NTC
/// server, with (`day_cache`) or without the day-moment cache. Returns
/// one duration per planning call (168 for EPACT, 7 for the daily
/// consolidation policies).
pub fn plan_week(
    fleet: &Fleet,
    policy: PolicySpec,
    day_cache: bool,
    max_servers: usize,
) -> Vec<Duration> {
    let server = ServerSpec::Ntc.model();
    let policy = policy.build(Default::default());
    let grid = fleet.grid();
    let sps = grid.samples_per_slot();
    let per_day = grid.samples_per_day();
    let slots_per_day = per_day / sps;
    let start0 = eval_start(fleet);
    let period = policy.reallocation_period_slots().clamp(1, slots_per_day);
    let mut times = Vec::new();
    for day in 0..7 {
        let day_start = start0 + day * per_day;
        let moments = day_cache.then(|| {
            let (cpu, mem) = actual_windows(fleet, day_start..day_start + per_day);
            (
                DayCache::with_block_size(&cpu, sps),
                DayCache::with_block_size(&mem, sps),
            )
        });
        for slot in (0..slots_per_day).step_by(period) {
            let window = day_start + slot * sps..day_start + (slot + period) * sps;
            let (cpu, mem) = actual_windows(fleet, window);
            let t = Instant::now();
            let mut ctx = SlotContext::new(&cpu, &mem, &server, max_servers);
            if let Some((dc_cpu, dc_mem)) = &moments {
                ctx = ctx.with_day_window(dc_cpu, dc_mem, slot * sps);
            }
            std::hint::black_box(policy.allocate(&ctx));
            times.push(t.elapsed());
        }
    }
    times
}

/// Times `backend`'s `account` call on every slot of a replayed week of
/// `cell`, re-deriving each slot's governed samples from its plan.
pub fn account_week(
    fleet: &Fleet,
    cell: &CellSpec,
    plans: &[Rc<SlotPlan>],
    backend: BackendSpec,
) -> Vec<Duration> {
    let server = cell.server_model();
    let backend = backend.build(cell.server);
    let governor = DvfsGovernor::new(&server);
    let qos_floor = cell.qos_floor_mhz.map(Frequency::from_mhz);
    let sps = fleet.grid().samples_per_slot();
    let start0 = eval_start(fleet);
    let mut state = SlotState::default();
    let mut governed = GovernedSlot::new();
    let mut times = Vec::with_capacity(plans.len());
    for (slot, plan) in plans.iter().enumerate() {
        let start = start0 + slot * sps;
        state.adopt(fleet, plan);
        state.aggregate(fleet, plan, start..start + sps);
        state.govern(&governor, plan, qos_floor, fleet, &mut governed);
        let t = Instant::now();
        std::hint::black_box(backend.account(&server, &governed));
        times.push(t.elapsed());
    }
    times
}

/// Forecasts the first evaluation day of every VM's CPU and memory
/// series; returns the day's total time and each call's time.
pub fn forecast_day(fleet: &Fleet, predictor: &dyn Predictor) -> (Duration, Vec<Duration>) {
    let per_day = fleet.grid().samples_per_day();
    let day_start = eval_start(fleet);
    let histories: Vec<_> = fleet
        .vms()
        .iter()
        .flat_map(|v| [v.cpu.window(0..day_start), v.mem.window(0..day_start)])
        .collect();
    let begin = Instant::now();
    let calls = histories
        .iter()
        .map(|h| {
            let t = Instant::now();
            std::hint::black_box(predictor.forecast(h, per_day));
            t.elapsed()
        })
        .collect();
    (begin.elapsed(), calls)
}

/// Block-plane bytes one fully filled [`DayCache`] pair holds for
/// `vms` series over a day of `blocks` slots: both resources keep
/// `vms·(vms+1)/2` pair sums per block, 8 bytes each. Computed, not
/// measured.
pub fn daycache_plane_bytes(vms: usize, blocks: usize) -> usize {
    2 * vms * (vms + 1) / 2 * blocks * std::mem::size_of::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_bytes_follow_v_squared_times_blocks() {
        // 600 VMs, 24 hourly blocks: 2 * 180300 * 24 * 8 bytes.
        assert_eq!(daycache_plane_bytes(600, 24), 69_235_200);
        assert_eq!(daycache_plane_bytes(1, 1), 16);
    }
}
