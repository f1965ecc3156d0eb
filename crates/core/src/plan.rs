use ntc_power::ServerPowerModel;
use ntc_trace::{CorrelationCache, DayCache, TimeSeries};
use ntc_units::Frequency;

/// The memory cap of Eq. 1 and Algorithms 1–2, percent of one server's
/// memory. Eq. 1 sizes `N̂mem` against it, every packer keeps each
/// server's per-sample memory at or below it, and the governor counts
/// a sample above it as a violation.
pub const MEM_CAP: f64 = 100.0;

/// The CPU and memory [`DayCache`]s whose window at `offset` holds a
/// slot's predicted values, over which its correlation caches compute
/// their covariances as block sums. Attached to a [`SlotContext`] via
/// [`with_day_window`](SlotContext::with_day_window).
#[derive(Debug, Clone, Copy)]
struct DayWindow<'a> {
    cpu: &'a DayCache,
    mem: &'a DayCache,
    offset: usize,
}

/// Everything a policy sees when allocating one time slot: the predicted
/// per-VM utilization patterns for the slot and the server model.
///
/// Utilizations are percent of one server's capacity (CPU capacity is
/// defined at `Fmax`).
#[derive(Debug)]
pub struct SlotContext<'a> {
    predicted_cpu: &'a [TimeSeries],
    predicted_mem: &'a [TimeSeries],
    server: &'a ServerPowerModel,
    max_servers: usize,
    day: Option<DayWindow<'a>>,
}

impl<'a> SlotContext<'a> {
    /// Builds a context over a slot's predicted per-VM series.
    ///
    /// # Panics
    ///
    /// Panics if the CPU and memory prediction lists differ in length,
    /// are empty, contain series of unequal length, or `max_servers`
    /// is zero.
    #[track_caller]
    pub fn new(
        predicted_cpu: &'a [TimeSeries],
        predicted_mem: &'a [TimeSeries],
        server: &'a ServerPowerModel,
        max_servers: usize,
    ) -> Self {
        assert!(
            predicted_cpu.len() == predicted_mem.len(),
            "need one CPU and one memory prediction per VM \
             (got {} CPU vs {} memory series)",
            predicted_cpu.len(),
            predicted_mem.len()
        );
        assert!(!predicted_cpu.is_empty(), "context needs at least one VM");
        assert!(max_servers > 0, "data center needs at least one server");
        let len = predicted_cpu[0].len();
        assert!(
            predicted_cpu
                .iter()
                .chain(predicted_mem.iter())
                .all(|s| s.len() == len),
            "all prediction series must cover the same slot"
        );
        Self {
            predicted_cpu,
            predicted_mem,
            server,
            max_servers,
            day: None,
        }
    }

    /// Attaches day caches whose window at `offset` holds this slot's
    /// predicted values, so that [`corr_cpu`](Self::corr_cpu) and
    /// [`corr_mem`](Self::corr_mem) build their caches over that window:
    /// each covariance is then summed over the window's blocks, four
    /// lanes per block, instead of over the slot's centered series. The
    /// caller guarantees the day values at `offset..offset + slot_len`
    /// are the slot's predicted values; per-series moments are
    /// bit-identical either way, while covariances agree to ulps (see
    /// [`CorrelationCache::from_day_window`]).
    ///
    /// # Panics
    ///
    /// Panics if either cache covers a different number of series than
    /// the context has VMs, or the slot window reaches outside the day.
    /// [`corr_cpu`](Self::corr_cpu) and [`corr_mem`](Self::corr_mem)
    /// panic if the window is not aligned to the caches' blocks.
    pub fn with_day_window(mut self, cpu: &'a DayCache, mem: &'a DayCache, offset: usize) -> Self {
        assert_eq!(
            cpu.num_series(),
            self.num_vms(),
            "day cache must cover every VM"
        );
        assert_eq!(
            mem.num_series(),
            self.num_vms(),
            "day cache must cover every VM"
        );
        let end = offset + self.slot_len();
        assert!(
            end <= cpu.len() && end <= mem.len(),
            "slot window {offset}..{end} outside the day caches"
        );
        self.day = Some(DayWindow { cpu, mem, offset });
        self
    }

    /// A new correlation cache over the slot's predicted CPU series:
    /// over the attached day cache's window when one is present,
    /// otherwise over the centered series.
    pub fn corr_cpu(&self) -> CorrelationCache {
        match &self.day {
            Some(d) => {
                CorrelationCache::from_day_window(d.cpu, d.offset..d.offset + self.slot_len())
            }
            None => CorrelationCache::new(self.predicted_cpu),
        }
    }

    /// A correlation cache over the slot's predicted memory series; see
    /// [`corr_cpu`](Self::corr_cpu).
    pub fn corr_mem(&self) -> CorrelationCache {
        match &self.day {
            Some(d) => {
                CorrelationCache::from_day_window(d.mem, d.offset..d.offset + self.slot_len())
            }
            None => CorrelationCache::new(self.predicted_mem),
        }
    }

    /// Per-VM predicted CPU series (percent of server capacity at Fmax).
    pub fn predicted_cpu(&self) -> &[TimeSeries] {
        self.predicted_cpu
    }

    /// Per-VM predicted memory series (percent of server memory).
    pub fn predicted_mem(&self) -> &[TimeSeries] {
        self.predicted_mem
    }

    /// The server power model (provides Fmax and the DVFS levels).
    pub fn server(&self) -> &ServerPowerModel {
        self.server
    }

    /// Number of physical servers installed.
    pub fn max_servers(&self) -> usize {
        self.max_servers
    }

    /// The number of servers `assignments` uses: one past the highest
    /// server index.
    ///
    /// # Panics
    ///
    /// Panics if `policy` planned more than
    /// [`max_servers`](Self::max_servers) servers, naming both counts.
    #[track_caller]
    pub fn servers_used(&self, policy: &str, assignments: &[usize]) -> usize {
        let n = assignments.iter().max().map_or(1, |&m| m + 1);
        assert!(
            n <= self.max_servers,
            "{policy} plans {n} servers, more than max_servers {}",
            self.max_servers
        );
        n
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.predicted_cpu.len()
    }

    /// Number of samples in the slot.
    pub fn slot_len(&self) -> usize {
        self.predicted_cpu[0].len()
    }

    /// Peak (over samples) of the aggregate predicted CPU demand —
    /// the `max_n(Σ Ũcpu)` of Eq. 1.
    pub fn peak_aggregate_cpu(&self) -> f64 {
        TimeSeries::aggregate(self.slot_len(), self.predicted_cpu).peak()
    }

    /// Peak of the aggregate predicted memory demand — the
    /// `max_n(Σ Ũmem)` of Eq. 1.
    pub fn peak_aggregate_mem(&self) -> f64 {
        TimeSeries::aggregate(self.slot_len(), self.predicted_mem).peak()
    }
}

/// A policy's decision for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPlan {
    assignments: Vec<usize>,
    num_servers: usize,
    cap_cpu: f64,
    planned_freq: Frequency,
    dvfs_floor: Frequency,
    dvfs_ceiling: Frequency,
}

impl SlotPlan {
    /// Creates a plan.
    ///
    /// The `dvfs_floor`/`dvfs_ceiling` pair encodes how much online
    /// frequency freedom the policy grants the governor: EPACT allows
    /// the full range (`fmin..=Fmax`), COAT runs consolidated servers at
    /// the highest frequency (`floor == ceiling == Fmax`), and COAT-OPT
    /// pins servers at its fixed optimal cap.
    ///
    /// # Panics
    ///
    /// Panics if the plan uses no server, any assignment refers to a
    /// server `>= num_servers`, the CPU cap is non-positive, or the
    /// planned frequency lies outside `[dvfs_floor, dvfs_ceiling]`.
    #[track_caller]
    pub fn new(
        assignments: Vec<usize>,
        num_servers: usize,
        cap_cpu: f64,
        planned_freq: Frequency,
        dvfs_floor: Frequency,
        dvfs_ceiling: Frequency,
    ) -> Self {
        assert!(num_servers > 0, "plan must use at least one server");
        if let Some((vm, &server)) = assignments
            .iter()
            .enumerate()
            .find(|&(_, &s)| s >= num_servers)
        {
            panic!(
                "assignment to a server beyond num_servers \
                 (VM {vm} on server {server} of {num_servers})"
            );
        }
        if cap_cpu <= 0.0 {
            panic!("caps must be positive (got CPU {cap_cpu})");
        }
        if dvfs_floor > dvfs_ceiling {
            panic!(
                "DVFS floor above the ceiling ({} > {})",
                dvfs_floor.as_mhz(),
                dvfs_ceiling.as_mhz()
            );
        }
        if planned_freq < dvfs_floor || planned_freq > dvfs_ceiling {
            panic!(
                "planned frequency outside the online range \
                 ({} not in [{}, {}] MHz)",
                planned_freq.as_mhz(),
                dvfs_floor.as_mhz(),
                dvfs_ceiling.as_mhz()
            );
        }
        Self {
            assignments,
            num_servers,
            cap_cpu,
            planned_freq,
            dvfs_floor,
            dvfs_ceiling,
        }
    }

    /// `assignments()[vm]` is the server index hosting VM `vm`.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of turned-on servers.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The CPU cap used during packing, percent of capacity at Fmax.
    pub fn cap_cpu(&self) -> f64 {
        self.cap_cpu
    }

    /// The frequency the policy planned servers to run at.
    pub fn planned_freq(&self) -> Frequency {
        self.planned_freq
    }

    /// The highest frequency the policy allows the online governor to
    /// raise a server to (Fmax for dynamic policies, the fixed cap for
    /// COAT-OPT).
    pub fn dvfs_ceiling(&self) -> Frequency {
        self.dvfs_ceiling
    }

    /// The lowest frequency the policy allows the online governor to
    /// drop a server to (fmin for EPACT; the planned frequency itself
    /// for the fixed-frequency consolidation baselines).
    pub fn dvfs_floor(&self) -> Frequency {
        self.dvfs_floor
    }

    /// The per-server list of hosted VM indices.
    pub fn vms_per_server(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_servers];
        for (vm, &s) in self.assignments.iter().enumerate() {
            out[s].push(vm);
        }
        out
    }

    /// Aggregated series (sum of `series[vm]` for VMs on each server).
    ///
    /// # Panics
    ///
    /// Panics if `series` is shorter than the assignment list.
    pub fn aggregate_per_server(&self, series: &[TimeSeries]) -> Vec<TimeSeries> {
        let mut out = Vec::new();
        self.aggregate_per_server_into(series, &mut out);
        out
    }

    /// [`aggregate_per_server`](SlotPlan::aggregate_per_server) into a
    /// caller-owned buffer, reusing its allocations — the form the
    /// slot-replay hot loop of `ntc_datacenter::WeekSim` uses. `out` is
    /// resized to `num_servers` and every entry reset before
    /// accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `series` is shorter than the assignment list.
    pub fn aggregate_per_server_into(&self, series: &[TimeSeries], out: &mut Vec<TimeSeries>) {
        assert!(
            series.len() >= self.assignments.len(),
            "need one series per assigned VM"
        );
        let len = series.first().map_or(0, |s| s.len());
        out.resize_with(self.num_servers, || TimeSeries::zeros(0));
        for s in out.iter_mut() {
            s.reset_zeros(len);
        }
        for (vm, &s) in self.assignments.iter().enumerate() {
            out[s].add_in_place(&series[vm]);
        }
    }
}

/// A slot-level VM allocation policy (EPACT, COAT, COAT-OPT, …).
pub trait AllocationPolicy: std::fmt::Debug {
    /// The policy's display name.
    fn name(&self) -> &str;

    /// Produces the plan for one allocation window from predicted
    /// utilizations.
    fn allocate(&self, ctx: &SlotContext<'_>) -> SlotPlan;

    /// How many hourly slots one plan stays in force.
    ///
    /// EPACT re-allocates every slot (its defining "dynamic" property,
    /// §V-B); the consolidation baselines follow the daily utilization
    /// patterns of Kim et al. and re-allocate once per day (24 slots).
    fn reallocation_period_slots(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_series(n: usize, v: f64) -> Vec<TimeSeries> {
        vec![TimeSeries::constant(4, v); n]
    }

    #[test]
    fn context_aggregates() {
        let server = ServerPowerModel::ntc();
        let cpu = ctx_series(10, 5.0);
        let mem = ctx_series(10, 2.0);
        let ctx = SlotContext::new(&cpu, &mem, &server, 100);
        assert_eq!(ctx.num_vms(), 10);
        assert!((ctx.peak_aggregate_cpu() - 50.0).abs() < 1e-9);
        assert!((ctx.peak_aggregate_mem() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn day_window_backs_correlation_queries() {
        let server = ServerPowerModel::ntc();
        let day_series: Vec<TimeSeries> = (0..3)
            .map(|i| {
                TimeSeries::from_values((0..8).map(|t| ((i * 3 + t * 5) % 7) as f64).collect())
            })
            .collect();
        let day = ntc_trace::DayCache::with_block_size(&day_series, 4);
        let slot_cpu: Vec<TimeSeries> = day_series.iter().map(|s| s.window(4..8)).collect();
        let slot_mem = slot_cpu.clone();
        let ctx =
            SlotContext::new(&slot_cpu, &slot_mem, &server, 100).with_day_window(&day, &day, 4);
        let windowed = ctx.corr_cpu();
        let fresh = ntc_trace::CorrelationCache::new(&slot_cpu);
        for i in 0..3 {
            assert_eq!(windowed.variance(i), fresh.variance(i));
            for j in 0..3 {
                assert!((windowed.covariance(i, j) - fresh.covariance(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the day caches")]
    fn day_window_must_cover_the_slot() {
        let server = ServerPowerModel::ntc();
        let day_series = vec![TimeSeries::zeros(8)];
        let day = ntc_trace::DayCache::with_block_size(&day_series, 4);
        let cpu = vec![TimeSeries::zeros(4)];
        let mem = vec![TimeSeries::zeros(4)];
        let _ = SlotContext::new(&cpu, &mem, &server, 100).with_day_window(&day, &day, 6);
    }

    #[test]
    fn plan_per_server_views() {
        let f = Frequency::from_ghz(1.9);
        let plan = SlotPlan::new(
            vec![0, 1, 0],
            2,
            61.0,
            f,
            Frequency::from_mhz(100.0),
            Frequency::from_ghz(3.1),
        );
        assert_eq!(plan.vms_per_server(), vec![vec![0, 2], vec![1]]);
        let series = vec![
            TimeSeries::constant(2, 1.0),
            TimeSeries::constant(2, 2.0),
            TimeSeries::constant(2, 3.0),
        ];
        let agg = plan.aggregate_per_server(&series);
        assert_eq!(agg[0].values(), &[4.0, 4.0]);
        assert_eq!(agg[1].values(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "beyond num_servers")]
    fn bad_assignment_rejected() {
        let f = Frequency::from_ghz(1.9);
        let _ = SlotPlan::new(
            vec![2],
            2,
            50.0,
            f,
            Frequency::from_mhz(100.0),
            Frequency::from_ghz(3.1),
        );
    }

    #[test]
    #[should_panic(expected = "outside the online range")]
    fn inverted_frequencies_rejected() {
        let _ = SlotPlan::new(
            vec![0],
            1,
            50.0,
            Frequency::from_ghz(3.1),
            Frequency::from_mhz(100.0),
            Frequency::from_ghz(1.9),
        );
    }
}
