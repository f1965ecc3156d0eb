//! Pluggable slot-accounting backends — the **account** stage of the
//! slot pipeline.
//!
//! [`WeekSim`](crate::WeekSim) evaluates each hourly slot in four
//! stages: *forecast* (day-ahead predictions), *plan* (the allocation
//! policy packs VMs and fixes the DVFS band), *govern* (the online
//! governor settles one [`GovernedSample`] operating point per active
//! server per 5-minute sample) and *account* (an implementation of
//! [`SlotBackend`] prices those operating points into energy and QoS
//! violations). The first three stages are shared by every backend;
//! only the pricing differs:
//!
//! * [`AnalyticBackend`] integrates the paper's §IV analytic
//!   [`ServerPowerModel`] — the evaluation path of §VI-C, and the
//!   default;
//! * [`ArchsimBackend`] drives the [`ntc_archsim`] interval-model
//!   server simulator per operating point, replacing the analytic
//!   wait-for-memory and bandwidth heuristics with the converged
//!   contention model and adding Table-I-style QoS degradation checks
//!   against the x86 baseline.
//!
//! # The backend contract (cache soundness)
//!
//! The engine's cross-cell caches
//! ([`Engine::caching`](crate::Engine::caching)) share plans and
//! day-ahead forecasts across every cell whose *planning inputs*
//! coincide — including cells that differ only in backend. That
//! sharing is sound if and only if a backend **conserves the upstream
//! stages**: it may read the governed operating points but must not
//! influence what is forecast, how VMs are packed, or which frequency
//! the governor picks. Concretely, `account` must be a pure function of
//! `(server model, governed slot)` — no feedback into planning state.
//!
//! Both built-in backends are pure accounting, so the engine's plan key
//! leaves the backend out and an `analytic`+`archsim` sweep plans each
//! (fleet, policy) arm exactly once. A backend that *did* parameterize
//! planning (say, a future latency-aware packer) would break that
//! sharing: it would have to add its planning parameters to the plan
//! key, so that distinct parameters get distinct plan rows.

use std::collections::HashMap;
use std::sync::Mutex;

use ntc_archsim::qos::QosBaseline;
use ntc_archsim::{Kernel, Platform, ServerSim};
use ntc_core::GovernedSample;
use ntc_power::{ServerLoad, ServerPowerModel};
use ntc_units::{Energy, Frequency, Percent, Seconds};
use ntc_workload::MemClass;

use crate::engine::ServerSpec;

/// The govern stage's output for one slot: per active server, its
/// dominant (worst-case) hosted memory class and one
/// [`GovernedSample`] per 5-minute sample, in server-major order.
///
/// Stored flat and reused across all 168 slots of a run, so the hot
/// loop allocates nothing once the buffers reach steady size.
#[derive(Debug, Default)]
pub struct GovernedSlot {
    classes: Vec<MemClass>,
    samples: Vec<GovernedSample>,
    samples_per_server: usize,
    sample_period: Seconds,
}

impl GovernedSlot {
    /// An empty slot buffer; fill it with [`reset`](Self::reset) /
    /// [`push_server`](Self::push_server) /
    /// [`push_sample`](Self::push_sample).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffers and fixes this slot's sample geometry.
    pub fn reset(&mut self, sample_period: Seconds, samples_per_server: usize) {
        self.classes.clear();
        self.samples.clear();
        self.samples_per_server = samples_per_server.max(1);
        self.sample_period = sample_period;
    }

    /// Opens the next active server; its samples follow via
    /// [`push_sample`](Self::push_sample).
    pub fn push_server(&mut self, class: MemClass) {
        self.classes.push(class);
    }

    /// Appends one governed sample to the most recently pushed server.
    pub fn push_sample(&mut self, sample: GovernedSample) {
        self.samples.push(sample);
    }

    /// Wall-clock duration of one sample (5 minutes on the paper grid).
    pub fn sample_period(&self) -> Seconds {
        self.sample_period
    }

    /// Number of active servers in the slot.
    pub fn num_servers(&self) -> usize {
        self.classes.len()
    }

    /// Iterates the active servers as (dominant class, samples) pairs,
    /// in the same server-major order they were pushed.
    pub fn servers(&self) -> impl Iterator<Item = (MemClass, &[GovernedSample])> + '_ {
        self.classes
            .iter()
            .copied()
            .zip(self.samples.chunks(self.samples_per_server))
    }
}

/// What a backend returns for one slot: the accounting totals the week
/// outcome is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotAccounts {
    /// Server-samples in violation (demand beyond the ceiling, memory
    /// overflow, or — backend-dependent — a missed QoS bound).
    pub violations: usize,
    /// Energy integrated over the slot.
    pub energy: Energy,
    /// Sum of served frequencies over all active server-samples, MHz.
    pub freq_sum_mhz: f64,
    /// Active server-samples priced (the divisor for the mean).
    pub freq_count: usize,
}

impl SlotAccounts {
    /// All-zero accounts, the fold identity.
    pub fn empty() -> Self {
        Self {
            violations: 0,
            energy: Energy::ZERO,
            freq_sum_mhz: 0.0,
            freq_count: 0,
        }
    }

    /// Mean served frequency over the slot (zero when no server ran).
    pub fn mean_freq(&self) -> Frequency {
        if self.freq_count == 0 {
            Frequency::ZERO
        } else {
            Frequency::from_mhz(self.freq_sum_mhz / self.freq_count as f64)
        }
    }
}

impl Default for SlotAccounts {
    fn default() -> Self {
        Self::empty()
    }
}

/// The account stage: prices a governed slot into energy, violations
/// and frequency statistics. See the [module docs](self) for the
/// conservation contract an implementation must honour.
pub trait SlotBackend: std::fmt::Debug {
    /// Short identity label (`"analytic"`, `"archsim"`).
    fn name(&self) -> &'static str;

    /// Prices one governed slot against `server`'s power model.
    ///
    /// Must be a pure function of its arguments (memoization of pure
    /// sub-results is fine) and must iterate server-major,
    /// sample-minor so floating-point accumulation order is
    /// deterministic.
    fn account(&self, server: &ServerPowerModel, slot: &GovernedSlot) -> SlotAccounts;
}

/// The paper's analytic accounting (§VI-C): every governed sample is
/// priced through [`ServerPowerModel::power`], and violations are the
/// govern stage's demand violations. This is bit-identical to the
/// pre-pipeline monolithic `WeekSim` loop — the golden regression test
/// in `tests/engine_sweep.rs` pins it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyticBackend;

impl SlotBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn account(&self, server: &ServerPowerModel, slot: &GovernedSlot) -> SlotAccounts {
        let mut acc = SlotAccounts::empty();
        let period = slot.sample_period();
        for (_, samples) in slot.servers() {
            for s in samples {
                if s.demand_violated {
                    acc.violations += 1;
                }
                let p = server.power(s.freq, s.cpu_util, s.mem_util);
                acc.energy += p * period;
                acc.freq_sum_mhz += s.freq.as_mhz();
                acc.freq_count += 1;
            }
        }
        acc
    }
}

/// One converged interval-model operating point, memoized per
/// (memory class, frequency): the quantities `account` reads per
/// sample.
#[derive(Debug, Clone, Copy)]
struct SimPoint {
    /// Fraction of busy cycles stalled waiting for memory.
    wfm_fraction: f64,
    /// Chip-wide DRAM read bandwidth at full load, bytes/s.
    read_bytes_per_sec: f64,
    /// Chip-wide LLC accesses at full load, per second.
    llc_accesses_per_sec: f64,
    /// Whether the class meets the 2× QoS degradation bound here.
    qos_met: bool,
}

/// Detailed accounting through the [`ntc_archsim`] interval model.
///
/// Per governed sample, the dominant hosted memory class is run through
/// [`ServerSim`] at the served frequency (memoized — at most
/// `classes × DVFS levels` simulations per run). The converged
/// wait-for-memory fraction and realized DRAM/LLC traffic replace the
/// analytic model's fixed heuristics in the [`ServerLoad`], scaled by
/// the server's busy fraction, and a sample whose class misses the 2×
/// QoS degradation bound ([`QosBaseline::paper_table1`]) at its served
/// frequency counts as a violation on top of the demand violations.
///
/// This struct is also the crate's single archsim entry point: the
/// figure/table runners in [`crate::experiments`] query
/// [`exec_time`](Self::exec_time) /
/// [`normalized_time`](Self::normalized_time) /
/// [`min_qos_frequency`](Self::min_qos_frequency) instead of touching
/// `ServerSim` directly.
#[derive(Debug)]
pub struct ArchsimBackend {
    sim: ServerSim,
    baseline: QosBaseline,
    memo: Mutex<HashMap<(u8, u64), SimPoint>>,
}

impl ArchsimBackend {
    /// A backend simulating `platform`, judged against the published
    /// Table I x86 baseline times.
    pub fn new(platform: Platform) -> Self {
        Self {
            sim: ServerSim::new(platform),
            baseline: QosBaseline::paper_table1(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The proposed 16-core NTC server (Table 1).
    pub fn ntc() -> Self {
        Self::new(Platform::ntc_server())
    }

    /// The Xeon X5650 QoS-reference host itself.
    pub fn x86_baseline() -> Self {
        Self::new(Platform::xeon_x5650())
    }

    /// The underlying interval-model simulator.
    pub fn sim(&self) -> &ServerSim {
        &self.sim
    }

    /// The QoS baseline the backend judges degradation against.
    pub fn baseline(&self) -> &QosBaseline {
        &self.baseline
    }

    /// Execution time of `kernel` on this platform at `f`.
    pub fn exec_time(&self, kernel: &Kernel, f: Frequency) -> Seconds {
        self.sim.run(kernel, f).exec_time
    }

    /// Execution time normalized to the QoS limit (≤ 1.0 meets QoS) —
    /// the y-axis of Fig. 2.
    pub fn normalized_time(&self, kernel: &Kernel, f: Frequency) -> f64 {
        self.baseline.normalized_time(&self.sim, kernel, f)
    }

    /// The lowest of `levels` at which `kernel` still meets QoS, or
    /// `None` if none does.
    pub fn min_qos_frequency(&self, kernel: &Kernel, levels: &[Frequency]) -> Option<Frequency> {
        self.baseline.min_qos_frequency(&self.sim, kernel, levels)
    }

    /// The memoized operating point of `class` at `f`. The governor
    /// serves a handful of discrete DVFS levels, so the table stays
    /// tiny and each (class, level) pair converges the interval model
    /// exactly once per run.
    fn point(&self, class: MemClass, f: Frequency) -> SimPoint {
        let key = (mem_class_rank(class), f.as_mhz().to_bits());
        let mut memo = self.memo.lock().expect("archsim memo never poisoned");
        if let Some(p) = memo.get(&key) {
            return *p;
        }
        let kernel =
            Kernel::by_name(class.kernel_name()).expect("every MemClass maps to a paper kernel");
        let out = self.sim.run(&kernel, f);
        let point = SimPoint {
            wfm_fraction: out.wfm_fraction,
            read_bytes_per_sec: out.dram_read_bytes_per_sec,
            llc_accesses_per_sec: out.llc_accesses_per_sec,
            qos_met: out.exec_time / self.baseline.qos_limit(&kernel) <= 1.0,
        };
        memo.insert(key, point);
        point
    }
}

impl SlotBackend for ArchsimBackend {
    fn name(&self) -> &'static str {
        "archsim"
    }

    fn account(&self, server: &ServerPowerModel, slot: &GovernedSlot) -> SlotAccounts {
        let mut acc = SlotAccounts::empty();
        let period = slot.sample_period();
        for (class, samples) in slot.servers() {
            for s in samples {
                let point = self.point(class, s.freq);
                if s.demand_violated || !point.qos_met {
                    acc.violations += 1;
                }
                // Scale the full-load chip traffic by the busy
                // fraction; the 80/20 read/write LLC split matches the
                // analytic model's first-order coupling.
                let busy = s.cpu_util.as_fraction();
                let wfm = Percent::new(s.cpu_util.value() * point.wfm_fraction);
                let load = ServerLoad {
                    cpu_active: s.cpu_util - wfm,
                    cpu_wfm: wfm,
                    mem_active: s.mem_util,
                    read_bytes_per_sec: point.read_bytes_per_sec * busy,
                    llc_reads_per_sec: point.llc_accesses_per_sec * busy * 0.8,
                    llc_writes_per_sec: point.llc_accesses_per_sec * busy * 0.2,
                };
                let p = server.power_at(s.freq, &load);
                acc.energy += p * period;
                acc.freq_sum_mhz += s.freq.as_mhz();
                acc.freq_count += 1;
            }
        }
        acc
    }
}

/// Stable ordering of the memory classes by footprint, used both for
/// memo keys and to pick a server's dominant (worst-case) class.
pub(crate) fn mem_class_rank(class: MemClass) -> u8 {
    match class {
        MemClass::Low => 0,
        MemClass::Mid => 1,
        MemClass::High => 2,
    }
}

/// An accounting backend in the sweep's backend set — the sixth cell
/// axis of [`ExperimentSpec`](crate::ExperimentSpec).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// The analytic §IV power-model integration (the default; legacy
    /// specs without a backend axis parse as this).
    #[default]
    Analytic,
    /// The interval-model archsim accounting with QoS degradation.
    Archsim,
}

impl BackendSpec {
    /// Short display label, also the CLI / JSON tag.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Analytic => "analytic",
            BackendSpec::Archsim => "archsim",
        }
    }

    /// Instantiates the backend for `server`'s platform, reporting
    /// construction failures as a structured
    /// [`ntc_core::Error::BackendInit`] instead of panicking — the
    /// experiment engine turns these into per-cell failures
    /// ([`CellError`](crate::CellError)) so one misconfigured backend
    /// arm cannot tear down a sweep.
    ///
    /// For archsim, every memory class's kernel mapping is resolved
    /// here, up front: a missing kernel surfaces as a setup-stage
    /// error rather than a panic in the account stage's memo fill.
    ///
    /// # Errors
    ///
    /// Returns [`ntc_core::Error::BackendInit`] if the backend cannot
    /// serve `server`'s platform.
    pub fn try_build(&self, server: ServerSpec) -> Result<Box<dyn SlotBackend>, ntc_core::Error> {
        match self {
            BackendSpec::Analytic => Ok(Box::new(AnalyticBackend)),
            BackendSpec::Archsim => {
                for class in [MemClass::Low, MemClass::Mid, MemClass::High] {
                    if Kernel::by_name(class.kernel_name()).is_none() {
                        return Err(ntc_core::Error::BackendInit {
                            backend: self.label().to_string(),
                            reason: format!(
                                "no archsim kernel named {:?} for memory class {class:?}",
                                class.kernel_name()
                            ),
                        });
                    }
                }
                Ok(Box::new(match server {
                    ServerSpec::Ntc => ArchsimBackend::ntc(),
                    ServerSpec::Conventional => ArchsimBackend::x86_baseline(),
                }))
            }
        }
    }

    /// Instantiates the backend for `server`'s platform.
    ///
    /// # Panics
    ///
    /// Panics if construction fails — use
    /// [`try_build`](Self::try_build) where a structured error is
    /// wanted (the engine does).
    pub fn build(&self, server: ServerSpec) -> Box<dyn SlotBackend> {
        self.try_build(server).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytic" => Ok(BackendSpec::Analytic),
            "archsim" => Ok(BackendSpec::Archsim),
            other => Err(format!(
                "unknown backend {other:?} (expected analytic or archsim)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_core::DvfsGovernor;

    fn governed_slot(model: &ServerPowerModel, class: MemClass, demands: &[f64]) -> GovernedSlot {
        let gov = DvfsGovernor::new(model);
        let mut slot = GovernedSlot::new();
        slot.reset(Seconds::new(300.0), demands.len());
        slot.push_server(class);
        for &d in demands {
            slot.push_sample(gov.govern_sample(d, 20.0, model.fmax(), model.fmin(), None));
        }
        slot
    }

    #[test]
    fn analytic_matches_direct_power_math() {
        let model = ServerPowerModel::ntc();
        let slot = governed_slot(&model, MemClass::Low, &[10.0, 55.0, 97.0]);
        let acc = AnalyticBackend.account(&model, &slot);
        let mut energy = Energy::ZERO;
        for (_, samples) in slot.servers() {
            for s in samples {
                energy += model.power(s.freq, s.cpu_util, s.mem_util) * Seconds::new(300.0);
            }
        }
        assert_eq!(acc.energy, energy);
        assert_eq!(acc.violations, 0);
        assert_eq!(acc.freq_count, 3);
    }

    #[test]
    fn governed_slot_iterates_server_major() {
        let model = ServerPowerModel::ntc();
        let gov = DvfsGovernor::new(&model);
        let mut slot = GovernedSlot::new();
        slot.reset(Seconds::new(300.0), 2);
        for class in [MemClass::Low, MemClass::High] {
            slot.push_server(class);
            for d in [5.0, 80.0] {
                slot.push_sample(gov.govern_sample(d, 10.0, model.fmax(), model.fmin(), None));
            }
        }
        let servers: Vec<_> = slot.servers().collect();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[0].0, MemClass::Low);
        assert_eq!(servers[1].0, MemClass::High);
        assert_eq!(servers[0].1.len(), 2);
        assert_eq!(slot.num_servers(), 2);
    }

    #[test]
    fn archsim_flags_qos_misses_the_analytic_backend_ignores() {
        // A high-mem server at a deep near-threshold frequency is far
        // beyond the 2x degradation bound: archsim must count the
        // violation, analytic must not (demand itself is servable).
        let model = ServerPowerModel::ntc();
        let gov = DvfsGovernor::new(&model);
        let mut slot = GovernedSlot::new();
        slot.reset(Seconds::new(300.0), 1);
        slot.push_server(MemClass::High);
        // tiny demand -> the governor picks the lowest level
        slot.push_sample(gov.govern_sample(0.5, 5.0, model.fmax(), model.fmin(), None));
        let analytic = AnalyticBackend.account(&model, &slot);
        let archsim = ArchsimBackend::ntc().account(&model, &slot);
        assert_eq!(analytic.violations, 0);
        assert_eq!(archsim.violations, 1, "high-mem at fmin must miss QoS");
        assert!(archsim.energy > Energy::ZERO);
    }

    #[test]
    fn archsim_memoizes_operating_points() {
        let backend = ArchsimBackend::ntc();
        let model = ServerPowerModel::ntc();
        let slot = governed_slot(&model, MemClass::Mid, &[40.0; 12]);
        let _ = backend.account(&model, &slot);
        // 12 identical samples converge the interval model once.
        assert_eq!(backend.memo.lock().unwrap().len(), 1);
        let again = backend.account(&model, &slot);
        let first = backend.account(&model, &slot);
        assert_eq!(again, first, "memoized accounting must be stable");
    }

    #[test]
    fn backend_spec_round_trips_labels() {
        for spec in [BackendSpec::Analytic, BackendSpec::Archsim] {
            let parsed: BackendSpec = spec.label().parse().unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(spec.to_string(), spec.label());
        }
        assert!("gem5".parse::<BackendSpec>().is_err());
        assert!(BackendSpec::default() == BackendSpec::Analytic);
    }

    #[test]
    fn try_build_resolves_every_memory_class_kernel() {
        // The archsim kernel mapping is validated at construction, so
        // the account-stage memo fill can never hit a missing kernel.
        for spec in [BackendSpec::Analytic, BackendSpec::Archsim] {
            for server in [ServerSpec::Ntc, ServerSpec::Conventional] {
                assert!(spec.try_build(server).is_ok(), "{spec}/{server:?}");
            }
        }
    }

    #[test]
    fn built_backends_report_their_names() {
        assert_eq!(
            BackendSpec::Analytic.build(ServerSpec::Ntc).name(),
            "analytic"
        );
        assert_eq!(
            BackendSpec::Archsim.build(ServerSpec::Conventional).name(),
            "archsim"
        );
    }
}
