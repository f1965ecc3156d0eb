//! # ntc-dc — Consolidating or Not?
//!
//! A reproduction of *"Energy Proportionality in Near-Threshold Computing
//! Servers and Cloud Data Centers: Consolidating or Not?"* (Pahlevan et
//! al., DATE 2018) as a Rust workspace. This facade crate re-exports every
//! sub-crate under a stable namespace:
//!
//! * [`units`] — dimensional newtypes ([`ntc_units`])
//! * [`trace`] — time-series substrate ([`ntc_trace`])
//! * [`power`] — FD-SOI NTC and conventional server power models
//!   ([`ntc_power`])
//! * [`archsim`] — interval-model multicore server simulator
//!   ([`ntc_archsim`])
//! * [`workload`] — Google-cluster-like VM trace synthesis
//!   ([`ntc_workload`])
//! * [`forecast`] — ARIMA prediction ([`ntc_forecast`])
//! * [`policy`] — EPACT and the consolidation baselines ([`ntc_core`])
//! * [`datacenter`] — week-long data-center simulation ([`ntc_datacenter`])
//!
//! # Quickstart
//!
//! ```
//! use ntc_dc::power::ServerPowerModel;
//! use ntc_dc::units::{Frequency, Percent};
//!
//! let server = ServerPowerModel::ntc();
//! let p = server.power(Frequency::from_ghz(1.9), Percent::FULL, Percent::new(10.0));
//! assert!(p.as_watts() > 20.0);
//! ```
//!
//! # Running experiments: the [`Engine`](datacenter::Engine)
//!
//! Every evaluation of the paper is a sweep over independent
//! (policy, configuration) cells. Declare the sweep once as an
//! [`ExperimentSpec`](datacenter::ExperimentSpec) and the engine fans
//! the cells across all cores, returning outcomes deterministically in
//! spec order — a parallel run is bit-identical to a sequential one:
//!
//! ```
//! use ntc_dc::datacenter::{Engine, ExperimentSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep(); // EPACT/COAT/COAT-OPT x NTC/conv
//! spec.fleets[0].num_vms = 16; // keep the doctest fast
//! spec.max_servers = 200;
//! let sweep = Engine::new().run(&spec).unwrap();
//! assert_eq!(sweep.cells.len(), 6);
//! let epact_ntc = &sweep.cells[0];
//! assert_eq!(epact_ntc.outcome.policy, "EPACT");
//! ```
//!
//! Fleet seeds and static-power scales (the Fig. 7 knob) are axes of
//! the same spec: multiple fleets run every configuration once per
//! seed, and [`SweepResult::seed_groups`](datacenter::SweepResult::seed_groups)
//! collapses them to mean±std rows:
//!
//! ```
//! use ntc_dc::datacenter::{Engine, ExperimentSpec, PolicySpec, ServerSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2, 3]);
//! spec.fleets.iter_mut().for_each(|f| f.num_vms = 10); // doctest-sized
//! spec.policies = vec![PolicySpec::Epact];
//! spec.servers = vec![ServerSpec::Ntc];
//! spec.static_power_scales = vec![1.0, 0.5]; // Fig. 7: halved motherboard power
//! spec.max_servers = 100;
//! let sweep = Engine::new().run(&spec).unwrap();
//! assert_eq!(sweep.cells.len(), 6); // 3 seeds x 2 scales x 1 policy
//! let groups = sweep.seed_groups(); // averaged over the seed axis
//! assert_eq!(groups.len(), 2);
//! assert_eq!(groups[0].runs, 3);
//! println!("energy: {} MJ", groups[0].energy_mj); // "123.4±5.6"
//! ```
//!
//! The *accounting backend* is an axis too: every cell's slot pipeline
//! runs forecast → plan → govern identically, then prices the governed
//! operating points either through the analytic §IV power model (the
//! default) or through the [`archsim`] interval simulator with
//! Table-I-style QoS degradation checks — `ntcdc sweep --backends
//! analytic,archsim` sweeps both through one engine:
//!
//! ```
//! use ntc_dc::datacenter::{BackendSpec, Engine, ExperimentSpec, PolicySpec, ServerSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep();
//! spec.fleets[0].num_vms = 10; // doctest-sized
//! spec.policies = vec![PolicySpec::Epact];
//! spec.servers = vec![ServerSpec::Ntc];
//! spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
//! spec.max_servers = 100;
//! let sweep = Engine::new().run(&spec).unwrap();
//! assert_eq!(sweep.cells.len(), 2); // one cell per backend
//! // Backends share the plan stage bit for bit; only pricing differs.
//! assert_eq!(
//!     sweep.cells[0].outcome.total_migrations(),
//!     sweep.cells[1].outcome.total_migrations(),
//! );
//! ```
//!
//! # Failure model: one bad cell cannot sink the sweep
//!
//! Every cell runs isolated behind a panic boundary. A cell that
//! panics or reports an error becomes a structured
//! [`CellError`](datacenter::CellError) — carrying the cell's index,
//! label, full [`CellSpec`](datacenter::CellSpec), the pipeline stage
//! that failed, and the panic payload or
//! [`Error`](policy::Error) — while every other cell completes
//! bit-identically to a clean run. The
//! [`succeeded`](datacenter::SweepResult::succeeded) and
//! [`failed`](datacenter::SweepResult::failed) accessors partition
//! the [`SweepResult`](datacenter::SweepResult); setting
//! [`ExperimentSpec::failure_policy`](datacenter::ExperimentSpec) to
//! [`FailurePolicy::FailFast`](datacenter::FailurePolicy) (the CLI's
//! `ntcdc sweep --fail-fast`) aborts the not-yet-started cells after
//! the first failure instead, reporting them as skipped. The
//! test-only [`FaultSpec`](datacenter::FaultSpec) axis injects a
//! panic or error into one cell of one run to prove the isolation:
//!
//! ```
//! use ntc_dc::datacenter::{CellStage, Engine, ExperimentSpec, FaultSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep();
//! spec.fleets[0].num_vms = 16; // doctest-sized
//! spec.max_servers = 200;
//! let sweep = Engine::new()
//!     .inject_fault(FaultSpec::error_at(0)) // cell 0 fails in setup
//!     .run(&spec)
//!     .unwrap();
//! assert_eq!(sweep.succeeded().len(), 5); // the other 5 cells are intact
//! let failed = &sweep.failed()[0];
//! assert_eq!(failed.index, 0);
//! assert_eq!(failed.stage(), Some(CellStage::Setup));
//! println!("{failed}"); // "cell 0 (EPACT/NTC) failed in setup: ..."
//! ```
//!
//! Failed cells surface everywhere downstream: the sweep JSON export
//! carries a `failures` array with `cells_total`/`cells_failed`
//! counts, `ntcdc sweep` prints a per-cell failure table and exits
//! non-zero, and [`seed_groups`](datacenter::SweepResult::seed_groups)
//! averages over the surviving seeds only, NaN-free.
//!
//! Specs serialize to JSON via
//! [`datacenter::spec_json`] — the same file format `ntcdc sweep
//! --spec` reads (legacy specs without a `backends` array default to
//! analytic accounting; the `failure_policy` field round-trips as
//! `"keep_going"`/`"fail_fast"` and defaults to keep-going).
//!
//! The engine memoizes planning work across cells: fleets are generated
//! once per seed, day-ahead forecasts are shared by every cell of a
//! fleet, and cells that differ only in static-power scale reuse whole
//! slot plans. `ntcdc sweep --cache-stats` prints the hit/miss totals
//! (and `--no-cache` turns the sharing off):
//!
//! ```text
//! $ ntcdc sweep --seeds 1,2 --static-power-scales 0.5,1.0 --arima --cache-stats
//! ...
//! cache: plans 42 hit / 1414 miss, forecasts 112 hit / 14 miss
//! ```
//!
//! # Construction
//!
//! Each policy- and simulation-layer type has one constructor, which
//! asserts its invariants with a `#[track_caller]` panic: bad input
//! there is a bug in the caller. Only the experiment engine's calls are
//! fallible, returning the shared
//! [`ntc_core::Error`](policy::Error) so that a sweep can report a bad
//! spec or a failed cell instead of unwinding: `Engine::run` validates
//! the spec before fanning out, and each cell builds its simulator with
//! `WeekSimBuilder::build` and its backend with `BackendSpec::try_build`
//! (`build_or_panic` and `BackendSpec::build` are their panicking
//! forms).

#![warn(missing_docs)]

pub use ntc_archsim as archsim;
pub use ntc_core as policy;
pub use ntc_datacenter as datacenter;
pub use ntc_forecast as forecast;
pub use ntc_power as power;
pub use ntc_trace as trace;
pub use ntc_units as units;
pub use ntc_workload as workload;
