//! The data-center evaluation harness (§VI-C of the paper).
//!
//! [`WeekSim`] drives an [`AllocationPolicy`](ntc_core::AllocationPolicy)
//! over a one-week horizon of
//! hourly slots: at each slot boundary the policy allocates VMs to
//! servers from *predicted* utilization, then the slot is replayed with
//! the *actual* traces — the online DVFS governor picks a frequency per
//! server per 5-minute sample, energy is integrated through the server
//! power model, and overutilized server-samples are counted as SLA
//! violations (Fig. 4). The [`experiments`] module packages the runs
//! that regenerate every figure of the evaluation.
//!
//! # Examples
//!
//! ```
//! use ntc_core::Epact;
//! use ntc_datacenter::WeekSim;
//! use ntc_power::ServerPowerModel;
//! use ntc_workload::ClusterTraceGenerator;
//!
//! let fleet = ClusterTraceGenerator::google_like(24, 7).generate();
//! let sim = WeekSim::new(&fleet, ServerPowerModel::ntc(), 600);
//! let outcome = sim.run_with_oracle(&Epact::new());
//! assert_eq!(outcome.slots.len(), 168);
//! ```
//!
//! # Failure model
//!
//! Sweeps over many cells are fault-isolated. A running cell fails one
//! way, by panicking: [`Engine::run`] rejects a bad spec before any
//! cell starts, and a caught panic becomes a structured [`CellError`]
//! (index, label, pipeline stage, payload) in [`SweepResult::failed`],
//! while every other cell's result stays bit-identical to a clean run.
//! The spec's [`FailurePolicy`] chooses between finishing the
//! remaining cells (the default) and aborting them (`FailFast`; `ntcdc
//! sweep --fail-fast` on the CLI). The [`fault`] module documents the model
//! and the deterministic fault-injection instrument
//! ([`Engine::inject_fault`]) that proves the isolation guarantee:
//!
//! ```
//! use ntc_datacenter::{CellStage, Engine, ExperimentSpec, FaultSpec};
//!
//! let mut spec = ExperimentSpec::default_sweep();
//! spec.fleets[0].num_vms = 16; // keep the doctest fast
//! spec.max_servers = 200;
//! let sweep = Engine::new()
//!     .inject_fault(FaultSpec::panic_at(0, CellStage::Setup)) // fault the first cell
//!     .run(&spec)
//!     .unwrap();
//! assert_eq!(sweep.succeeded().len(), 5);
//! assert_eq!(sweep.failed()[0].index, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
mod cache;
mod engine;
pub mod experiments;
pub mod export;
pub mod fault;
mod outcome;
pub mod spec_json;
mod weeksim;

pub use backend::{
    AnalyticBackend, ArchsimBackend, BackendSpec, GovernedSlot, SlotAccounts, SlotBackend,
};
pub use cache::CacheStats;
pub use engine::{
    AblationFlags, CellOutcome, CellSpec, Engine, ExperimentSpec, FleetSpec, GroupOutcome,
    PolicySpec, PredictorSpec, ServerSpec, SweepResult,
};
pub use fault::{CellError, CellStage, FailureCause, FailurePolicy, FaultSpec};
pub use outcome::{MeanStd, SlotOutcome, WeekOutcome};
pub use weeksim::{WeekSim, WeekSimBuilder};
