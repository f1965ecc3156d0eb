//! An interval-model multicore server simulator — the workspace's
//! substitute for the gem5 runs of §VI-A of the paper.
//!
//! The paper uses gem5 only to obtain, per workload and DVFS level:
//! execution time, user instructions per second (UIPS), the share of
//! cycles spent waiting for memory (WFM), and DRAM traffic. An interval
//! model (in the style of Sniper) reproduces those first-order quantities
//! from a handful of microarchitectural parameters:
//!
//! * compute time scales as `1/f` (core cycles at the dispatch rate);
//! * on-chip (LLC) stall time also scales as `1/f` (cycle-denominated
//!   latency), divided by the core's memory-level parallelism (MLP);
//! * DRAM stall time is frequency-*independent* (nanosecond-denominated)
//!   and inflates under bandwidth contention — which is why memory-heavy
//!   workloads tolerate lower frequencies *until* the shared-bandwidth
//!   wall bites;
//! * in-order cores (Cavium ThunderX's A53-class) cannot overlap misses
//!   (low MLP) — the deficiency that motivated the paper's A57-based NTC
//!   server.
//!
//! The crate also contains a real set-associative cache simulator
//! ([`cache`]) driven by synthetic address streams ([`stream`]) with
//! power-law stack-distance locality; it is used to validate the analytic
//! per-kilo-instruction access rates baked into the workload [`Kernel`]s.
//!
//! [`cache`], [`stream`], [`ddr`], [`pipeline`] and [`detailed`] are a
//! test-only cross-check of the interval model: their own tests and the
//! `detailed_vs_interval_*` property tests check that both models agree
//! on the qualitative behaviour the paper's figures rest on (frequency
//! sensitivity, platform ordering). No front end runs them: the CLI,
//! the sweep engine, the examples and the benchmark use only the
//! interval model ([`ServerSim`]).
//!
//! # Examples
//!
//! ```
//! use ntc_archsim::{Kernel, Platform, ServerSim};
//! use ntc_units::Frequency;
//!
//! let sim = ServerSim::new(Platform::ntc_server());
//! let outcome = sim.run(&Kernel::low_mem(), Frequency::from_ghz(2.0));
//! assert!(outcome.exec_time.as_secs() > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod calibration;
mod coremodel;
pub mod ddr;
pub mod detailed;
mod dramsim;
pub mod efficiency;
mod kernel;
pub mod pipeline;
mod platform;
pub mod qos;
mod sim;
pub mod stream;

pub use coremodel::{CoreKind, CoreParams};
pub use dramsim::MemoryParams;
pub use kernel::Kernel;
pub use platform::Platform;
pub use sim::{ServerSim, SimOutcome};
