//! EPACT — Energy Proportionality-Aware dynamiC allocaTion — and the
//! consolidation baselines it is evaluated against (§V of the paper).
//!
//! The crate implements the paper's contribution verbatim:
//!
//! * [`eq1`] — the CPU- and memory-side estimates of how many servers to
//!   turn on (Eq. 1), and the slot-level case split;
//! * [`OneDimAllocator`] — Algorithm 1: correlation-aware
//!   first-fit-decreasing over CPU only (the CPU-dominated case);
//! * [`TwoDimAllocator`] — Algorithm 2: the merit function of Eq. 2
//!   combining Pearson correlation and Euclidean distance over both CPU
//!   and memory (the memory-dominated case);
//! * [`Epact`] — the complete policy: predict → Eq. 1 → allocate →
//!   per-sample online DVFS;
//! * [`Coat`] / [`CoatOpt`] — the state-of-the-art consolidation
//!   baselines (correlation-aware VM allocation after Kim et al.,
//!   DATE'13), at maximum cap and at the optimal fixed cap respectively;
//! * [`DvfsGovernor`] — the per-sample frequency selection shared by all
//!   policies.
//!
//! # Examples
//!
//! ```
//! use ntc_core::{AllocationPolicy, Epact, SlotContext};
//! use ntc_power::ServerPowerModel;
//! use ntc_trace::TimeSeries;
//!
//! let server = ServerPowerModel::ntc();
//! let cpu = vec![TimeSeries::constant(12, 4.0); 32];
//! let mem = vec![TimeSeries::constant(12, 1.0); 32];
//! let ctx = SlotContext::new(&cpu, &mem, &server, 600);
//! let plan = Epact::new().allocate(&ctx);
//! assert!(plan.num_servers() >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc1d;
mod alloc2d;
mod coat;
mod epact;
pub mod eq1;
mod error;
pub mod exhaustive;
mod governor;
mod loadbalance;
mod migration;
mod plan;

pub use alloc1d::OneDimAllocator;
pub use alloc2d::TwoDimAllocator;
pub use coat::{Coat, CoatOpt};
pub use epact::Epact;
pub use error::Error;
pub use governor::{DvfsGovernor, GovernedSample};
pub use loadbalance::LoadBalance;
pub use migration::migration_count;
pub use plan::{AllocationPolicy, SlotContext, SlotPlan};
