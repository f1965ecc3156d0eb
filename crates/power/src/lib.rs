//! Server and data-center power models for near-threshold computing (NTC)
//! servers in 28nm UTBB FD-SOI, plus a conventional (Intel E5-2620 class)
//! comparison model.
//!
//! The model structure follows §IV of the paper, with four contributors to
//! server power:
//!
//! 1. **Core region** ([`CoreRegionModel`]) — Cortex-A57 cores with L1/L2
//!    caches: dynamic power `Ceff·V²·f`, exponential-in-V leakage, and a
//!    24% discount while in the wait-for-memory (WFM) state.
//! 2. **Last-level cache** ([`LlcModel`]) — leakage per 256 KB SRAM block
//!    plus per-access read/write energy for 128-bit accesses.
//! 3. **Uncore** ([`UncoreModel`]) — memory controller, peripherals, IO and
//!    motherboard: an 11.84 W constant component, a 1.6–9 W component
//!    proportional to the operating point, and 15 W of motherboard/fan/SSD
//!    (the "static power" knob swept by Fig. 7).
//! 4. **DRAM** ([`DramModel`]) — 15.5 mW/GB idle, 155 mW/GB with banks
//!    active, and 800 pJ per byte read.
//!
//! [`ServerPowerModel`] composes the four and names the frequency optimum
//! `F_NTC_opt ≈ 1.9 GHz` that motivates EPACT
//! ([`ServerPowerModel::ntc_optimal_frequency`]); [`DataCenterPowerModel`]
//! lifts a server model to the data-center level and exposes the
//! worst-case power surface of Fig. 1.
//!
//! # Examples
//!
//! ```
//! use ntc_power::{DataCenterPowerModel, ServerPowerModel};
//! use ntc_units::Percent;
//!
//! let dc = DataCenterPowerModel::new(ServerPowerModel::ntc(), 80);
//! let (f_opt, _) = dc.optimal_frequency(Percent::new(20.0));
//! assert!((f_opt.as_ghz() - 1.9).abs() < 0.35);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core_region;
mod datacenter;
mod dram;
mod fdsoi;
mod llc;
pub mod proportionality;
pub mod psu;
mod server;
pub mod thermal;
mod uncore;
pub mod validation;
pub mod variation;

pub use core_region::CoreRegionModel;
pub use datacenter::DataCenterPowerModel;
pub use dram::DramModel;
pub use fdsoi::VfCurve;
pub use llc::LlcModel;
pub use server::{PowerBreakdown, ServerLoad, ServerPowerModel};
pub use uncore::UncoreModel;
