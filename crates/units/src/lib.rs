//! Dimensional newtypes for the `ntc-dc` workspace.
//!
//! Every physical quantity that flows between the power models, the
//! architecture simulator and the allocation policies is wrapped in a
//! newtype so that, e.g., a [`Voltage`] can never be passed where a
//! [`Frequency`] is expected, and so that dimensional arithmetic
//! (`Power * Seconds = Energy`, `Cycles / Frequency = Seconds`, …) is
//! checked by the compiler.
//!
//! # Examples
//!
//! ```
//! use ntc_units::{Frequency, Power, Seconds};
//!
//! let f = Frequency::from_ghz(1.9);
//! assert_eq!(f.as_mhz(), 1900.0);
//!
//! let energy = Power::from_watts(58.0) * Seconds::new(300.0);
//! assert!((energy.as_joules() - 17_400.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod energy;
mod frequency;
mod memory;
mod percent;
mod power;
mod time;
mod voltage;

pub use energy::Energy;
pub use frequency::Frequency;
pub use memory::MemBytes;
pub use percent::Percent;
pub use power::Power;
pub use time::{Cycles, Seconds};
pub use voltage::Voltage;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_module_dimensional_chain() {
        // 1e9 cycles at 1 GHz take 1 second; at 10 W that is 10 J.
        let t = Cycles::new(1_000_000_000) / Frequency::from_ghz(1.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
        let e = Power::from_watts(10.0) * t;
        assert!((e.as_joules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn all_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frequency>();
        assert_send_sync::<Voltage>();
        assert_send_sync::<Power>();
        assert_send_sync::<Energy>();
        assert_send_sync::<Percent>();
        assert_send_sync::<MemBytes>();
        assert_send_sync::<Seconds>();
        assert_send_sync::<Cycles>();
    }
}
