/// Errors of the one call whose callers handle them: the experiment
/// engine's spec validation (`ntc_datacenter::Engine::run`), which
/// rejects a bad spec before any cell starts.
///
/// Every constructor (`SlotContext::new`, `SlotPlan::new`, the
/// allocators, `ntc_datacenter::WeekSimBuilder::build_or_panic`) treats
/// bad input as a bug and asserts; where a check exists in both forms
/// (no VMs, no servers, a short horizon) the panic message is this
/// `Display` text.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A context or allocation request carries no VMs.
    NoVms,
    /// The data center was configured with zero servers.
    NoServers,
    /// A fleet's horizon is too short for training plus evaluation.
    HorizonTooShort {
        /// Samples the fleet carries.
        have: usize,
        /// Samples required (two weeks).
        need: usize,
    },
    /// A fleet's horizon has more samples than a `usize` can count.
    HorizonTooLong {
        /// The horizon in weeks.
        weeks: usize,
    },
    /// An experiment spec contains no runnable cells.
    EmptySpec,
    /// A static-power scale factor is negative, NaN or infinite.
    BadStaticPowerScale {
        /// The offending scale factor.
        scale: f64,
    },
    /// A QoS frequency floor is negative, NaN or infinite.
    BadQosFloor {
        /// The offending floor, MHz.
        mhz: f64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoVms => write!(f, "context needs at least one VM"),
            Self::NoServers => write!(f, "data center needs at least one server"),
            Self::HorizonTooShort { have, need } => write!(
                f,
                "fleet must carry a training week plus the evaluation week \
                 ({have} samples, need {need})"
            ),
            Self::HorizonTooLong { weeks } => write!(
                f,
                "fleet horizon of {weeks} weeks has more samples than can be counted"
            ),
            Self::EmptySpec => write!(f, "experiment spec needs at least one cell"),
            Self::BadStaticPowerScale { scale } => write!(
                f,
                "static-power scale must be finite and non-negative (got {scale})"
            ),
            Self::BadQosFloor { mhz } => write!(
                f,
                "QoS floor must be finite and non-negative (got {mhz} MHz)"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    // `WeekSimBuilder::build_or_panic` panics with these Display
    // strings; the substrings asserted here are the ones
    // `#[should_panic(expected = ...)]` tests match on.
    #[test]
    fn display_preserves_legacy_panic_wording() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::NoVms, "context needs at least one VM"),
            (Error::NoServers, "data center needs at least one server"),
            (
                Error::HorizonTooShort {
                    have: 100,
                    need: 4032,
                },
                "training week",
            ),
            (
                Error::HorizonTooLong {
                    weeks: 576_460_752_303_423_490,
                },
                "fleet horizon of 576460752303423490 weeks has more samples than can be counted",
            ),
            (Error::EmptySpec, "at least one cell"),
            (
                Error::BadStaticPowerScale { scale: -1.0 },
                "finite and non-negative",
            ),
            (
                Error::BadQosFloor { mhz: -500.0 },
                "QoS floor must be finite and non-negative (got -500 MHz)",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(
                text.contains(needle),
                "{err:?} must display {needle:?}, got {text:?}"
            );
        }
    }

    /// The policy-layer constructors assert their invariants with the
    /// wording their error variants used to display.
    #[test]
    fn constructor_panics_keep_the_legacy_wording() {
        use crate::{OneDimAllocator, SlotContext, SlotPlan, TwoDimAllocator};
        use ntc_power::ServerPowerModel;
        use ntc_trace::TimeSeries;
        use ntc_units::Frequency;

        macro_rules! rejects {
            ($construct:expr, $needle:literal) => {{
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = $construct;
                }))
                .expect_err($needle);
                let text = match payload.downcast_ref::<&str>() {
                    Some(text) => text.to_string(),
                    None => payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default(),
                };
                assert!(text.contains($needle), "{:?} not in {text:?}", $needle);
            }};
        }

        let server = ServerPowerModel::ntc();
        let one = vec![TimeSeries::zeros(4)];
        let two = vec![TimeSeries::zeros(4); 2];
        let ragged = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let (lo, hi) = (Frequency::from_ghz(1.0), Frequency::from_ghz(2.0));
        rejects!(
            SlotContext::new(&two, &one, &server, 1),
            "need one CPU and one memory prediction per VM"
        );
        rejects!(
            SlotContext::new(&[], &[], &server, 1),
            "context needs at least one VM"
        );
        rejects!(
            SlotContext::new(&one, &one, &server, 0),
            "data center needs at least one server"
        );
        rejects!(
            SlotContext::new(&ragged, &two, &server, 1),
            "all prediction series must cover the same slot"
        );
        rejects!(
            SlotPlan::new(vec![], 0, 50.0, hi, lo, hi),
            "plan must use at least one server"
        );
        rejects!(
            SlotPlan::new(vec![1], 1, 50.0, hi, lo, hi),
            "beyond num_servers"
        );
        rejects!(
            SlotPlan::new(vec![0], 1, 0.0, hi, lo, hi),
            "caps must be positive"
        );
        rejects!(
            SlotPlan::new(vec![0], 1, 50.0, hi, hi, lo),
            "DVFS floor above the ceiling"
        );
        rejects!(
            SlotPlan::new(vec![0], 1, 50.0, hi, lo, lo),
            "outside the online range"
        );
        rejects!(
            OneDimAllocator::new(hi, lo),
            "Fopt must be positive and cannot exceed Fmax"
        );
        rejects!(TwoDimAllocator::new(0.0, 1), "caps must be positive");
        rejects!(
            TwoDimAllocator::new(50.0, 0),
            "data center needs at least one server"
        );
    }
}
