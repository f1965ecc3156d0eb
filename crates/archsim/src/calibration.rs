//! Calibration record: the interval model vs the paper's Table I —
//! executable documentation of how close the gem5 substitute lands.

use ntc_units::{Frequency, Seconds};

use crate::{Kernel, Platform, ServerSim};

/// One calibration cell: a (platform, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCell {
    /// Platform name.
    pub platform: String,
    /// Workload class name.
    pub workload: String,
    /// The paper's published execution time.
    pub paper: Seconds,
    /// Our simulated execution time.
    pub simulated: Seconds,
}

impl CalibrationCell {
    /// Signed relative error `(ours − paper)/paper`.
    pub fn relative_error(&self) -> f64 {
        (self.simulated.as_secs() - self.paper.as_secs()) / self.paper.as_secs()
    }
}

/// Every Table I cell, simulated and compared.
pub fn table1_calibration() -> Vec<CalibrationCell> {
    let paper: [(&str, Frequency, [f64; 3]); 3] = [
        (
            "Intel x86",
            Frequency::from_ghz(2.66),
            [0.437, 1.564, 3.455],
        ),
        (
            "Cavium ThunderX",
            Frequency::from_ghz(2.0),
            [0.733, 5.035, 11.943],
        ),
        (
            "NTC server",
            Frequency::from_ghz(2.0),
            [0.582, 2.926, 6.765],
        ),
    ];
    let platforms = [
        Platform::xeon_x5650(),
        Platform::thunderx(),
        Platform::ntc_server(),
    ];

    let mut out = Vec::new();
    for ((name, freq, times), platform) in paper.iter().zip(platforms) {
        let sim = ServerSim::new(platform);
        for (kernel, &paper_t) in Kernel::paper_classes().iter().zip(times) {
            out.push(CalibrationCell {
                platform: name.to_string(),
                workload: kernel.name().to_string(),
                paper: Seconds::new(paper_t),
                simulated: sim.run(kernel, *freq).exec_time,
            });
        }
    }
    out
}

/// Maximum absolute relative error across all nine Table I cells.
pub fn worst_case_error() -> f64 {
    table1_calibration()
        .iter()
        .map(|c| c.relative_error().abs())
        .fold(0.0, f64::max)
}

/// A printable calibration report.
pub fn report() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<18} {:<10} {:>10} {:>10} {:>8}",
        "platform", "workload", "paper (s)", "ours (s)", "err %"
    );
    for c in table1_calibration() {
        let _ = writeln!(
            s,
            "{:<18} {:<10} {:>10.3} {:>10.3} {:>8.1}",
            c.platform,
            c.workload,
            c.paper.as_secs(),
            c.simulated.as_secs(),
            c.relative_error() * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_cells() {
        assert_eq!(table1_calibration().len(), 9);
    }

    #[test]
    fn calibration_within_25_percent() {
        // The paper validated gem5 against hardware at <10%; our
        // interval model holds every Table I cell within 25%.
        for c in table1_calibration() {
            assert!(
                c.relative_error().abs() < 0.25,
                "{} / {}: {:.1}% off",
                c.platform,
                c.workload,
                c.relative_error() * 100.0
            );
        }
    }

    #[test]
    fn worst_case_is_reported() {
        let w = worst_case_error();
        assert!(w > 0.0 && w < 0.25, "worst case {w:.3}");
    }

    #[test]
    fn report_contains_all_platforms() {
        let r = report();
        assert!(r.contains("Intel x86"));
        assert!(r.contains("Cavium ThunderX"));
        assert!(r.contains("NTC server"));
    }
}
