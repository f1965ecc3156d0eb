//! Quality-of-service analysis (§III-C, §VI-A/B of the paper).
//!
//! The banking applications are virtualized batch jobs, so QoS is a bound
//! on execution-time *degradation*: a job may run at most
//! [`QOS_DEGRADATION_FACTOR`] (2×) slower than on the baseline Intel Xeon
//! X5650 at 2.66 GHz with one LXC container per core.

use ntc_units::{Frequency, Seconds};

use crate::{Kernel, Platform, ServerSim};

/// The allowed execution-time degradation w.r.t. the x86 baseline (2×).
pub const QOS_DEGRADATION_FACTOR: f64 = 2.0;

/// The QoS reference: per-kernel baseline execution times on the x86
/// host.
///
/// # Examples
///
/// ```
/// use ntc_archsim::qos::QosBaseline;
/// use ntc_archsim::Kernel;
///
/// let baseline = QosBaseline::simulate_x86();
/// let limit = baseline.qos_limit(&Kernel::low_mem());
/// assert!(limit.as_secs() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QosBaseline {
    entries: Vec<(String, Seconds)>,
}

impl QosBaseline {
    /// Simulates the paper's three workload classes on the Xeon X5650 at
    /// its nominal 2.66 GHz and records the baseline times.
    pub fn simulate_x86() -> Self {
        let platform = Platform::xeon_x5650();
        let f = platform.nominal_freq;
        let sim = ServerSim::new(platform);
        let entries = Kernel::paper_classes()
            .into_iter()
            .map(|k| {
                let t = sim.run(&k, f).exec_time;
                (k.name().to_string(), t)
            })
            .collect();
        Self { entries }
    }

    /// Builds a baseline from externally measured `(kernel name, time)`
    /// pairs — e.g. the published Table I column.
    pub fn from_measurements(entries: Vec<(String, Seconds)>) -> Self {
        assert!(!entries.is_empty(), "baseline needs at least one entry");
        Self { entries }
    }

    /// The published Table I x86 column (0.437 / 1.564 / 3.455 s).
    pub fn paper_table1() -> Self {
        Self::from_measurements(vec![
            ("low-mem".into(), Seconds::new(0.437)),
            ("mid-mem".into(), Seconds::new(1.564)),
            ("high-mem".into(), Seconds::new(3.455)),
        ])
    }

    /// The baseline time of `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is not in the baseline (the baseline must be
    /// built from the same workload classes it is queried with).
    pub fn baseline_time(&self, kernel: &Kernel) -> Seconds {
        self.entries
            .iter()
            .find(|(n, _)| n == kernel.name())
            .map(|&(_, t)| t)
            .unwrap_or_else(|| panic!("kernel {:?} not in QoS baseline", kernel.name()))
    }

    /// The QoS limit for `kernel`: `2 × baseline`.
    pub fn qos_limit(&self, kernel: &Kernel) -> Seconds {
        self.baseline_time(kernel) * QOS_DEGRADATION_FACTOR
    }

    /// Execution time on `sim` at `f`, normalized to the QoS limit —
    /// the y-axis of Fig. 2 (≤ 1.0 means QoS is met).
    pub fn normalized_time(&self, sim: &ServerSim, kernel: &Kernel, f: Frequency) -> f64 {
        let t = sim.run(kernel, f).exec_time;
        t / self.qos_limit(kernel)
    }

    /// `true` if `kernel` meets QoS on `sim` at `f`.
    pub fn meets_qos(&self, sim: &ServerSim, kernel: &Kernel, f: Frequency) -> bool {
        self.normalized_time(sim, kernel, f) <= 1.0
    }

    /// The lowest of the given DVFS `levels` at which `kernel` still
    /// meets QoS on `sim`, or `None` if none does (Fig. 2's minimum
    /// frequencies: ~1.2–1.5 GHz for low-mem, ~1.8 GHz for mid/high-mem).
    pub fn min_qos_frequency(
        &self,
        sim: &ServerSim,
        kernel: &Kernel,
        levels: &[Frequency],
    ) -> Option<Frequency> {
        let mut sorted = levels.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("frequencies are finite"));
        sorted.into_iter().find(|&f| self.meets_qos(sim, kernel, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(g: f64) -> Frequency {
        Frequency::from_ghz(g)
    }

    #[test]
    fn baseline_simulation_close_to_table1() {
        let sim = QosBaseline::simulate_x86();
        let paper = QosBaseline::paper_table1();
        for k in Kernel::paper_classes() {
            let ours = sim.baseline_time(&k).as_secs();
            let theirs = paper.baseline_time(&k).as_secs();
            let err = (ours - theirs).abs() / theirs;
            assert!(
                err < 0.35,
                "{}: simulated {ours:.3}s vs paper {theirs:.3}s ({:.0}% off)",
                k.name(),
                err * 100.0
            );
        }
    }

    #[test]
    fn ntc_meets_qos_at_2ghz_for_all_classes() {
        // Table I: the proposed NTC server at 2 GHz is within the 2x
        // limit for all three classes.
        let baseline = QosBaseline::paper_table1();
        let sim = ServerSim::new(Platform::ntc_server());
        for k in Kernel::paper_classes() {
            assert!(
                baseline.meets_qos(&sim, &k, ghz(2.0)),
                "{} must meet QoS at 2 GHz (norm {:.3})",
                k.name(),
                baseline.normalized_time(&sim, &k, ghz(2.0))
            );
        }
    }

    #[test]
    fn low_mem_scales_lower_than_high_mem() {
        // Fig 2: low-mem can reduce frequency further than mid/high-mem
        // while staying within QoS.
        let baseline = QosBaseline::paper_table1();
        let sim = ServerSim::new(Platform::ntc_server());
        let levels: Vec<Frequency> = [0.1, 0.2, 0.5, 1.0, 1.2, 1.5, 1.8, 2.0, 2.5]
            .iter()
            .map(|&g| ghz(g))
            .collect();
        let f_low = baseline
            .min_qos_frequency(&sim, &Kernel::low_mem(), &levels)
            .expect("low-mem must meet QoS somewhere");
        let f_high = baseline
            .min_qos_frequency(&sim, &Kernel::high_mem(), &levels)
            .expect("high-mem must meet QoS somewhere");
        assert!(
            f_low < f_high,
            "low-mem ({f_low}) must tolerate lower frequency than high-mem ({f_high})"
        );
        assert!(
            (1.0..=1.6).contains(&f_low.as_ghz()),
            "paper: low-mem min ~1.2-1.5 GHz, got {f_low}"
        );
        assert!(
            (1.5..=2.1).contains(&f_high.as_ghz()),
            "paper: high-mem min ~1.8 GHz, got {f_high}"
        );
    }

    #[test]
    fn deep_near_threshold_violates_qos() {
        // Fig 2's left side: at 100-500 MHz every class is far beyond
        // the limit.
        let baseline = QosBaseline::paper_table1();
        let sim = ServerSim::new(Platform::ntc_server());
        for k in Kernel::paper_classes() {
            assert!(!baseline.meets_qos(&sim, &k, ghz(0.2)));
        }
    }

    #[test]
    #[should_panic(expected = "not in QoS baseline")]
    fn unknown_kernel_panics() {
        let baseline = QosBaseline::paper_table1();
        let alien = Kernel::new(
            "alien",
            1_000_000,
            1.0,
            1.0,
            ntc_units::MemBytes::from_mib(1),
            0.0,
        );
        let _ = baseline.baseline_time(&alien);
    }
}
