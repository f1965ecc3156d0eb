use ntc_units::{Energy, Frequency};

/// A mean and sample standard deviation over a set of runs — the unit
/// of seed-averaged reporting (`mean ± std`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Arithmetic mean of the values.
    pub mean: f64,
    /// Sample standard deviation (`n - 1` denominator); `0.0` for
    /// fewer than two values.
    pub std: f64,
}

impl MeanStd {
    /// Collapses `values` to mean ± sample standard deviation.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                std: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() < 2 {
            0.0
        } else {
            let ss = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>();
            (ss / (n - 1.0)).sqrt()
        };
        Self { mean, std }
    }
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1}", self.mean, self.std)
    }
}

/// What happened in one allocation slot (one hour, 12 samples).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// Overutilized server-samples in the slot (the Fig. 4 metric): a
    /// server counts once per 5-minute sample in which its aggregated
    /// actual CPU demand exceeds the policy's online frequency ceiling
    /// or its memory demand exceeds physical memory.
    pub violations: usize,
    /// Servers hosting at least one VM.
    pub active_servers: usize,
    /// VMs migrated relative to the previous slot's plan (0 in the
    /// first slot and while a multi-slot plan stays in force).
    pub migrations: usize,
    /// Energy drawn by all active servers over the slot (Fig. 6).
    pub energy: Energy,
    /// The frequency the policy planned for the slot.
    pub planned_freq: Frequency,
    /// Mean frequency actually set by the online governor.
    pub mean_freq: Frequency,
}

/// A full evaluation-week run of one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct WeekOutcome {
    /// Policy display name.
    pub policy: String,
    /// One outcome per hourly slot (168 for a week).
    pub slots: Vec<SlotOutcome>,
}

impl WeekOutcome {
    /// Total energy over the horizon.
    pub fn total_energy(&self) -> Energy {
        self.slots.iter().map(|s| s.energy).sum()
    }

    /// Total violations over the horizon.
    pub fn total_violations(&self) -> usize {
        self.slots.iter().map(|s| s.violations).sum()
    }

    /// Total VM migrations over the horizon.
    pub fn total_migrations(&self) -> usize {
        self.slots.iter().map(|s| s.migrations).sum()
    }

    /// Mean number of active servers.
    pub fn mean_active_servers(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots
            .iter()
            .map(|s| s.active_servers as f64)
            .sum::<f64>()
            / self.slots.len() as f64
    }

    /// Energy saving of this run relative to `baseline`
    /// (`1 − E_self/E_baseline`), as a fraction.
    pub fn energy_saving_vs(&self, baseline: &WeekOutcome) -> f64 {
        let base = baseline.total_energy().as_joules();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy().as_joules() / base
    }

    /// Per-slot active-server series (the Fig. 5 y-axis).
    pub fn active_servers_series(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.active_servers).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(violations: usize, servers: usize, mj: f64) -> SlotOutcome {
        SlotOutcome {
            violations,
            active_servers: servers,
            migrations: 3,
            energy: Energy::from_megajoules(mj),
            planned_freq: Frequency::from_ghz(1.9),
            mean_freq: Frequency::from_ghz(1.7),
        }
    }

    #[test]
    fn aggregations() {
        let w = WeekOutcome {
            policy: "TEST".into(),
            slots: vec![slot(2, 10, 5.0), slot(0, 20, 15.0)],
        };
        assert_eq!(w.total_violations(), 2);
        assert_eq!(w.total_migrations(), 6);
        assert_eq!(w.mean_active_servers(), 15.0);
        assert_eq!(w.total_energy(), Energy::from_megajoules(20.0));
    }

    #[test]
    fn mean_std_basics() {
        assert_eq!(
            MeanStd::of(&[]),
            MeanStd {
                mean: 0.0,
                std: 0.0
            }
        );
        assert_eq!(
            MeanStd::of(&[3.0]),
            MeanStd {
                mean: 3.0,
                std: 0.0
            }
        );
        let ms = MeanStd::of(&[2.0, 4.0, 6.0]);
        assert!((ms.mean - 4.0).abs() < 1e-12);
        assert!((ms.std - 2.0).abs() < 1e-12); // sample std of 2,4,6
        assert_eq!(ms.to_string(), "4.0±2.0");
    }

    #[test]
    fn savings() {
        let a = WeekOutcome {
            policy: "A".into(),
            slots: vec![slot(0, 1, 11.0)],
        };
        let b = WeekOutcome {
            policy: "B".into(),
            slots: vec![slot(0, 1, 20.0)],
        };
        assert!((a.energy_saving_vs(&b) - 0.45).abs() < 1e-12);
        assert_eq!(
            a.energy_saving_vs(&WeekOutcome {
                policy: "0".into(),
                slots: vec![]
            }),
            0.0
        );
    }
}
