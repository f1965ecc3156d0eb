//! The output check every run applies to every sweep it measures.
//!
//! On any seed each cell must cover 168 slots with finite positive
//! energy, and EPACT must use no more energy than COAT on the same
//! fleet, server and arm. Oracle EPACT under analytic accounting may
//! violate in at most [`ORACLE_EPACT_VIOLATION_RATE`] of its
//! server-samples: it is violation-free at 60 VMs, but at 600 VMs most
//! fleets give it a few hundred violations (up to ~1 %), so zero cannot
//! be asserted on every seed. Every sweep of a run must also equal the
//! run's first sweep bit for bit (parallel and sequential engines
//! agree). At [`DEFAULT_SEED`](crate::workload::DEFAULT_SEED) each cell
//! is further compared with the stored reference: violations,
//! migrations and the active-server series exactly (oracle EPACT has
//! zero violations there), energy within 1e-3 relative (the tie-noise
//! bound of the day-moment cache).

use std::fmt::Write as _;
use std::path::PathBuf;

use ntc_datacenter::{
    AblationFlags, BackendSpec, CellOutcome, ExperimentSpec, PolicySpec, PredictorSpec,
    SweepResult, WeekOutcome,
};

use crate::workload::{Size, Workload};

/// Relative energy tolerance against the stored reference.
pub const ENERGY_TOLERANCE: f64 = 1e-3;

/// The slots of one evaluated week.
pub const WEEK_SLOTS: usize = 168;

/// 5-minute samples per hourly slot on the generated fleets' grid.
pub const SAMPLES_PER_SLOT: usize = 12;

/// Share of its server-samples in which oracle EPACT may violate.
pub const ORACLE_EPACT_VIOLATION_RATE: f64 = 0.05;

/// The reference-relevant summary of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Cell label, e.g. `EPACT/NTC`.
    pub label: String,
    /// Seed of the fleet the cell ran on.
    pub fleet_seed: u64,
    /// Total violations over the week.
    pub violations: usize,
    /// Total migrations over the week.
    pub migrations: usize,
    /// Total energy over the week, joules.
    pub energy_j: f64,
    /// Active servers per slot.
    pub active: Vec<usize>,
}

impl CellRecord {
    /// Summarizes a finished cell.
    pub fn of(cell: &CellOutcome, ablation: AblationFlags) -> Self {
        Self {
            label: cell.cell.label(ablation),
            fleet_seed: cell.cell.fleet.seed,
            violations: cell.outcome.total_violations(),
            migrations: cell.outcome.total_migrations(),
            energy_j: cell.outcome.total_energy().as_joules(),
            active: cell.outcome.active_servers_series(),
        }
    }

    /// Why `self` does not match the reference `want`, if it does not.
    pub fn mismatch(&self, want: &CellRecord) -> Option<String> {
        let rel =
            (self.energy_j - want.energy_j).abs() / want.energy_j.abs().max(f64::MIN_POSITIVE);
        if self.label != want.label || self.fleet_seed != want.fleet_seed {
            Some(format!(
                "cell is {} on fleet {}",
                self.label, self.fleet_seed
            ))
        } else if self.violations != want.violations {
            Some(format!(
                "violations {} != {}",
                self.violations, want.violations
            ))
        } else if self.migrations != want.migrations {
            Some(format!(
                "migrations {} != {}",
                self.migrations, want.migrations
            ))
        } else if self.active != want.active {
            Some("active-server series differs".to_string())
        } else if rel.is_nan() || rel > ENERGY_TOLERANCE {
            Some(format!("energy {} J != {} J", self.energy_j, want.energy_j))
        } else {
            None
        }
    }
}

/// Where the reference of `workload` at `size` is stored.
pub fn reference_path(workload: Workload, size: Size) -> PathBuf {
    let suffix = match size {
        Size::Full => "",
        Size::Quick => "-quick",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}{suffix}.tsv", workload.name()))
}

/// Renders records as the reference file: one tab-separated line per
/// cell with label, fleet seed, violations, migrations, energy (J) and
/// the comma-separated active-server series.
pub fn render_reference(records: &[CellRecord]) -> String {
    let mut out =
        String::from("# label\tfleet_seed\tviolations\tmigrations\tenergy_j\tactive_servers\n");
    for r in records {
        let active: Vec<String> = r.active.iter().map(usize::to_string).collect();
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.label,
            r.fleet_seed,
            r.violations,
            r.migrations,
            r.energy_j,
            active.join(",")
        );
    }
    out
}

/// Parses a reference file written by [`render_reference`].
pub fn parse_reference(text: &str) -> Result<Vec<CellRecord>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("reference line {}: bad {what}", n + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(bad("field count"));
        }
        out.push(CellRecord {
            label: fields[0].to_string(),
            fleet_seed: fields[1].parse().map_err(|_| bad("fleet seed"))?,
            violations: fields[2].parse().map_err(|_| bad("violations"))?,
            migrations: fields[3].parse().map_err(|_| bad("migrations"))?,
            energy_j: fields[4].parse().map_err(|_| bad("energy"))?,
            active: fields[5]
                .split(',')
                .map(|v| v.parse().map_err(|_| bad("active servers")))
                .collect::<Result<_, _>>()?,
        });
    }
    Ok(out)
}

/// Reads the stored reference of `workload` at `size`.
pub fn load_reference(workload: Workload, size: Size) -> Result<Vec<CellRecord>, String> {
    let path = reference_path(workload, size);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_reference(&text)
}

/// What checking one sweep found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCheck {
    /// Cells the spec expanded to.
    pub attempted: usize,
    /// Cells that errored, were skipped or failed a check.
    pub failed: usize,
    /// One line per failed cell.
    pub problems: Vec<String>,
}

/// Checks every sweep of one run; see the [module docs](self).
#[derive(Debug)]
pub struct Checker {
    reference: Option<Vec<CellRecord>>,
    first: Option<Vec<WeekOutcome>>,
}

impl Checker {
    /// A checker comparing against `reference` when one is given.
    pub fn new(reference: Option<Vec<CellRecord>>) -> Self {
        Self {
            reference,
            first: None,
        }
    }

    /// Checks one sweep of `spec`.
    pub fn check(&mut self, spec: &ExperimentSpec, sweep: &SweepResult) -> SweepCheck {
        let cells = spec.cells();
        let mut bad: Vec<Option<String>> = vec![None; cells.len()];
        let mut outcomes: Vec<Option<&CellOutcome>> = vec![None; cells.len()];
        for failure in sweep.failed() {
            bad[failure.index] = Some(format!("{failure}"));
        }
        // Completed cells come back in spec order, skipping failures.
        let mut done = sweep.succeeded().iter();
        for (i, slot) in outcomes.iter_mut().enumerate() {
            if bad[i].is_none() {
                *slot = done.next();
            }
        }
        if let Some(reference) = &self.reference {
            if reference.len() != cells.len() {
                bad.iter_mut().for_each(|b| {
                    b.get_or_insert_with(|| "reference has another cell count".to_string());
                });
            }
        }
        for (i, cell) in outcomes.iter().enumerate() {
            let Some(cell) = cell else {
                bad[i].get_or_insert_with(|| "cell missing from the sweep".to_string());
                continue;
            };
            if let Some(why) = self.invariant(spec, cell, i) {
                bad[i].get_or_insert(why);
            }
        }
        // EPACT must not cost more energy than COAT in the same arm.
        for (i, epact) in outcomes.iter().enumerate() {
            let Some(epact) = epact.filter(|c| c.cell.policy == PolicySpec::Epact) else {
                continue;
            };
            let coat = outcomes.iter().flatten().find(|c| {
                c.cell.policy == PolicySpec::Coat
                    && c.cell.fleet == epact.cell.fleet
                    && c.cell.server == epact.cell.server
                    && c.cell.static_power_scale == epact.cell.static_power_scale
                    && c.cell.qos_floor_mhz == epact.cell.qos_floor_mhz
                    && c.cell.backend == epact.cell.backend
            });
            if let Some(coat) = coat {
                let (e, c) = (epact.outcome.total_energy(), coat.outcome.total_energy());
                if e > c {
                    bad[i].get_or_insert_with(|| {
                        format!(
                            "EPACT energy {} J above COAT {} J",
                            e.as_joules(),
                            c.as_joules()
                        )
                    });
                }
            }
        }
        let current: Vec<WeekOutcome> = sweep.outcomes().into_iter().cloned().collect();
        if sweep.is_complete() && self.first.is_none() {
            self.first = Some(current);
        }

        let mut out = SweepCheck {
            attempted: cells.len(),
            ..SweepCheck::default()
        };
        for (i, why) in bad.into_iter().enumerate() {
            if let Some(why) = why {
                out.failed += 1;
                out.problems
                    .push(format!("{} #{i}: {why}", cells[i].label(spec.ablation)));
            }
        }
        out
    }

    /// The per-cell checks: invariants, the stored reference and
    /// bit-identity with the run's first complete sweep.
    fn invariant(&self, spec: &ExperimentSpec, cell: &CellOutcome, i: usize) -> Option<String> {
        let week = &cell.outcome;
        let energy = week.total_energy().as_joules();
        if week.slots.len() != WEEK_SLOTS {
            return Some(format!("{} slots", week.slots.len()));
        }
        if !(energy.is_finite() && energy > 0.0) {
            return Some(format!("energy {energy} J"));
        }
        // Archsim also counts QoS misses below the QoS-safe frequency,
        // so the violation bound is about analytic cells.
        if spec.predictor == PredictorSpec::Oracle
            && cell.cell.policy == PolicySpec::Epact
            && cell.cell.backend == BackendSpec::Analytic
        {
            let samples: usize =
                week.slots.iter().map(|s| s.active_servers).sum::<usize>() * SAMPLES_PER_SLOT;
            let rate = week.total_violations() as f64 / samples.max(1) as f64;
            if rate > ORACLE_EPACT_VIOLATION_RATE {
                return Some(format!(
                    "oracle EPACT violates in {:.2}% of server-samples",
                    rate * 100.0
                ));
            }
        }
        if let Some(want) = self.reference.as_ref().and_then(|r| r.get(i)) {
            if let Some(why) = CellRecord::of(cell, spec.ablation).mismatch(want) {
                return Some(format!("reference: {why}"));
            }
        }
        if let Some(first) = self.first.as_ref().and_then(|f| f.get(i)) {
            if !bit_identical(first, week) {
                return Some("differs from the run's first sweep".to_string());
            }
        }
        None
    }
}

/// Whether two week outcomes agree exactly, energy and frequencies
/// compared by bit pattern.
pub fn bit_identical(a: &WeekOutcome, b: &WeekOutcome) -> bool {
    a.policy == b.policy
        && a.slots.len() == b.slots.len()
        && a.slots.iter().zip(&b.slots).all(|(x, y)| {
            x.violations == y.violations
                && x.active_servers == y.active_servers
                && x.migrations == y.migrations
                && x.energy.as_joules().to_bits() == y.energy.as_joules().to_bits()
                && x.planned_freq.as_mhz().to_bits() == y.planned_freq.as_mhz().to_bits()
                && x.mean_freq.as_mhz().to_bits() == y.mean_freq.as_mhz().to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        CellRecord {
            label: "EPACT/NTC".to_string(),
            fleet_seed: 3,
            violations: 0,
            migrations: 12,
            energy_j: 1.5e9,
            active: vec![4, 5, 5],
        }
    }

    #[test]
    fn reference_round_trips_exactly() {
        let records = vec![
            record(),
            CellRecord {
                energy_j: 0.1 + 0.2,
                ..record()
            },
        ];
        assert_eq!(
            parse_reference(&render_reference(&records)).unwrap(),
            records
        );
    }

    #[test]
    fn mismatch_tolerates_tie_noise_only_in_energy() {
        let want = record();
        let noisy = CellRecord {
            energy_j: 1.5e9 * (1.0 + 5e-4),
            ..record()
        };
        assert_eq!(noisy.mismatch(&want), None);
        let off = CellRecord {
            energy_j: 1.5e9 * 1.01,
            ..record()
        };
        assert!(off.mismatch(&want).unwrap().contains("energy"));
        let moved = CellRecord {
            active: vec![4, 5, 6],
            ..record()
        };
        assert!(moved.mismatch(&want).is_some());
        let migrated = CellRecord {
            migrations: 13,
            ..record()
        };
        assert!(migrated.mismatch(&want).is_some());
        let nan = CellRecord {
            energy_j: f64::NAN,
            ..record()
        };
        assert!(nan.mismatch(&want).is_some());
    }

    #[test]
    fn malformed_reference_is_an_error() {
        assert!(parse_reference("EPACT/NTC\t1\t2\n").is_err());
        assert!(parse_reference("EPACT/NTC\t1\t0\t0\tx\t1,2\n").is_err());
    }
}
