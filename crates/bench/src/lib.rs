//! Shared fixtures and printing helpers for the benchmark harness.
//!
//! Every table and figure of the paper has a Criterion bench target in
//! `benches/` that (a) prints the regenerated rows/series in the paper's
//! layout and (b) times the regeneration. The printing runs once, before
//! measurement, so `cargo bench` output doubles as the experiment log
//! recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

use ntc_datacenter::{FleetSpec, WeekOutcome};
use ntc_units::Frequency;
use ntc_workload::Fleet;

/// The fleet used by the data-center benches. Smaller than the paper's
/// 600 VMs so a bench iteration stays in seconds; the examples run the
/// full 600.
pub fn bench_fleet() -> Fleet {
    bench_fleet_spec().generate()
}

/// The declarative form of [`bench_fleet`] — what engine-based benches
/// put on an `ExperimentSpec`'s fleet axis.
pub fn bench_fleet_spec() -> FleetSpec {
    FleetSpec {
        num_vms: 120,
        seed: 2018,
        weeks: 2,
    }
}

/// Formats a frequency column header.
pub fn freq_header(freqs: &[Frequency]) -> String {
    let cols: Vec<String> = freqs
        .iter()
        .map(|f| format!("{:>8}", format!("{:.1}G", f.as_ghz())))
        .collect();
    cols.join(" ")
}

/// Prints the Fig. 4/5/6 summary block for a set of week outcomes.
pub fn print_week_summary(outcomes: &[WeekOutcome]) {
    println!("\n=== Figs. 4-6: one-week data-center comparison ===");
    println!(
        "{:<10} {:>12} {:>16} {:>16}",
        "policy", "violations", "mean active srv", "total energy MJ"
    );
    for o in outcomes {
        println!(
            "{:<10} {:>12} {:>16.1} {:>16.1}",
            o.policy,
            o.total_violations(),
            o.mean_active_servers(),
            o.total_energy().as_megajoules()
        );
    }
    if outcomes.len() >= 2 {
        let epact = &outcomes[0];
        for other in &outcomes[1..] {
            println!(
                "EPACT saving vs {}: {:.1}%",
                other.policy,
                epact.energy_saving_vs(other) * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_have_expected_sizes() {
        assert_eq!(bench_fleet().len(), 120);
    }

    #[test]
    fn freq_header_formats() {
        let h = freq_header(&[Frequency::from_ghz(1.9)]);
        assert!(h.contains("1.9G"));
    }
}
