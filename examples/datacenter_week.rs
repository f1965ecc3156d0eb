//! The paper's headline experiment (Figs. 4-6): one week of a 600-server
//! NTC data center running 600 VMs, comparing EPACT against COAT and
//! COAT-OPT with ARIMA day-ahead predictions.
//!
//! Run with: `cargo run --release --example datacenter_week [num_vms]`
//! (defaults to 600 VMs; pass a smaller count for a quick look).

use ntc_dc::datacenter::{experiments, FleetSpec};

fn main() {
    let num_vms: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(600);

    println!("running EPACT / COAT / COAT-OPT over the evaluation week of {num_vms} VMs...");
    let fleet = FleetSpec {
        num_vms,
        seed: 2018,
        weeks: 2,
    };
    let outcomes = experiments::fig4_5_6(fleet, 600);

    println!("\n=== Figs. 4-6 summary ===");
    println!(
        "{:<10} {:>12} {:>18} {:>18}",
        "policy", "violations", "mean active srv", "total energy (MJ)"
    );
    for o in &outcomes {
        println!(
            "{:<10} {:>12} {:>18.1} {:>18.1}",
            o.policy,
            o.total_violations(),
            o.mean_active_servers(),
            o.total_energy().as_megajoules()
        );
    }

    let epact = &outcomes[0];
    let coat = &outcomes[1];
    let coat_opt = &outcomes[2];
    let best_slot_saving = |other: &ntc_dc::datacenter::WeekOutcome| -> f64 {
        epact
            .slots
            .iter()
            .zip(&other.slots)
            .map(|(e, o)| 1.0 - e.energy.as_joules() / o.energy.as_joules().max(1e-9))
            .fold(f64::MIN, f64::max)
            * 100.0
    };
    println!(
        "\nEPACT energy saving vs COAT:     {:.1}% avg, {:.1}% best slot  (paper: up to 45%)",
        epact.energy_saving_vs(coat) * 100.0,
        best_slot_saving(coat)
    );
    println!(
        "EPACT energy saving vs COAT-OPT: {:.1}% avg, {:.1}% best slot  (paper: up to 10%)",
        epact.energy_saving_vs(coat_opt) * 100.0,
        best_slot_saving(coat_opt)
    );
    println!(
        "COAT active servers vs EPACT:    {:.0}%  (paper: ~37% fewer)",
        (1.0 - coat.mean_active_servers() / epact.mean_active_servers()) * 100.0
    );

    println!("\nper-slot detail (one day):");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "hour", "vEPACT", "vCOAT", "vOPT", "sEPACT", "sCOAT", "sOPT", "mjEPACT", "mjCOAT"
    );
    for t in 0..24.min(epact.slots.len()) {
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.2} {:>9.2}",
            t,
            epact.slots[t].violations,
            coat.slots[t].violations,
            coat_opt.slots[t].violations,
            epact.slots[t].active_servers,
            coat.slots[t].active_servers,
            coat_opt.slots[t].active_servers,
            epact.slots[t].energy.as_megajoules(),
            coat.slots[t].energy.as_megajoules()
        );
    }
}
