//! Integration tests asserting the paper's headline qualitative results
//! across crates — the "shape" contract of the reproduction.

use ntc_dc::archsim::qos::QosBaseline;
use ntc_dc::archsim::{efficiency, Kernel, Platform, ServerSim};
use ntc_dc::datacenter::{experiments, FleetSpec};
use ntc_dc::power::{DataCenterPowerModel, ServerPowerModel};
use ntc_dc::units::{Frequency, Percent};

#[test]
fn headline_1_ntc_dc_optimum_is_1_9_ghz() {
    // §V-A: "the optimal frequency of servers is around 1.9 GHz,
    // instead of 3.1 GHz".
    let f = ServerPowerModel::ntc().ntc_optimal_frequency();
    assert_eq!(f, Frequency::from_ghz(1.9));
}

#[test]
fn headline_2_conventional_dc_rewards_consolidation() {
    // Fig. 1(b): on the E5-2620 data center the minimum worst-case
    // power is always at Fmax.
    let dc = DataCenterPowerModel::new(ServerPowerModel::conventional_e5_2620(), 80);
    for util in [10.0, 30.0, 50.0] {
        let (f, _) = dc.optimal_frequency(Percent::new(util));
        assert_eq!(f, dc.server().fmax(), "util {util}%");
    }
}

#[test]
fn headline_3_above_half_utilization_minimum_feasible_frequency_wins() {
    // §V-A: "For a utilization rate higher than 50%, the optimal
    // frequency is the minimum possible that meets the workload demand."
    let dc = DataCenterPowerModel::new(ServerPowerModel::ntc(), 80);
    for util in [70.0, 80.0, 90.0] {
        let u = Percent::new(util);
        let (f_opt, _) = dc.optimal_frequency(u);
        let min_feasible = dc
            .server()
            .dvfs_levels()
            .into_iter()
            .find(|&f| dc.required_servers(u, f).is_some())
            .expect("feasible at Fmax");
        assert_eq!(f_opt, min_feasible, "util {util}%");
    }
}

#[test]
fn headline_4_table1_qos_passes_on_ntc_at_2ghz() {
    // Table I: the NTC server at 2 GHz is inside the 2x limit for all
    // three classes, and beats the Cavium ThunderX on each.
    for row in experiments::table1() {
        assert!(row.ntc_secs <= row.qos_limit_secs, "{}", row.workload);
        assert!(row.ntc_secs < row.cavium_secs, "{}", row.workload);
    }
}

#[test]
fn headline_5_fig2_min_frequencies() {
    // Fig. 2 / §VI-B3: low-mem can scale to 1.2 GHz, mid/high-mem only
    // to 1.8 GHz.
    let sim = ServerSim::new(Platform::ntc_server());
    let baseline = QosBaseline::paper_table1();
    let levels: Vec<Frequency> = [0.1, 0.2, 0.5, 1.0, 1.2, 1.5, 1.8, 2.0, 2.5]
        .iter()
        .map(|&g| Frequency::from_ghz(g))
        .collect();
    let min_f = |k: &Kernel| {
        baseline
            .min_qos_frequency(&sim, k, &levels)
            .expect("QoS reachable")
    };
    assert_eq!(min_f(&Kernel::low_mem()), Frequency::from_ghz(1.2));
    assert_eq!(min_f(&Kernel::mid_mem()), Frequency::from_ghz(1.8));
    assert_eq!(min_f(&Kernel::high_mem()), Frequency::from_ghz(1.8));
}

#[test]
fn headline_6_fig3_efficiency_peaks() {
    // Fig. 3: efficiency peaks around 1.2 GHz (high-mem) and ~1.5 GHz
    // (mid-mem), never at the sweep boundaries.
    let sim = ServerSim::new(Platform::ntc_server());
    let model = ServerPowerModel::ntc();
    let freqs: Vec<Frequency> = [0.1, 0.2, 0.5, 1.0, 1.2, 1.5, 1.8, 2.0, 2.5]
        .iter()
        .map(|&g| Frequency::from_ghz(g))
        .collect();
    let (f_high, _) =
        efficiency::optimal_efficiency_frequency(&sim, &model, &Kernel::high_mem(), &freqs);
    let (f_mid, _) =
        efficiency::optimal_efficiency_frequency(&sim, &model, &Kernel::mid_mem(), &freqs);
    assert_eq!(f_high, Frequency::from_ghz(1.2));
    assert_eq!(f_mid, Frequency::from_ghz(1.5));
}

#[test]
fn headline_7_week_epact_beats_both_baselines() {
    // Figs. 4-6 at reduced scale: EPACT has (near-)zero violations and
    // lower energy than COAT and COAT-OPT, while COAT uses fewer
    // servers.
    let fleet = FleetSpec {
        num_vms: 96,
        seed: 4242,
        weeks: 2,
    };
    let outcomes = experiments::fig4_5_6(fleet, 600);
    let (epact, coat, coat_opt) = (&outcomes[0], &outcomes[1], &outcomes[2]);

    assert!(
        epact.total_violations() * 10 < coat.total_violations().max(10),
        "EPACT must drastically reduce violations: {} vs {}",
        epact.total_violations(),
        coat.total_violations()
    );
    assert!(
        epact.total_energy() < coat.total_energy(),
        "EPACT must beat COAT"
    );
    assert!(
        epact.total_energy() < coat_opt.total_energy(),
        "EPACT must beat COAT-OPT"
    );
    assert!(
        coat.mean_active_servers() < epact.mean_active_servers(),
        "COAT must consolidate onto fewer servers"
    );
    let saving = epact.energy_saving_vs(coat);
    assert!(
        (0.10..=0.60).contains(&saving),
        "saving vs COAT out of band: {:.1}%",
        saving * 100.0
    );
}

#[test]
fn headline_8_fig7_static_power_trend() {
    // Fig. 7: EPACT's edge over consolidation shrinks as static power
    // grows (and grows in future low-static-power technologies).
    let fleet = FleetSpec {
        num_vms: 48,
        seed: 99,
        weeks: 2,
    };
    let pts = experiments::fig7(fleet, 600, &[5.0, 25.0, 45.0]);
    assert!(pts[0].saving_pct > pts[2].saving_pct);
    assert!(
        pts[0].saving_pct > 10.0,
        "low static power strongly favours EPACT"
    );
}

#[test]
fn headline_9_proportionality_gap() {
    // §I/§V: FD-SOI NTC servers are energy-proportional; conventional
    // ones are not.
    use ntc_dc::power::proportionality::ep_index;
    let ntc = ServerPowerModel::ntc();
    let conv = ServerPowerModel::conventional_e5_2620();
    assert!(ep_index(&ntc, ntc.fmax(), 50) > ep_index(&conv, conv.fmax(), 50) + 0.1);
}
