//! Experiment runners — one per table/figure of the paper's evaluation.
//!
//! Each function returns the structured data behind the corresponding
//! table or figure, and `ntcdc` and the examples print it in the
//! paper's layout. Table I and Figs. 1–3 are per-platform model runs;
//! every week of Figs. 4–7 and of the §V-A comparison runs through the
//! sweep [`Engine`] as one [`ExperimentSpec`].

use ntc_archsim::qos::QosBaseline;
use ntc_archsim::{efficiency, Kernel, Platform, ServerSim};
use ntc_power::{DataCenterPowerModel, ServerPowerModel};
use ntc_units::{Frequency, Percent, Power};

use crate::backend::BackendSpec;
use crate::engine::{
    AblationFlags, Engine, ExperimentSpec, FleetSpec, PolicySpec, PredictorSpec, ServerSpec,
};
use crate::fault::FailurePolicy;
use crate::WeekOutcome;

/// One row of Table I: a workload class's execution times across the
/// three platforms, plus the QoS limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Workload class name.
    pub workload: String,
    /// Simulated execution time on the Intel x86 baseline at 2.66 GHz.
    pub x86_secs: f64,
    /// The 2× degradation QoS limit.
    pub qos_limit_secs: f64,
    /// Simulated execution time on the Cavium ThunderX at 2 GHz.
    pub cavium_secs: f64,
    /// Simulated execution time on the proposed NTC server at 2 GHz.
    pub ntc_secs: f64,
}

/// Regenerates Table I by simulating the three workload classes on all
/// three platforms.
pub fn table1() -> Vec<Table1Row> {
    let two = Frequency::from_ghz(2.0);
    let x86_freq = Platform::xeon_x5650().nominal_freq;
    Kernel::paper_classes()
        .into_iter()
        .map(|k| {
            let secs = |platform, f| ServerSim::new(platform).run(&k, f).exec_time.as_secs();
            let x86_secs = secs(Platform::xeon_x5650(), x86_freq);
            Table1Row {
                workload: k.name().to_string(),
                x86_secs,
                qos_limit_secs: 2.0 * x86_secs,
                cavium_secs: secs(Platform::thunderx(), two),
                ntc_secs: secs(Platform::ntc_server(), two),
            }
        })
        .collect()
}

/// One Fig. 1 curve: worst-case data-center power (kW) per frequency,
/// `None` where the demand is infeasible at that frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Curve {
    /// Data-center utilization this curve is drawn for (percent).
    pub utilization: f64,
    /// `(frequency, power)` points.
    pub points: Vec<(Frequency, Option<Power>)>,
}

/// Regenerates one panel of Fig. 1 for `server` (NTC for panel (a),
/// conventional for panel (b)) with `num_servers` machines.
pub fn fig1(server: ServerPowerModel, num_servers: usize) -> Vec<Fig1Curve> {
    let dc = DataCenterPowerModel::new(server, num_servers);
    let freqs = dc.server().dvfs_levels();
    (1..=9)
        .map(|i| {
            let u = Percent::new(10.0 * i as f64);
            Fig1Curve {
                utilization: u.value(),
                points: freqs
                    .iter()
                    .map(|&f| (f, dc.worst_case_power(u, f)))
                    .collect(),
            }
        })
        .collect()
}

/// One Fig. 2 series: execution time normalized to the QoS limit per
/// frequency for one workload class (values ≤ 1.0 meet QoS).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Series {
    /// Workload class name.
    pub workload: String,
    /// `(frequency, normalized time)` points.
    pub points: Vec<(Frequency, f64)>,
}

/// The frequency grid of Figs. 2 and 3 (0.1 – 2.5 GHz).
pub fn fig2_frequencies() -> Vec<Frequency> {
    [0.1, 0.2, 0.5, 1.0, 1.2, 1.5, 1.8, 2.0, 2.5]
        .iter()
        .map(|&g| Frequency::from_ghz(g))
        .collect()
}

/// Regenerates Fig. 2 on the NTC server against the paper's published
/// x86 baseline.
pub fn fig2() -> Vec<Fig2Series> {
    let sim = ServerSim::new(Platform::ntc_server());
    let baseline = QosBaseline::paper_table1();
    Kernel::paper_classes()
        .into_iter()
        .map(|k| Fig2Series {
            workload: k.name().to_string(),
            points: fig2_frequencies()
                .into_iter()
                .map(|f| (f, baseline.normalized_time(&sim, &k, f)))
                .collect(),
        })
        .collect()
}

/// One Fig. 3 series: BUIPS/W per frequency for one workload class.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Series {
    /// Workload class name.
    pub workload: String,
    /// `(frequency, BUIPS/W)` points.
    pub points: Vec<(Frequency, f64)>,
}

/// Regenerates Fig. 3: NTC-server efficiency across DVFS levels.
pub fn fig3() -> Vec<Fig3Series> {
    let sim = ServerSim::new(Platform::ntc_server());
    let model = ServerPowerModel::ntc();
    Kernel::paper_classes()
        .into_iter()
        .map(|k| Fig3Series {
            workload: k.name().to_string(),
            points: efficiency::efficiency_curve(&sim, &model, &k, &fig2_frequencies()),
        })
        .collect()
}

/// One week per policy over `fleet` on the NTC server, with analytic
/// accounting, baseline static power and no QoS floor.
fn ntc_spec(
    fleet: FleetSpec,
    max_servers: usize,
    predictor: PredictorSpec,
    policies: &[PolicySpec],
) -> ExperimentSpec {
    ExperimentSpec {
        name: "paper-week".to_string(),
        fleets: vec![fleet],
        static_power_scales: vec![1.0],
        servers: vec![ServerSpec::Ntc],
        qos_floors_mhz: vec![None],
        backends: vec![BackendSpec::Analytic],
        policies: policies.to_vec(),
        predictor,
        max_servers,
        ablation: AblationFlags::default(),
        failure_policy: FailurePolicy::default(),
    }
}

/// Runs `spec` through the engine and returns every cell's week in
/// spec order.
///
/// # Panics
///
/// Panics if the engine rejects the spec, or with the first failed
/// cell, as that week run alone would.
fn run_weeks(spec: &ExperimentSpec) -> Vec<WeekOutcome> {
    let sweep = Engine::new()
        .run(spec)
        .unwrap_or_else(|e| panic!("invalid week spec: {e}"));
    if let Some(failure) = sweep.failed().first() {
        panic!("{failure}");
    }
    sweep.cells.into_iter().map(|c| c.outcome).collect()
}

/// Regenerates Figs. 4, 5 and 6 in one pass: the week-long comparison
/// of EPACT, COAT and COAT-OPT with ARIMA predictions, which all three
/// policies share.
///
/// Returns the outcomes in that order.
///
/// # Panics
///
/// Panics if the fleet is empty or shorter than two weeks, or if
/// `max_servers` is zero.
pub fn fig4_5_6(fleet: FleetSpec, max_servers: usize) -> [WeekOutcome; 3] {
    use PolicySpec::{Coat, CoatOpt, Epact};
    let policies = [Epact, Coat, CoatOpt];
    let spec = ntc_spec(fleet, max_servers, PredictorSpec::Arima, &policies);
    run_weeks(&spec).try_into().expect("one week per policy")
}

/// The §V-A claim quantified: EPACT against *both* extremes —
/// consolidation (COAT) and load balancing — plus COAT-OPT, with oracle
/// predictions. Returns outcomes in the order
/// `[EPACT, COAT, COAT-OPT, LOAD-BAL]`.
///
/// # Panics
///
/// Panics as [`fig4_5_6`] does.
pub fn policy_comparison(fleet: FleetSpec, max_servers: usize) -> [WeekOutcome; 4] {
    use PolicySpec::{Coat, CoatOpt, Epact, LoadBalance};
    let policies = [Epact, Coat, CoatOpt, LoadBalance];
    let spec = ntc_spec(fleet, max_servers, PredictorSpec::Oracle, &policies);
    run_weeks(&spec).try_into().expect("one week per policy")
}

/// One Fig. 7 point: totals under a given static (motherboard) power.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// The swept static power.
    pub static_power: Power,
    /// Total EPACT energy over the horizon.
    pub epact_energy: ntc_units::Energy,
    /// Total COAT energy over the horizon.
    pub coat_energy: ntc_units::Energy,
    /// EPACT's saving vs COAT, percent.
    pub saving_pct: f64,
}

/// Regenerates Fig. 7: EPACT-vs-COAT saving as the per-server static
/// power sweeps from efficient (5 W) to power-hungry (45 W). Uses
/// oracle predictions to isolate the static-power effect.
///
/// The sweep is one [`ExperimentSpec`] with `static_watts` expressed on
/// the engine's static-power-scale axis (relative to the NTC server's
/// baseline motherboard power).
///
/// # Panics
///
/// Panics if `static_watts` is empty or contains a negative or
/// non-finite value, or if the fleet is empty or shorter than two
/// weeks.
pub fn fig7(fleet: FleetSpec, max_servers: usize, static_watts: &[f64]) -> Vec<Fig7Point> {
    let baseline = ServerPowerModel::ntc().uncore().motherboard().as_watts();
    let policies = [PolicySpec::Epact, PolicySpec::Coat];
    let mut spec = ntc_spec(fleet, max_servers, PredictorSpec::Oracle, &policies);
    spec.static_power_scales = static_watts.iter().map(|&w| w / baseline).collect();
    // Weeks in spec order: scales outermost, [EPACT, COAT] per scale.
    run_weeks(&spec)
        .chunks_exact(2)
        .zip(static_watts)
        .map(|(pair, &w)| {
            let (epact, coat) = (&pair[0], &pair[1]);
            Fig7Point {
                static_power: Power::from_watts(w),
                epact_energy: epact.total_energy(),
                coat_energy: coat.total_energy(),
                saving_pct: epact.energy_saving_vs(coat) * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_ordering() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // NTC beats Cavium on every class (paper: 1.25-1.76x)
            assert!(
                r.ntc_secs < r.cavium_secs,
                "{}: NTC {:.3}s vs Cavium {:.3}s",
                r.workload,
                r.ntc_secs,
                r.cavium_secs
            );
            // and meets the 2x QoS limit at 2 GHz
            assert!(
                r.ntc_secs <= r.qos_limit_secs,
                "{}: NTC must meet QoS",
                r.workload
            );
            // x86 at its higher clock is fastest
            assert!(r.x86_secs < r.ntc_secs);
        }
        // the speedup over Cavium lands in the paper's 1.25-1.76 band
        for r in &rows {
            let speedup = r.cavium_secs / r.ntc_secs;
            assert!(
                (1.15..=2.1).contains(&speedup),
                "{}: speedup {speedup:.2} outside the paper's band",
                r.workload
            );
        }
    }

    #[test]
    fn fig1_ntc_panel_has_interior_minimum() {
        let curves = fig1(ServerPowerModel::ntc(), 80);
        // At 10% utilization the best frequency is neither the lowest
        // feasible nor Fmax.
        let low_util = &curves[0];
        let feasible: Vec<(Frequency, f64)> = low_util
            .points
            .iter()
            .filter_map(|&(f, p)| p.map(|p| (f, p.as_watts())))
            .collect();
        let (best_f, _) = feasible
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(best_f > feasible.first().unwrap().0);
        assert!(best_f < feasible.last().unwrap().0);
    }

    #[test]
    fn fig1_conventional_panel_rewards_consolidation() {
        let curves = fig1(ServerPowerModel::conventional_e5_2620(), 80);
        let low_util = &curves[0];
        let feasible: Vec<(Frequency, f64)> = low_util
            .points
            .iter()
            .filter_map(|&(f, p)| p.map(|p| (f, p.as_watts())))
            .collect();
        let (best_f, _) = feasible
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(
            best_f,
            feasible.last().unwrap().0,
            "the conventional DC must consolidate at Fmax"
        );
    }

    #[test]
    fn fig2_low_mem_tolerates_lower_frequency() {
        let series = fig2();
        let min_ok = |s: &Fig2Series| {
            s.points
                .iter()
                .find(|&&(_, norm)| norm <= 1.0)
                .map(|&(f, _)| f)
                .expect("every class meets QoS somewhere")
        };
        let f_low = min_ok(&series[0]);
        let f_high = min_ok(&series[2]);
        assert!(f_low < f_high);
    }

    #[test]
    fn fig3_peaks_are_interior() {
        for s in fig3() {
            let (best_f, best_e) = s
                .points
                .iter()
                .copied()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(best_e > 0.0);
            assert!(
                best_f > Frequency::from_ghz(0.2) && best_f < Frequency::from_ghz(2.5),
                "{}: efficiency peak at the boundary ({best_f})",
                s.workload
            );
        }
    }

    #[test]
    fn neither_consolidating_nor_balancing_wins() {
        // §V-A: "neither VM consolidation nor load balancing are the
        // best options" on NTC hardware — EPACT beats both extremes.
        let fleet = FleetSpec {
            num_vms: 48,
            seed: 2024,
            weeks: 2,
        };
        let [epact, coat, _coat_opt, loadbal] = policy_comparison(fleet, 600);
        assert!(
            epact.total_energy() < coat.total_energy(),
            "EPACT must beat consolidation: {:.1} vs {:.1} MJ",
            epact.total_energy().as_megajoules(),
            coat.total_energy().as_megajoules()
        );
        assert!(
            epact.total_energy() < loadbal.total_energy(),
            "EPACT must beat load balancing: {:.1} vs {:.1} MJ",
            epact.total_energy().as_megajoules(),
            loadbal.total_energy().as_megajoules()
        );
        // and load balancing burns servers
        assert!(loadbal.mean_active_servers() > epact.mean_active_servers());
    }

    #[test]
    fn fig7_saving_decreases_with_static_power() {
        let fleet = FleetSpec {
            num_vms: 36,
            seed: 77,
            weeks: 2,
        };
        let pts = fig7(fleet, 600, &[5.0, 45.0]);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[0].saving_pct > pts[1].saving_pct,
            "saving must shrink as static power grows: {:.1}% -> {:.1}%",
            pts[0].saving_pct,
            pts[1].saving_pct
        );
        assert!(
            pts[0].saving_pct > 0.0,
            "EPACT must win at low static power"
        );
    }
}
