//! The three benchmark workloads, each a generated [`ExperimentSpec`].
//!
//! Every workload runs against 600 servers; its fleets are derived from
//! the benchmark seed by [`fleet_seed`], so the same seed always yields
//! the same traces and the engine receives nothing but the spec.

use ntc_datacenter::{
    AblationFlags, BackendSpec, CellSpec, ExperimentSpec, FailurePolicy, FleetSpec, PolicySpec,
    PredictorSpec, ServerSpec,
};

/// The seed the stored output references were taken at.
pub const DEFAULT_SEED: u64 = 2018;

/// A seed never used while tuning the benchmark or a change measured
/// with it: a later gain claim must hold here too.
pub const HELD_OUT_SEED: u64 = 4242;

/// Physical servers available to every cell of every workload.
pub const MAX_SERVERS: usize = 600;

/// Full size is what the benchmark measures; quick size runs the same
/// axes over tiny fleets for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The documented workload sizes.
    Full,
    /// Reduced fleets, same axes and checks.
    Quick,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 600-VM fleet, oracle predictions, the paper's 6 cells:
    /// planning dominates and every plan-cache lookup misses.
    Paper600,
    /// Three 120-VM fleets under ARIMA: forecasting dominates.
    Arima120x3,
    /// Three 60-VM fleets crossed with static-power scales, QoS floors
    /// and both backends (216 cells): plan-cache reads dominate.
    ToyGrid60,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Paper600,
        Workload::Arima120x3,
        Workload::ToyGrid60,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper600 => "paper-600",
            Workload::Arima120x3 => "arima-120x3",
            Workload::ToyGrid60 => "toy-grid-60",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// VMs per fleet at the given size.
    pub fn vms(self, size: Size) -> usize {
        match (self, size) {
            (Workload::Paper600, Size::Full) => 600,
            (Workload::Paper600, Size::Quick) => 24,
            (Workload::Arima120x3, Size::Full) => 120,
            (Workload::Arima120x3, Size::Quick) => 12,
            (Workload::ToyGrid60, Size::Full) => 60,
            (Workload::ToyGrid60, Size::Quick) => 8,
        }
    }

    /// The sweep this workload runs for `seed`.
    pub fn spec(self, seed: u64, size: Size) -> ExperimentSpec {
        let fleets = match self {
            Workload::Paper600 => 1,
            Workload::Arima120x3 | Workload::ToyGrid60 => 3,
        };
        let fleets = (0..fleets)
            .map(|i| FleetSpec {
                num_vms: self.vms(size),
                seed: fleet_seed(seed, i),
                weeks: 2,
            })
            .collect();
        let mut spec = ExperimentSpec {
            name: self.name().to_string(),
            fleets,
            static_power_scales: vec![1.0],
            servers: vec![ServerSpec::Ntc, ServerSpec::Conventional],
            qos_floors_mhz: vec![None],
            backends: vec![BackendSpec::Analytic],
            policies: vec![PolicySpec::Epact, PolicySpec::Coat, PolicySpec::CoatOpt],
            predictor: PredictorSpec::Oracle,
            max_servers: MAX_SERVERS,
            ablation: AblationFlags::default(),
            failure_policy: FailurePolicy::KeepGoing,
        };
        match self {
            Workload::Paper600 => {}
            Workload::Arima120x3 => spec.predictor = PredictorSpec::Arima,
            Workload::ToyGrid60 => {
                spec.static_power_scales = vec![0.5, 1.0, 1.5];
                spec.qos_floors_mhz = vec![None, Some(1800.0)];
                spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
            }
        }
        spec
    }

    /// The cell the traced run replays: EPACT on the NTC server over
    /// the first fleet. On `toy-grid-60` it is the QoS-floored archsim
    /// arm at the baseline static power, so the replay crosses the
    /// layers the analytic workloads skip.
    pub fn traced_cell(self, spec: &ExperimentSpec) -> CellSpec {
        let want_archsim = self == Workload::ToyGrid60;
        *spec
            .cells()
            .iter()
            .find(|c| {
                c.fleet == spec.fleets[0]
                    && c.policy == PolicySpec::Epact
                    && c.server == ServerSpec::Ntc
                    && c.static_power_scale == 1.0
                    && (c.backend == BackendSpec::Archsim) == want_archsim
                    && c.qos_floor_mhz.is_some() == want_archsim
            })
            .expect("every workload has an EPACT/NTC cell on its first fleet")
    }
}

/// Fleet `index` of a workload run with benchmark seed `seed`. Kept
/// below 2^53 so the seed survives the spec's JSON round trip exactly.
pub fn fleet_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(8).wrapping_add(index as u64) & ((1 << 53) - 1)
}

/// The fleet sizes of the day-cache-vs-rebuild planning probe.
pub fn probe_scales(size: Size) -> [usize; 2] {
    match size {
        Size::Full => [60, 600],
        Size::Quick => [8, 24],
    }
}

/// Short metric tag of a policy (`epact`, `coat`, `coatopt`).
pub fn policy_tag(policy: PolicySpec) -> &'static str {
    match policy {
        PolicySpec::Epact => "epact",
        PolicySpec::Coat => "coat",
        PolicySpec::CoatOpt => "coatopt",
        PolicySpec::LoadBalance => "loadbalance",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_documented_workloads() {
        let cells = |w: Workload| w.spec(DEFAULT_SEED, Size::Full).cells().len();
        assert_eq!(cells(Workload::Paper600), 6);
        assert_eq!(cells(Workload::Arima120x3), 18);
        assert_eq!(cells(Workload::ToyGrid60), 216);
    }

    #[test]
    fn seeds_derive_distinct_fleets() {
        let spec = Workload::ToyGrid60.spec(7, Size::Full);
        assert_eq!(spec.fleets[0].seed, 56);
        assert_eq!(spec.fleets[2].seed, 58);
        assert_ne!(
            Workload::Paper600.spec(1, Size::Full),
            Workload::Paper600.spec(2, Size::Full)
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn traced_cell_of_toy_grid_uses_archsim_and_a_floor() {
        let spec = Workload::ToyGrid60.spec(DEFAULT_SEED, Size::Quick);
        let cell = Workload::ToyGrid60.traced_cell(&spec);
        assert_eq!(cell.backend, BackendSpec::Archsim);
        assert_eq!(cell.qos_floor_mhz, Some(1800.0));
    }
}
