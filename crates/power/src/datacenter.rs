use ntc_units::{Frequency, Percent, Power};

use crate::{ServerLoad, ServerPowerModel};

/// Data-center-level power model (§IV-5 and §V-A of the paper).
///
/// Total data-center power is the sum of the powers of the turned-on
/// servers. For a *worst-case* (fully CPU-bound, maximum-utilization)
/// workload demanding a given share of the data center's total CPU
/// capacity, this type answers the paper's motivating question: *how many
/// servers should be on, and at what frequency?*
///
/// For the NTC server the answer is the Fig. 1(a) surface with a sweet
/// spot at `F_NTC_opt ≈ 1.9 GHz`; for the conventional server it is
/// Fig. 1(b), monotonically rewarding consolidation at `Fmax`.
///
/// # Examples
///
/// ```
/// use ntc_power::{DataCenterPowerModel, ServerPowerModel};
/// use ntc_units::{Frequency, Percent};
///
/// let dc = DataCenterPowerModel::new(ServerPowerModel::ntc(), 80);
/// let u = Percent::new(30.0);
/// let f_opt = dc.server().ntc_optimal_frequency();
/// let p_opt = dc.worst_case_power(u, f_opt).unwrap();
/// let p_max = dc.worst_case_power(u, Frequency::from_ghz(3.1)).unwrap();
/// assert!(p_opt < p_max); // consolidation at Fmax is NOT optimal
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenterPowerModel {
    server: ServerPowerModel,
    num_servers: usize,
}

impl DataCenterPowerModel {
    /// Builds a data-center model of `num_servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `num_servers == 0`.
    pub fn new(server: ServerPowerModel, num_servers: usize) -> Self {
        assert!(num_servers > 0, "a data center needs at least one server");
        Self {
            server,
            num_servers,
        }
    }

    /// The per-server power model.
    pub fn server(&self) -> &ServerPowerModel {
        &self.server
    }

    /// Total CPU capacity of the data center in MHz-equivalents
    /// (`num_servers × Fmax`), the denominator of the paper's data-center
    /// utilization rate.
    pub fn total_capacity_mhz(&self) -> f64 {
        self.num_servers as f64 * self.server.fmax().as_mhz()
    }

    /// The number of servers that must be on to serve `util` of total
    /// capacity when each runs at frequency `f`, or `None` if even all
    /// servers at `f` cannot meet the demand.
    pub fn required_servers(&self, util: Percent, f: Frequency) -> Option<usize> {
        let demand_mhz = util.as_fraction() * self.total_capacity_mhz();
        if demand_mhz <= 0.0 {
            return Some(0);
        }
        let n = (demand_mhz / f.as_mhz()).ceil() as usize;
        if n > self.num_servers {
            None
        } else {
            Some(n)
        }
    }

    /// Worst-case data-center power when serving a CPU-bound demand of
    /// `util` with every active server at frequency `f` (Fig. 1).
    ///
    /// Active servers run fully busy (worst case, maximum CPU
    /// utilization, no dynamic memory power); turned-off servers draw
    /// nothing. Returns `None` if the demand is infeasible at `f`.
    pub fn worst_case_power(&self, util: Percent, f: Frequency) -> Option<Power> {
        let n = self.required_servers(util, f)?;
        let per_server = self
            .server
            .power_at(f, &ServerLoad::cpu_bound(Percent::FULL));
        Some(per_server * n as f64)
    }

    /// Sweeps the DVFS levels and returns the frequency minimizing
    /// worst-case power for `util`, together with that power.
    ///
    /// For utilizations above ~`Fopt/Fmax` the demand forces frequencies
    /// above the unconstrained optimum, reproducing the right-shifting
    /// minima of Fig. 1(a).
    ///
    /// # Panics
    ///
    /// Panics if `util` exceeds 100% (infeasible even at `Fmax`).
    pub fn optimal_frequency(&self, util: Percent) -> (Frequency, Power) {
        assert!(
            util.value() <= 100.0,
            "data-center utilization cannot exceed 100%"
        );
        self.server
            .dvfs_levels()
            .into_iter()
            .filter_map(|f| self.worst_case_power(util, f).map(|p| (f, p)))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("power values are finite")
                    // tie-break toward the lower frequency
                    .then(a.0.partial_cmp(&b.0).expect("frequencies are finite"))
            })
            .expect("at Fmax any util <= 100% is feasible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ntc_dc() -> DataCenterPowerModel {
        DataCenterPowerModel::new(ServerPowerModel::ntc(), 80)
    }

    #[test]
    fn ntc_optimum_is_near_1_9_ghz() {
        let f = ntc_dc().server().ntc_optimal_frequency();
        assert!(
            (1.5..=2.2).contains(&f.as_ghz()),
            "paper reports F_NTC_opt ~ 1.9 GHz, model gives {f}"
        );
    }

    #[test]
    fn conventional_optimum_is_fmax() {
        let dc = DataCenterPowerModel::new(ServerPowerModel::conventional_e5_2620(), 80);
        let (f, _) = dc.optimal_frequency(Percent::new(20.0));
        assert_eq!(
            f,
            dc.server().fmax(),
            "consolidation at Fmax must be optimal for the non-NTC data center"
        );
    }

    #[test]
    fn high_utilization_forces_minimum_feasible_frequency() {
        // Above ~61% utilization (1.9/3.1), Fopt becomes the lowest
        // frequency that still meets demand (paper §V-A).
        let dc = ntc_dc();
        let (f, _) = dc.optimal_frequency(Percent::new(80.0));
        assert!(f.as_ghz() >= 0.8 * 3.1 - 0.2);
        // and it is the smallest feasible DVFS level
        let feasible_min = dc
            .server()
            .dvfs_levels()
            .into_iter()
            .find(|&l| dc.required_servers(Percent::new(80.0), l).is_some())
            .unwrap();
        assert_eq!(f, feasible_min);
    }

    #[test]
    fn required_servers_counts_ceil() {
        let dc = ntc_dc();
        // 50% of 80 servers' capacity at Fmax needs exactly 40 servers.
        assert_eq!(
            dc.required_servers(Percent::new(50.0), dc.server().fmax()),
            Some(40)
        );
        // at half Fmax it needs all 80
        assert_eq!(
            dc.required_servers(Percent::new(50.0), Frequency::from_mhz(1550.0)),
            Some(80)
        );
        // and slightly below that it is infeasible
        assert_eq!(
            dc.required_servers(Percent::new(50.0), Frequency::from_mhz(1500.0)),
            None
        );
        // zero demand needs zero servers
        assert_eq!(
            dc.required_servers(Percent::ZERO, dc.server().fmax()),
            Some(0)
        );
    }

    #[test]
    fn fig1a_magnitude() {
        // Fig 1a tops out around 11-12 kW for 90% utilization at 3.1 GHz.
        let dc = ntc_dc();
        let p = dc
            .worst_case_power(Percent::new(90.0), Frequency::from_ghz(3.1))
            .unwrap();
        assert!(
            (8.0..13.0).contains(&p.as_kilowatts()),
            "Fig 1a peak should be ~11 kW, got {p}"
        );
    }

    #[test]
    fn surface_shape_matches_fig1a() {
        let dc = ntc_dc();
        let utils: Vec<Percent> = (1..=9).map(|i| Percent::new(10.0 * i as f64)).collect();
        let freqs = dc.server().dvfs_levels();
        let surface: Vec<Vec<Option<Power>>> = utils
            .iter()
            .map(|&u| freqs.iter().map(|&f| dc.worst_case_power(u, f)).collect())
            .collect();
        assert_eq!(surface.len(), 9);
        // every row is feasible at fmax
        for row in &surface {
            assert!(row.last().unwrap().is_some());
        }
        // at 10% util, power at Fmax strictly exceeds power at Fopt
        let row0 = &surface[0];
        let p_fmax = row0.last().unwrap().unwrap();
        let p_opt = dc.optimal_frequency(Percent::new(10.0)).1;
        assert!(p_opt < p_fmax);
    }
}
