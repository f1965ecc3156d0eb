use ntc_power::ServerPowerModel;
use ntc_units::{Frequency, Percent};

use crate::MEM_CAP;

/// The per-sample online DVFS governor (§V-B, closing paragraph).
///
/// After allocation, every policy sets — per 5-minute sample and per
/// server — the lowest DVFS level whose capacity covers the server's
/// *actual* CPU demand, bounded above by the policy's ceiling (Fmax for
/// the dynamic policies, the fixed optimal cap for COAT-OPT).
///
/// # Examples
///
/// ```
/// use ntc_core::DvfsGovernor;
/// use ntc_power::ServerPowerModel;
///
/// let server = ServerPowerModel::ntc();
/// let gov = DvfsGovernor::new(&server);
/// // 50% of Fmax-capacity needs at least 1.55 GHz: next level is 1.7 GHz
/// let f = gov.level_for_demand(50.0, server.fmax());
/// assert_eq!(f.as_mhz(), 1700.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsGovernor {
    levels: Vec<Frequency>,
    fmax: Frequency,
}

impl DvfsGovernor {
    /// Creates a governor for `server`'s DVFS levels.
    pub fn new(server: &ServerPowerModel) -> Self {
        Self {
            levels: server.dvfs_levels(),
            fmax: server.fmax(),
        }
    }

    /// The lowest DVFS level whose capacity covers `demand` (percent of
    /// Fmax-capacity), clamped to `ceiling`. Demand beyond the ceiling's
    /// capacity returns the ceiling (and the caller records a QoS
    /// violation).
    pub fn level_for_demand(&self, demand: f64, ceiling: Frequency) -> Frequency {
        assert!(demand >= 0.0, "demand must be non-negative");
        let needed_mhz = demand / 100.0 * self.fmax.as_mhz();
        self.levels
            .iter()
            .copied()
            .find(|f| f.as_mhz() + 1e-9 >= needed_mhz && *f <= ceiling)
            .unwrap_or(ceiling)
    }

    /// Core-busy utilization at frequency `f` for a `demand` expressed
    /// against Fmax-capacity (running slower means busier cores), capped
    /// at 100%.
    pub fn utilization_at(&self, demand: f64, f: Frequency) -> Percent {
        assert!(demand >= 0.0, "demand must be non-negative");
        if f == Frequency::ZERO {
            return Percent::FULL;
        }
        Percent::new((demand * self.fmax.ratio(f)).min(100.0))
    }

    /// `true` if `demand` (percent of Fmax-capacity) cannot be served
    /// even at `ceiling` — the violation predicate of Fig. 4.
    pub fn is_violated(&self, demand: f64, ceiling: Frequency) -> bool {
        demand / 100.0 * self.fmax.as_mhz() > ceiling.as_mhz() * (1.0 + 1e-9)
    }

    /// The full per-sample governing decision — the *govern* stage of
    /// the slot pipeline. Given a server's raw CPU/memory demand for one
    /// 5-minute sample and the plan's frequency band, it settles the
    /// serving frequency, the resulting core-busy utilization and the
    /// demand-violation flag in one place, so every accounting backend
    /// prices the same operating point.
    ///
    /// `floor` is the plan's DVFS floor (COAT-OPT pins it to the fixed
    /// cap); `qos_floor`, when present, additionally lifts the level to
    /// `min(qos_floor, ceiling)` (§VI-B3 per-class QoS-safe minima).
    pub fn govern_sample(
        &self,
        demand_cpu: f64,
        demand_mem: f64,
        ceiling: Frequency,
        floor: Frequency,
        qos_floor: Option<Frequency>,
    ) -> GovernedSample {
        let demand_violated = self.is_violated(demand_cpu, ceiling) || demand_mem > MEM_CAP + 1e-9;
        let mut freq = self
            .level_for_demand(demand_cpu.min(100.0), ceiling)
            .max(floor);
        if let Some(q) = qos_floor {
            freq = freq.max(q.min(ceiling));
        }
        let cpu_util = self.utilization_at(demand_cpu.min(100.0), freq);
        GovernedSample {
            freq,
            cpu_util,
            mem_util: Percent::new(demand_mem.min(MEM_CAP)),
            demand_violated,
        }
    }
}

/// One server-sample operating point as settled by the govern stage:
/// the DVFS level actually served, the core-busy utilization at that
/// level, the (capped) memory utilization, and whether raw demand
/// exceeded what the plan's ceiling could serve.
///
/// This is the unit of exchange between the govern stage and the
/// accounting backends — backends price it but never change it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernedSample {
    /// Serving frequency after floor/ceiling/QoS-floor resolution.
    pub freq: Frequency,
    /// Core-busy utilization at `freq` (running slower means busier).
    pub cpu_util: Percent,
    /// Memory utilization, capped at [`MEM_CAP`].
    pub mem_util: Percent,
    /// Raw demand exceeded the ceiling's capacity (or memory overflowed
    /// [`MEM_CAP`]):
    /// the slot records a violation regardless of backend.
    pub demand_violated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> (ServerPowerModel, DvfsGovernor) {
        let s = ServerPowerModel::ntc();
        let g = DvfsGovernor::new(&s);
        (s, g)
    }

    #[test]
    fn zero_demand_gets_lowest_level() {
        let (s, g) = gov();
        assert_eq!(g.level_for_demand(0.0, s.fmax()), s.fmin());
    }

    #[test]
    fn full_demand_gets_fmax() {
        let (s, g) = gov();
        assert_eq!(g.level_for_demand(100.0, s.fmax()), s.fmax());
    }

    #[test]
    fn ceiling_caps_the_level() {
        let (_, g) = gov();
        let ceiling = Frequency::from_ghz(1.9);
        let f = g.level_for_demand(90.0, ceiling);
        assert_eq!(f, ceiling, "demand beyond the ceiling clamps to it");
        assert!(g.is_violated(90.0, ceiling));
        assert!(!g.is_violated(61.0, ceiling));
    }

    #[test]
    fn utilization_rises_as_frequency_falls() {
        let (s, g) = gov();
        let at_fmax = g.utilization_at(40.0, s.fmax());
        let at_half = g.utilization_at(40.0, Frequency::from_mhz(1550.0));
        assert!((at_fmax.value() - 40.0).abs() < 1e-9);
        assert!((at_half.value() - 80.0).abs() < 1e-9);
        // saturates at 100
        assert_eq!(
            g.utilization_at(90.0, Frequency::from_mhz(310.0)),
            Percent::FULL
        );
    }

    #[test]
    fn chosen_level_always_covers_demand_when_feasible() {
        let (s, g) = gov();
        for demand in [1.0, 7.0, 23.0, 48.0, 61.0, 77.0, 99.0] {
            let f = g.level_for_demand(demand, s.fmax());
            assert!(
                f.as_mhz() >= demand / 100.0 * s.fmax().as_mhz() - 1e-6,
                "level {f} cannot serve {demand}%"
            );
        }
    }
}
