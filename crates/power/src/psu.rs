//! Power-supply-unit efficiency: wall power vs DC power.
//!
//! Each NTC server has "its dedicated power supply" (§III-A). A PSU's
//! efficiency is load-dependent — poor at light load, peaking around
//! 50% of its rating (the 80 PLUS characteristic) — which *amplifies*
//! the energy-proportionality problem: an idle server's small DC draw
//! is divided by a small efficiency. The curve here lets data-center
//! studies report wall energy instead of DC energy.

use ntc_units::Power;

/// A load-dependent PSU efficiency curve (piecewise-linear over load
/// fraction knots).
///
/// # Examples
///
/// ```
/// use ntc_power::psu::PsuModel;
/// use ntc_units::Power;
///
/// let psu = PsuModel::gold_200w();
/// let wall = psu.wall_power(Power::from_watts(100.0));
/// assert!(wall.as_watts() > 100.0 && wall.as_watts() < 120.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsuModel {
    rating: Power,
    /// `(load fraction, efficiency)` knots, ascending in load.
    knots: Vec<(f64, f64)>,
}

impl PsuModel {
    /// An 80 PLUS Gold 200 W unit — sized for the ~130 W NTC server.
    pub fn gold_200w() -> Self {
        Self::new(
            Power::from_watts(200.0),
            vec![
                (0.0, 0.60),
                (0.10, 0.82),
                (0.20, 0.87),
                (0.50, 0.92),
                (1.0, 0.89),
            ],
        )
    }

    /// An older 80 PLUS Bronze 450 W unit — typical of the E5-2620
    /// generation, oversized and inefficient at the light loads an
    /// energy-proportional fleet would impose.
    pub fn bronze_450w() -> Self {
        Self::new(
            Power::from_watts(450.0),
            vec![
                (0.0, 0.50),
                (0.10, 0.75),
                (0.20, 0.81),
                (0.50, 0.85),
                (1.0, 0.82),
            ],
        )
    }

    /// Builds a PSU from a rating and efficiency knots.
    ///
    /// # Panics
    ///
    /// Panics if the rating is zero, fewer than two knots are given,
    /// knots are not ascending in load, or any efficiency is outside
    /// `(0, 1]`.
    pub fn new(rating: Power, knots: Vec<(f64, f64)>) -> Self {
        assert!(rating > Power::ZERO, "PSU rating must be positive");
        assert!(knots.len() >= 2, "need at least two efficiency knots");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "knots must ascend in load fraction");
        }
        assert!(
            knots
                .iter()
                .all(|&(l, e)| (0.0..=1.0).contains(&l) && e > 0.0 && e <= 1.0),
            "knots must have load in [0,1] and efficiency in (0,1]"
        );
        Self { rating, knots }
    }

    /// Rated DC output power.
    pub fn rating(&self) -> Power {
        self.rating
    }

    /// Efficiency at a DC load (clamped to the knot range).
    pub fn efficiency(&self, dc_load: Power) -> f64 {
        let frac = (dc_load.as_watts() / self.rating.as_watts()).clamp(0.0, 1.0);
        let first = self.knots[0];
        if frac <= first.0 {
            return first.1;
        }
        for w in self.knots.windows(2) {
            let (l0, e0) = w[0];
            let (l1, e1) = w[1];
            if frac <= l1 {
                let t = (frac - l0) / (l1 - l0);
                return e0 + t * (e1 - e0);
            }
        }
        self.knots[self.knots.len() - 1].1
    }

    /// Wall (AC) power drawn to supply `dc_load`.
    pub fn wall_power(&self, dc_load: Power) -> Power {
        if dc_load == Power::ZERO {
            return Power::ZERO;
        }
        Power::from_watts(dc_load.as_watts() / self.efficiency(dc_load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_peaks_midrange() {
        let psu = PsuModel::gold_200w();
        let light = psu.efficiency(Power::from_watts(10.0));
        let mid = psu.efficiency(Power::from_watts(100.0));
        let full = psu.efficiency(Power::from_watts(200.0));
        assert!(mid > light);
        assert!(mid > full);
        assert!((mid - 0.92).abs() < 1e-9);
    }

    #[test]
    fn wall_power_exceeds_dc_power() {
        let psu = PsuModel::gold_200w();
        for w in [5.0, 30.0, 100.0, 180.0] {
            let dc = Power::from_watts(w);
            assert!(psu.wall_power(dc) > dc);
        }
        assert_eq!(psu.wall_power(Power::ZERO), Power::ZERO);
    }

    #[test]
    fn light_load_penalty_amplifies_disproportionality() {
        // The same 28 W idle draw costs relatively more wall power on
        // the oversized bronze unit.
        let idle = Power::from_watts(28.0);
        let gold = PsuModel::gold_200w().wall_power(idle);
        let bronze = PsuModel::bronze_450w().wall_power(idle);
        assert!(bronze.as_watts() > gold.as_watts());
    }

    #[test]
    fn interpolation_is_continuous() {
        let psu = PsuModel::gold_200w();
        let e1 = psu.efficiency(Power::from_watts(39.9));
        let e2 = psu.efficiency(Power::from_watts(40.1));
        assert!((e1 - e2).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_knots_rejected() {
        let _ = PsuModel::new(Power::from_watts(100.0), vec![(0.5, 0.9), (0.2, 0.8)]);
    }
}
