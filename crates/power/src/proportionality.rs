//! Energy-proportionality metrics.
//!
//! A perfectly proportional server draws power linearly in utilization
//! with zero idle power; a constant-power server is the opposite extreme.
//! The index computed here summarizes where a [`ServerPowerModel`] falls
//! between the two, and quantifies the claim that FD-SOI NTC servers are
//! dramatically more proportional than conventional ones.

use ntc_units::{Frequency, Percent};

use crate::ServerPowerModel;

/// The energy-proportionality index of a server at a fixed frequency,
/// in `[0, 1]`:
///
/// ```text
/// EP = 2 − 2 · mean_u( P(u) / P(100%) ),   u ∈ [0, 100%]
/// ```
///
/// `EP = 1` for an ideally proportional machine (power linear in load,
/// zero at idle) and `EP = 0` for a machine whose power never varies.
/// Values are clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use ntc_power::proportionality::ep_index;
/// use ntc_power::ServerPowerModel;
///
/// let ntc = ServerPowerModel::ntc();
/// let conv = ServerPowerModel::conventional_e5_2620();
/// let f_ntc = ntc.fmax();
/// let f_conv = conv.fmax();
/// assert!(ep_index(&ntc, f_ntc, 50) > ep_index(&conv, f_conv, 50));
/// ```
pub fn ep_index(server: &ServerPowerModel, f: Frequency, steps: usize) -> f64 {
    assert!(steps >= 2, "EP index needs at least two utilization steps");
    let peak = server.power(f, Percent::FULL, Percent::ZERO).as_watts();
    if peak <= 0.0 {
        return 0.0;
    }
    let mean_ratio: f64 = (0..=steps)
        .map(|i| {
            let u = Percent::new(100.0 * i as f64 / steps as f64);
            server.power(f, u, Percent::ZERO).as_watts() / peak
        })
        .sum::<f64>()
        / (steps + 1) as f64;
    (2.0 - 2.0 * mean_ratio).clamp(0.0, 1.0)
}

/// The *dynamic range* of a server: peak power over idle power at the
/// same frequency. Higher is more proportional.
///
/// # Examples
///
/// ```
/// use ntc_power::proportionality::dynamic_range;
/// use ntc_power::ServerPowerModel;
///
/// let ntc = ServerPowerModel::ntc();
/// assert!(dynamic_range(&ntc, ntc.fmax()) > 2.0);
/// ```
pub fn dynamic_range(server: &ServerPowerModel, f: Frequency) -> f64 {
    let peak = server.power(f, Percent::FULL, Percent::ZERO).as_watts();
    let idle = server.power(f, Percent::ZERO, Percent::ZERO).as_watts();
    if idle <= 0.0 {
        f64::INFINITY
    } else {
        peak / idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_index_bounds() {
        let ntc = ServerPowerModel::ntc();
        for f in ntc.dvfs_levels() {
            let ep = ep_index(&ntc, f, 20);
            assert!((0.0..=1.0).contains(&ep), "EP index out of bounds at {f}");
        }
    }

    #[test]
    fn ntc_more_proportional_than_conventional() {
        let ntc = ServerPowerModel::ntc();
        let conv = ServerPowerModel::conventional_e5_2620();
        let ep_ntc = ep_index(&ntc, ntc.fmax(), 50);
        let ep_conv = ep_index(&conv, conv.fmax(), 50);
        assert!(
            ep_ntc > ep_conv + 0.05,
            "NTC EP {ep_ntc:.3} must clearly exceed conventional EP {ep_conv:.3}"
        );
    }

    #[test]
    fn dynamic_range_ordering() {
        let ntc = ServerPowerModel::ntc();
        let conv = ServerPowerModel::conventional_e5_2620();
        assert!(dynamic_range(&ntc, ntc.fmax()) > dynamic_range(&conv, conv.fmax()));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_steps_rejected() {
        let ntc = ServerPowerModel::ntc();
        let _ = ep_index(&ntc, ntc.fmax(), 1);
    }
}
