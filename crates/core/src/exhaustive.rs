//! Brute-force optimal allocation for small instances — the yardstick
//! for EPACT's optimality gap.
//!
//! The allocation problem (partition VMs into servers minimizing
//! worst-case slot power subject to per-sample caps) is NP-hard in
//! general; for fleets of up to ~10 VMs the full partition space can be
//! enumerated. The test suite uses this to bound how far Algorithm 1's
//! greedy packing lands from the true optimum.

use ntc_power::ServerPowerModel;
use ntc_trace::TimeSeries;
use ntc_units::{Frequency, Percent, Power};

/// The exact optimum for one slot: assignment, server count, and its
/// worst-case power.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveResult {
    /// `assignment[vm] = server index`.
    pub assignment: Vec<usize>,
    /// Number of servers used.
    pub num_servers: usize,
    /// Worst-case power of the plan (every server at the level covering
    /// its own peak).
    pub power: Power,
}

/// Worst-case power of a candidate partition: each server runs at the
/// lowest DVFS level covering its peak aggregated demand; infeasible
/// partitions (a server's peak above 100%) return `None`.
fn partition_power(
    server: &ServerPowerModel,
    cpu: &[TimeSeries],
    assignment: &[usize],
    num_servers: usize,
) -> Option<Power> {
    let slot_len = cpu[0].len();
    let mut aggregates = vec![TimeSeries::zeros(slot_len); num_servers];
    for (vm, &s) in assignment.iter().enumerate() {
        aggregates[s].add_in_place(&cpu[vm]);
    }
    let mut total = Power::ZERO;
    for agg in &aggregates {
        let peak = agg.peak();
        if peak > 100.0 + 1e-9 {
            return None;
        }
        let needed = Frequency::from_mhz(peak / 100.0 * server.fmax().as_mhz());
        let level = server
            .cores()
            .vf_curve()
            .level_at_or_above(needed)
            .unwrap_or_else(|| server.fmax());
        // worst case: the server is busy at its peak for the whole slot
        let util = Percent::new((peak * server.fmax().ratio(level)).min(100.0));
        total += server.power(level, util, Percent::ZERO);
    }
    Some(total)
}

/// Enumerates every partition of the VMs (restricted growth strings)
/// and returns the feasible partition with the lowest worst-case power.
///
/// # Panics
///
/// Panics if `cpu` is empty or holds more than 12 VMs (the partition
/// count — the Bell number — explodes beyond that).
pub fn optimal_allocation(server: &ServerPowerModel, cpu: &[TimeSeries]) -> ExhaustiveResult {
    assert!(!cpu.is_empty(), "no VMs to allocate");
    assert!(
        cpu.len() <= 12,
        "exhaustive search is limited to 12 VMs (got {})",
        cpu.len()
    );

    let n = cpu.len();
    let mut best: Option<ExhaustiveResult> = None;

    // Restricted growth strings: a[0] = 0, a[i] <= max(a[..i]) + 1.
    let mut a = vec![0usize; n];
    loop {
        let num_servers = a.iter().copied().max().unwrap_or(0) + 1;
        if let Some(power) = partition_power(server, cpu, &a, num_servers) {
            if best.as_ref().is_none_or(|b| power < b.power) {
                best = Some(ExhaustiveResult {
                    assignment: a.clone(),
                    num_servers,
                    power,
                });
            }
        }

        // next restricted growth string
        let mut i = n - 1;
        loop {
            if i == 0 {
                return best.expect("singleton partition is always feasible at <=100% per VM or the caller passed oversized VMs");
            }
            let prefix_max = a[..i].iter().copied().max().unwrap_or(0);
            if a[i] <= prefix_max {
                a[i] += 1;
                for v in a.iter_mut().skip(i + 1) {
                    *v = 0;
                }
                break;
            }
            a[i] = 0;
            i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::f64::consts::TAU;

    use super::*;
    use crate::{eq1, AllocationPolicy, Epact, SlotContext};
    use ntc_power::DataCenterPowerModel;

    fn flat(v: f64) -> TimeSeries {
        TimeSeries::constant(4, v)
    }

    #[test]
    fn two_small_vms_share_a_server() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![flat(10.0), flat(10.0)];
        let res = optimal_allocation(&server, &cpu);
        assert_eq!(res.num_servers, 1, "two 10% VMs share one server");
    }

    #[test]
    fn oversubscription_forces_a_split() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![flat(60.0), flat(60.0)];
        let res = optimal_allocation(&server, &cpu);
        assert_eq!(res.num_servers, 2, "120% cannot share");
    }

    #[test]
    fn optimum_prefers_near_ntc_opt_loading() {
        // Six 30% VMs: one server would need 180% (infeasible), two
        // need 90% each (Fmax operation), three run at 60% ~ 1.9 GHz.
        // The energy-proportional optimum is three servers.
        let server = ServerPowerModel::ntc();
        let cpu = vec![flat(30.0); 6];
        let res = optimal_allocation(&server, &cpu);
        assert_eq!(
            res.num_servers, 3,
            "the optimum should land at the 1.9 GHz loading"
        );
    }

    #[test]
    fn epact_is_near_optimal_on_small_instances() {
        let server = ServerPowerModel::ntc();
        // heterogeneous small instance
        let cpu: Vec<TimeSeries> = [25.0, 25.0, 30.0, 20.0, 15.0, 35.0, 10.0]
            .iter()
            .map(|&v| flat(v))
            .collect();
        let mem = vec![flat(1.0); cpu.len()];
        let opt = optimal_allocation(&server, &cpu);

        let ctx = SlotContext::new(&cpu, &mem, &server, 100);
        let plan = Epact::new().allocate(&ctx);
        let epact_power = partition_power(&server, &cpu, plan.assignments(), plan.num_servers())
            .expect("EPACT plans are feasible");

        let gap = epact_power.as_watts() / opt.power.as_watts();
        assert!(
            gap <= 1.25,
            "EPACT (greedy) must be within 25% of the brute-force optimum, gap {:.3} ({} vs {})",
            gap,
            epact_power,
            opt.power
        );
    }

    /// A 64-bit LCG (Knuth's MMIX constants): a fixed, seeded stream
    /// of test inputs without a dependency.
    struct Lcg(u64);

    impl Lcg {
        /// Uniform in `[0, 1)`, from the top 53 bits of the state.
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// EPACT's worst-case power against the brute-force optimum over a
    /// fixed set of 400 random slots: 2–8 VMs, 12 diurnal samples each
    /// (random base, amplitude and phase) and flat 1 % memory, kept only
    /// when Eq. 1 calls the slot CPU-dominated, so every plan comes from
    /// Algorithm 1. The mean and max power ratios and the share of slots
    /// solved exactly are pinned a little past their values today: a
    /// change that makes the greedy packing worse on typical slots fails
    /// here, where a single hand-picked instance would not notice.
    #[test]
    fn epact_optimality_gap_stays_pinned() {
        let server = ServerPowerModel::ntc();
        let max_servers = 100;
        let f_ntc_opt =
            DataCenterPowerModel::new(server.clone(), max_servers).ntc_optimal_frequency();
        let mut rng = Lcg(2018);
        let mut ratios = Vec::new();
        while ratios.len() < 400 {
            let n = 2 + (rng.next_f64() * 7.0) as usize;
            let cpu: Vec<TimeSeries> = (0..n)
                .map(|_| {
                    let base = rng.range(5.0, 20.0);
                    let amplitude = rng.range(0.0, base);
                    let phase = rng.next_f64();
                    (0..12)
                        .map(|t| base + amplitude * (TAU * (t as f64 / 12.0 + phase)).sin())
                        .collect()
                })
                .collect();
            let mem = vec![TimeSeries::constant(12, 1.0); n];
            let ctx = SlotContext::new(&cpu, &mem, &server, max_servers);
            if !eq1::decide(&ctx, f_ntc_opt).cpu_dominated {
                continue;
            }
            let plan = Epact::new().allocate(&ctx);
            let epact = partition_power(&server, &cpu, plan.assignments(), plan.num_servers())
                .expect("EPACT plans are feasible");
            let optimum = optimal_allocation(&server, &cpu).power;
            ratios.push(epact.as_watts() / optimum.as_watts());
        }
        // The two sums add the same servers' powers in different orders,
        // so an exact solution can land an ulp either side of 1.
        assert!(
            ratios.iter().all(|&r| r > 1.0 - 1e-12),
            "nothing beats the optimum"
        );
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().copied().fold(1.0, f64::max);
        let exact =
            ratios.iter().filter(|&&r| r < 1.0 + 1e-12).count() as f64 / ratios.len() as f64;
        // Today: mean 1.0820, max 1.3979, 163 of 400 slots exact.
        assert!(mean <= 1.085, "mean EPACT/optimum power ratio {mean:.4}");
        assert!(max <= 1.42, "worst EPACT/optimum power ratio {max:.4}");
        assert!(
            exact >= 0.395,
            "share of slots EPACT solves exactly {exact:.3}"
        );
    }

    #[test]
    fn anti_correlated_pairing_is_recognized() {
        let server = ServerPowerModel::ntc();
        let day = TimeSeries::from_values(vec![50.0, 50.0, 10.0, 10.0]);
        let night = TimeSeries::from_values(vec![10.0, 10.0, 50.0, 50.0]);
        let cpu = vec![day.clone(), day, night.clone(), night];
        let res = optimal_allocation(&server, &cpu);
        // optimal: two servers, each one day + one night VM (peak 60)
        assert_eq!(res.num_servers, 2);
        let a = &res.assignment;
        assert_ne!(a[0], a[1], "two day VMs must not share: {a:?}");
    }

    #[test]
    #[should_panic(expected = "limited to 12")]
    fn large_instances_rejected() {
        let server = ServerPowerModel::ntc();
        let cpu = vec![flat(1.0); 13];
        let _ = optimal_allocation(&server, &cpu);
    }
}
