//! Equation 1 of the paper: the CPU-side and memory-side estimates of
//! the number of servers to turn on, and the slot-level Fopt search.
//!
//! ```text
//! N̂cpu = max_n(Σ_k Ũcpu^{k,n}) · Fmax / (F_NTC_opt · 100)
//! N̂mem = max_n(Σ_k Ũmem^{k,n}) / 100
//! ```
//!
//! When `N̂cpu > N̂mem` the data center is CPU-dominated and EPACT
//! exhaustively explores server counts between the two estimates for the
//! operating frequency with the lowest worst-case power; otherwise
//! memory dominates and `Fopt = max_n(ΣŨcpu)·Fmax / (N̂mem·100)`.

use ntc_power::ServerPowerModel;
use ntc_units::{Frequency, Percent};

use crate::{SlotContext, MEM_CAP};

/// The CPU-side server-count estimate `N̂cpu` (Eq. 1, left).
///
/// `f_ntc_opt` is the data-center-optimal frequency (≈1.9 GHz for the
/// NTC server, §V-A).
pub fn nhat_cpu(peak_aggregate_cpu: f64, fmax: Frequency, f_ntc_opt: Frequency) -> usize {
    assert!(peak_aggregate_cpu >= 0.0, "demand must be non-negative");
    ((peak_aggregate_cpu * fmax.as_mhz()) / (f_ntc_opt.as_mhz() * 100.0)).ceil() as usize
}

/// The memory-side server-count estimate `N̂mem` (Eq. 1, right): the
/// aggregate memory peak over the memory cap [`MEM_CAP`].
pub fn nhat_mem(peak_aggregate_mem: f64) -> usize {
    assert!(peak_aggregate_mem >= 0.0, "demand must be non-negative");
    (peak_aggregate_mem / MEM_CAP).ceil() as usize
}

/// The outcome of the Eq. 1 case split for one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCountDecision {
    /// Servers to turn on.
    pub num_servers: usize,
    /// The slot's target operating frequency `F_T_opt`.
    pub fopt: Frequency,
    /// `true` if the slot is CPU-dominated (Algorithm 1 applies),
    /// `false` if memory-dominated (Algorithm 2 applies).
    pub cpu_dominated: bool,
}

/// The lowest DVFS level of `server` able to serve `peak_cpu` percent of
/// Fmax-capacity spread over `n` servers (rounded up to a real level;
/// Fmax if even that is insufficient).
fn level_for(server: &ServerPowerModel, peak_cpu: f64, n: usize) -> Frequency {
    let needed = Frequency::from_mhz(
        (peak_cpu * server.fmax().as_mhz() / (n as f64 * 100.0)).min(server.fmax().as_mhz()),
    );
    server
        .cores()
        .vf_curve()
        .level_at_or_above(needed)
        .unwrap_or_else(|| server.fmax())
}

/// Runs Eq. 1 and the case split on a slot context, returning the server
/// count and target frequency EPACT will use.
///
/// In the CPU-dominated case every candidate count `N` in
/// `[max(N̂mem,1), N̂cpu]` is evaluated at its minimum feasible DVFS
/// level and the count with the lowest worst-case data-center power
/// (all `N` servers fully busy at that level) wins — the exhaustive
/// exploration of §V-B case 1.
pub fn decide(ctx: &SlotContext<'_>, f_ntc_opt: Frequency) -> ServerCountDecision {
    let server = ctx.server();
    let peak_cpu = ctx.peak_aggregate_cpu();
    let peak_mem = ctx.peak_aggregate_mem();
    let n_cpu = nhat_cpu(peak_cpu, server.fmax(), f_ntc_opt).clamp(1, ctx.max_servers());
    let n_mem = nhat_mem(peak_mem).clamp(1, ctx.max_servers());

    if n_cpu > n_mem {
        // CPU-dominated: explore all counts between the two estimates.
        let lo = n_mem.max(1);
        let hi = n_cpu;
        let mut best: Option<(usize, Frequency, f64)> = None;
        for n in lo..=hi {
            let f = level_for(server, peak_cpu, n);
            // feasibility: n servers at level f must cover the peak
            if (n as f64) * f.as_mhz() * 100.0 < peak_cpu * server.fmax().as_mhz() - 1e-6 {
                continue;
            }
            let power = server.power(f, Percent::FULL, Percent::ZERO).as_watts() * n as f64;
            if best.is_none_or(|(_, _, p)| power < p) {
                best = Some((n, f, power));
            }
        }
        let (num_servers, fopt, _) = best.unwrap_or((hi, server.fmax(), f64::MAX));
        ServerCountDecision {
            num_servers,
            fopt,
            cpu_dominated: true,
        }
    } else {
        // Memory-dominated: the server count is fixed by memory and the
        // frequency follows from spreading the CPU peak over it.
        let fopt = level_for(server, peak_cpu, n_mem);
        ServerCountDecision {
            num_servers: n_mem,
            fopt,
            cpu_dominated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_trace::TimeSeries;

    fn f(g: f64) -> Frequency {
        Frequency::from_ghz(g)
    }

    #[test]
    fn nhat_cpu_matches_formula() {
        // 1000% of Fmax-capacity at Fopt 1.9/3.1 needs 1000*3.1/1.9/100
        // = 16.3 -> 17 servers.
        assert_eq!(nhat_cpu(1000.0, f(3.1), f(1.9)), 17);
        assert_eq!(nhat_cpu(0.0, f(3.1), f(1.9)), 0);
    }

    #[test]
    fn nhat_mem_matches_formula() {
        assert_eq!(nhat_mem(250.0), 3);
        assert_eq!(nhat_mem(300.0), 3);
        assert_eq!(nhat_mem(300.1), 4);
    }

    #[test]
    fn cpu_dominated_decision_prefers_near_optimal_frequency() {
        let server = ntc_power::ServerPowerModel::ntc();
        // 40 VMs each ~5% CPU, negligible memory: CPU-dominated.
        let cpu = vec![TimeSeries::constant(12, 5.0); 40];
        let mem = vec![TimeSeries::constant(12, 0.5); 40];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let d = decide(&ctx, f(1.9));
        assert!(d.cpu_dominated);
        // peak = 200%; at 1.9 GHz servers serve 61.29% each -> ~4 servers
        assert!(
            (3..=5).contains(&d.num_servers),
            "expected ~4 servers, got {}",
            d.num_servers
        );
        assert!(
            (1.4..=2.2).contains(&d.fopt.as_ghz()),
            "Fopt should be near F_NTC_opt, got {}",
            d.fopt
        );
        // the chosen count must actually cover the demand
        assert!(d.num_servers as f64 * d.fopt.ratio(server.fmax()) * 100.0 >= 200.0 - 1e-6);
    }

    #[test]
    fn memory_dominated_decision() {
        let server = ntc_power::ServerPowerModel::ntc();
        // 30 VMs, tiny CPU but 20% memory each: memory dominates.
        let cpu = vec![TimeSeries::constant(12, 0.5); 30];
        let mem = vec![TimeSeries::constant(12, 20.0); 30];
        let ctx = SlotContext::new(&cpu, &mem, &server, 600);
        let d = decide(&ctx, f(1.9));
        assert!(!d.cpu_dominated);
        // 600% memory -> 6 servers; CPU peak 15% over 6 servers -> lowest level
        assert_eq!(d.num_servers, 6);
        assert_eq!(d.fopt, server.fmin());
    }

    #[test]
    fn decision_respects_server_limit() {
        let server = ntc_power::ServerPowerModel::ntc();
        let cpu = vec![TimeSeries::constant(12, 90.0); 50]; // absurd demand
        let mem = vec![TimeSeries::constant(12, 0.5); 50];
        let ctx = SlotContext::new(&cpu, &mem, &server, 10);
        let d = decide(&ctx, f(1.9));
        assert!(d.num_servers <= 10);
    }
}
