//! A cycle-driven pipeline model of one core — the detailed counterpart
//! of the analytic interval model in [`crate::CoreParams`].
//!
//! The paper simulates its server in gem5 (cycle-accurate, with an
//! out-of-order Cortex-A57 and the in-order A53 it replaces). This
//! module reproduces the pipeline-level mechanism behind the interval
//! model's parameters: a reorder window of configurable depth, a
//! dispatch width, and load instructions with latencies. An in-order
//! window (depth = issue width) serializes every miss; a deep window
//! overlaps independent misses up to the machine's memory-level
//! parallelism — which is exactly the `mlp_mem` the interval model uses.
//! The `interval_model_agrees_*` tests close the loop between the two.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One micro-op in the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Uop {
    /// Single-cycle ALU work.
    Alu,
    /// A load with the given completion latency in cycles.
    Load {
        /// Cycles until the value returns.
        latency: u32,
    },
}

/// Pipeline geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Micro-ops dispatched per cycle.
    pub width: u32,
    /// Reorder-buffer depth (in-order cores: equal to the width).
    pub rob: u32,
    /// Maximum loads in flight (MSHR count).
    pub max_outstanding_loads: u32,
}

impl PipelineConfig {
    /// A Cortex-A57-class out-of-order core: 3-wide, 128-entry ROB,
    /// up to 6 outstanding loads.
    pub fn cortex_a57() -> Self {
        Self {
            width: 3,
            rob: 128,
            max_outstanding_loads: 6,
        }
    }

    /// A Cortex-A53-class in-order core: dual-issue, no reorder window,
    /// a single outstanding miss.
    pub fn cortex_a53() -> Self {
        Self {
            width: 2,
            rob: 2,
            max_outstanding_loads: 1,
        }
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOutcome {
    /// Micro-ops retired.
    pub retired: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Peak loads simultaneously in flight (the realized MLP).
    pub peak_outstanding_loads: u32,
}

impl PipelineOutcome {
    /// Retired micro-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// A simplified cycle-driven pipeline: dispatch in order into a reorder
/// window, execute loads with latency, retire in order.
///
/// Dependences are modeled statistically: each load blocks retirement
/// (and, for an in-order machine, dispatch) until complete; ALU ops are
/// independent. This captures the MLP mechanism without a full register
/// renamer.
///
/// # Examples
///
/// ```
/// use ntc_archsim::pipeline::{Pipeline, PipelineConfig, Uop};
///
/// let mut p = Pipeline::new(PipelineConfig::cortex_a57());
/// let stream = vec![Uop::Alu; 3000];
/// let out = p.run(&stream);
/// assert!(out.ipc() > 2.9); // ALU-only code sustains the full width
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the width is zero or the ROB is narrower than the
    /// width.
    pub fn new(config: PipelineConfig) -> Self {
        assert!(config.width > 0, "dispatch width must be positive");
        assert!(
            config.rob >= config.width,
            "ROB must hold at least one dispatch group"
        );
        assert!(config.max_outstanding_loads > 0, "need at least one MSHR");
        Self { config }
    }

    /// Runs the micro-op stream to completion.
    pub fn run(&mut self, stream: &[Uop]) -> PipelineOutcome {
        // Window entries: completion cycle of each in-flight uop, in
        // program order.
        let mut window: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut outstanding_loads: Vec<u64> = Vec::new(); // completion cycles
        let mut peak_mlp = 0u32;
        let mut cycle = 0u64;
        let mut next = 0usize;
        let mut retired = 0u64;

        while retired < stream.len() as u64 {
            // retire completed uops in order
            while let Some(&done) = window.front() {
                if done <= cycle {
                    window.pop_front();
                    retired += 1;
                } else {
                    break;
                }
            }
            outstanding_loads.retain(|&d| d > cycle);

            // dispatch up to `width` uops if the window has room
            let mut dispatched = 0;
            while dispatched < self.config.width
                && next < stream.len()
                && (window.len() as u32) < self.config.rob
            {
                match stream[next] {
                    Uop::Alu => {
                        window.push_back(cycle + 1);
                    }
                    Uop::Load { latency } => {
                        if outstanding_loads.len() as u32 >= self.config.max_outstanding_loads {
                            break; // structural stall: MSHRs full
                        }
                        let done = cycle + u64::from(latency);
                        window.push_back(done);
                        outstanding_loads.push(done);
                        peak_mlp = peak_mlp.max(outstanding_loads.len() as u32);
                    }
                }
                next += 1;
                dispatched += 1;
            }

            cycle += 1;
            // Fast-forward through long stalls: if nothing can retire or
            // dispatch until the oldest completion, jump there.
            if dispatched == 0 {
                if let Some(&done) = window.front() {
                    if done > cycle {
                        cycle = done;
                    }
                }
            }
        }

        PipelineOutcome {
            retired,
            cycles: cycle,
            peak_outstanding_loads: peak_mlp,
        }
    }
}

/// Generates a synthetic micro-op stream with the given load fraction
/// and miss profile (deterministic under `seed`).
///
/// `miss_rate` of the loads take `miss_latency` cycles; the rest hit in
/// `hit_latency`.
///
/// # Panics
///
/// Panics if the fractions are outside `[0, 1]`.
pub fn synth_stream(
    n: usize,
    load_fraction: f64,
    miss_rate: f64,
    hit_latency: u32,
    miss_latency: u32,
    seed: u64,
) -> Vec<Uop> {
    assert!(
        (0.0..=1.0).contains(&load_fraction),
        "load fraction in [0,1]"
    );
    assert!((0.0..=1.0).contains(&miss_rate), "miss rate in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < load_fraction {
                let latency = if rng.gen::<f64>() < miss_rate {
                    miss_latency
                } else {
                    hit_latency
                };
                Uop::Load { latency }
            } else {
                Uop::Alu
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_code_sustains_width() {
        let out = Pipeline::new(PipelineConfig::cortex_a57()).run(&vec![Uop::Alu; 10_000]);
        assert!(out.ipc() > 2.9, "OoO ALU IPC {}", out.ipc());
        let out53 = Pipeline::new(PipelineConfig::cortex_a53()).run(&vec![Uop::Alu; 10_000]);
        assert!(out53.ipc() > 1.9, "A53 ALU IPC {}", out53.ipc());
    }

    #[test]
    fn ooo_hides_miss_latency_in_order_does_not() {
        let stream = synth_stream(20_000, 0.3, 0.1, 4, 160, 42);
        let ooo = Pipeline::new(PipelineConfig::cortex_a57()).run(&stream);
        let ino = Pipeline::new(PipelineConfig::cortex_a53()).run(&stream);
        assert!(
            ooo.ipc() > 1.6 * ino.ipc(),
            "OoO must be much faster on missy code: {:.2} vs {:.2}",
            ooo.ipc(),
            ino.ipc()
        );
        assert!(ooo.peak_outstanding_loads > 1);
        assert_eq!(ino.peak_outstanding_loads, 1);
    }

    #[test]
    fn mlp_is_bounded_by_mshrs() {
        let stream = synth_stream(20_000, 0.5, 0.5, 4, 200, 7);
        let out = Pipeline::new(PipelineConfig::cortex_a57()).run(&stream);
        assert!(out.peak_outstanding_loads <= 6);
        assert!(
            out.peak_outstanding_loads >= 4,
            "heavy miss traffic should fill most MSHRs, got {}",
            out.peak_outstanding_loads
        );
    }

    #[test]
    fn interval_model_agrees_on_miss_dominated_code() {
        // For a miss-dominated stream, the interval model predicts
        // cycles ~ misses x latency / MLP; the pipeline should land in
        // the same ballpark (within 2x).
        let n = 30_000;
        let miss_latency = 160u32;
        let stream = synth_stream(n, 0.3, 0.2, 4, miss_latency, 3);
        let misses = stream
            .iter()
            .filter(|u| matches!(u, Uop::Load { latency } if *latency == miss_latency))
            .count() as f64;
        let out = Pipeline::new(PipelineConfig::cortex_a57()).run(&stream);
        let realized_mlp = out.peak_outstanding_loads as f64;
        let interval_cycles = n as f64 / 3.0 + misses * f64::from(miss_latency) / realized_mlp;
        let ratio = out.cycles as f64 / interval_cycles;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "pipeline {} vs interval {} cycles (ratio {ratio:.2})",
            out.cycles,
            interval_cycles
        );
    }

    #[test]
    fn retires_every_uop() {
        let stream = synth_stream(5_000, 0.4, 0.3, 4, 100, 9);
        let out = Pipeline::new(PipelineConfig::cortex_a57()).run(&stream);
        assert_eq!(out.retired, 5_000);
    }

    #[test]
    #[should_panic(expected = "at least one dispatch group")]
    fn degenerate_rob_rejected() {
        let _ = Pipeline::new(PipelineConfig {
            width: 4,
            rob: 2,
            max_outstanding_loads: 1,
        });
    }
}
