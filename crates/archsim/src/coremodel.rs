/// The pipeline discipline of a core.
///
/// The paper replaced the Cavium ThunderX's in-order cores with
/// out-of-order Cortex-A57s precisely because in-order pipelines cannot
/// overlap independent misses: their effective memory-level parallelism
/// is near 1, so every stall is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// In-order issue (Cortex-A53 class): no miss overlap.
    InOrder,
    /// Out-of-order issue (Cortex-A57 / Xeon class): overlapping misses.
    OutOfOrder,
}

/// Interval-model parameters of one core.
///
/// # Examples
///
/// ```
/// use ntc_archsim::{CoreKind, CoreParams};
///
/// let a57 = CoreParams::cortex_a57();
/// assert_eq!(a57.kind, CoreKind::OutOfOrder);
/// assert!(a57.mlp_mem > CoreParams::cortex_a53().mlp_mem);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Pipeline discipline.
    pub kind: CoreKind,
    /// Base instructions per cycle on cache-resident code.
    pub base_ipc: f64,
    /// Memory-level parallelism exploitable on DRAM misses.
    pub mlp_mem: f64,
    /// Overlap factor for on-chip (LLC) accesses.
    pub mlp_llc: f64,
}

impl CoreParams {
    /// An ARM Cortex-A57-class out-of-order core — the NTC server's core.
    pub fn cortex_a57() -> Self {
        Self {
            kind: CoreKind::OutOfOrder,
            base_ipc: 2.0,
            mlp_mem: 4.0,
            mlp_llc: 4.0,
        }
    }

    /// An ARM Cortex-A53-class in-order core — the original ThunderX
    /// pipeline the paper found inadequate. Dual-issue in-order: decent
    /// IPC on cache-resident code, but little miss overlap.
    pub fn cortex_a53() -> Self {
        Self {
            kind: CoreKind::InOrder,
            base_ipc: 1.2,
            mlp_mem: 1.7,
            mlp_llc: 2.5,
        }
    }

    /// An Intel Westmere-class (Xeon X5650) wide out-of-order core.
    pub fn xeon_westmere() -> Self {
        Self {
            kind: CoreKind::OutOfOrder,
            base_ipc: 2.0,
            mlp_mem: 6.0,
            mlp_llc: 4.0,
        }
    }

    /// An Intel Sandy-Bridge-class (E5-2620) out-of-order core.
    pub fn xeon_sandy_bridge() -> Self {
        Self {
            kind: CoreKind::OutOfOrder,
            base_ipc: 2.2,
            mlp_mem: 6.0,
            mlp_llc: 4.0,
        }
    }

    /// Core cycles to retire `instructions` of cache-resident work.
    pub fn compute_cycles(&self, instructions: u64) -> f64 {
        instructions as f64 / self.base_ipc
    }

    /// Core cycles stalled on `accesses` LLC hits of `llc_latency_cycles`
    /// each, after MLP overlap.
    pub fn llc_stall_cycles(&self, accesses: f64, llc_latency_cycles: f64) -> f64 {
        accesses * llc_latency_cycles / self.mlp_llc
    }

    /// Wall-clock seconds stalled on `accesses` DRAM misses of
    /// `effective_latency_ns` each, after MLP overlap. This term does not
    /// scale with core frequency — the root of the NTC advantage for
    /// memory-heavy workloads.
    pub fn dram_stall_seconds(&self, accesses: f64, effective_latency_ns: f64) -> f64 {
        accesses * effective_latency_ns * 1e-9 / self.mlp_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_serializes_misses() {
        let a53 = CoreParams::cortex_a53();
        let a57 = CoreParams::cortex_a57();
        let stall_a53 = a53.dram_stall_seconds(1e8, 80.0);
        let stall_a57 = a57.dram_stall_seconds(1e8, 80.0);
        assert!(
            stall_a53 > 2.0 * stall_a57,
            "in-order cores must pay far more stall time"
        );
    }

    #[test]
    fn compute_cycles_scale_with_ipc() {
        let a57 = CoreParams::cortex_a57();
        let a53 = CoreParams::cortex_a53();
        assert!(a53.compute_cycles(1_000_000) > a57.compute_cycles(1_000_000));
    }

    #[test]
    fn llc_stalls_divide_by_overlap() {
        let a57 = CoreParams::cortex_a57();
        assert!((a57.llc_stall_cycles(1000.0, 40.0) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn presets_are_distinct() {
        assert_ne!(CoreParams::cortex_a57(), CoreParams::cortex_a53());
        assert_ne!(CoreParams::xeon_westmere(), CoreParams::xeon_sandy_bridge());
    }
}
