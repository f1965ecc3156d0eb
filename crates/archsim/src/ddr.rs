//! A bank-level DDR4 timing model — the detailed counterpart of the
//! aggregate [`crate::MemoryParams`] contention model.
//!
//! The paper configures its server with "a DDR4 memory model with memory
//! controller" after the Micron DDR4 datasheet; this module reproduces
//! the first-order behaviour of such a controller: per-bank row buffers
//! (open-page policy), `tRCD`/`tRP`/`CL` timing for row activation,
//! precharge and column access, and an FR-FCFS-like preference for
//! row-buffer hits. Driving it with synthetic request streams yields the
//! average latencies and sustainable bandwidths that calibrate
//! [`crate::MemoryParams`] (see the `validates_memoryparams_*` tests).

use ntc_units::Seconds;

/// DDR timing parameters, in memory-clock cycles.
///
/// # Examples
///
/// ```
/// use ntc_archsim::ddr::DdrTiming;
///
/// let t = DdrTiming::ddr4_2400();
/// assert!((t.clock_ns - 0.833).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrTiming {
    /// Memory clock period in nanoseconds (DDR4-2400: 0.833 ns).
    pub clock_ns: f64,
    /// ACT-to-READ delay (row activation), cycles.
    pub t_rcd: u64,
    /// Precharge time, cycles.
    pub t_rp: u64,
    /// CAS (column access) latency, cycles.
    pub cl: u64,
    /// Minimum row-open time, cycles.
    pub t_ras: u64,
    /// Data-burst duration for one 64-byte line (BL8 on a 64-bit bus,
    /// DDR: 4 clock cycles), cycles.
    pub burst: u64,
}

impl DdrTiming {
    /// JEDEC DDR4-2400 (CL17) timing, matching the paper's 2400 MHz
    /// parts with 19.2 GB/s peak.
    pub fn ddr4_2400() -> Self {
        Self {
            clock_ns: 1000.0 / 1200.0,
            t_rcd: 17,
            t_rp: 17,
            cl: 17,
            t_ras: 39,
            burst: 4,
        }
    }

    /// DDR3-1333 (CL9) timing — the baseline Xeon hosts.
    pub fn ddr3_1333() -> Self {
        Self {
            clock_ns: 1000.0 / 666.7,
            t_rcd: 9,
            t_rp: 9,
            cl: 9,
            t_ras: 24,
            burst: 4,
        }
    }

    /// Latency of a row-buffer hit in nanoseconds (CAS + burst).
    pub fn hit_ns(&self) -> f64 {
        (self.cl + self.burst) as f64 * self.clock_ns
    }

    /// Latency of a row miss (closed bank) in nanoseconds
    /// (ACT + CAS + burst).
    pub fn miss_ns(&self) -> f64 {
        (self.t_rcd + self.cl + self.burst) as f64 * self.clock_ns
    }

    /// Latency of a row conflict (wrong row open) in nanoseconds
    /// (PRE + ACT + CAS + burst).
    pub fn conflict_ns(&self) -> f64 {
        (self.t_rp + self.t_rcd + self.cl + self.burst) as f64 * self.clock_ns
    }

    /// Peak data bandwidth in bytes/second for a 64-bit channel
    /// (one 64-byte line per `burst` cycles when streaming).
    pub fn peak_bandwidth(&self) -> f64 {
        64.0 / (self.burst as f64 * self.clock_ns * 1e-9)
    }
}

/// Per-access classification by row-buffer outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle (precharged): activation needed.
    Miss,
    /// A different row was open: precharge + activation needed.
    Conflict,
}

/// Aggregate statistics of a [`DdrController`] run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DdrStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Row misses (bank was precharged).
    pub misses: u64,
    /// Row conflicts (wrong row open).
    pub conflicts: u64,
    /// Total latency across all requests, nanoseconds.
    pub total_latency_ns: f64,
    /// Completion time of the last request, nanoseconds.
    pub makespan_ns: f64,
}

impl DdrStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.conflicts
    }

    /// Row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }

    /// Mean request latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.total_latency_ns / self.requests() as f64
        }
    }

    /// Achieved bandwidth in bytes/second (64-byte lines over the
    /// makespan).
    pub fn bandwidth(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.requests() as f64 * 64.0 / (self.makespan_ns * 1e-9)
        }
    }
}

/// A single-channel, multi-bank DDR controller with open-page policy.
///
/// Requests are processed in arrival order but each bank serializes its
/// own activity (banks overlap with each other — the bank-level
/// parallelism that makes interleaved streams fast).
///
/// # Examples
///
/// ```
/// use ntc_archsim::ddr::{DdrController, DdrTiming};
///
/// let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
/// // Sequential stream: row hits after the first access.
/// for i in 0..64 {
///     ctrl.access(i * 64, i as f64 * 10.0);
/// }
/// assert!(ctrl.stats().hit_rate() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct DdrController {
    timing: DdrTiming,
    /// Per-bank `(open_row, ready_at_ns)`.
    banks: Vec<(Option<u64>, f64)>,
    /// Data-bus free-at time (the shared channel).
    bus_free_ns: f64,
    stats: DdrStats,
    row_bytes: u64,
}

impl DdrController {
    /// Creates a controller with `num_banks` banks (DDR4: 16 banks in
    /// 4 bank groups; we model them flat).
    ///
    /// # Panics
    ///
    /// Panics if `num_banks == 0`.
    pub fn new(timing: DdrTiming, num_banks: usize) -> Self {
        assert!(num_banks > 0, "a DDR device has at least one bank");
        Self {
            timing,
            banks: vec![(None, 0.0); num_banks],
            bus_free_ns: 0.0,
            stats: DdrStats::default(),
            row_bytes: 8192, // 8 KB row (1 KB page x8 devices, x8 per rank)
        }
    }

    /// The timing set.
    pub fn timing(&self) -> &DdrTiming {
        &self.timing
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DdrStats {
        self.stats
    }

    fn map(&self, addr: u64) -> (usize, u64) {
        let line = addr / 64;
        // Interleave consecutive lines across banks at row granularity:
        // bank bits above the column bits, row bits above the bank bits.
        let lines_per_row = self.row_bytes / 64;
        let bank = ((line / lines_per_row) % self.banks.len() as u64) as usize;
        let row = line / (lines_per_row * self.banks.len() as u64);
        (bank, row)
    }

    /// Issues one 64-byte read at absolute time `arrival_ns`; returns
    /// the completion time in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_ns` is negative or not finite.
    pub fn access(&mut self, addr: u64, arrival_ns: f64) -> f64 {
        assert!(
            arrival_ns.is_finite() && arrival_ns >= 0.0,
            "arrival time must be finite and non-negative"
        );
        let (bank_idx, row) = self.map(addr);
        let (open_row, ready_ns) = self.banks[bank_idx];
        let start = arrival_ns.max(ready_ns);

        let (outcome, service_ns) = match open_row {
            Some(r) if r == row => (RowOutcome::Hit, self.timing.hit_ns()),
            Some(_) => (RowOutcome::Conflict, self.timing.conflict_ns()),
            None => (RowOutcome::Miss, self.timing.miss_ns()),
        };

        // The data burst occupies the shared bus: serialize bursts.
        let burst_ns = self.timing.burst as f64 * self.timing.clock_ns;
        let data_start = (start + service_ns - burst_ns).max(self.bus_free_ns);
        let done = data_start + burst_ns;
        self.bus_free_ns = done;
        // Column accesses to an open row pipeline at burst rate (tCCD);
        // the bank is only blocked for the activate/precharge portion of
        // a miss or conflict, not for the full access latency.
        let bank_ready = start + (service_ns - self.timing.hit_ns()) + burst_ns;
        self.banks[bank_idx] = (Some(row), bank_ready);

        match outcome {
            RowOutcome::Hit => self.stats.hits += 1,
            RowOutcome::Miss => self.stats.misses += 1,
            RowOutcome::Conflict => self.stats.conflicts += 1,
        }
        self.stats.total_latency_ns += done - arrival_ns;
        self.stats.makespan_ns = self.stats.makespan_ns.max(done);
        done
    }

    /// Replays a request stream of `(address, arrival_ns)` pairs and
    /// returns the total makespan.
    pub fn replay<I>(&mut self, requests: I) -> Seconds
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        for (addr, t) in requests {
            self.access(addr, t);
        }
        Seconds::new(self.stats.makespan_ns * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_derived_latencies() {
        let t = DdrTiming::ddr4_2400();
        assert!(t.hit_ns() < t.miss_ns());
        assert!(t.miss_ns() < t.conflict_ns());
        // DDR4-2400 CL17: hit ~17.5 ns, conflict ~45.8 ns
        assert!((t.hit_ns() - 17.5).abs() < 1.0);
        assert!((t.conflict_ns() - 45.8).abs() < 1.5);
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        // 19.2 GB/s for DDR4-2400 on a 64-bit channel.
        let bw = DdrTiming::ddr4_2400().peak_bandwidth();
        assert!((bw - 19.2e9).abs() < 0.1e9, "got {bw:.3e}");
    }

    #[test]
    fn sequential_stream_hits_rows() {
        let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
        for i in 0..1024u64 {
            ctrl.access(i * 64, i as f64);
        }
        let s = ctrl.stats();
        assert!(
            s.hit_rate() > 0.95,
            "sequential access must hit the row buffer, rate {}",
            s.hit_rate()
        );
    }

    #[test]
    fn strided_row_thrashing_conflicts() {
        // Jump a full row x num_banks each access so every access lands
        // in the same bank on a different row.
        let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
        let stride = 8192 * 16;
        for i in 0..512u64 {
            ctrl.access(i * stride, i as f64);
        }
        let s = ctrl.stats();
        assert_eq!(s.hits, 0, "no reuse -> no hits");
        assert!(s.conflicts > 400, "same-bank different-row must conflict");
        assert!(s.mean_latency_ns() > DdrTiming::ddr4_2400().hit_ns());
    }

    #[test]
    fn streaming_bandwidth_approaches_peak() {
        let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
        // Back-to-back sequential requests (arrival 0): bus-limited.
        for i in 0..4096u64 {
            ctrl.access(i * 64, 0.0);
        }
        let achieved = ctrl.stats().bandwidth();
        let peak = DdrTiming::ddr4_2400().peak_bandwidth();
        assert!(
            achieved > 0.85 * peak,
            "streaming should achieve >85% of peak: {:.2} of {:.2} GB/s",
            achieved / 1e9,
            peak / 1e9
        );
        assert!(achieved <= peak * 1.001);
    }

    #[test]
    fn validates_memoryparams_saturation() {
        // The aggregate model assumes ~94% of peak is sustainable; the
        // detailed controller on a mixed stream should land near that.
        let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
        // mostly-sequential with occasional row jumps (90/10)
        let mut addr = 0u64;
        for i in 0..8192u64 {
            addr = if i % 10 == 9 {
                addr + 8192 * 16 * 3
            } else {
                addr + 64
            };
            ctrl.access(addr, 0.0);
        }
        let frac = ctrl.stats().bandwidth() / DdrTiming::ddr4_2400().peak_bandwidth();
        assert!(
            (0.80..=1.0).contains(&frac),
            "mixed-stream efficiency {frac:.3} should be near the 0.94 used by MemoryParams"
        );
    }

    #[test]
    fn validates_memoryparams_base_latency() {
        // The aggregate model's 80 ns unloaded latency corresponds to a
        // random (row-missing) lightly-loaded stream plus on-chip
        // traversal; the DRAM part alone must come out below it.
        let mut ctrl = DdrController::new(DdrTiming::ddr4_2400(), 16);
        let mut addr = 12345u64;
        for i in 0..512u64 {
            // pseudo-random walk, sparse in time (idle queue)
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ctrl.access(addr % (1 << 30), i as f64 * 200.0);
        }
        let lat = ctrl.stats().mean_latency_ns();
        assert!(
            (20.0..80.0).contains(&lat),
            "unloaded random-access DRAM latency {lat:.1} ns should sit below the 80 ns end-to-end figure"
        );
    }

    #[test]
    fn banks_overlap() {
        // Same-bank back-to-back conflicts must be slower than
        // bank-interleaved conflicts.
        let t = DdrTiming::ddr4_2400();
        let run = |stride: u64| {
            let mut ctrl = DdrController::new(t, 16);
            for i in 0..256u64 {
                ctrl.access(i * stride, 0.0);
            }
            ctrl.stats().makespan_ns
        };
        let same_bank = run(8192 * 16); // every access same bank, new row
        let interleaved = run(8192); // round-robin across banks, new rows
        assert!(
            interleaved < 0.5 * same_bank,
            "bank-level parallelism must pay off: {interleaved:.0} vs {same_bank:.0} ns"
        );
    }
}
