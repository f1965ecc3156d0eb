use ntc_trace::{CorrelationCache, TimeSeries};
use ntc_units::Frequency;

use crate::MEM_CAP;

/// Algorithm 1 of the paper: the 1-D correlation-aware
/// first-fit-decreasing allocator used when CPU dominates.
///
/// Servers are filled one at a time. An empty server receives the first
/// unallocated VM unconditionally; afterwards the allocator repeatedly
/// computes the server's *complementary pattern* `max(Patt) − Patt` and
/// admits the unallocated VM with the highest Pearson correlation φ to
/// that pattern, subject to the frequency-cap feasibility
/// `max(Patt + Ũ) · Fmax ≤ Fopt` (i.e. the aggregated load must stay
/// below `Fopt/Fmax` of capacity). When no VM fits, the next server is
/// opened.
///
/// Unlike the paper's Algorithm 1, which checks CPU alone, a candidate
/// must also keep the server's memory inside [`MEM_CAP`] at every
/// sample, as Algorithm 2 and COAT require: a CPU-dominated slot can
/// still hold VMs whose memory peaks coincide, and packing by CPU alone
/// overflows memory there. φ is still scored on CPU only.
///
/// # Examples
///
/// ```
/// use ntc_core::OneDimAllocator;
/// use ntc_trace::TimeSeries;
/// use ntc_units::Frequency;
///
/// let cpu = vec![TimeSeries::constant(4, 30.0); 4];
/// let mem = vec![TimeSeries::constant(4, 10.0); 4];
/// let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
/// let assignment = alloc.allocate(&cpu, &mem);
/// // cap = 1.9/3.1 ~ 61.3% -> two 30% VMs per server
/// assert_eq!(assignment.iter().filter(|&&s| s == 0).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneDimAllocator {
    fopt: Frequency,
    fmax: Frequency,
}

impl OneDimAllocator {
    /// Creates the allocator for a slot whose target frequency is
    /// `fopt` on servers with maximum frequency `fmax`.
    ///
    /// # Panics
    ///
    /// Panics if `fopt` is zero or exceeds `fmax`.
    #[track_caller]
    pub fn new(fopt: Frequency, fmax: Frequency) -> Self {
        if fopt <= Frequency::ZERO || fopt > fmax {
            panic!(
                "Fopt must be positive and cannot exceed Fmax \
                 (got {} with Fmax {} MHz)",
                fopt.as_mhz(),
                fmax.as_mhz()
            );
        }
        Self { fopt, fmax }
    }

    /// The CPU cap implied by the frequency pair, percent of capacity at
    /// `Fmax`.
    pub fn cap_cpu(&self) -> f64 {
        self.fopt.ratio(self.fmax) * 100.0
    }

    /// Allocates every VM, returning `assignment[vm] = server index`.
    ///
    /// VMs are visited in first-fit-*decreasing* order of peak CPU (the
    /// paper's FFD choice), but the returned vector is indexed by the
    /// original VM order. `mem` holds each VM's memory series for the
    /// memory-cap check.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is empty, the two lists differ in length, or
    /// series lengths differ.
    pub fn allocate(&self, cpu: &[TimeSeries], mem: &[TimeSeries]) -> Vec<usize> {
        self.allocate_with_cache(cpu, mem, &CorrelationCache::new(cpu))
    }

    /// [`allocate`](Self::allocate) against a caller-provided
    /// correlation cache — the form `ntc_core::Epact` uses so that a
    /// windowed cache built from the slot context's day caches serves
    /// the scans.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is empty, the two lists differ in length, series
    /// lengths differ, or `cache` covers a different number of series.
    pub fn allocate_with_cache(
        &self,
        cpu: &[TimeSeries],
        mem: &[TimeSeries],
        cache: &CorrelationCache,
    ) -> Vec<usize> {
        assert!(!cpu.is_empty(), "no VMs to allocate");
        assert_eq!(cpu.len(), mem.len(), "need CPU and memory per VM");
        let slot_len = cpu[0].len();
        assert!(
            cpu.iter().chain(mem).all(|s| s.len() == slot_len),
            "all series must cover the same slot"
        );
        assert_eq!(cache.num_series(), cpu.len(), "cache must cover every VM");
        let cap = self.cap_cpu();

        let peaks: Vec<f64> = cpu.iter().map(TimeSeries::peak).collect();
        let mem_peaks: Vec<f64> = mem.iter().map(TimeSeries::peak).collect();
        // First-fit-decreasing order: indices sorted by descending peak.
        let mut order: Vec<usize> = (0..cpu.len()).collect();
        order.sort_by(|&a, &b| {
            peaks[b]
                .partial_cmp(&peaks[a])
                .expect("finite utilizations")
        });

        let mut assignment = vec![usize::MAX; cpu.len()];
        let mut server = 0usize;
        let mut pattern = TimeSeries::zeros(slot_len);
        let mut mem_pattern = TimeSeries::zeros(slot_len);
        // Every unallocated VM with its Pearson terms and the running
        // cov(S, ·), ranked in FFD order: one pass across the candidates
        // per admission updates it, and one more scores them all, so no
        // φ query re-walks a materialized complement.
        let mut table = cache.candidate_table(&order);
        let mut phis = Vec::with_capacity(order.len());

        // Line 4-6: the first unallocated VM goes into an empty server
        // unconditionally.
        while let Some(first) = table.first() {
            pattern.reset_zeros(slot_len);
            mem_pattern.reset_zeros(slot_len);
            let mut vm = table.admit(first);
            loop {
                pattern.add_in_place(&cpu[vm]);
                mem_pattern.add_in_place(&mem[vm]);
                assignment[vm] = server;
                let (pattern_peak, mem_peak) = (pattern.peak(), mem_pattern.peak());
                // Lines 8-12: best VM by correlation with the server's
                // complementary pattern, subject to the frequency cap and
                // the memory cap: the highest φ, ties to the lowest FFD
                // rank (the first maximum of a scan in FFD order).
                table.complement_correlations(&mut phis);
                let mut best: Option<(usize, f64, usize)> = None;
                for (c, &phi) in phis.iter().enumerate() {
                    let rank = table.rank(c);
                    if !best.is_none_or(|(_, b, r)| phi > b || (phi == b && rank < r)) {
                        continue;
                    }
                    // `max(Patt + Ũ) > cap`, and the same for memory
                    // against MEM_CAP, checked only for a candidate that
                    // would become the best: feasibility does not depend
                    // on the best, so skipping it for the others cannot
                    // change the winner. Rounding is monotone, so peaks
                    // that sum within a cap prove every sample does, and
                    // a per-sample check runs only when they do not.
                    let v = table.series(c);
                    if (pattern_peak + peaks[v] > cap + 1e-9
                        && pattern.sum_exceeds(&cpu[v], cap, 1e-9))
                        || (mem_peak + mem_peaks[v] > MEM_CAP + 1e-9
                            && mem_pattern.sum_exceeds(&mem[v], MEM_CAP, 1e-9))
                    {
                        continue;
                    }
                    best = Some((c, phi, rank));
                }
                let Some((c, _, _)) = best else { break };
                vm = table.admit(c);
            }
            // Line 14: open the next server.
            server += 1;
            table.reset();
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(g: f64) -> Frequency {
        Frequency::from_ghz(g)
    }

    fn alloc() -> OneDimAllocator {
        OneDimAllocator::new(ghz(1.9), ghz(3.1))
    }

    /// Allocates `cpu` with memory that never binds.
    fn allocate(cpu: &[TimeSeries]) -> Vec<usize> {
        alloc().allocate(cpu, &vec![TimeSeries::zeros(cpu[0].len()); cpu.len()])
    }

    #[test]
    fn cap_matches_frequency_ratio() {
        assert!((alloc().cap_cpu() - 100.0 * 1.9 / 3.1).abs() < 1e-9);
    }

    #[test]
    fn respects_the_cap() {
        let cpu = vec![TimeSeries::constant(6, 25.0); 8];
        let a = allocate(&cpu);
        // cap 61.29% -> 2 VMs of 25% per server (3 would be 75%)
        let mut counts = std::collections::HashMap::new();
        for &s in &a {
            *counts.entry(s).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c <= 2));
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn prefers_anti_correlated_vms() {
        // Two day-peaking and two night-peaking VMs; the cap admits any
        // pair, but correlation matching must pair day with night.
        let day = TimeSeries::from_values(vec![30.0, 30.0, 5.0, 5.0]);
        let night = TimeSeries::from_values(vec![5.0, 5.0, 30.0, 30.0]);
        let cpu = vec![day.clone(), day, night.clone(), night];
        let a = allocate(&cpu);
        // VM 0 (day) must share with a night VM, not with VM 1.
        assert_eq!(a[0], a[2], "day+night must co-locate: {a:?}");
        assert_eq!(a[1], a[3], "the other pair likewise: {a:?}");
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn cap_is_checked_per_sample_not_per_peak() {
        // Peaks sum to 100 % but the samples to 55 %, under the 61.29 %
        // cap: the pair fits, and a third VM does not.
        let day = TimeSeries::from_values(vec![50.0, 50.0, 5.0, 5.0]);
        let night = TimeSeries::from_values(vec![5.0, 5.0, 50.0, 50.0]);
        let a = allocate(&[day.clone(), night, day]);
        assert_eq!(a[0], a[1], "day+night fit together: {a:?}");
        assert_ne!(a[0], a[2], "a second day VM would reach 100 %: {a:?}");
    }

    #[test]
    fn memory_cap_is_checked_per_sample() {
        // CPU fits four 10 % VMs under the 61.29 % cap, but memory
        // admits a pair only when its peaks fall in different samples.
        let cpu = vec![TimeSeries::constant(4, 10.0); 3];
        let early = TimeSeries::from_values(vec![60.0, 60.0, 5.0, 5.0]);
        let late = TimeSeries::from_values(vec![5.0, 5.0, 60.0, 60.0]);
        let a = alloc().allocate(&cpu, &[early.clone(), late, early]);
        assert_eq!(a[0], a[1], "anti-phased memory fits together: {a:?}");
        assert_ne!(a[0], a[2], "two early peaks reach 120 %: {a:?}");
    }

    #[test]
    fn oversized_vm_still_gets_a_server() {
        // A VM above the cap is admitted into an empty server
        // unconditionally (Alg. 1 lines 3-6).
        let cpu = vec![TimeSeries::constant(4, 90.0), TimeSeries::constant(4, 10.0)];
        let a = allocate(&cpu);
        assert_ne!(a[0], a[1], "the 90% VM must be alone");
    }

    #[test]
    fn single_vm() {
        let cpu = vec![TimeSeries::constant(4, 3.0)];
        assert_eq!(allocate(&cpu), vec![0]);
    }

    #[test]
    fn ffd_order_packs_tight() {
        // Mixed sizes: FFD should not strand big VMs.
        let sizes = [50.0, 10.0, 10.0, 50.0, 10.0, 10.0];
        let cpu: Vec<TimeSeries> = sizes.iter().map(|&v| TimeSeries::constant(4, v)).collect();
        let a = allocate(&cpu);
        let servers = a.iter().collect::<std::collections::HashSet<_>>().len();
        // cap 61.29: {50,10} {50,10} {10,10} = 3 servers is optimal
        assert!(servers <= 3, "FFD should need <= 3 servers, used {servers}");
    }
}
