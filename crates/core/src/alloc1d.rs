use ntc_trace::{CorrelationCache, TimeSeries};
use ntc_units::Frequency;

/// Algorithm 1 of the paper: the 1-D (CPU-only) correlation-aware
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
/// # Examples
///
/// ```
/// use ntc_core::OneDimAllocator;
/// use ntc_trace::TimeSeries;
/// use ntc_units::Frequency;
///
/// let cpu = vec![TimeSeries::constant(4, 30.0); 4];
/// let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
/// let assignment = alloc.allocate(&cpu);
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
    /// original VM order.
    ///
    /// # Panics
    ///
    /// Panics if `predicted_cpu` is empty or series lengths differ.
    pub fn allocate(&self, predicted_cpu: &[TimeSeries]) -> Vec<usize> {
        let mut cache = CorrelationCache::new(predicted_cpu);
        self.allocate_with_cache(predicted_cpu, &mut cache)
    }

    /// [`allocate`](Self::allocate) against a caller-provided
    /// correlation cache — the form `ntc_core::Epact` uses so a
    /// day-level cache attached to the slot context is reused instead
    /// of rebuilding Pearson terms per slot.
    ///
    /// # Panics
    ///
    /// Panics if `predicted_cpu` is empty, series lengths differ, or
    /// `cache` covers a different number of series.
    pub fn allocate_with_cache(
        &self,
        predicted_cpu: &[TimeSeries],
        cache: &mut CorrelationCache<'_>,
    ) -> Vec<usize> {
        assert!(!predicted_cpu.is_empty(), "no VMs to allocate");
        let slot_len = predicted_cpu[0].len();
        assert!(
            predicted_cpu.iter().all(|s| s.len() == slot_len),
            "all series must cover the same slot"
        );
        assert_eq!(
            cache.num_series(),
            predicted_cpu.len(),
            "cache must cover every VM"
        );
        let cap = self.cap_cpu();

        let peaks: Vec<f64> = predicted_cpu.iter().map(TimeSeries::peak).collect();
        // First-fit-decreasing pool: indices sorted by descending peak.
        let mut pool: Vec<usize> = (0..predicted_cpu.len()).collect();
        pool.sort_by(|&a, &b| {
            peaks[b]
                .partial_cmp(&peaks[a])
                .expect("finite utilizations")
        });

        let mut assignment = vec![usize::MAX; predicted_cpu.len()];
        let mut server = 0usize;
        let mut pattern = TimeSeries::zeros(slot_len);
        // `pattern.peak()`, kept in step with `pattern`.
        let mut pattern_peak = 0.0;
        // Pairwise Pearson terms are shared by every candidate scan of
        // the slot; the running accumulator turns each φ query into
        // O(1) instead of an O(len) pass over a materialized
        // complement.
        let mut stats = cache.pattern();
        let mut server_empty = true;

        while !pool.is_empty() {
            if server_empty {
                // Line 4-6: first unallocated VM goes in unconditionally.
                let vm = pool.remove(0);
                pattern.add_in_place(&predicted_cpu[vm]);
                pattern_peak = pattern.peak();
                stats.admit(cache, vm);
                assignment[vm] = server;
                server_empty = false;
                continue;
            }
            // Lines 8-12: best VM by correlation with the server's
            // complementary pattern, subject to the frequency cap.
            let mut best: Option<(usize, f64)> = None;
            for (pos, &vm) in pool.iter().enumerate() {
                // `max(Patt + Ũ) > cap`. Rounding is monotone, so peaks
                // that sum within the cap prove every sample does, and
                // the per-sample check runs only when they do not.
                if pattern_peak + peaks[vm] > cap + 1e-9
                    && pattern.sum_exceeds(&predicted_cpu[vm], cap, 1e-9)
                {
                    continue;
                }
                let phi = stats.complement_correlation(cache, vm);
                if best.is_none_or(|(_, b)| phi > b) {
                    best = Some((pos, phi));
                }
            }
            match best {
                Some((pos, _)) => {
                    let vm = pool.remove(pos);
                    pattern.add_in_place(&predicted_cpu[vm]);
                    pattern_peak = pattern.peak();
                    stats.admit(cache, vm);
                    assignment[vm] = server;
                }
                None => {
                    // Line 14: open the next server.
                    server += 1;
                    pattern.reset_zeros(slot_len);
                    pattern_peak = 0.0;
                    stats.reset();
                    server_empty = true;
                }
            }
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

    #[test]
    fn cap_matches_frequency_ratio() {
        assert!((alloc().cap_cpu() - 100.0 * 1.9 / 3.1).abs() < 1e-9);
    }

    #[test]
    fn respects_the_cap() {
        let cpu = vec![TimeSeries::constant(6, 25.0); 8];
        let a = alloc().allocate(&cpu);
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
        let a = alloc().allocate(&cpu);
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
        let a = alloc().allocate(&[day.clone(), night, day]);
        assert_eq!(a[0], a[1], "day+night fit together: {a:?}");
        assert_ne!(a[0], a[2], "a second day VM would reach 100 %: {a:?}");
    }

    #[test]
    fn oversized_vm_still_gets_a_server() {
        // A VM above the cap is admitted into an empty server
        // unconditionally (Alg. 1 lines 3-6).
        let cpu = vec![TimeSeries::constant(4, 90.0), TimeSeries::constant(4, 10.0)];
        let a = alloc().allocate(&cpu);
        assert_ne!(a[0], a[1], "the 90% VM must be alone");
    }

    #[test]
    fn single_vm() {
        let cpu = vec![TimeSeries::constant(4, 3.0)];
        assert_eq!(alloc().allocate(&cpu), vec![0]);
    }

    #[test]
    fn ffd_order_packs_tight() {
        // Mixed sizes: FFD should not strand big VMs.
        let sizes = [50.0, 10.0, 10.0, 50.0, 10.0, 10.0];
        let cpu: Vec<TimeSeries> = sizes.iter().map(|&v| TimeSeries::constant(4, v)).collect();
        let a = alloc().allocate(&cpu);
        let servers = a.iter().collect::<std::collections::HashSet<_>>().len();
        // cap 61.29: {50,10} {50,10} {10,10} = 3 servers is optimal
        assert!(servers <= 3, "FFD should need <= 3 servers, used {servers}");
    }
}
