use ntc_trace::{CorrelationCache, LazyPatternStats, TimeSeries};

/// Guard against zero distance (a perfect fill) with a small epsilon;
/// the merit then becomes very large, which is exactly the intended
/// preference.
const EPS: f64 = 1e-6;

/// Algorithm 2 of the paper: the 2-D (CPU + memory) merit-function
/// allocator used when memory dominates.
///
/// For every VM the allocator scans all candidate servers that can host
/// it at every sample of the slot (both CPU and memory caps), scores
/// each feasible server with the merit function of Eq. 2
///
/// ```text
/// M = ωcpu · φcpu / Distcpu + ωmem · φmem / Distmem
/// ωcpu = Capcpu/(Capcpu+Capmem),  ωmem = Capmem/(Capcpu+Capmem)
/// ```
///
/// where φ is the Pearson correlation of the VM's pattern with the
/// server's complementary pattern and `Dist` is the Euclidean distance
/// of the VM's pattern to the server's *remaining capacity* — high merit
/// means "same shape as the valley and close to exactly filling it".
///
/// # Examples
///
/// ```
/// use ntc_core::TwoDimAllocator;
/// use ntc_trace::TimeSeries;
///
/// let cpu = vec![TimeSeries::constant(4, 20.0); 4];
/// let mem = vec![TimeSeries::constant(4, 40.0); 4];
/// let alloc = TwoDimAllocator::new(50.0, 100.0, 2);
/// let assignment = alloc.allocate(&cpu, &mem);
/// // memory cap 100 admits two 40% VMs per server
/// assert_eq!(assignment.iter().filter(|&&s| s == 0).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoDimAllocator {
    cap_cpu: f64,
    cap_mem: f64,
    num_servers: usize,
    use_distance: bool,
}

impl TwoDimAllocator {
    /// Creates the allocator with the slot's caps (percent) and the
    /// number of servers chosen by Eq. 1.
    ///
    /// # Panics
    ///
    /// Panics if either cap is non-positive or `num_servers == 0`.
    #[track_caller]
    pub fn new(cap_cpu: f64, cap_mem: f64, num_servers: usize) -> Self {
        if cap_cpu <= 0.0 || cap_mem <= 0.0 {
            panic!("caps must be positive (got CPU {cap_cpu}, memory {cap_mem})");
        }
        assert!(num_servers > 0, "data center needs at least one server");
        Self {
            cap_cpu,
            cap_mem,
            num_servers,
            use_distance: true,
        }
    }

    /// Disables the Euclidean-distance term of Eq. 2, scoring servers
    /// by correlation alone — the ablation the paper's Eq. 2 discussion
    /// motivates ("the Pearson Correlation cannot reflect the closeness
    /// … to the server cap").
    ///
    /// # Examples
    ///
    /// ```
    /// use ntc_core::TwoDimAllocator;
    ///
    /// let ablated = TwoDimAllocator::new(61.3, 100.0, 4).correlation_only();
    /// assert!((ablated.weight_cpu() + ablated.weight_mem() - 1.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn correlation_only(mut self) -> Self {
        self.use_distance = false;
        self
    }

    /// The CPU weight ωcpu of Eq. 2.
    pub fn weight_cpu(&self) -> f64 {
        self.cap_cpu / (self.cap_cpu + self.cap_mem)
    }

    /// The memory weight ωmem of Eq. 2.
    pub fn weight_mem(&self) -> f64 {
        self.cap_mem / (self.cap_cpu + self.cap_mem)
    }

    /// The merit `M` of placing a VM with patterns `(vm_cpu, vm_mem)` on
    /// a server currently loaded with `(srv_cpu, srv_mem)` (Eq. 2).
    pub fn merit(
        &self,
        vm_cpu: &TimeSeries,
        vm_mem: &TimeSeries,
        srv_cpu: &TimeSeries,
        srv_mem: &TimeSeries,
    ) -> f64 {
        let phi_cpu = srv_cpu.complementary().correlation(vm_cpu);
        let phi_mem = srv_mem.complementary().correlation(vm_mem);
        if !self.use_distance {
            return self.weight_cpu() * phi_cpu + self.weight_mem() * phi_mem;
        }
        let dist_cpu = vm_cpu.distance(&srv_cpu.headroom_to(self.cap_cpu)) + EPS;
        let dist_mem = vm_mem.distance(&srv_mem.headroom_to(self.cap_mem)) + EPS;
        self.weight_cpu() * phi_cpu / dist_cpu + self.weight_mem() * phi_mem / dist_mem
    }

    /// Allocates every VM, returning `assignment[vm] = server index`.
    ///
    /// If a VM fits on none of the `num_servers` planned servers, a new
    /// server is opened for it (the returned indices may therefore
    /// exceed `num_servers − 1`; the caller reads the realized count
    /// from the maximum index).
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty or of mismatched lengths.
    pub fn allocate(&self, cpu: &[TimeSeries], mem: &[TimeSeries]) -> Vec<usize> {
        let mut cache_cpu = CorrelationCache::new(cpu);
        let mut cache_mem = CorrelationCache::new(mem);
        self.allocate_with_caches(cpu, mem, &mut cache_cpu, &mut cache_mem)
    }

    /// [`allocate`](Self::allocate) against caller-provided correlation
    /// caches — the form `ntc_core::Epact` uses so day-level caches
    /// attached to the slot context are reused instead of rebuilding
    /// Pearson terms per slot.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty or of mismatched lengths, or a
    /// cache covers a different number of series.
    pub fn allocate_with_caches(
        &self,
        cpu: &[TimeSeries],
        mem: &[TimeSeries],
        cache_cpu: &mut CorrelationCache<'_>,
        cache_mem: &mut CorrelationCache<'_>,
    ) -> Vec<usize> {
        assert!(!cpu.is_empty(), "no VMs to allocate");
        assert_eq!(cpu.len(), mem.len(), "need CPU and memory per VM");
        let slot_len = cpu[0].len();
        assert!(
            cpu.iter().chain(mem.iter()).all(|s| s.len() == slot_len),
            "all series must cover the same slot"
        );
        assert!(
            cache_cpu.num_series() == cpu.len() && cache_mem.num_series() == mem.len(),
            "caches must cover every VM"
        );

        let mut srv_cpu = vec![TimeSeries::zeros(slot_len); self.num_servers];
        let mut srv_mem = vec![TimeSeries::zeros(slot_len); self.num_servers];
        let mut assignment = vec![usize::MAX; cpu.len()];

        // Memoized Pearson terms shared by every candidate scan of the
        // slot, one accumulator per server and dimension: the φ queries
        // of Eq. 2 drop from O(len) each to O(|S|) cached terms, summed
        // only for the servers that pass the cap check.
        let mut stats_cpu = vec![LazyPatternStats::new(); self.num_servers];
        let mut stats_mem = vec![LazyPatternStats::new(); self.num_servers];

        // Visit VMs in decreasing combined-footprint order so large VMs
        // see the emptiest servers (the 1-D FFD rationale, extended).
        let mut order: Vec<usize> = (0..cpu.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = cpu[a].peak() / self.cap_cpu + mem[a].peak() / self.cap_mem;
            let fb = cpu[b].peak() / self.cap_cpu + mem[b].peak() / self.cap_mem;
            fb.partial_cmp(&fa).expect("finite utilizations")
        });

        for vm in order {
            // (server, merit, cov(S_cpu, vm), cov(S_mem, vm))
            let mut best: Option<(usize, f64, f64, f64)> = None;
            for j in 0..srv_cpu.len() {
                // Line 3: per-sample feasibility on both dimensions,
                // without materializing the candidate sums.
                if srv_cpu[j].sum_exceeds(&cpu[vm], self.cap_cpu, 1e-9)
                    || srv_mem[j].sum_exceeds(&mem[vm], self.cap_mem, 1e-9)
                {
                    continue;
                }
                // Eq. 2 from cached terms: φ via the running pattern
                // accumulators, Dist against the headroom in place.
                let cov_cpu = stats_cpu[j].covariance_with(cache_cpu, vm);
                let cov_mem = stats_mem[j].covariance_with(cache_mem, vm);
                let phi_cpu = stats_cpu[j].complement_correlation(cache_cpu, vm, cov_cpu);
                let phi_mem = stats_mem[j].complement_correlation(cache_mem, vm, cov_mem);
                let m = if self.use_distance {
                    let dist_cpu = srv_cpu[j].headroom_distance(self.cap_cpu, &cpu[vm]) + EPS;
                    let dist_mem = srv_mem[j].headroom_distance(self.cap_mem, &mem[vm]) + EPS;
                    self.weight_cpu() * phi_cpu / dist_cpu + self.weight_mem() * phi_mem / dist_mem
                } else {
                    self.weight_cpu() * phi_cpu + self.weight_mem() * phi_mem
                };
                if best.is_none_or(|(_, bm, _, _)| m > bm) {
                    best = Some((j, m, cov_cpu, cov_mem));
                }
            }
            let (j, cov_cpu, cov_mem) = match best {
                Some((j, _, cov_cpu, cov_mem)) => (j, cov_cpu, cov_mem),
                None => {
                    // Overflow server (misprediction headroom): open one.
                    srv_cpu.push(TimeSeries::zeros(slot_len));
                    srv_mem.push(TimeSeries::zeros(slot_len));
                    stats_cpu.push(LazyPatternStats::new());
                    stats_mem.push(LazyPatternStats::new());
                    (srv_cpu.len() - 1, 0.0, 0.0)
                }
            };
            srv_cpu[j].add_in_place(&cpu[vm]);
            srv_mem[j].add_in_place(&mem[vm]);
            stats_cpu[j].admit(cache_cpu, vm, cov_cpu);
            stats_mem[j].admit(cache_mem, vm, cov_mem);
            assignment[vm] = j;
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let a = TwoDimAllocator::new(61.3, 100.0, 4);
        assert!((a.weight_cpu() + a.weight_mem() - 1.0).abs() < 1e-12);
        assert!(a.weight_mem() > a.weight_cpu());
    }

    #[test]
    fn memory_cap_is_enforced() {
        // VMs of 40% memory: at most 2 per server under a 100% cap.
        let cpu = vec![TimeSeries::constant(4, 5.0); 6];
        let mem = vec![TimeSeries::constant(4, 40.0); 6];
        let a = TwoDimAllocator::new(61.3, 100.0, 3).allocate(&cpu, &mem);
        let mut counts = std::collections::HashMap::new();
        for &s in &a {
            *counts.entry(s).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c <= 2), "{a:?}");
    }

    #[test]
    fn overflow_opens_new_server() {
        let cpu = vec![TimeSeries::constant(4, 50.0); 3];
        let mem = vec![TimeSeries::constant(4, 10.0); 3];
        // one planned server, cap 61.3: only one VM fits it
        let a = TwoDimAllocator::new(61.3, 100.0, 1).allocate(&cpu, &mem);
        let servers = a.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(servers, 3);
    }

    #[test]
    fn merit_prefers_complementary_shapes() {
        let alloc = TwoDimAllocator::new(61.3, 100.0, 2);
        let srv_cpu = TimeSeries::from_values(vec![40.0, 10.0, 40.0, 10.0]);
        let srv_mem = TimeSeries::constant(4, 30.0);
        let fits_valleys = TimeSeries::from_values(vec![5.0, 20.0, 5.0, 20.0]);
        let peaks_together = TimeSeries::from_values(vec![20.0, 5.0, 20.0, 5.0]);
        let flat_mem = TimeSeries::constant(4, 10.0);
        let m_good = alloc.merit(&fits_valleys, &flat_mem, &srv_cpu, &srv_mem);
        let m_bad = alloc.merit(&peaks_together, &flat_mem, &srv_cpu, &srv_mem);
        assert!(
            m_good > m_bad,
            "valley-filling VM must score higher: {m_good:.4} vs {m_bad:.4}"
        );
    }

    #[test]
    fn distance_term_prefers_tight_fits() {
        // Two servers with the *same load shape* at different levels:
        // the VM correlates identically with both complements, so only
        // the Eq. 2 distance term can steer it — toward the nearly-full
        // server whose remaining capacity it matches.
        let alloc = TwoDimAllocator::new(61.3, 100.0, 2);
        let nearly_full = TimeSeries::from_values(vec![50.0, 40.0, 50.0, 40.0]);
        let nearly_empty = TimeSeries::from_values(vec![15.0, 5.0, 15.0, 5.0]);
        let flat_mem = TimeSeries::constant(4, 10.0);
        let vm = TimeSeries::from_values(vec![5.0, 10.0, 5.0, 10.0]);
        let m_full = alloc.merit(&vm, &flat_mem, &nearly_full, &flat_mem);
        let m_empty = alloc.merit(&vm, &flat_mem, &nearly_empty, &flat_mem);
        assert!(
            m_full > m_empty,
            "the tight fit must score higher: {m_full:.4} vs {m_empty:.4}"
        );
        // while the correlation-only ablation cannot tell them apart
        let co = TwoDimAllocator::new(61.3, 100.0, 2).correlation_only();
        let c_full = co.merit(&vm, &flat_mem, &nearly_full, &flat_mem);
        let c_empty = co.merit(&vm, &flat_mem, &nearly_empty, &flat_mem);
        assert!((c_full - c_empty).abs() < 1e-9);
    }

    #[test]
    fn per_sample_feasibility_not_just_peak() {
        // Server loaded at [60, 0]; a VM at [0, 60] fits under cap 61.3
        // per-sample even though the sum of peaks is 120.
        let cpu = vec![
            TimeSeries::from_values(vec![60.0, 0.0]),
            TimeSeries::from_values(vec![0.0, 60.0]),
        ];
        let mem = vec![TimeSeries::constant(2, 5.0); 2];
        let a = TwoDimAllocator::new(61.3, 100.0, 1).allocate(&cpu, &mem);
        assert_eq!(a[0], a[1], "anti-phased VMs must share the server");
    }
}
