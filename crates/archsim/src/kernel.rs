use ntc_units::MemBytes;

/// A synthetic workload kernel — one VM's worth of a banking batch job.
///
/// The paper profiles its (confidential) banking batch applications into
/// three classes by memory footprint: *low-mem* (70 MB average usage),
/// *mid-mem* (255 MB) and *high-mem* (435 MB), all tuned to maximum CPU
/// utilization. A kernel abstracts one such job as:
///
/// * a dynamic instruction count,
/// * an LLC access rate (accesses per kilo-instruction, APKI) — work that
///   stalls the core for *cycle*-denominated latencies,
/// * a DRAM access rate (misses per kilo-instruction, DPKI) — work that
///   stalls for *nanosecond*-denominated latencies and consumes shared
///   bandwidth,
/// * the working-set size, which modulates how much of the DRAM traffic
///   a given LLC can absorb.
///
/// # Examples
///
/// ```
/// use ntc_archsim::Kernel;
///
/// let k = Kernel::high_mem();
/// assert!(k.dram_dpki() > Kernel::low_mem().dram_dpki());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    instructions: u64,
    llc_apki: f64,
    dram_dpki: f64,
    working_set: MemBytes,
    /// Fraction of DRAM accesses that are writes (write-backs).
    write_fraction: f64,
}

impl Kernel {
    /// Builds a kernel from raw characteristics.
    ///
    /// # Panics
    ///
    /// Panics if `instructions == 0`, any rate is negative, or
    /// `write_fraction` is outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        instructions: u64,
        llc_apki: f64,
        dram_dpki: f64,
        working_set: MemBytes,
        write_fraction: f64,
    ) -> Self {
        assert!(instructions > 0, "a kernel must retire instructions");
        assert!(llc_apki >= 0.0, "LLC APKI must be non-negative");
        assert!(dram_dpki >= 0.0, "DRAM DPKI must be non-negative");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction must be in [0, 1]"
        );
        Self {
            name: name.into(),
            instructions,
            llc_apki,
            dram_dpki,
            working_set,
            write_fraction,
        }
    }

    /// The *low-mem* class: 70 MB average footprint (7% of a 1 GB VM),
    /// CPU-bound.
    pub fn low_mem() -> Self {
        Self::new(
            "low-mem",
            1_850_000_000,
            5.0,
            0.3,
            MemBytes::from_mib(70),
            0.25,
        )
    }

    /// The *mid-mem* class: 255 MB average footprint (25%).
    pub fn mid_mem() -> Self {
        Self::new(
            "mid-mem",
            3_000_000_000,
            60.0,
            12.0,
            MemBytes::from_mib(255),
            0.3,
        )
    }

    /// The *high-mem* class: 435 MB average footprint (43%),
    /// bandwidth-hungry.
    pub fn high_mem() -> Self {
        Self::new(
            "high-mem",
            4_000_000_000,
            80.0,
            22.0,
            MemBytes::from_mib(435),
            0.3,
        )
    }

    /// All three paper workload classes, in ascending memory intensity.
    pub fn paper_classes() -> Vec<Kernel> {
        vec![Self::low_mem(), Self::mid_mem(), Self::high_mem()]
    }

    /// Looks up a paper class by its display name (`"low-mem"`,
    /// `"mid-mem"`, `"high-mem"`); `None` for anything else. This is the
    /// bridge from workload-level class labels to simulatable kernels.
    pub fn by_name(name: &str) -> Option<Kernel> {
        Self::paper_classes().into_iter().find(|k| k.name() == name)
    }

    /// The kernel's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dynamic instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// LLC accesses per kilo-instruction.
    pub fn llc_apki(&self) -> f64 {
        self.llc_apki
    }

    /// DRAM accesses (LLC misses) per kilo-instruction, before capacity
    /// adjustment.
    pub fn dram_dpki(&self) -> f64 {
        self.dram_dpki
    }

    /// Working-set size.
    pub fn working_set(&self) -> MemBytes {
        self.working_set
    }

    /// Fraction of DRAM traffic that is write-backs.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// Total LLC accesses over the kernel's lifetime.
    pub fn llc_accesses(&self) -> f64 {
        self.instructions as f64 * self.llc_apki / 1000.0
    }

    /// DRAM accesses over the kernel's lifetime, adjusted for the share
    /// of the working set a per-core slice of `llc_share` can capture.
    ///
    /// When the working set fits entirely in the cache slice the DRAM
    /// traffic collapses to cold misses (10% floor); when it vastly
    /// exceeds the slice, the full DPKI applies.
    pub fn dram_accesses(&self, llc_share: MemBytes) -> f64 {
        let capture = llc_share.as_fraction_of(self.working_set).min(1.0);
        let factor = (1.0 - capture).max(0.1);
        self.instructions as f64 * self.dram_dpki / 1000.0 * factor
    }

    /// Bytes moved to/from DRAM over the kernel's lifetime, assuming
    /// 64-byte lines.
    pub fn dram_bytes(&self, llc_share: MemBytes) -> f64 {
        self.dram_accesses(llc_share) * 64.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_ordered_by_memory_intensity() {
        let ks = Kernel::paper_classes();
        assert_eq!(ks.len(), 3);
        for w in ks.windows(2) {
            assert!(w[0].dram_dpki() < w[1].dram_dpki());
            assert!(w[0].working_set() < w[1].working_set());
        }
    }

    #[test]
    fn footprints_match_paper() {
        assert_eq!(Kernel::low_mem().working_set(), MemBytes::from_mib(70));
        assert_eq!(Kernel::mid_mem().working_set(), MemBytes::from_mib(255));
        assert_eq!(Kernel::high_mem().working_set(), MemBytes::from_mib(435));
    }

    #[test]
    fn capacity_adjustment() {
        let k = Kernel::mid_mem();
        let full = k.dram_accesses(MemBytes::from_mib(1));
        let half = k.dram_accesses(MemBytes::from_mib(128));
        let tiny = k.dram_accesses(MemBytes::from_gib(1));
        assert!(full > half, "bigger cache slice must absorb traffic");
        assert!(half > tiny);
        // the floor keeps cold misses alive
        assert!(tiny >= 0.1 * k.instructions() as f64 * k.dram_dpki() / 1000.0 - 1.0);
    }

    #[test]
    fn byte_accounting() {
        let k = Kernel::high_mem();
        let share = MemBytes::from_mib(1);
        assert!((k.dram_bytes(share) - k.dram_accesses(share) * 64.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "retire instructions")]
    fn zero_instructions_rejected() {
        let _ = Kernel::new("bad", 0, 1.0, 1.0, MemBytes::from_mib(1), 0.0);
    }
}
