//! A set-associative, LRU, write-back cache simulator.
//!
//! The interval model uses analytic per-kilo-instruction access rates;
//! this module provides the detailed machinery to *derive and validate*
//! those rates: drive a [`Hierarchy`] with a synthetic address stream
//! (see [`crate::stream`]) and read back per-level hit/miss statistics.

use ntc_units::MemBytes;

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use ntc_archsim::cache::CacheConfig;
/// use ntc_units::MemBytes;
///
/// let l1d = CacheConfig::new(MemBytes::from_kib(32), 4, 64);
/// assert_eq!(l1d.num_sets(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    capacity: MemBytes,
    associativity: usize,
    line_bytes: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into
    /// `associativity × line_bytes` sets, or if the set count is not a
    /// power of two.
    pub fn new(capacity: MemBytes, associativity: usize, line_bytes: usize) -> Self {
        assert!(associativity > 0, "associativity must be positive");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let way_bytes = associativity as u64 * line_bytes as u64;
        assert!(
            capacity.as_bytes().is_multiple_of(way_bytes),
            "capacity must be a whole number of sets"
        );
        let sets = capacity.as_bytes() / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Self {
            capacity,
            associativity,
            line_bytes,
        }
    }

    /// The NTC server's 32 KB L1 data cache.
    pub fn ntc_l1d() -> Self {
        Self::new(MemBytes::from_kib(32), 4, 64)
    }

    /// A 512 KB unified L2.
    pub fn ntc_l2() -> Self {
        Self::new(MemBytes::from_kib(512), 8, 64)
    }

    /// Total capacity.
    pub fn capacity(&self) -> MemBytes {
        self.capacity
    }

    /// Ways per set.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity.as_bytes() / (self.associativity as u64 * self.line_bytes as u64)
    }
}

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio; 0.0 before any access.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// One set-associative LRU write-back cache.
///
/// # Examples
///
/// ```
/// use ntc_archsim::cache::{Cache, CacheConfig};
/// use ntc_units::MemBytes;
///
/// let mut c = Cache::new(CacheConfig::new(MemBytes::from_kib(4), 2, 64));
/// assert!(!c.access(0x1000, false)); // cold miss
/// assert!(c.access(0x1000, false));  // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-set vectors of `(tag, dirty)` ordered most-recently-used
    /// first.
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            sets: vec![Vec::with_capacity(config.associativity); config.num_sets() as usize],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept — useful for warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.config.num_sets()) as usize;
        let tag = line / self.config.num_sets();
        (set, tag)
    }

    /// Performs one access; returns `true` on hit. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        let assoc = self.config.associativity;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, dirty) = set.remove(pos);
            set.insert(0, (t, dirty || write));
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() == assoc {
            let (_, dirty) = set.pop().expect("set is full");
            if dirty {
                self.stats.writebacks += 1;
            }
        }
        set.insert(0, (tag, write));
        false
    }
}

/// Per-level statistics of a [`Hierarchy`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Last-level cache (or slice).
    pub llc: CacheStats,
}

impl HierarchyStats {
    /// DRAM accesses per kilo-instruction given the retired instruction
    /// count (LLC misses + write-backs reach memory).
    pub fn dram_dpki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "instruction count must be positive");
        (self.llc.misses + self.llc.writebacks) as f64 * 1000.0 / instructions as f64
    }

    /// LLC accesses per kilo-instruction.
    pub fn llc_apki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "instruction count must be positive");
        self.llc.accesses() as f64 * 1000.0 / instructions as f64
    }
}

/// A three-level inclusive-enough hierarchy: L1D → L2 → LLC slice.
///
/// Instruction fetch is not modeled (the banking kernels are loop-heavy
/// and fit their I-caches, per the paper's choice of a 64 KB I$).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    llc: Cache,
}

impl Hierarchy {
    /// Builds a hierarchy from three geometries.
    pub fn new(l1d: CacheConfig, l2: CacheConfig, llc: CacheConfig) -> Self {
        Self {
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            llc: Cache::new(llc),
        }
    }

    /// The NTC server's per-core view: 32 KB L1D, 512 KB L2, 1 MB LLC
    /// slice (16 MB shared across 16 cores).
    pub fn ntc_per_core() -> Self {
        Self::new(
            CacheConfig::ntc_l1d(),
            CacheConfig::ntc_l2(),
            CacheConfig::new(MemBytes::from_mib(1), 16, 64),
        )
    }

    /// One access walking down the hierarchy.
    pub fn access(&mut self, addr: u64, write: bool) {
        if self.l1d.access(addr, write) {
            return;
        }
        if self.l2.access(addr, write) {
            return;
        }
        let _ = self.llc.access(addr, write);
    }

    /// Per-level statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
        }
    }

    /// Clears statistics on every level.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        // 2-way, 1 set: capacity = 2 lines of 64 B.
        let mut c = Cache::new(CacheConfig::new(MemBytes::from_bytes(128), 2, 64));
        assert!(!c.access(0, false));
        assert!(!c.access(64, false));
        // touch 0 so 64 becomes LRU
        assert!(c.access(0, false));
        // 128 evicts 64
        assert!(!c.access(128, false));
        assert!(c.access(0, false), "0 must survive");
        assert!(!c.access(64, false), "64 must have been evicted");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = Cache::new(CacheConfig::new(MemBytes::from_bytes(64), 1, 64));
        c.access(0, true); // dirty
        c.access(64, false); // evicts dirty line
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sequential_within_line_hits() {
        let mut c = Cache::new(CacheConfig::ntc_l1d());
        c.access(100, false);
        assert!(c.access(101, false), "same line must hit");
        assert!(c.access(163, false).eq(&false), "next line misses");
    }

    #[test]
    fn small_working_set_fits() {
        let mut h = Hierarchy::ntc_per_core();
        // 16 KB working set walked 8 times: first pass cold, rest hot.
        for _ in 0..8 {
            for addr in (0..16 * 1024).step_by(64) {
                h.access(addr, false);
            }
        }
        let s = h.stats();
        assert!(
            s.l1d.miss_ratio() < 0.2,
            "16 KB must mostly live in the 32 KB L1D, miss ratio {}",
            s.l1d.miss_ratio()
        );
        assert_eq!(s.llc.misses, 256, "only cold misses reach the LLC");
    }

    #[test]
    fn streaming_working_set_misses_everywhere() {
        let mut h = Hierarchy::ntc_per_core();
        // a 64 MB stream touches every line once: no reuse at all
        for addr in (0..64 * 1024 * 1024u64).step_by(4096) {
            h.access(addr, false);
        }
        let s = h.stats();
        assert!(s.l1d.miss_ratio() > 0.95);
        assert!(s.llc.miss_ratio() > 0.95);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = Cache::new(CacheConfig::ntc_l1d());
        c.access(0, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(0, false), "contents must survive a stats reset");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(MemBytes::from_bytes(3 * 64), 1, 64);
    }
}
