//! Set-associative LRU caches.

use crate::MicroarchError;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 64 KiB, 2-way, 64 B-line L1 (Opteron-6174-like).
    pub fn l1_opteron() -> Self {
        Self {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 2,
        }
    }

    /// A 512 KiB, 16-way, 64 B-line per-core L2 (Opteron-6174-like; the
    /// paper's Table I reports L2 statistics on this machine).
    pub fn l2_opteron() -> Self {
        Self {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    fn validate(&self) -> crate::Result<()> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.ways == 0 {
            return Err(MicroarchError::BadGeometry(
                "all dimensions must be non-zero",
            ));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(MicroarchError::BadGeometry(
                "line size must be a power of two",
            ));
        }
        if !self.size_bytes.is_multiple_of(self.line_bytes * self.ways) {
            return Err(MicroarchError::BadGeometry(
                "size must be divisible by line size × ways",
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(MicroarchError::BadGeometry(
                "set count must be a power of two",
            ));
        }
        Ok(())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting the
    /// least-recently-used line of its set).
    Miss,
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use cavm_microarch::cache::{Access, Cache, CacheConfig};
///
/// # fn main() -> Result<(), cavm_microarch::MicroarchError> {
/// let mut cache = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 })?;
/// assert_eq!(cache.access(0x40), Access::Miss);
/// assert_eq!(cache.access(0x40), Access::Hit);
/// assert_eq!(cache.access(0x44), Access::Hit); // same line
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    set_mask: u64,
    line_shift: u32,
    /// Per set: tags ordered most-recently-used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`MicroarchError::BadGeometry`] for inconsistent
    /// dimensions.
    pub fn new(config: CacheConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            set_mask: (config.sets() - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: vec![Vec::with_capacity(config.ways); config.sets()],
            hits: 0,
            misses: 0,
        })
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access (read semantics; fills on miss).
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.config.sets().trailing_zeros();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            Access::Hit
        } else {
            if set.len() == self.config.ways {
                set.pop(); // evict LRU
            }
            set.insert(0, tag);
            self.misses += 1;
            Access::Miss
        }
    }

    /// Accesses observed so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`, 0.0 before any access.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears only the hit/miss counters (contents stay warm).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
        .unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(Cache::new(CacheConfig {
            size_bytes: 0,
            line_bytes: 64,
            ways: 2
        })
        .is_err());
        assert!(Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 60,
            ways: 2
        })
        .is_err());
        assert!(Cache::new(CacheConfig {
            size_bytes: 500,
            line_bytes: 64,
            ways: 2
        })
        .is_err());
        // 3 sets: not a power of two.
        assert!(Cache::new(CacheConfig {
            size_bytes: 384,
            line_bytes: 64,
            ways: 2
        })
        .is_err());
        assert_eq!(CacheConfig::l1_opteron().sets(), 512);
        assert_eq!(CacheConfig::l2_opteron().sets(), 512);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), Access::Miss);
        assert_eq!(c.access(0x1000), Access::Hit);
        assert_eq!(c.access(0x103F), Access::Hit, "same 64-byte line");
        assert_eq!(c.access(0x1040), Access::Miss, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets × line =
        // 4 × 64 = 256) in a 2-way set: the third evicts the first.
        assert_eq!(c.access(0x0000), Access::Miss);
        assert_eq!(c.access(0x0100), Access::Miss);
        // Touch the first to make the second LRU.
        assert_eq!(c.access(0x0000), Access::Hit);
        assert_eq!(c.access(0x0200), Access::Miss); // evicts 0x0100
        assert_eq!(c.access(0x0000), Access::Hit);
        assert_eq!(c.access(0x0100), Access::Miss, "was evicted");
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
        })
        .unwrap();
        // 32 lines < 64-line capacity: after the first pass, all hits.
        for pass in 0..3 {
            c.reset_counters();
            for i in 0..32u64 {
                c.access(i * 64);
            }
            if pass > 0 {
                assert_eq!(c.misses(), 0, "pass {pass}");
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny(); // 8 lines capacity
                            // 16 lines cycled: pure LRU round-robin thrashes every access.
        for _ in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert!(c.miss_rate() > 0.9, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access(0x40);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.access(0x40), Access::Miss);
    }
}
