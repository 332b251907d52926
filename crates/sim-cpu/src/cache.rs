//! Set-associative cache hierarchy.
//!
//! Generates the L2-miss events (`BSQ_CACHE_REFERENCE`) of the paper's
//! Figure 1. The detailed model is a classic tag array with true-LRU
//! replacement; the default geometry approximates the Pentium 4 Xeon
//! used in the paper (16 KiB L1D, 12K-uop trace cache stood in for by a
//! 16 KiB L1I, 1 MiB unified L2, 64-byte lines).
//!
//! Long benchmark runs use the statistical path in [`crate::events`]
//! instead; the detailed model backs the short Figure-1 case study,
//! tests, and the examples.

use crate::types::Addr;

/// What a memory access is doing. Instruction fetches go through L1I,
/// data reads/writes through L1D; everything shares L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Fetch,
}

/// A single simulated memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    pub addr: Addr,
    pub kind: AccessKind,
}

impl MemAccess {
    pub fn read(addr: Addr) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Read,
        }
    }
    pub fn write(addr: Addr) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub size_bytes: usize,
    pub line_bytes: usize,
    pub associativity: usize,
}

impl CacheConfig {
    pub fn new(size_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(associativity >= 1);
        assert!(
            size_bytes.is_multiple_of(line_bytes * associativity),
            "size must be a whole number of sets"
        );
        CacheConfig {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }
}

/// One cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `associativity` (tag, last_use) pairs.
    sets: Vec<Vec<(u64, u64)>>,
    tick: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![Vec::with_capacity(config.associativity); config.num_sets()];
        Cache {
            config,
            sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn index_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.config.num_sets() as u64) as usize;
        let tag = line / self.config.num_sets() as u64;
        (set, tag)
    }

    /// Access `addr`; returns `true` on hit. On miss the line is filled,
    /// evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.len() < self.config.associativity {
            set.push((tag, self.tick));
        } else {
            // Replace the least-recently-used way.
            let lru = set
                .iter_mut()
                .min_by_key(|(_, last)| *last)
                .expect("non-empty set");
            *lru = (tag, self.tick);
        }
        false
    }

    /// Whether `addr`'s line is currently resident (no LRU update).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.sets[set_idx].iter().any(|(t, _)| *t == tag)
    }

    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    pub l1i: CacheConfig,
    pub l1d: CacheConfig,
    pub l2: CacheConfig,
    /// Extra cycles charged per L1 miss that hits L2.
    pub l2_hit_penalty: u64,
    /// Extra cycles charged per access that misses L2 (memory latency).
    pub mem_penalty: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(16 * 1024, 64, 4),
            l1d: CacheConfig::new(16 * 1024, 64, 8),
            l2: CacheConfig::new(1024 * 1024, 64, 8),
            l2_hit_penalty: 18,
            mem_penalty: 200,
        }
    }
}

/// Result of pushing one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemResult {
    pub l1_miss: bool,
    pub l2_miss: bool,
    /// Latency cycles beyond the L1-hit baseline.
    pub penalty_cycles: u64,
}

/// L1I + L1D over a unified L2.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
}

impl CacheHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            config,
        }
    }

    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    pub fn access(&mut self, a: MemAccess) -> MemResult {
        let l1 = match a.kind {
            AccessKind::Fetch => &mut self.l1i,
            AccessKind::Read | AccessKind::Write => &mut self.l1d,
        };
        if l1.access(a.addr) {
            return MemResult::default();
        }
        if self.l2.access(a.addr) {
            return MemResult {
                l1_miss: true,
                l2_miss: false,
                penalty_cycles: self.config.l2_hit_penalty,
            };
        }
        MemResult {
            l1_miss: true,
            l2_miss: true,
            penalty_cycles: self.config.mem_penalty,
        }
    }

    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        CacheConfig::new(128, 16, 2)
    }

    #[test]
    fn geometry_math() {
        let c = tiny();
        assert_eq!(c.num_sets(), 4);
        let big = CacheConfig::new(1024 * 1024, 64, 8);
        assert_eq!(big.num_sets(), 2048);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x108)); // same 16-byte line
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(tiny());
        // Three lines mapping to the same set (stride = sets*line = 64).
        c.access(0x000);
        c.access(0x040);
        c.access(0x000); // touch 0x000: 0x040 becomes LRU
        c.access(0x080); // evicts 0x040
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn hierarchy_penalties_and_event_counts() {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            l1i: tiny(),
            l1d: tiny(),
            l2: CacheConfig::new(512, 16, 4),
            l2_hit_penalty: 10,
            mem_penalty: 100,
        });
        // Cold: misses both levels.
        let r = h.access(MemAccess::read(0x1000));
        assert!(r.l1_miss && r.l2_miss);
        assert_eq!(r.penalty_cycles, 100);
        // Warm in both: free.
        let r = h.access(MemAccess::read(0x1000));
        assert!(!r.l1_miss);
        assert_eq!(r.penalty_cycles, 0);
        // Fetches go through L1I, separate from L1D.
        let r = h.access(MemAccess {
            addr: 0x1000,
            kind: AccessKind::Fetch,
        });
        assert!(r.l1_miss, "L1I is cold even though L1D holds the line");
        assert!(!r.l2_miss, "L2 already holds the line");
        assert_eq!(r.penalty_cycles, 10);
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = Cache::new(tiny());
        c.access(0x000);
        c.access(0x040);
        // Probing 0x000 must NOT refresh it...
        assert!(c.probe(0x000));
        c.access(0x080); // ...so 0x000 is evicted as LRU.
        assert!(!c.probe(0x000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = CacheConfig::new(120, 12, 2);
    }
}
