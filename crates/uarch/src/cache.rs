//! Set-associative caches and the two-level hierarchy.
//!
//! Cache state is the side channel under study: a load executed on a
//! mis-speculated path fills real lines that remain after the squash, and
//! the attack receivers in `levioso-attacks` measure exactly this state via
//! timed loads. Latencies are modelled; data contents are not (data comes
//! from the simulator's functional memory).

use crate::config::{CacheConfig, HierarchyConfig};

/// One set-associative, true-LRU cache level (tags only).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Line>>,
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    hit_latency: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// LRU stamp: higher = more recently used.
    stamp: u64,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses (hits plus misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        crate::stats::ratio(self.misses, self.accesses())
    }

    /// Hit ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        crate::stats::ratio(self.hits, self.accesses())
    }
}

impl SetAssocCache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if line size or set count is not a power of two, or if the
    /// configuration is inconsistent.
    pub fn new(config: &CacheConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        let n_lines = config.size_bytes / config.line_bytes;
        assert!(
            n_lines >= config.assoc && n_lines.is_multiple_of(config.assoc),
            "bad cache geometry"
        );
        let n_sets = n_lines / config.assoc;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        SetAssocCache {
            sets: vec![Vec::with_capacity(config.assoc); n_sets],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            assoc: config.assoc,
            hit_latency: config.hit_latency,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `addr`'s line is present (no state change, no stats).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Accesses `addr`: returns `true` on hit. On miss the line is filled
    /// (evicting LRU if needed); on hit the LRU stamp is refreshed.
    pub fn access(&mut self, addr: u64, now: u64) -> bool {
        let (set, tag) = self.index(addr);
        let set_lines = &mut self.sets[set];
        if let Some(l) = set_lines.iter_mut().find(|l| l.tag == tag) {
            l.stamp = now;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set_lines.len() < self.assoc {
            set_lines.push(Line { tag, stamp: now });
        } else {
            let victim = set_lines.iter_mut().min_by_key(|l| l.stamp).expect("non-empty set");
            *victim = Line { tag, stamp: now };
        }
        false
    }

    /// Accesses `addr` without disturbing *any* state on a hit (no LRU
    /// update) and without filling on a miss. Returns `true` on hit. Used
    /// by the Delay-on-Miss policy's "invisible" speculative hits. Counts
    /// toward stats.
    pub fn access_invisible(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let hit = self.sets[set].iter().any(|l| l.tag == tag);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Removes `addr`'s line if present (the `flush` instruction).
    pub fn flush_line(&mut self, addr: u64) {
        let (set, tag) = self.index(addr);
        self.sets[set].retain(|l| l.tag != tag);
    }

    /// Empties the cache (between measurement rounds).
    pub fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// L1D + L2 + DRAM hierarchy with inclusive fills.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Level-1 data cache.
    pub l1d: SetAssocCache,
    /// Unified level-2 cache.
    pub l2: SetAssocCache,
    dram_latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy from its configuration.
    pub fn new(config: &HierarchyConfig) -> Self {
        Hierarchy {
            l1d: SetAssocCache::new(&config.l1d),
            l2: SetAssocCache::new(&config.l2),
            dram_latency: config.dram_latency,
        }
    }

    /// A normal (demand) access: returns total latency and fills both
    /// levels on the way.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        if self.l1d.access(addr, now) {
            return self.l1d.hit_latency();
        }
        if self.l2.access(addr, now) {
            return self.l1d.hit_latency() + self.l2.hit_latency();
        }
        self.l1d.hit_latency() + self.l2.hit_latency() + self.dram_latency
    }

    /// Delay-on-Miss style access: hits in L1 are served without updating
    /// replacement state; anything else reports a miss without filling.
    /// Returns `Some(latency)` on L1 hit, `None` otherwise.
    pub fn access_if_l1_hit(&mut self, addr: u64) -> Option<u64> {
        self.l1d.access_invisible(addr).then(|| self.l1d.hit_latency())
    }

    /// Whether `addr` is present at any level.
    pub fn contains(&self, addr: u64) -> bool {
        self.l1d.contains(addr) || self.l2.contains(addr)
    }

    /// Evicts `addr`'s line from every level (the `flush` instruction).
    pub fn flush_line(&mut self, addr: u64) {
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
    }

    /// Empties both levels.
    pub fn clear(&mut self) {
        self.l1d.clear();
        self.l2.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B
        SetAssocCache::new(&CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, 0));
        assert!(c.access(0x1000, 1));
        assert!(c.access(0x1030, 2), "same line");
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn stats_ratios_are_complementary_and_zero_safe() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.hit_ratio() + s.miss_ratio() - 1.0).abs() < 1e-12);
        let empty = CacheStats::default();
        assert_eq!(empty.hit_ratio(), 0.0);
        assert_eq!(empty.miss_ratio(), 0.0);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        c.access(a, 0);
        c.access(b, 1);
        c.access(a, 2); // refresh a
        c.access(d, 3); // evicts b (LRU)
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn invisible_access_does_not_disturb_lru() {
        let mut c = small();
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        c.access(a, 0);
        c.access(b, 1);
        assert!(c.access_invisible(a), "hit");
        // A normal access would have made `a` MRU; invisible must not, so
        // the next fill evicts `a` (oldest stamp).
        c.access(d, 2);
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn invisible_miss_does_not_fill() {
        let mut c = small();
        assert!(!c.access_invisible(0x1000));
        assert!(!c.contains(0x1000));
    }

    #[test]
    fn flush_removes_line() {
        let mut c = small();
        c.access(0x2000, 0);
        c.flush_line(0x2010);
        assert!(!c.contains(0x2000));
    }

    #[test]
    fn hierarchy_latencies() {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let addr = 0x4_0000;
        assert_eq!(h.access(addr, 0), 4 + 14 + 120, "cold miss goes to DRAM");
        assert_eq!(h.access(addr, 1), 4, "now an L1 hit");
        h.l1d.flush_line(addr);
        assert_eq!(h.access(addr, 2), 4 + 14, "L2 hit after L1-only flush");
        h.flush_line(addr);
        assert!(!h.contains(addr));
        assert_eq!(h.access(addr, 3), 4 + 14 + 120, "a flushed line misses to DRAM");
    }

    #[test]
    fn dom_access_hits_only() {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        assert_eq!(h.access_if_l1_hit(0x9000), None);
        assert!(!h.contains(0x9000), "no fill on DoM miss");
        h.access(0x9000, 0);
        assert_eq!(h.access_if_l1_hit(0x9000), Some(4));
    }
}
