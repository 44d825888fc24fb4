//! The per-core page-walk cache (PWC).

use crate::set_assoc::{CacheConfig, SetAssocCache};
use bf_telemetry::{Counter, Registry};
use bf_types::{Cycles, PageTableLevel, PhysAddr};

/// Geometry of the page-walk cache (Table I: 16 entries per level, 4-way,
/// 1-cycle access, caching PGD/PUD/PMD entries — never leaf PTEs).
///
/// # Examples
///
/// ```
/// use bf_cache::PwcConfig;
/// let config = PwcConfig::default();
/// assert_eq!(config.entries_per_level, 16);
/// assert_eq!(config.ways, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PwcConfig {
    /// Entries per cached level (PGD, PUD, PMD).
    pub entries_per_level: usize,
    /// Associativity.
    pub ways: usize,
    /// Access time in CPU cycles.
    pub access_cycles: Cycles,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            entries_per_level: 16,
            ways: 4,
            access_cycles: 1,
        }
    }
}

/// Hit/miss counters exposed by [`PageWalkCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PwcStats {
    /// Probes that found the entry.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
}

/// A per-core translation cache over the upper page-table levels.
///
/// Entries are keyed by the *physical address of the page-table entry*
/// they cache. This gives the sharing behaviour the paper exploits for
/// free: when BabelFish makes two processes walk the same shared PMD
/// table, the second process probes the same entry address and hits,
/// whereas separate per-process tables can never hit on each other's
/// entries.
///
/// Leaf PTE entries are never cached here (the PWC "stores a few
/// recently-accessed entries of the first three tables", Section II-B).
///
/// Each level is a [`SetAssocCache`] over entry numbers
/// (`entry_addr / 8`), so the PWC shares the cache core's arena, LRU
/// and counters.
///
/// # Examples
///
/// ```
/// use bf_cache::PageWalkCache;
/// use bf_types::{PageTableLevel, PhysAddr};
///
/// let mut pwc = PageWalkCache::new(Default::default());
/// let entry = PhysAddr::new(0x5000);
/// assert!(!pwc.probe(PageTableLevel::Pud, entry));
/// pwc.fill(PageTableLevel::Pud, entry);
/// assert!(pwc.probe(PageTableLevel::Pud, entry));
/// ```
#[derive(Debug)]
pub struct PageWalkCache {
    config: PwcConfig,
    /// PGD, PUD, PMD (index = level depth).
    levels: [SetAssocCache; 3],
    telem_hits: Counter,
    telem_misses: Counter,
    spans: bf_telemetry::SpanTracer,
}

impl PageWalkCache {
    /// Builds a PWC with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_level` is not a positive multiple of `ways`.
    pub fn new(config: PwcConfig) -> Self {
        assert!(
            config.entries_per_level > 0
                && config.ways > 0
                && config.entries_per_level.is_multiple_of(config.ways),
            "entries_per_level must be a positive multiple of ways"
        );
        // One "line" per cached entry.
        let level = CacheConfig {
            size_bytes: config.entries_per_level as u64,
            ways: config.ways,
            line_bytes: 1,
            access_cycles: config.access_cycles,
            mshrs: 0,
        };
        PageWalkCache {
            config,
            levels: std::array::from_fn(|_| SetAssocCache::new(level)),
            telem_hits: Counter::new(),
            telem_misses: Counter::new(),
            spans: bf_telemetry::SpanTracer::new(),
        }
    }

    /// The geometry this PWC was built with.
    pub fn config(&self) -> &PwcConfig {
        &self.config
    }

    /// Routes this PWC's counters into `registry` as `pwc.hits` /
    /// `pwc.misses`. Per-core PWCs attached to one registry aggregate
    /// into machine-wide totals.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem_hits = registry.counter("pwc.hits");
        self.telem_misses = registry.counter("pwc.misses");
        self.spans = registry.spans();
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> PwcStats {
        self.levels.iter().fold(PwcStats::default(), |acc, level| {
            let s = level.stats();
            PwcStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            }
        })
    }

    /// Looks up the entry at `entry_addr` for `level`, refreshing LRU
    /// state on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`PageTableLevel::Pte`] — leaf entries are not
    /// cached in a PWC.
    pub fn probe(&mut self, level: PageTableLevel, entry_addr: PhysAddr) -> bool {
        let depth = depth(level);
        let hit = self.levels[depth].probe_and_touch(entry_addr.raw() / 8, false);
        if hit {
            self.telem_hits.incr();
            self.spans.instant("pwc.hit", &[("level", depth as u64)]);
        } else {
            self.telem_misses.incr();
            self.spans.instant("pwc.miss", &[("level", depth as u64)]);
        }
        hit
    }

    /// Inserts the entry at `entry_addr` for `level` (LRU replacement).
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`PageTableLevel::Pte`].
    pub fn fill(&mut self, level: PageTableLevel, entry_addr: PhysAddr) {
        self.levels[depth(level)].fill(entry_addr.raw() / 8, false);
    }

    /// Drops every cached entry (e.g. on a full TLB shootdown).
    pub fn flush(&mut self) {
        self.levels.iter_mut().for_each(SetAssocCache::flush);
    }

    /// Drops a single cached entry if present.
    pub fn invalidate(&mut self, level: PageTableLevel, entry_addr: PhysAddr) {
        self.levels[depth(level)].invalidate(entry_addr.raw() / 8);
    }
}

/// Index of a cached level in [`PageWalkCache::levels`].
fn depth(level: PageTableLevel) -> usize {
    match level {
        PageTableLevel::Pgd => 0,
        PageTableLevel::Pud => 1,
        PageTableLevel::Pmd => 2,
        PageTableLevel::Pte => panic!("PTE entries are not cached in the PWC"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x1000);
        assert!(!pwc.probe(PageTableLevel::Pgd, addr));
        pwc.fill(PageTableLevel::Pgd, addr);
        assert!(pwc.probe(PageTableLevel::Pgd, addr));
        assert_eq!(pwc.stats(), PwcStats { hits: 1, misses: 1 });
    }

    #[test]
    fn levels_are_independent() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x2000);
        pwc.fill(PageTableLevel::Pud, addr);
        assert!(!pwc.probe(PageTableLevel::Pmd, addr));
        assert!(pwc.probe(PageTableLevel::Pud, addr));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn pte_level_is_rejected() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        pwc.probe(PageTableLevel::Pte, PhysAddr::new(0));
    }

    #[test]
    fn capacity_evicts_lru() {
        let config = PwcConfig::default(); // 4 sets of 4 ways
        let mut pwc = PageWalkCache::new(config);
        let sets = (config.entries_per_level / config.ways) as u64;
        // Fill one set past capacity: keys congruent mod sets.
        for i in 0..(config.ways as u64 + 1) {
            pwc.fill(PageTableLevel::Pmd, PhysAddr::new(i * sets * 8));
        }
        // The first entry (LRU) must be gone; the newest must be present.
        assert!(!pwc.probe(PageTableLevel::Pmd, PhysAddr::new(0)));
        assert!(pwc.probe(
            PageTableLevel::Pmd,
            PhysAddr::new(config.ways as u64 * sets * 8)
        ));
    }

    #[test]
    fn flush_clears_everything() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x3000);
        pwc.fill(PageTableLevel::Pgd, addr);
        pwc.flush();
        assert!(!pwc.probe(PageTableLevel::Pgd, addr));
    }

    #[test]
    fn invalidate_is_targeted() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let a = PhysAddr::new(0x4000);
        let b = PhysAddr::new(0x4008);
        pwc.fill(PageTableLevel::Pmd, a);
        pwc.fill(PageTableLevel::Pmd, b);
        pwc.invalidate(PageTableLevel::Pmd, a);
        assert!(!pwc.probe(PageTableLevel::Pmd, a));
        assert!(pwc.probe(PageTableLevel::Pmd, b));
    }

    #[test]
    fn refill_refreshes_without_duplicating() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x5000);
        pwc.fill(PageTableLevel::Pgd, addr);
        pwc.fill(PageTableLevel::Pgd, addr);
        assert!(pwc.probe(PageTableLevel::Pgd, addr));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_is_rejected() {
        let _ = PageWalkCache::new(PwcConfig {
            entries_per_level: 10,
            ways: 4,
            access_cycles: 1,
        });
    }
}
