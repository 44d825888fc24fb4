//! A single set-associative, write-back cache level.

use bf_types::{Cycles, CACHE_LINE_BYTES};

/// Geometry and timing of one cache level.
///
/// The constructors provide the Table I configurations.
///
/// # Examples
///
/// ```
/// use bf_cache::CacheConfig;
/// let l2 = CacheConfig::l2();
/// assert_eq!(l2.size_bytes, 256 * 1024);
/// assert_eq!(l2.ways, 8);
/// assert_eq!(l2.access_cycles, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 throughout Table I).
    pub line_bytes: u64,
    /// Access time in CPU cycles (Table I "AT").
    pub access_cycles: Cycles,
    /// Miss-status holding registers (tracked for statistics).
    pub mshrs: usize,
}

impl CacheConfig {
    /// L1 instruction/data cache: 32 KB, 8-way, 2-cycle AT, 16 MSHRs.
    pub fn l1_data() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 2,
            mshrs: 16,
        }
    }

    /// L1 instruction cache (same organisation as the data cache).
    pub fn l1_instr() -> Self {
        Self::l1_data()
    }

    /// Private unified L2: 256 KB, 8-way, 8-cycle AT, 16 MSHRs.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 8,
            mshrs: 16,
        }
    }

    /// Shared L3: 8 MB, 16-way, 32-cycle AT, 128 MSHRs.
    pub fn l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 32,
            mshrs: 128,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }
}

/// Hit/miss/writeback counters exposed by [`SetAssocCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Probes that found the line.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when the cache has not been probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Tag word of a way that holds no line. A resident tag word is
/// `tag << 1 | dirty`; tags are line numbers divided by the set count,
/// so they never reach `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

/// One way: 16 bytes, so a 16-way L3 set spans four host cache lines
/// and an 8-way L1/L2 set spans two.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// `tag << 1 | dirty`, or [`EMPTY`].
    word: u64,
    /// LRU stamp: the cache clock at the last touch, `0` while empty.
    /// The clock ticks before every probe and fill, so a resident way's
    /// stamp is at least 1 and the oldest-stamp scan prefers the first
    /// empty way without a separate pass.
    last_used: u64,
}

const EMPTY_WAY: Way = Way {
    word: EMPTY,
    last_used: 0,
};

/// One physically-tagged, set-associative, write-back cache with LRU
/// replacement.
///
/// The cache operates on *line numbers* (`PhysAddr::cache_line()`), not raw
/// addresses, so callers decide the line granularity once.
///
/// Ways live in one flat, set-major arena. The set index and tag are a
/// mask and a shift when the set count is a power of two (every Table I
/// geometry) and `%` / `/` otherwise; the two agree for powers of two,
/// so the choice cannot move a metric.
///
/// # Examples
///
/// ```
/// use bf_cache::{CacheConfig, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheConfig::l1_data());
/// cache.fill(42, true); // bring in line 42, dirtied
/// assert!(cache.probe_and_touch(42, false));
/// cache.invalidate(42);
/// assert!(!cache.probe_and_touch(42, false));
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: Box<[Way]>,
    sets: usize,
    /// `sets - 1` and `log2(sets)` when `sets` is a power of two
    /// (`pow2_sets`); unused otherwise.
    set_mask: u64,
    set_shift: u32,
    pow2_sets: bool,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        SetAssocCache {
            config,
            ways: vec![EMPTY_WAY; sets * config.ways].into_boxed_slice(),
            sets,
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            pow2_sets: sets.is_power_of_two(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `line`; on a hit, refreshes LRU state and (for writes)
    /// sets the dirty bit. Returns whether the line was present.
    #[inline]
    pub fn probe_and_touch(&mut self, line: u64, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.split(line);
        let key = tag << 1 | 1;
        for way in self.set_mut(set) {
            if way.word | 1 == key {
                way.last_used = clock;
                if is_write {
                    way.word |= 1;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts `line` (evicting the LRU way if the set is full) and
    /// returns the evicted line number if a valid line was displaced.
    /// `dirty` marks the incoming line as modified.
    ///
    /// One pass over the set finds an already-resident copy (refreshed
    /// in place, e.g. racing fills), else the first empty way, else the
    /// least-recently-used way.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.split(line);
        debug_assert!(tag < EMPTY >> 1, "line {line} overflows the tag word");
        let key = tag << 1 | 1;
        let ways = self.set_mut(set);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, way) in ways.iter_mut().enumerate() {
            if way.word | 1 == key {
                way.last_used = clock;
                way.word |= dirty as u64;
                return None;
            }
            if way.last_used < oldest {
                oldest = way.last_used;
                victim = i;
            }
        }
        let old = std::mem::replace(
            &mut ways[victim],
            Way {
                word: tag << 1 | dirty as u64,
                last_used: clock,
            },
        );
        self.stats.fills += 1;
        if old.word == EMPTY {
            return None;
        }
        self.stats.evictions += 1;
        self.stats.writebacks += old.word & 1;
        Some(self.join(set, old.word >> 1))
    }

    /// Drops `line` if present (used for cache-coherent invalidations of
    /// page-table lines on unmap).
    pub fn invalidate(&mut self, line: u64) {
        let (set, tag) = self.split(line);
        let key = tag << 1 | 1;
        for way in self.set_mut(set) {
            if way.word | 1 == key {
                *way = EMPTY_WAY;
            }
        }
    }

    /// Drops every line. Counters and the LRU clock are kept.
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY_WAY);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.word != EMPTY).count()
    }

    /// Every way in set-major order: the resident line and its dirty bit,
    /// or `None` for an empty way. An inspection view for tests and
    /// debugging; it pins where a fill lands, not just what it evicts.
    pub fn ways(&self) -> impl Iterator<Item = Option<(u64, bool)>> + '_ {
        let per_set = self.config.ways;
        self.ways.iter().enumerate().map(move |(i, w)| {
            (w.word != EMPTY).then(|| (self.join(i / per_set, w.word >> 1), w.word & 1 == 1))
        })
    }

    /// The ways of set `set`.
    #[inline(always)]
    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        let per_set = self.config.ways;
        &mut self.ways[set * per_set..(set + 1) * per_set]
    }

    /// Splits a line number into (set index, tag).
    #[inline(always)]
    fn split(&self, line: u64) -> (usize, u64) {
        if self.pow2_sets {
            ((line & self.set_mask) as usize, line >> self.set_shift)
        } else {
            ((line % self.sets as u64) as usize, line / self.sets as u64)
        }
    }

    /// The line number with the given set index and tag.
    #[inline(always)]
    fn join(&self, set: usize, tag: u64) -> u64 {
        if self.pow2_sets {
            tag << self.set_shift | set as u64
        } else {
            tag * self.sets as u64 + set as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            access_cycles: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1_data().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 512);
        assert_eq!(CacheConfig::l3().sets(), 8192);
        assert_eq!(CacheConfig::l3().access_cycles, 32);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut cache = tiny();
        assert!(!cache.probe_and_touch(100, false));
        cache.fill(100, false);
        assert!(cache.probe_and_touch(100, false));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        cache.fill(0, false);
        cache.fill(4, false);
        cache.probe_and_touch(0, false); // 0 is now MRU
        let evicted = cache.fill(8, false);
        assert_eq!(evicted, Some(4), "LRU way (line 4) should be evicted");
        assert!(cache.probe_and_touch(0, false));
        assert!(!cache.probe_and_touch(4, false));
    }

    #[test]
    fn eviction_reports_reconstructed_line() {
        let mut cache = tiny();
        cache.fill(3, false); // set 3
        cache.fill(7, false); // set 3
        let evicted = cache.fill(11, false); // set 3, evicts line 3
        assert_eq!(evicted, Some(3));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut cache = tiny();
        cache.fill(0, true);
        cache.fill(4, false);
        cache.fill(8, false); // evicts dirty line 0
        assert_eq!(cache.stats().writebacks, 1);
        assert_eq!(cache.stats().evictions, 2 - 1);
    }

    #[test]
    fn write_probe_dirties_line() {
        let mut cache = tiny();
        cache.fill(0, false);
        cache.probe_and_touch(0, true);
        cache.fill(4, false);
        cache.fill(8, false); // evicts line 0, now dirty
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut cache = tiny();
        cache.fill(0, false);
        assert_eq!(cache.fill(0, true), None);
        assert_eq!(cache.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut cache = tiny();
        cache.fill(5, false);
        cache.invalidate(5);
        assert!(!cache.probe_and_touch(5, false));
        assert_eq!(cache.resident_lines(), 0);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut cache = tiny();
        for line in 0..4 {
            cache.fill(line, false);
        }
        for line in 0..4 {
            assert!(cache.probe_and_touch(line, false));
        }
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let mut cache = tiny();
        cache.fill(0, false);
        cache.probe_and_touch(0, false);
        cache.probe_and_touch(1, false);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn flush_empties_every_way() {
        let mut cache = tiny();
        for line in 0..8 {
            cache.fill(line, line % 2 == 0);
        }
        assert_eq!(cache.resident_lines(), 8);
        cache.flush();
        assert_eq!(cache.resident_lines(), 0);
        assert!(cache.ways().all(|w| w.is_none()));
        // Empty again: the next fills evict nothing.
        assert_eq!(cache.fill(0, false), None);
        assert_eq!(cache.fill(4, false), None);
    }

    #[test]
    fn non_pow2_sets_split_with_modulo() {
        // 3 sets × 2 ways: lines 0, 3, 6 share set 0.
        let mut cache = SetAssocCache::new(CacheConfig {
            size_bytes: 6 * 64,
            ways: 2,
            line_bytes: 64,
            access_cycles: 1,
            mshrs: 1,
        });
        assert!(!cache.pow2_sets);
        cache.fill(0, false);
        cache.fill(3, true);
        cache.fill(1, false);
        assert_eq!(cache.fill(6, false), Some(0));
        assert_eq!(cache.fill(9, false), Some(3));
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn fill_takes_the_first_empty_way() {
        let mut cache = tiny();
        cache.fill(0, false); // set 0, way 0
        cache.fill(4, false); // set 0, way 1
        cache.invalidate(0);
        cache.invalidate(4);
        cache.fill(8, true);
        assert_eq!(cache.ways().next(), Some(Some((8, true))));
    }
}
