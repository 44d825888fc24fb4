//! Reference-model test for the cache core.
//!
//! The models below are the nested `Vec<Vec<Way>>` implementations of
//! [`SetAssocCache`] and [`PageWalkCache`] that the flat arena replaced,
//! kept verbatim apart from dropping telemetry. Random operation
//! sequences must produce the same return values, counters, resident
//! counts and way-by-way placement from the model and the real cache, on
//! power-of-two, non-power-of-two and fully associative geometries.

use bf_cache::{CacheConfig, CacheStats, PageWalkCache, PwcConfig, PwcStats, SetAssocCache};
use bf_types::{PageTableLevel, PhysAddr};

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
    last_used: u64,
}

/// The nested-vector cache the flat arena replaced.
struct ModelCache {
    sets: Vec<Vec<Way>>,
    clock: u64,
    stats: CacheStats,
}

impl ModelCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        ModelCache {
            sets: vec![vec![Way::default(); config.ways]; sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn probe_and_touch(&mut self, line: u64, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set_index = self.set_index(line);
        let tag = self.tag(line);
        let set = &mut self.sets[set_index];
        for way in set.iter_mut() {
            if way.valid && way.tag == tag {
                way.last_used = clock;
                if is_write {
                    way.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let set_index = self.set_index(line);
        let tag = self.tag(line);
        let sets_count = self.sets.len() as u64;
        let set = &mut self.sets[set_index];

        // Already present (e.g. racing fills): refresh.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = clock;
            way.dirty |= dirty;
            return None;
        }

        let victim_index = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.last_used } else { 0 })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");
        let victim = set[victim_index];
        set[victim_index] = Way {
            valid: true,
            tag,
            dirty,
            last_used: clock,
        };
        self.stats.fills += 1;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(victim.tag * sets_count + set_index as u64)
        } else {
            None
        }
    }

    fn invalidate(&mut self, line: u64) {
        let set_index = self.set_index(line);
        let tag = self.tag(line);
        for way in &mut self.sets[set_index] {
            if way.valid && way.tag == tag {
                way.valid = false;
            }
        }
    }

    fn flush(&mut self) {
        for way in self.sets.iter_mut().flatten() {
            way.valid = false;
        }
    }

    fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|set| set.iter())
            .filter(|w| w.valid)
            .count()
    }

    /// Way-by-way placement in set-major order, as `SetAssocCache::ways`.
    fn ways(&self) -> Vec<Option<(u64, bool)>> {
        let sets = self.sets.len() as u64;
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(set, ways)| {
                ways.iter()
                    .map(move |w| w.valid.then_some((w.tag * sets + set as u64, w.dirty)))
            })
            .collect()
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn tag(&self, line: u64) -> u64 {
        line / self.sets.len() as u64
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PwcWay {
    valid: bool,
    tag: u64,
    last_used: u64,
}

/// The PWC with its own copy of the LRU code, as it was before it was
/// built from `SetAssocCache`s.
struct ModelPwc {
    levels: [Vec<Vec<PwcWay>>; 3],
    clock: u64,
    stats: PwcStats,
}

impl ModelPwc {
    fn new(config: PwcConfig) -> Self {
        let sets = config.entries_per_level / config.ways;
        let make = || vec![vec![PwcWay::default(); config.ways]; sets];
        ModelPwc {
            levels: [make(), make(), make()],
            clock: 0,
            stats: PwcStats::default(),
        }
    }

    fn probe(&mut self, level: PageTableLevel, entry_addr: PhysAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let sets = self.level_sets(level);
        let set_count = sets.len() as u64;
        let key = entry_addr.raw() / 8;
        let set = &mut sets[(key % set_count) as usize];
        let hit = set.iter_mut().any(|way| {
            if way.valid && way.tag == key {
                way.last_used = clock;
                true
            } else {
                false
            }
        });
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    fn fill(&mut self, level: PageTableLevel, entry_addr: PhysAddr) {
        self.clock += 1;
        let clock = self.clock;
        let sets = self.level_sets(level);
        let set_count = sets.len() as u64;
        let set = &mut sets[(entry_addr.raw() / 8 % set_count) as usize];
        let key = entry_addr.raw() / 8;
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == key) {
            way.last_used = clock;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("PWC set has at least one way");
        *victim = PwcWay {
            valid: true,
            tag: key,
            last_used: clock,
        };
    }

    fn flush(&mut self) {
        for level in &mut self.levels {
            for set in level.iter_mut() {
                for way in set.iter_mut() {
                    way.valid = false;
                }
            }
        }
    }

    fn invalidate(&mut self, level: PageTableLevel, entry_addr: PhysAddr) {
        let sets = self.level_sets(level);
        let set_count = sets.len() as u64;
        let key = entry_addr.raw() / 8;
        for way in sets[(key % set_count) as usize].iter_mut() {
            if way.valid && way.tag == key {
                way.valid = false;
            }
        }
    }

    fn level_sets(&mut self, level: PageTableLevel) -> &mut Vec<Vec<PwcWay>> {
        match level {
            PageTableLevel::Pgd => &mut self.levels[0],
            PageTableLevel::Pud => &mut self.levels[1],
            PageTableLevel::Pmd => &mut self.levels[2],
            PageTableLevel::Pte => panic!("PTE entries are not cached in the PWC"),
        }
    }
}

/// (sets, ways): power-of-two, non-power-of-two (3 × 4) and fully
/// associative (1 × 8).
const GEOMETRIES: [(u64, usize); 4] = [(4, 2), (8, 4), (3, 4), (1, 8)];

/// Line-number offsets: small lines, and lines near the top of the
/// physical line space (52-bit addresses, 64 B lines).
const BASES: [u64; 3] = [0, 1 << 40, (1 << 46) - 64];

fn geometry(sets: u64, ways: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways as u64 * 64,
        ways,
        line_bytes: 64,
        access_cycles: 1,
        mshrs: 1,
    }
}

proptest::proptest! {
    /// Probe (read/write), fill (clean/dirty), invalidate and flush agree
    /// with the nested model on every return value, counter, resident
    /// count and way placement.
    #[test]
    fn cache_matches_nested_model(
        shape in 0usize..4,
        base in 0usize..3,
        ops in proptest::collection::vec((0u8..13, 0u64..48, 0u8..2), 1..400),
    ) {
        let (sets, ways) = GEOMETRIES[shape];
        let config = geometry(sets, ways);
        let mut real = SetAssocCache::new(config);
        let mut model = ModelCache::new(config);
        for (op, offset, flag) in ops {
            let line = BASES[base] + offset;
            let flag = flag == 1;
            match op {
                0..=5 => proptest::prop_assert_eq!(
                    real.probe_and_touch(line, flag),
                    model.probe_and_touch(line, flag)
                ),
                6..=10 => proptest::prop_assert_eq!(real.fill(line, flag), model.fill(line, flag)),
                11 => {
                    real.invalidate(line);
                    model.invalidate(line);
                }
                _ => {
                    real.flush();
                    model.flush();
                }
            }
            proptest::prop_assert_eq!(real.stats(), model.stats);
            proptest::prop_assert_eq!(real.resident_lines(), model.resident_lines());
            proptest::prop_assert_eq!(real.ways().collect::<Vec<_>>(), model.ways());
        }
    }

    /// The PWC built on three `SetAssocCache`s hits, misses and counts
    /// exactly like the PWC with its own LRU copy.
    #[test]
    fn pwc_matches_nested_model(
        shape in 0usize..3,
        ops in proptest::collection::vec((0u8..10, 0u64..3, 0u64..96), 1..400),
    ) {
        let (entries_per_level, ways) = [(16, 4), (12, 4), (8, 8)][shape];
        let config = PwcConfig {
            entries_per_level,
            ways,
            access_cycles: 1,
        };
        let mut real = PageWalkCache::new(config);
        let mut model = ModelPwc::new(config);
        for (op, level, entry) in ops {
            let level = [PageTableLevel::Pgd, PageTableLevel::Pud, PageTableLevel::Pmd]
                [level as usize];
            // Mostly aligned entry addresses, with a few mid-entry ones.
            let addr = PhysAddr::new(0x10_0000 + entry * 8 + (entry % 5 == 0) as u64 * 3);
            match op {
                0..=4 => proptest::prop_assert_eq!(real.probe(level, addr), model.probe(level, addr)),
                5..=7 => {
                    real.fill(level, addr);
                    model.fill(level, addr);
                }
                8 => {
                    real.invalidate(level, addr);
                    model.invalidate(level, addr);
                }
                _ => {
                    real.flush();
                    model.flush();
                }
            }
            proptest::prop_assert_eq!(real.stats(), model.stats);
        }
    }
}

#[test]
fn models_exercise_evictions_and_writebacks() {
    // Guard against a vacuous property: the op mix must reach dirty
    // evictions on the smallest geometry.
    let config = geometry(4, 2);
    let mut real = SetAssocCache::new(config);
    let mut model = ModelCache::new(config);
    for line in 0..64u64 {
        assert_eq!(
            real.fill(line, line % 3 == 0),
            model.fill(line, line % 3 == 0)
        );
        assert_eq!(
            real.probe_and_touch(line / 2, true),
            model.probe_and_touch(line / 2, true)
        );
    }
    assert_eq!(real.stats(), model.stats);
    assert!(real.stats().writebacks > 0 && real.stats().evictions > real.stats().writebacks);
}
