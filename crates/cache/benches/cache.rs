//! Criterion micro-benchmarks of the set-associative cache core: the
//! shared-L3 miss-then-fill-with-eviction path every DRAM access takes,
//! a private-L2 probe hit, and a page-walk-cache probe.

use bf_cache::{CacheConfig, PageWalkCache, PwcConfig, SetAssocCache};
use bf_types::{PageTableLevel, PhysAddr};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");

    // Steady-state L3 miss: the cache is full, so each new line misses
    // its 16-way set and the fill evicts the set's LRU way.
    let l3 = CacheConfig::l3();
    let mut cache = SetAssocCache::new(l3);
    let lines = (l3.size_bytes / l3.line_bytes) * 2;
    for line in 0..lines {
        cache.fill(line, line % 4 == 0);
    }
    group.bench_function("l3_miss_fill_evict", |b| {
        let mut line = lines;
        b.iter(|| {
            line += 1;
            let hit = cache.probe_and_touch(line, false);
            black_box((hit, cache.fill(line, false)))
        })
    });

    // L2 hit: cycle through half the capacity, so every probe hits.
    let l2 = CacheConfig::l2();
    let mut cache = SetAssocCache::new(l2);
    let resident = l2.size_bytes / l2.line_bytes / 2;
    for line in 0..resident {
        cache.fill(line, false);
    }
    group.bench_function("l2_probe_hit", |b| {
        let mut line = 0u64;
        b.iter(|| {
            line = (line + 1) % resident;
            black_box(cache.probe_and_touch(line, false))
        })
    });

    // PWC probe of the PMD level: 16 entries resident (the default PWC's
    // 4 sets × 4 ways, full) and 24 probed round-robin, so a third of
    // the probes miss.
    let mut pwc = PageWalkCache::new(PwcConfig::default());
    for entry in 0..16u64 {
        pwc.fill(PageTableLevel::Pmd, PhysAddr::new(0x10_0000 + entry * 8));
    }
    group.bench_function("pwc_probe", |b| {
        let mut entry = 0u64;
        b.iter(|| {
            entry = (entry + 1) % 24;
            black_box(pwc.probe(PageTableLevel::Pmd, PhysAddr::new(0x10_0000 + entry * 8)))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
