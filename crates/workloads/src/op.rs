//! The operation stream interface between workloads and the simulator.

use bf_containers::Region;
use bf_types::{AccessKind, VirtAddr};
use rand::rngs::StdRng;
use rand::Rng;

/// One unit of simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute `instrs_before` non-memory instructions, then perform the
    /// memory access.
    Access {
        /// Address accessed.
        va: VirtAddr,
        /// Read / write / instruction fetch.
        kind: AccessKind,
        /// Non-memory instructions preceding the access.
        instrs_before: u32,
    },
    /// A request completed (latency-percentile boundary for the Fig. 11
    /// Data Serving metrics).
    RequestEnd,
    /// The workload ran to completion (functions).
    Done,
}

/// How a batch of accesses ended: the first non-access op pulled from
/// the generator, buffered in the sidecar so the consumer handles it
/// after the batch's accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchEnd {
    /// The workload emitted [`Op::RequestEnd`].
    RequestEnd,
    /// The workload emitted [`Op::Done`].
    Done,
}

/// A fixed-capacity run of accesses in SoA layout: parallel `vas[]` /
/// `kinds[]` / `instrs[]` columns plus a one-op sidecar (`end`) for the
/// non-access op that terminated generation, if any.
///
/// Filled by [`Workload::next_batch`], which generates a run of ops
/// behind one virtual call, so a consumer can time or inspect the
/// generators in isolation; the struct-of-arrays split lets it walk one
/// dense column at a time. The simulator itself pulls one op at a time
/// through [`Workload::next_op`].
#[derive(Debug, Clone, Default)]
pub struct AccessBatch {
    /// Addresses accessed, in program order.
    pub vas: Vec<VirtAddr>,
    /// Read / write / fetch per access.
    pub kinds: Vec<AccessKind>,
    /// Non-memory instructions preceding each access.
    pub instrs: Vec<u32>,
    /// The non-access op that ended generation, if any.
    pub end: Option<BatchEnd>,
}

impl AccessBatch {
    /// An empty batch with capacity for `max` accesses per column.
    pub fn with_capacity(max: usize) -> Self {
        AccessBatch {
            vas: Vec::with_capacity(max),
            kinds: Vec::with_capacity(max),
            instrs: Vec::with_capacity(max),
            end: None,
        }
    }

    /// Accesses generated into the batch.
    pub fn len(&self) -> usize {
        self.vas.len()
    }

    /// True when the batch holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.vas.is_empty()
    }

    /// Clears all columns and the sidecar for reuse.
    pub fn clear(&mut self) {
        self.vas.clear();
        self.kinds.clear();
        self.instrs.clear();
        self.end = None;
    }
}

/// A deterministic op-stream generator bound to one container.
///
/// Serving and compute workloads are infinite (the simulator stops them
/// after an instruction budget); functions emit [`Op::Done`].
pub trait Workload {
    /// Produces the next operation.
    fn next_op(&mut self) -> Op;

    /// Fills `out` (cleared first) with up to `max` consecutive
    /// accesses, stopping early at the first non-access op, which lands
    /// in `out.end`. The default simply drains [`Workload::next_op`];
    /// because the default body is monomorphized per implementor behind
    /// one virtual `next_batch` call, the inner `next_op` calls are
    /// static and inlinable — one dispatch per batch instead of one per
    /// op.
    fn next_batch(&mut self, out: &mut AccessBatch, max: usize) {
        out.clear();
        while out.len() < max {
            match self.next_op() {
                Op::Access {
                    va,
                    kind,
                    instrs_before,
                } => {
                    out.vas.push(va);
                    out.kinds.push(kind);
                    out.instrs.push(instrs_before);
                }
                Op::RequestEnd => {
                    out.end = Some(BatchEnd::RequestEnd);
                    break;
                }
                Op::Done => {
                    out.end = Some(BatchEnd::Done);
                    break;
                }
            }
        }
    }

    /// Human-readable name for reports.
    fn label(&self) -> &str;
}

/// Models the instruction-fetch stream: a working set of hot code pages
/// with occasional jumps into the long tail (library/middleware calls).
///
/// Each call to [`CodeFetcher::fetch`] returns the address of the next
/// instruction cache line to fetch; the page changes rarely for regular
/// code (high locality) and more often for branchy code.
///
/// # Examples
///
/// ```
/// use bf_containers::Region;
/// use bf_types::VirtAddr;
/// use bf_workloads::CodeFetcher;
/// use rand::SeedableRng;
///
/// let code = vec![Region::new(VirtAddr::new(0x40_0000), 0x10_000)];
/// let mut fetcher = CodeFetcher::new(code, 0.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let va = fetcher.fetch(&mut rng);
/// assert!(va.raw() >= 0x40_0000 && va.raw() < 0x41_0000);
/// ```
#[derive(Debug, Clone)]
pub struct CodeFetcher {
    regions: Vec<Region>,
    total_pages: u64,
    jump_prob: f64,
    current_page: u64,
    offset_in_page: u64,
    /// Hot working set: a small number of pages that receive most jumps.
    hot_pages: Vec<u64>,
}

impl CodeFetcher {
    /// Builds a fetcher over the container's code regions. `jump_prob`
    /// is the per-fetch probability of leaving the current page.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or maps no pages.
    pub fn new(regions: Vec<Region>, jump_prob: f64) -> Self {
        let regions: Vec<Region> = regions.into_iter().filter(|r| !r.is_empty()).collect();
        let total_pages: u64 = regions.iter().map(|r| r.pages()).sum();
        assert!(total_pages > 0, "code fetcher needs at least one code page");
        // The hot set: first few pages of each region (entry points).
        let mut hot_pages = Vec::new();
        let mut base = 0u64;
        for region in &regions {
            for p in 0..region.pages().min(4) {
                hot_pages.push(base + p);
            }
            base += region.pages();
        }
        CodeFetcher {
            regions,
            total_pages,
            jump_prob,
            current_page: 0,
            offset_in_page: 0,
            hot_pages,
        }
    }

    /// The next instruction fetch address.
    pub fn fetch(&mut self, rng: &mut StdRng) -> VirtAddr {
        if rng.gen_bool(self.jump_prob) {
            // 75% of jumps stay in the hot working set.
            self.current_page = if rng.gen_bool(0.75) {
                self.hot_pages[rng.gen_range(0..self.hot_pages.len())]
            } else {
                rng.gen_range(0..self.total_pages)
            };
            self.offset_in_page = rng.gen_range(0..64) * 64;
        } else {
            // Sequential fall-through within the page.
            self.offset_in_page = (self.offset_in_page + 64) % 4096;
            if self.offset_in_page == 0 {
                self.current_page = (self.current_page + 1) % self.total_pages;
            }
        }
        self.page_addr(self.current_page)
            .offset(self.offset_in_page)
    }

    /// Total code pages covered.
    pub fn pages(&self) -> u64 {
        self.total_pages
    }

    fn page_addr(&self, mut index: u64) -> VirtAddr {
        for region in &self.regions {
            if index < region.pages() {
                return region.page(index);
            }
            index -= region.pages();
        }
        unreachable!("page index within total_pages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn regions() -> Vec<Region> {
        vec![
            Region::new(VirtAddr::new(0x40_0000), 0x8_000),
            Region::new(VirtAddr::new(0x80_0000), 0x4_000),
        ]
    }

    #[test]
    fn fetches_stay_in_code_regions() {
        let mut fetcher = CodeFetcher::new(regions(), 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let va = fetcher.fetch(&mut rng).raw();
            let in_first = (0x40_0000..0x40_8000).contains(&va);
            let in_second = (0x80_0000..0x80_4000).contains(&va);
            assert!(in_first || in_second, "fetch at {va:#x} escaped");
        }
    }

    #[test]
    fn sequential_code_mostly_stays_on_page() {
        let mut fetcher = CodeFetcher::new(regions(), 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let first = fetcher.fetch(&mut rng);
        let second = fetcher.fetch(&mut rng);
        assert_eq!(second.raw() - first.raw(), 64, "line-sequential fetches");
    }

    #[test]
    fn high_jump_prob_spreads_pages() {
        let mut fetcher = CodeFetcher::new(regions(), 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..1_000 {
            pages.insert(fetcher.fetch(&mut rng).raw() >> 12);
        }
        assert!(pages.len() > 4, "jumps should visit many pages");
    }

    #[test]
    fn empty_regions_are_filtered() {
        let mut regions = regions();
        regions.push(Region::empty());
        let fetcher = CodeFetcher::new(regions, 0.1);
        assert_eq!(fetcher.pages(), 8 + 4);
    }

    #[test]
    #[should_panic(expected = "at least one code page")]
    fn no_pages_panics() {
        let _ = CodeFetcher::new(vec![Region::empty()], 0.1);
    }

    struct Scripted {
        ops: Vec<Op>,
        at: usize,
    }

    impl Workload for Scripted {
        fn next_op(&mut self) -> Op {
            let op = self.ops[self.at % self.ops.len()];
            self.at += 1;
            op
        }

        fn label(&self) -> &str {
            "scripted"
        }
    }

    fn access(page: u64) -> Op {
        Op::Access {
            va: VirtAddr::new(page << 12),
            kind: AccessKind::Read,
            instrs_before: page as u32,
        }
    }

    #[test]
    fn next_batch_fills_soa_columns_and_stops_at_end_op() {
        let mut w = Scripted {
            ops: vec![access(1), access(2), Op::RequestEnd, access(3)],
            at: 0,
        };
        let mut batch = AccessBatch::with_capacity(8);
        w.next_batch(&mut batch, 8);
        assert_eq!(batch.len(), 2, "generation stops at the RequestEnd");
        assert_eq!(batch.vas[1], VirtAddr::new(2 << 12));
        assert_eq!(batch.instrs, vec![1, 2]);
        assert_eq!(batch.end, Some(BatchEnd::RequestEnd));

        // Refill: the generator resumes after the consumed ops.
        w.next_batch(&mut batch, 1);
        assert_eq!(batch.len(), 1, "max caps the batch before any end op");
        assert_eq!(batch.vas[0], VirtAddr::new(3 << 12));
        assert_eq!(batch.end, None, "refill clears the buffered end op");
    }

    #[test]
    fn next_batch_buffers_done() {
        let mut w = Scripted {
            ops: vec![Op::Done],
            at: 0,
        };
        let mut batch = AccessBatch::with_capacity(4);
        w.next_batch(&mut batch, 4);
        assert!(batch.is_empty());
        assert_eq!(batch.end, Some(BatchEnd::Done));
    }
}
