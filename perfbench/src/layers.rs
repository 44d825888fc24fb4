//! Standalone timings of each simulator crate's public functions, fed
//! with the access stream a traced run captured. Each probe rebuilds its
//! structures before every repetition, so repetitions do identical work,
//! and reports host ns per call as the median over repetitions.

use crate::spans::Spans;
use crate::stats::Samples;
use babelfish::cache::{AccessOrigin, CacheHierarchy, PageWalkCache, ServedBy};
use babelfish::capture::{Record, TraceMeta, TraceReader, TraceWriter};
use babelfish::containers::Container;
use babelfish::mem::Dram;
use babelfish::os::{Kernel, MmapRequest, Segment};
use babelfish::tlb::{LookupResult, TlbAccess, TlbFill, TlbGroup};
use babelfish::types::{AccessKind, CoreId, PageFlags, PageTableLevel, PhysAddr, Pid};
use babelfish::workloads::{AccessBatch, Workload};
use babelfish::{Machine, Mode, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every probe.
pub const REPS: usize = 5;

/// Host ns per call of each layer's public functions (medians).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    pub workloads_op: f64,
    pub tlb_lookup: f64,
    pub walk: f64,
    pub cache_access: f64,
    pub pwc_probe: f64,
    pub dram_access: f64,
    pub minor_fault: f64,
    pub cow_fault: f64,
    pub exit: f64,
    pub capture_record: f64,
    pub capture_bytes_per_record: f64,
}

/// One captured access, resolved against the live kernel into what each
/// layer's functions take as input.
struct Resolved {
    core: usize,
    access: TlbAccess,
    fill: TlbFill,
    paddr: PhysAddr,
}

/// Resolves the stream's accesses against the (still live) processes of
/// `machine`, as `Machine::make_access` and `fill_from_walk` would.
fn resolve(machine: &Machine, stream: &[Record]) -> Vec<Resolved> {
    let kernel = machine.kernel();
    let mut out = Vec::with_capacity(stream.len());
    for record in stream {
        let Record::Access {
            core,
            pid,
            va,
            kind,
            ..
        } = *record
        else {
            continue;
        };
        if !kernel.alive(pid) {
            continue;
        }
        let walk = kernel.space(pid).walk(kernel.store(), va);
        let Some((entry, size)) = walk.leaf() else {
            continue;
        };
        let process = kernel.process(pid);
        let access = TlbAccess {
            va,
            pcid: process.pcid(),
            ccid: process.ccid(),
            pid,
            pc_bit: kernel.pc_bit(pid, va),
            kind,
        };
        let pmd_flags = walk
            .pmd_step()
            .map(|s| s.value.flags)
            .unwrap_or(PageFlags::empty());
        let owned = entry.flags.contains(PageFlags::OWNED) || pmd_flags.contains(PageFlags::OWNED);
        let orpc = !owned && pmd_flags.contains(PageFlags::ORPC);
        let fill = TlbFill {
            vpn: va.vpn(size),
            ppn: entry.ppn,
            size,
            flags: entry.flags,
            pcid: access.pcid,
            ccid: access.ccid,
            owned,
            orpc,
            pc_bitmask: if orpc {
                kernel.pc_bitmask(access.ccid, va)
            } else {
                0
            },
            loader: pid,
        };
        out.push(Resolved {
            core: core as usize,
            access,
            fill,
            paddr: entry.ppn.base_addr().offset(va.page_offset(size)),
        });
    }
    out
}

/// One entry a walk visits: its level, its address, and whether the
/// walker probes the page-walk cache for it (upper levels) or always
/// fetches it through the caches (the last level).
type WalkRef = (PageTableLevel, PhysAddr, bool);

/// Times `body` `REPS` times; each call returns the number of operations
/// it performed. `fresh` rebuilds the state before each repetition.
fn probe<S>(
    spans: &mut Spans,
    name: &'static str,
    mut fresh: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut samples = Samples::default();
    for _ in 0..REPS {
        let mut state = fresh();
        let start = Instant::now();
        let ops = spans.span(name, || body(&mut state));
        let ns = start.elapsed().as_nanos() as f64;
        if ops > 0 {
            samples.push(ns / ops as f64);
        }
    }
    samples.median()
}

/// Times every layer on `stream`, which `machine` has just executed.
/// The processes the stream touches must still be alive.
pub fn measure(
    machine: &Machine,
    stream: &[Record],
    generators: &mut dyn FnMut() -> Vec<Box<dyn Workload>>,
    spans: &mut Spans,
) -> LayerNs {
    let config: SimConfig = *machine.config();
    let kernel = machine.kernel();
    let resolved = resolve(machine, stream);
    let cores = config.cores;
    let mut ns = LayerNs::default();

    // --- tlb: L1, then L2 on a miss, then a fill on an L2 miss ---
    let mut l2_misses: Vec<usize> = Vec::new();
    let mut first = true;
    ns.tlb_lookup = probe(
        spans,
        "tlb.lookup",
        || {
            (0..cores)
                .map(|_| TlbGroup::new(config.mode.tlb_config()))
                .collect::<Vec<_>>()
        },
        |tlbs| {
            let mut lookups = 0;
            for (i, r) in resolved.iter().enumerate() {
                let tlb = &mut tlbs[r.core];
                lookups += 1;
                if !matches!(tlb.lookup_l1(&r.access).0, LookupResult::Miss { .. }) {
                    continue;
                }
                lookups += 1;
                match tlb.lookup_l2(&r.access).0 {
                    LookupResult::Hit(hit) => tlb.refill_l1_from_hit(&r.access, &hit),
                    LookupResult::CowFault(_) => {}
                    LookupResult::Miss { .. } => {
                        tlb.fill(r.access.kind, r.fill);
                        if first {
                            l2_misses.push(i);
                        }
                    }
                }
            }
            first = false;
            lookups
        },
    );
    if l2_misses.is_empty() {
        // A fully TLB-resident stream still reports a walk cost: walk
        // its first addresses.
        l2_misses = (0..resolved.len().min(4096)).collect();
    }

    // --- pgtable: the walks the L2 misses need ---
    ns.walk = probe(
        spans,
        "pgtable.walk",
        || (),
        |_| {
            for &i in &l2_misses {
                let r = &resolved[i];
                let walk = kernel.space(r.access.pid).walk(kernel.store(), r.access.va);
                black_box(walk.steps().len());
            }
            l2_misses.len() as u64
        },
    );

    // The walker's memory references, as `Machine::hardware_walk` makes
    // them: upper levels probe the PWC first, the last level always goes
    // to the caches.
    let walks: Vec<(usize, Vec<WalkRef>)> = l2_misses
        .iter()
        .map(|&i| {
            let r = &resolved[i];
            let walk = kernel.space(r.access.pid).walk(kernel.store(), r.access.va);
            let last = walk.steps().len().saturating_sub(1);
            let steps = walk
                .steps()
                .iter()
                .enumerate()
                .map(|(k, s)| (s.level, s.entry_addr, k != last))
                .collect();
            (i, steps)
        })
        .collect();

    // --- cache: the page-walk cache ---
    ns.pwc_probe = probe(
        spans,
        "cache.pwc_probe",
        || {
            (0..cores)
                .map(|_| PageWalkCache::new(config.pwc))
                .collect::<Vec<_>>()
        },
        |pwcs| {
            let mut probes = 0;
            for (i, steps) in &walks {
                let pwc = &mut pwcs[resolved[*i].core];
                for &(level, addr, _) in steps.iter().filter(|(_, _, upper)| *upper) {
                    probes += 1;
                    if !pwc.probe(level, addr) {
                        pwc.fill(level, addr);
                    }
                }
            }
            probes
        },
    );

    // --- cache: the hierarchy, data accesses and walker references ---
    let mut cache_refs: Vec<(usize, PhysAddr, AccessKind, AccessOrigin)> =
        Vec::with_capacity(resolved.len() + walks.len() * 4);
    let mut pending = walks.iter().peekable();
    for (i, r) in resolved.iter().enumerate() {
        if let Some((_, steps)) = pending.next_if(|(j, _)| *j == i) {
            for &(_, addr, _) in steps {
                cache_refs.push((r.core, addr, AccessKind::Read, AccessOrigin::PageWalker));
            }
        }
        cache_refs.push((r.core, r.paddr, r.access.kind, AccessOrigin::Core));
    }
    let mut dram_refs: Vec<PhysAddr> = Vec::new();
    let mut first = true;
    ns.cache_access = probe(
        spans,
        "cache.access",
        || CacheHierarchy::new(config.hierarchy),
        |hierarchy| {
            let mut now = 0;
            for &(core, addr, kind, origin) in &cache_refs {
                let (cycles, served) =
                    hierarchy.access_classified(CoreId::new(core), addr, kind, origin, now);
                now += cycles;
                if first && served == ServedBy::Dram {
                    dram_refs.push(addr);
                }
            }
            first = false;
            cache_refs.len() as u64
        },
    );

    // --- mem: the DRAM model behind the last-level misses ---
    ns.dram_access = probe(
        spans,
        "mem.dram_access",
        || Dram::new(config.hierarchy.dram),
        |dram| {
            let mut now = 0;
            for &addr in &dram_refs {
                now += dram.access(addr, now);
            }
            dram_refs.len() as u64
        },
    );

    // --- workloads: the generators, run standalone ---
    ns.workloads_op = probe(spans, "workloads.next_batch", &mut *generators, |gens| {
        let target = resolved.len().max(1 << 16) as u64 / gens.len().max(1) as u64;
        let mut batch = AccessBatch::with_capacity(256);
        let mut ops = 0;
        for generator in gens.iter_mut() {
            let mut produced = 0;
            while produced < target {
                generator.next_batch(&mut batch, 256);
                produced += batch.len() as u64 + batch.end.is_some() as u64;
                if batch.is_empty() && batch.end.is_none() {
                    break;
                }
                if matches!(batch.end, Some(babelfish::workloads::BatchEnd::Done)) {
                    break;
                }
            }
            ops += produced;
        }
        ops
    });

    // --- capture: decoding the stream's records ---
    let bytes = encode(&TraceMeta::new(), stream);
    ns.capture_bytes_per_record = bytes.len() as f64 / stream.len().max(1) as f64;
    ns.capture_record = decode_ns(&bytes, spans);

    let os = os_faults(config.mode, spans);
    ns.minor_fault = os.0;
    ns.cow_fault = os.1;
    ns.exit = os.2;
    ns
}

/// Host ns per record of decoding `trace` with `TraceReader`.
pub fn decode_ns(trace: &[u8], spans: &mut Spans) -> f64 {
    probe(
        spans,
        "capture.decode",
        || (),
        |_| {
            let reader = TraceReader::new(trace).expect("an in-memory trace");
            let mut records = 0;
            for record in reader {
                black_box(record.expect("an in-memory trace"));
                records += 1;
            }
            records
        },
    )
}

/// The stream as `.bft` bytes under the header `meta`.
pub fn encode(meta: &TraceMeta, stream: &[Record]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), meta).expect("writing to memory cannot fail");
    for record in stream {
        writer
            .record(record)
            .expect("writing to memory cannot fail");
    }
    writer.finish().expect("writing to memory cannot fail")
}

/// Pages each fault probe touches.
const OS_PAGES: u64 = 4096;

/// `Kernel::handle_fault` on a standalone process: write faults on fresh
/// anonymous pages (minor), then writes from a forked child (CoW), then
/// `Kernel::exit` of both. Returns host ns per minor fault, per CoW
/// fault and per exit.
fn os_faults(mode: Mode, spans: &mut Spans) -> (f64, f64, f64) {
    let mut minor = Samples::default();
    let mut cow = Samples::default();
    let mut exit = Samples::default();
    for _ in 0..REPS {
        let mut config = mode.kernel_config();
        config.thp = false;
        let mut kernel = Kernel::new(config);
        let group = kernel.create_group();
        let parent = kernel.spawn(group).expect("fresh kernel has ids");
        let perms = PageFlags::PRESENT | PageFlags::USER | PageFlags::WRITE;
        let base = kernel
            .mmap(
                parent,
                MmapRequest::anon(Segment::Heap, OS_PAGES * 4096, perms, false),
            )
            .expect("fresh kernel has memory");
        let touch = |kernel: &mut Kernel, pid: Pid| {
            for page in 0..OS_PAGES {
                let resolution = kernel
                    .handle_fault(pid, base.offset(page * 4096), true)
                    .expect("anonymous write faults resolve");
                black_box(resolution.cost);
            }
        };
        let start = Instant::now();
        spans.span("os.minor_fault", || touch(&mut kernel, parent));
        minor.push(start.elapsed().as_nanos() as f64 / OS_PAGES as f64);
        let (child, _, _) = kernel.fork(parent).expect("fork of a live process");
        let start = Instant::now();
        spans.span("os.cow_fault", || touch(&mut kernel, child));
        cow.push(start.elapsed().as_nanos() as f64 / OS_PAGES as f64);
        let start = Instant::now();
        spans.span("os.exit", || {
            black_box(kernel.exit(child));
            black_box(kernel.exit(parent));
        });
        exit.push(start.elapsed().as_nanos() as f64 / 2.0);
    }
    (minor.median(), cow.median(), exit.median())
}

/// Generators for the probe: fresh copies of the containers' own.
pub fn serving_generators(containers: &[Container], seed: u64) -> Vec<Box<dyn Workload>> {
    containers
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Box::new(babelfish::workloads::DataServing::new(
                babelfish::workloads::ServingVariant::MongoDb,
                c.layout().clone(),
                seed + i as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}

/// Generators for the probe: fresh copies of the round's functions.
pub fn function_generators(containers: &[Container], seed: u64) -> Vec<Box<dyn Workload>> {
    containers
        .iter()
        .zip(babelfish::workloads::FunctionKind::ALL)
        .enumerate()
        .map(|(i, (c, kind))| {
            Box::new(babelfish::workloads::FunctionWorkload::new(
                kind,
                crate::setup::DENSITY,
                c.layout().clone(),
                seed + i as u64,
            )) as Box<dyn Workload>
        })
        .collect()
}
