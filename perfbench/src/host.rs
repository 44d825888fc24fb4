//! Host-side measurements: heap allocation counts, peak RSS and CPU
//! steal time. None of these is ever used to discard a run; they are
//! reported beside the timings so a contended run shows as contended.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and its size. The
/// counters are statistics that publish no other data, so `Relaxed`
/// suffices.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed
        // through; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations and bytes requested since the process started.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn now() -> Allocs {
        Allocs {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations made since `self` was taken.
    pub fn since(self) -> Allocs {
        let now = Allocs::now();
        Allocs {
            count: now.count - self.count,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// `VmHWM` of this process in MB (1 MB = 2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative steal time of all CPUs in ms, from the `cpu` line of
/// `/proc/stat` (the eighth value, in USER_HZ = 100 ticks per second).
pub fn steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 10.0)
}

/// The host CPUs this process may run on. Samples are spread across
/// them in turn: on a shared host one CPU can run far slower than
/// another for minutes (a busy hyperthread sibling), and a run that
/// happened to stay on it would read as a regression.
#[derive(Debug, Default)]
pub struct Cpus(Vec<usize>);

#[cfg(target_os = "linux")]
mod affinity {
    /// Bytes of the CPU masks passed to the kernel (1024 CPUs).
    pub const MASK_WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

impl Cpus {
    #[cfg(target_os = "linux")]
    pub fn allowed() -> Cpus {
        let mut mask = [0u64; affinity::MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe {
            affinity::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
        };
        if rc != 0 {
            return Cpus(Vec::new());
        }
        Cpus(
            (0..affinity::MASK_WORDS * 64)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect(),
        )
    }

    #[cfg(not(target_os = "linux"))]
    pub fn allowed() -> Cpus {
        Cpus(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len().max(1)
    }

    /// Moves the calling thread onto the `turn`-th allowed CPU (round
    /// robin) and returns its slot; a failure leaves the thread where it
    /// was.
    pub fn pin(&self, turn: usize) -> usize {
        if self.0.len() < 2 {
            return 0;
        }
        let slot = turn % self.0.len();
        self.set(&[self.0[slot]]);
        slot
    }

    #[cfg(target_os = "linux")]
    fn set(&self, cpus: &[usize]) {
        let mut mask = [0u64; affinity::MASK_WORDS];
        for &cpu in cpus {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed, and
        // pid 0 names the calling thread; the call only reads it.
        unsafe {
            affinity::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn set(&self, _cpus: &[usize]) {}
}
