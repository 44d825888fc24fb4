//! `AddressSpace::walk` runs once per TLB miss, so it must never touch
//! the heap. A counting global allocator checks that for full 4-level
//! walks, walks ending at a huge leaf, and walks stopping at a
//! non-present entry, with the store's telemetry attached as in a
//! simulation.

use bf_pgtable::{AddressSpace, TableStore};
use bf_telemetry::Registry;
use bf_types::{Ccid, PageFlags, PageSize, Pcid, Pid, VirtAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations made on the
/// current thread (the test harness allocates on its own threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn walks_never_allocate() {
    let registry = Registry::new();
    let mut store = TableStore::new(1 << 16);
    store.attach_telemetry(&registry);
    let mut space = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(0));
    let flags = PageFlags::PRESENT | PageFlags::USER;

    let small = VirtAddr::new(0x7f12_3456_7000);
    let frame = store.frames.alloc().unwrap();
    space
        .map(&mut store, small, frame, PageSize::Size4K, flags)
        .unwrap();
    let huge = VirtAddr::new(0x4000_0000);
    let run = store.frames.alloc_contiguous(512, 512).unwrap();
    space
        .map(&mut store, huge, run, PageSize::Size2M, flags)
        .unwrap();
    // Shares the huge mapping's PUD table; its PUD entry is empty.
    let unmapped = VirtAddr::new(0x1000);

    let cases = [
        (small, 4, true),
        (huge.offset(0x1234), 3, true),
        (unmapped, 2, false),
    ];
    for (va, depth, mapped) in cases {
        let mut walk = None;
        let allocs = allocations_during(|| walk = Some(space.walk(&store, va)));
        let walk = walk.unwrap();
        assert_eq!(walk.steps().len(), depth, "{va}");
        assert_eq!(walk.leaf().is_some(), mapped, "{va}");
        assert_eq!(allocs, 0, "walk of {va} allocated {allocs} times");
    }
}
