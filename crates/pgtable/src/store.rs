//! The table store: the frame pool, the table arena holding every table
//! page's contents, and the per-table sharer counters of Section IV-B.

use crate::entry::EntryValue;
use crate::telemetry::PgtableTelemetry;
use bf_mem::FrameAllocator;
use bf_telemetry::Registry;
use bf_types::{Ppn, TABLE_ENTRIES};

/// Counters exposed by [`TableStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TableStoreStats {
    /// Table pages currently allocated.
    pub live_tables: u64,
    /// Table pages allocated over the run.
    pub tables_allocated: u64,
    /// Table pages freed when their last sharer released them.
    pub tables_freed: u64,
    /// High-water mark of live table pages.
    pub peak_tables: u64,
}

/// `TableStore::slot_of` value of a frame that holds no table page.
const VACANT: u32 = u32::MAX;

/// One arena slot: a table page's 512 entries and its sharer counter.
#[derive(Debug)]
struct TablePage {
    entries: Box<[u64; TABLE_ENTRIES]>,
    /// Processes (plus kernel registry references) pointing at the
    /// table; 0 while the slot sits on the free list.
    sharers: u16,
}

/// Owns everything the page-table layer needs: the frame pool, the
/// contents of every table page, and one 16-bit sharer counter per
/// table page.
///
/// Table pages must hold real entries because the hardware walker reads
/// them back: when BabelFish points two processes' PMD entries at the
/// same PTE table, the walker reads the *same physical words* for both,
/// and the cache model sees the same lines (Fig. 6/7). Ordinary data
/// pages never materialise here — only their timing matters.
///
/// The contents live in a dense arena: `slot_of` maps a frame number to
/// a slot of `pages` with one array index, so a walk step costs no
/// hashing. `slot_of` grows only to the highest table frame, and freed
/// slots are recycled through a free list (zeroed on reuse, so a freed
/// frame reads as zeros when it comes back as a table). Frames that hold
/// no table read as zero.
///
/// The counters implement Section IV-B: "BabelFish adds counters to record
/// the number of processes currently sharing pages... When the last sharer
/// of the table terminates or removes its pointer to the table, the
/// counter reaches zero, and the OS can unmap the table." They also feed
/// the 0.048 % space-overhead figure of Section VII-D (16 bits per 512
/// `pte_t`s).
///
/// # Examples
///
/// ```
/// use bf_pgtable::TableStore;
///
/// let mut store = TableStore::new(4096);
/// let table = store.alloc_table().unwrap();
/// store.share_table(table);               // second process points at it
/// assert_eq!(store.sharers(table), 2);
/// assert!(!store.release_table(table));   // first unmap: still live
/// assert!(store.release_table(table));    // last sharer: freed
/// ```
#[derive(Debug)]
pub struct TableStore {
    /// The physical frame pool.
    pub frames: FrameAllocator,
    /// Arena slot of each frame's table page, [`VACANT`] if none.
    slot_of: Vec<u32>,
    pages: Vec<TablePage>,
    free_slots: Vec<u32>,
    stats: TableStoreStats,
    telem: PgtableTelemetry,
}

impl TableStore {
    /// Creates a store over `frame_capacity` 4 KB frames.
    pub fn new(frame_capacity: u64) -> Self {
        TableStore {
            frames: FrameAllocator::new(frame_capacity),
            slot_of: Vec::new(),
            pages: Vec::new(),
            free_slots: Vec::new(),
            stats: TableStoreStats::default(),
            telem: PgtableTelemetry::default(),
        }
    }

    /// Routes this store's `pgtable.*` handles into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem = PgtableTelemetry::attach(registry);
    }

    /// The store's recording handles (used by [`crate::AddressSpace::walk`],
    /// which only sees `&TableStore`).
    pub fn telemetry(&self) -> &PgtableTelemetry {
        &self.telem
    }

    /// The arena slot holding `table`'s page, if `table` is a live table.
    fn slot(&self, table: Ppn) -> Option<usize> {
        match self.slot_of.get(table.raw() as usize) {
            Some(&slot) if slot != VACANT => Some(slot as usize),
            _ => None,
        }
    }

    /// The live table page at `table`, or a panic naming `op`.
    #[track_caller]
    fn page_mut(&mut self, table: Ppn, op: &str) -> &mut TablePage {
        match self.slot(table) {
            Some(slot) => &mut self.pages[slot],
            None => panic!("{op} on unknown table {table}"),
        }
    }

    /// Allocates a zeroed table page with one sharer.
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn alloc_table(&mut self) -> Option<Ppn> {
        let frame = self.frames.alloc()?;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let page = &mut self.pages[slot as usize];
                *page.entries = [0; TABLE_ENTRIES];
                page.sharers = 1;
                slot
            }
            None => {
                self.pages.push(TablePage {
                    entries: Box::new([0; TABLE_ENTRIES]),
                    sharers: 1,
                });
                u32::try_from(self.pages.len() - 1).expect("table arena exceeds 2^32 pages")
            }
        };
        let index = frame.raw() as usize;
        if index >= self.slot_of.len() {
            self.slot_of.resize(index + 1, VACANT);
        }
        self.slot_of[index] = slot;
        self.stats.tables_allocated += 1;
        self.telem.tables_allocated.incr();
        self.stats.live_tables += 1;
        self.stats.peak_tables = self.stats.peak_tables.max(self.stats.live_tables);
        Some(frame)
    }

    /// Registers another sharer of `table` (a new process pointing its
    /// directory entry at it, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a live table, or if the 16-bit counter
    /// would overflow.
    pub fn share_table(&mut self, table: Ppn) {
        let page = self.page_mut(table, "share_table");
        page.sharers = page
            .sharers
            .checked_add(1)
            .expect("table sharer counter overflow (16-bit, Section IV-B)");
    }

    /// Removes one sharer; frees the table page (and its contents) when
    /// the counter reaches zero. Returns `true` if freed.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a live table.
    pub fn release_table(&mut self, table: Ppn) -> bool {
        let page = self.page_mut(table, "release_table");
        page.sharers -= 1;
        if page.sharers > 0 {
            return false;
        }
        let index = table.raw() as usize;
        self.free_slots.push(self.slot_of[index]);
        self.slot_of[index] = VACANT;
        self.frames.dec_ref(table);
        self.stats.tables_freed += 1;
        self.telem.tables_freed.incr();
        self.stats.live_tables -= 1;
        true
    }

    /// Current sharer count of a table (0 if unknown/freed).
    pub fn sharers(&self, table: Ppn) -> u16 {
        self.slot(table).map_or(0, |slot| self.pages[slot].sharers)
    }

    /// Whether `table` is currently shared by more than one process.
    pub fn is_shared(&self, table: Ppn) -> bool {
        self.sharers(table) > 1
    }

    /// Total references held on tables that are actually shared
    /// (sharer count > 1) — the machine samples this into the
    /// `pgtable.shared_refs` counter track.
    pub fn shared_refs(&self) -> u64 {
        self.pages
            .iter()
            .filter(|page| page.sharers > 1)
            .map(|page| page.sharers as u64)
            .sum()
    }

    /// Reads the decoded entry at `index` of `table`. Frames that hold
    /// no table read as empty entries.
    ///
    /// # Panics
    ///
    /// Panics if `index` ≥ 512.
    pub fn read(&self, table: Ppn, index: usize) -> EntryValue {
        assert!(index < TABLE_ENTRIES, "entry index {index} out of range");
        let word = self
            .slot(table)
            .map_or(0, |slot| self.pages[slot].entries[index]);
        EntryValue::decode(word)
    }

    /// Writes the entry at `index` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a live table or `index` ≥ 512.
    pub fn write(&mut self, table: Ppn, index: usize, value: EntryValue) {
        self.page_mut(table, "write").entries[index] = value.encode();
    }

    /// Clones the 512 entries of `src` into a freshly allocated table —
    /// the bulk copy of the BabelFish CoW protocol (Section III-A).
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn clone_table(&mut self, src: Ppn) -> Option<Ppn> {
        let dst = self.alloc_table()?;
        if let Some(src_slot) = self.slot(src) {
            let words = *self.pages[src_slot].entries;
            *self.page_mut(dst, "clone_table").entries = words;
        }
        Some(dst)
    }

    /// Table accounting counters.
    pub fn stats(&self) -> TableStoreStats {
        self.stats
    }

    /// Number of table pages whose contents the arena currently holds
    /// (one per live table).
    pub fn populated_pages(&self) -> usize {
        self.pages.len() - self.free_slots.len()
    }

    /// Bytes of sharer-counter metadata currently held (2 bytes per live
    /// table), for the Section VII-D space accounting.
    pub fn counter_bytes(&self) -> u64 {
        self.populated_pages() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_types::PageFlags;

    #[test]
    fn alloc_starts_with_one_sharer() {
        let mut store = TableStore::new(64);
        let table = store.alloc_table().unwrap();
        assert_eq!(store.sharers(table), 1);
        assert!(!store.is_shared(table));
    }

    #[test]
    fn share_release_lifecycle() {
        let mut store = TableStore::new(64);
        let table = store.alloc_table().unwrap();
        store.share_table(table);
        store.share_table(table);
        assert_eq!(store.sharers(table), 3);
        assert!(store.is_shared(table));
        assert!(!store.release_table(table));
        assert!(!store.release_table(table));
        assert!(store.release_table(table));
        assert_eq!(store.sharers(table), 0);
    }

    #[test]
    fn freed_table_frame_is_recycled() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        store.write(table, 0, EntryValue::new(Ppn::new(9), PageFlags::PRESENT));
        store.release_table(table);
        let again = store.alloc_table().unwrap();
        assert_eq!(again, table, "frame should be recycled");
        assert!(
            !store.read(again, 0).is_present(),
            "contents must be zeroed"
        );
    }

    #[test]
    fn frames_without_a_table_read_as_empty() {
        let mut store = TableStore::new(8);
        assert!(!store.read(Ppn::new(5), 100).is_present());
        let data = store.frames.alloc().unwrap();
        assert_eq!(store.read(data, 0).encode(), 0);
        assert_eq!(store.populated_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_index_bounds_checked() {
        let store = TableStore::new(8);
        store.read(Ppn::new(1), 512);
    }

    #[test]
    #[should_panic(expected = "write on unknown table")]
    fn writing_a_non_table_frame_panics() {
        let mut store = TableStore::new(8);
        let data = store.frames.alloc().unwrap();
        store.write(data, 0, EntryValue::new(Ppn::new(3), PageFlags::PRESENT));
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn sharing_freed_table_panics() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        store.release_table(table);
        store.share_table(table);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        let value = EntryValue::new(Ppn::new(77), PageFlags::PRESENT | PageFlags::OWNED);
        store.write(table, 13, value);
        assert_eq!(store.read(table, 13), value);
    }

    #[test]
    fn clone_table_copies_and_detaches() {
        let mut store = TableStore::new(16);
        let src = store.alloc_table().unwrap();
        store.write(src, 5, EntryValue::new(Ppn::new(50), PageFlags::PRESENT));
        let dst = store.clone_table(src).unwrap();
        assert_eq!(store.read(dst, 5).ppn, Ppn::new(50));
        store.write(dst, 5, EntryValue::empty());
        assert!(store.read(src, 5).is_present(), "source unaffected");
        assert_eq!(store.sharers(dst), 1);
    }

    #[test]
    fn stats_track_peak_and_frees() {
        let mut store = TableStore::new(16);
        let a = store.alloc_table().unwrap();
        let _b = store.alloc_table().unwrap();
        store.release_table(a);
        let stats = store.stats();
        assert_eq!(stats.tables_allocated, 2);
        assert_eq!(stats.tables_freed, 1);
        assert_eq!(stats.live_tables, 1);
        assert_eq!(stats.peak_tables, 2);
        assert_eq!(store.counter_bytes(), 2);
    }
}
