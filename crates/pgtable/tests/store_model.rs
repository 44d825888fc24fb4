//! Reference-model test of the table arena: random alloc / share /
//! release / write / clone sequences on a [`TableStore`] must agree with
//! a plain `HashMap` model of every table's entries and sharer count.

use bf_pgtable::{EntryValue, TableStore};
use bf_types::{Ppn, TABLE_ENTRIES};
use proptest::prelude::*;
use std::collections::HashMap;

/// Frames in the pool: small, so allocation sometimes fails and freed
/// frames come back as tables often.
const FRAMES: u64 = 24;

/// One live table of the model.
#[derive(Clone)]
struct ModelTable {
    entries: HashMap<usize, EntryValue>,
    sharers: u16,
}

impl ModelTable {
    fn fresh() -> Self {
        ModelTable {
            entries: HashMap::new(),
            sharers: 1,
        }
    }

    fn read(&self, index: usize) -> EntryValue {
        self.entries.get(&index).copied().unwrap_or_default()
    }
}

/// The live table picked by `pick`, in frame order so a case replays
/// the same way every run.
fn pick_live(model: &HashMap<Ppn, ModelTable>, pick: usize) -> Option<Ppn> {
    let mut live: Vec<Ppn> = model.keys().copied().collect();
    live.sort();
    (!live.is_empty()).then(|| live[pick % live.len()])
}

fn assert_all_zero(store: &TableStore, table: Ppn) {
    for index in 0..TABLE_ENTRIES {
        assert_eq!(
            store.read(table, index),
            EntryValue::empty(),
            "{table}[{index}] of a fresh table"
        );
    }
}

proptest! {
    #[test]
    fn table_store_matches_reference_model(
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0usize..TABLE_ENTRIES, 0u64..(1 << 40)), 1..160)
    ) {
        let mut store = TableStore::new(FRAMES);
        let mut model: HashMap<Ppn, ModelTable> = HashMap::new();
        for (op, pick, index, raw) in ops {
            match op {
                // Allocate a table; a recycled frame must read as zeros.
                0 => {
                    if let Some(table) = store.alloc_table() {
                        prop_assert!(!model.contains_key(&table), "{table} handed out twice");
                        assert_all_zero(&store, table);
                        model.insert(table, ModelTable::fresh());
                    }
                }
                // Another process points at a live table.
                1 => {
                    if let Some(table) = pick_live(&model, pick) {
                        store.share_table(table);
                        model.get_mut(&table).unwrap().sharers += 1;
                    }
                }
                // One sharer lets go; the last one frees the table.
                2 => {
                    if let Some(table) = pick_live(&model, pick) {
                        let entry = model.get_mut(&table).unwrap();
                        entry.sharers -= 1;
                        let last = entry.sharers == 0;
                        if last {
                            model.remove(&table);
                        }
                        prop_assert_eq!(store.release_table(table), last);
                    }
                }
                // Write one entry of a live table.
                3 => {
                    if let Some(table) = pick_live(&model, pick) {
                        let value = EntryValue::decode(raw);
                        store.write(table, index, value);
                        model.get_mut(&table).unwrap().entries.insert(index, value);
                    }
                }
                // Clone a live table into a fresh one.
                4 => {
                    if let Some(src) = pick_live(&model, pick) {
                        if let Some(dst) = store.clone_table(src) {
                            prop_assert!(!model.contains_key(&dst), "{dst} handed out twice");
                            let mut copy = model[&src].clone();
                            copy.sharers = 1;
                            model.insert(dst, copy);
                        }
                    }
                }
                // A data frame never becomes a table and reads as empty.
                5 => {
                    if let Some(frame) = store.frames.alloc() {
                        prop_assert_eq!(store.sharers(frame), 0);
                        prop_assert_eq!(store.read(frame, index), EntryValue::empty());
                    }
                }
                // Read any frame number, live table or not.
                _ => {
                    let frame = Ppn::new(pick as u64 % (FRAMES + 4));
                    let expected = model.get(&frame).map_or(EntryValue::empty(), |t| t.read(index));
                    prop_assert_eq!(store.read(frame, index), expected);
                    prop_assert_eq!(store.sharers(frame), model.get(&frame).map_or(0, |t| t.sharers));
                }
            }
            let shared_refs: u64 = model
                .values()
                .filter(|t| t.sharers > 1)
                .map(|t| t.sharers as u64)
                .sum();
            prop_assert_eq!(store.shared_refs(), shared_refs);
            prop_assert_eq!(store.populated_pages(), model.len());
            prop_assert_eq!(store.counter_bytes(), model.len() as u64 * 2);
            prop_assert_eq!(store.stats().live_tables, model.len() as u64);
        }
        for (&table, expected) in &model {
            prop_assert_eq!(store.sharers(table), expected.sharers);
            for index in 0..TABLE_ENTRIES {
                prop_assert_eq!(store.read(table, index), expected.read(index));
            }
        }
    }
}

#[test]
fn released_then_reallocated_frame_reads_zero() {
    let mut store = TableStore::new(FRAMES);
    let table = store.alloc_table().unwrap();
    for index in 0..TABLE_ENTRIES {
        store.write(
            table,
            index,
            EntryValue::decode((index as u64 + 1) << 12 | 1),
        );
    }
    assert!(store.release_table(table));
    assert_eq!(store.read(table, 7), EntryValue::empty(), "freed frame");
    let again = store.alloc_table().unwrap();
    assert_eq!(again, table, "the freed frame is recycled first");
    assert_all_zero(&store, again);
    let clone = store.clone_table(again).unwrap();
    assert_all_zero(&store, clone);
}
