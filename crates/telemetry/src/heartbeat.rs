//! Live-run heartbeat: an NDJSON event stream for watching a sweep
//! while it runs (`bf_top`) and for machine consumption in CI.
//!
//! ## Event stream
//!
//! When armed (`--heartbeat[=FILE]` / `BF_HEARTBEAT`), the process
//! appends one compact JSON object per line to the heartbeat file:
//!
//! | `event`       | emitted                                             |
//! |---------------|-----------------------------------------------------|
//! | `run_start`   | once at arm time, carries the full run manifest     |
//! | `sweep_start` | per [`sweep_started`], carries the cell-name list   |
//! | `cell_start`  | per sweep cell, as it begins                        |
//! | `progress`    | every `heartbeat_every` accesses inside a cell      |
//! | `faults`      | per cell with non-zero `fault.*` counters           |
//! | `violation`   | per invariant violation recorded in a timeline      |
//! | `cell_finish` | per sweep cell, with counter totals + derived MPKI  |
//! | `results`     | per results document written                        |
//! | `run_end`     | once, when the run finishes                         |
//!
//! ## Determinism contract
//!
//! The stream is **deterministic modulo volatile fields** at any
//! `--threads`: parallel sweep cells buffer their events in a per-cell
//! reorder queue and the hub releases them in submission order, and
//! in-cell `progress` boundaries are counted in simulated accesses, like
//! epoch timelines, so they land on exactly the same access in a live
//! run and its replay. The only
//! fields that may differ between two runs of the same configuration
//! are the wall-clock ones — top-level `ts`, `eta_s`, `wall_s`, and the
//! manifest's `volatile` sub-object — which [`strip_volatile_line`]
//! removes for byte comparison.

use crate::snapshot::Snapshot;
use crate::timeline::TimelineSnapshot;
use serde::Value;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Heartbeat schema version, stamped into `run_start`.
pub const SCHEMA_VERSION: u64 = 1;

/// Top-level event keys that carry wall-clock state and are excluded
/// from the determinism contract (see [`strip_volatile_line`]).
pub const VOLATILE_KEYS: &[&str] = &["ts", "eta_s", "wall_s"];

static ARMED: AtomicBool = AtomicBool::new(false);
static HUB: Mutex<Option<Hub>> = Mutex::new(None);

thread_local! {
    /// The sweep-cell index the current thread is executing, if any.
    /// Set by [`cell_started`], cleared by [`cell_finished`] /
    /// [`cell_failed`]; machine-level [`progress`] events read it to
    /// tag and reorder themselves without threading a handle through
    /// the simulator.
    static CURRENT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Per-cell reorder slot: events for cells ahead of the submission
/// cursor buffer here until every earlier cell has finished.
#[derive(Default)]
struct CellSlot {
    name: String,
    buffered: Vec<String>,
    done: bool,
    started: Option<Instant>,
    /// Expected total `sim.instructions` for the cell (a progress hint
    /// from the experiment layer; deterministic, derived from config).
    target: Option<u64>,
    /// Stashed by [`cell_report`], merged into `cell_finish`.
    instructions: u64,
    l2_misses: u64,
    violations: u64,
}

struct Hub {
    out: File,
    every: u64,
    started: Instant,
    sweep_seq: u64,
    pending_names: Vec<String>,
    cells: Vec<CellSlot>,
    /// Submission-order cursor: the lowest cell index that has not
    /// finished. Its events write through live; later cells buffer.
    next_flush: usize,
    cells_finished: u64,
    /// Progress-target hint for cell-less runs (e.g. `bf_replay`).
    default_target: Option<u64>,
    ended: bool,
}

impl Hub {
    fn write_line(&mut self, line: &str) {
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.write_all(b"\n");
    }

    /// Routes one event line: cell-less events and events for the
    /// cursor cell write through; events for later cells buffer.
    fn emit(&mut self, idx: Option<usize>, line: String) {
        match idx {
            Some(i) if i < self.cells.len() && i != self.next_flush => {
                self.cells[i].buffered.push(line);
            }
            _ => self.write_line(&line),
        }
    }

    /// Flushes buffered events in submission order after a cursor-cell
    /// finish: drains each subsequent cell's buffer, stopping at the
    /// first cell that is still running (it writes through from here).
    fn advance(&mut self) {
        while self.next_flush < self.cells.len() {
            let buffered = std::mem::take(&mut self.cells[self.next_flush].buffered);
            for line in buffered {
                self.write_line(&line);
            }
            if self.cells[self.next_flush].done {
                self.next_flush += 1;
            } else {
                break;
            }
        }
        let _ = self.out.flush();
    }
}

/// Unix wall-clock in milliseconds — volatile by contract.
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn event_line(kind: &str, mut pairs: Vec<(&str, Value)>) -> String {
    pairs.push(("event", Value::String(kind.to_owned())));
    pairs.push(("ts", Value::U64(now_ms())));
    serde_json::to_string(&object(pairs)).unwrap_or_default()
}

/// Derived L2 TLB misses per kilo-instruction; `Null` when no
/// instructions retired (avoids a NaN in the stream).
fn mpki(l2_misses: u64, instructions: u64) -> Value {
    if instructions == 0 {
        Value::Null
    } else {
        Value::F64(1000.0 * l2_misses as f64 / instructions as f64)
    }
}

/// Arms the heartbeat: opens (truncates) `path` and writes the
/// `run_start` event carrying `manifest`. `every` is the in-cell
/// progress interval in accesses (0 disables progress events but keeps
/// the cell lifecycle stream). Re-arming resets all hub state, so tests
/// can run several heartbeat sessions in one process.
pub fn arm(path: &Path, manifest: Value, every: u64) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let out = File::create(path)?;
    let mut hub = Hub {
        out,
        every,
        started: Instant::now(),
        sweep_seq: 0,
        pending_names: Vec::new(),
        cells: Vec::new(),
        next_flush: 0,
        cells_finished: 0,
        default_target: None,
        ended: false,
    };
    let line = event_line(
        "run_start",
        vec![
            ("schema", Value::U64(SCHEMA_VERSION)),
            ("every", Value::U64(every)),
            ("manifest", manifest),
        ],
    );
    hub.write_line(&line);
    let _ = hub.out.flush();
    *HUB.lock().unwrap_or_else(|e| e.into_inner()) = Some(hub);
    ARMED.store(true, Ordering::Release);
    CURRENT.with(|c| c.set(None));
    Ok(())
}

/// Whether a heartbeat file is armed for this process. One relaxed
/// atomic load — callers on warm paths check this before doing any
/// event-building work.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// The armed in-cell progress interval in accesses (0 when unarmed or
/// progress events are disabled).
pub fn interval() -> u64 {
    if !armed() {
        return 0;
    }
    HUB.lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0, |h| h.every)
}

fn with_hub(f: impl FnOnce(&mut Hub)) {
    if !armed() {
        return;
    }
    let mut guard = HUB.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hub) = guard.as_mut() {
        f(hub);
    }
}

/// Registers display names for the cells of the *next* sweep, in
/// submission order. Optional: unnamed cells render as `cell-N`.
pub fn name_cells(names: &[String]) {
    with_hub(|hub| hub.pending_names = names.to_vec());
}

/// Starts a new sweep of `cells` cells. Called by the sweep runner
/// before any cell executes; resets the reorder cursor (any previous
/// sweep has fully drained by the time its `run` returned).
pub fn sweep_started(cells: usize) {
    with_hub(|hub| {
        let names = std::mem::take(&mut hub.pending_names);
        hub.cells = (0..cells)
            .map(|i| CellSlot {
                name: names.get(i).cloned().unwrap_or_else(|| format!("cell-{i}")),
                ..CellSlot::default()
            })
            .collect();
        hub.next_flush = 0;
        hub.sweep_seq += 1;
        let seq = hub.sweep_seq;
        let list = Value::Array(
            hub.cells
                .iter()
                .map(|c| Value::String(c.name.clone()))
                .collect(),
        );
        let line = event_line(
            "sweep_start",
            vec![("sweep", Value::U64(seq)), ("cells", list)],
        );
        hub.write_line(&line);
        let _ = hub.out.flush();
    });
}

/// Marks sweep cell `index` as started on the calling thread.
pub fn cell_started(index: usize) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| c.set(Some(index)));
    with_hub(|hub| {
        if index >= hub.cells.len() {
            return;
        }
        hub.cells[index].started = Some(Instant::now());
        let seq = hub.sweep_seq;
        let name = hub.cells[index].name.clone();
        let line = event_line(
            "cell_start",
            vec![
                ("sweep", Value::U64(seq)),
                ("cell", Value::String(name)),
                ("index", Value::U64(index as u64)),
            ],
        );
        hub.emit(Some(index), line);
    });
}

/// Progress-target hint for the current cell: the expected total
/// `sim.instructions` the cell will retire. Deterministic (derived from
/// the experiment config); enables `frac` on progress events and ETA in
/// `bf_top`.
pub fn cell_target(total_instructions: u64) {
    if !armed() || total_instructions == 0 {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    with_hub(|hub| match idx {
        Some(i) if i < hub.cells.len() => hub.cells[i].target = Some(total_instructions),
        _ => hub.default_target = Some(total_instructions),
    });
}

/// In-cell progress snapshot, emitted by the machine every
/// `heartbeat_every` accesses. `accesses`/`instructions`/`l2_misses`
/// are cumulative over the machine's life, so the derived fields are
/// deterministic; `eta_s` is wall-clock extrapolation and volatile.
pub fn progress(accesses: u64, instructions: u64, l2_misses: u64) {
    if !armed() {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    with_hub(|hub| {
        let (cell, target, started) = match idx {
            Some(i) if i < hub.cells.len() => {
                let slot = &hub.cells[i];
                (Value::String(slot.name.clone()), slot.target, slot.started)
            }
            _ => (Value::Null, hub.default_target, Some(hub.started)),
        };
        let mut pairs = vec![
            ("sweep", Value::U64(hub.sweep_seq)),
            ("cell", cell),
            ("accesses", Value::U64(accesses)),
            ("instructions", Value::U64(instructions)),
            ("l2_misses", Value::U64(l2_misses)),
            ("l2_mpki", mpki(l2_misses, instructions)),
        ];
        if let Some(target) = target {
            let frac = (instructions as f64 / target as f64).min(1.0);
            pairs.push(("frac", Value::F64(frac)));
            if let (Some(started), true) = (started, frac > 0.0) {
                let elapsed = started.elapsed().as_secs_f64();
                let eta = (elapsed * (1.0 - frac) / frac).max(0.0);
                pairs.push(("eta_s", Value::F64((eta * 1000.0).round() / 1000.0)));
            }
        }
        let line = event_line("progress", pairs);
        hub.emit(idx.filter(|&i| i < hub.cells.len()), line);
    });
}

/// Reports a finished cell's measurement-window telemetry: emits a
/// `faults` event when any `fault.*` counter is non-zero, one
/// `violation` event per recorded invariant violation, and stashes the
/// counters that `cell_finish` summarises.
pub fn cell_report(telemetry: &Snapshot, timeline: Option<&TimelineSnapshot>) {
    if !armed() {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    let faults: Vec<(String, u64)> = telemetry
        .counters
        .iter()
        .filter(|(name, value)| name.starts_with("fault.") && **value > 0)
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    let violations: Vec<(String, String, u64)> = timeline
        .map(|t| {
            t.violations
                .iter()
                .map(|v| (v.invariant.clone(), v.detail.clone(), v.epoch))
                .collect()
        })
        .unwrap_or_default();
    let instructions = telemetry.counter("sim.instructions");
    let l2_misses = telemetry.counter("tlb.l2.misses");
    with_hub(|hub| {
        let slot_idx = idx.filter(|&i| i < hub.cells.len());
        let cell_name = match slot_idx {
            Some(i) => Value::String(hub.cells[i].name.clone()),
            None => Value::Null,
        };
        if !faults.is_empty() {
            let counters = Value::Object(
                faults
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::U64(*v)))
                    .collect::<BTreeMap<_, _>>(),
            );
            let line = event_line(
                "faults",
                vec![
                    ("sweep", Value::U64(hub.sweep_seq)),
                    ("cell", cell_name.clone()),
                    ("counters", counters),
                ],
            );
            hub.emit(slot_idx, line);
        }
        for (invariant, detail, epoch) in &violations {
            let line = event_line(
                "violation",
                vec![
                    ("sweep", Value::U64(hub.sweep_seq)),
                    ("cell", cell_name.clone()),
                    ("invariant", Value::String(invariant.clone())),
                    ("detail", Value::String(detail.clone())),
                    ("epoch", Value::U64(*epoch)),
                ],
            );
            hub.emit(slot_idx, line);
        }
        if let Some(i) = slot_idx {
            let slot = &mut hub.cells[i];
            slot.instructions = instructions;
            slot.l2_misses = l2_misses;
            slot.violations = violations.len() as u64;
        }
    });
}

fn finish_cell(index: usize, error: Option<&str>) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| c.set(None));
    with_hub(|hub| {
        if index >= hub.cells.len() || hub.cells[index].done {
            return;
        }
        let seq = hub.sweep_seq;
        let slot = &hub.cells[index];
        let mut pairs = vec![
            ("sweep", Value::U64(seq)),
            ("cell", Value::String(slot.name.clone())),
            ("index", Value::U64(index as u64)),
            ("instructions", Value::U64(slot.instructions)),
            ("l2_misses", Value::U64(slot.l2_misses)),
            ("l2_mpki", mpki(slot.l2_misses, slot.instructions)),
            ("violations", Value::U64(slot.violations)),
        ];
        if let Some(error) = error {
            pairs.push(("error", Value::String(error.to_owned())));
        }
        if let Some(started) = slot.started {
            let wall = started.elapsed().as_secs_f64();
            pairs.push(("wall_s", Value::F64((wall * 1000.0).round() / 1000.0)));
        }
        let line = event_line("cell_finish", pairs);
        hub.emit(Some(index), line);
        hub.cells[index].done = true;
        hub.cells_finished += 1;
        if index == hub.next_flush {
            hub.advance();
        }
    });
}

/// Marks sweep cell `index` finished; flushes any buffered events for
/// later cells the submission cursor can now release.
pub fn cell_finished(index: usize) {
    finish_cell(index, None);
}

/// Marks sweep cell `index` failed (keep-going sweeps) with the cell's
/// panic message; otherwise identical to [`cell_finished`].
pub fn cell_failed(index: usize, error: &str) {
    finish_cell(index, Some(error));
}

/// Announces one written results document (`results` event) so a
/// watching `bf_top` can point at the artifacts as they land.
pub fn results_written(path: &Path, figure: Option<&str>) {
    with_hub(|hub| {
        let mut pairs = vec![("path", Value::String(path.display().to_string()))];
        if let Some(figure) = figure {
            pairs.push(("figure", Value::String(figure.to_owned())));
        }
        let line = event_line("results", pairs);
        hub.write_line(&line);
        let _ = hub.out.flush();
    });
}

/// Emits the terminal `run_end` event. Idempotent: the first call wins,
/// so the automatic end-of-process guard and explicit calls compose.
pub fn finish() {
    with_hub(|hub| {
        if hub.ended {
            return;
        }
        hub.ended = true;
        let wall = hub.started.elapsed().as_secs_f64();
        let line = event_line(
            "run_end",
            vec![
                ("cells", Value::U64(hub.cells_finished)),
                ("wall_s", Value::F64((wall * 1000.0).round() / 1000.0)),
            ],
        );
        hub.write_line(&line);
        let _ = hub.out.flush();
    });
}

/// Strips the volatile fields from one heartbeat line for byte-exact
/// determinism comparison: removes the top-level [`VOLATILE_KEYS`] and
/// the manifest's `volatile` sub-object, and re-serialises compactly.
/// Returns `None` for lines that do not parse as JSON objects.
pub fn strip_volatile_line(line: &str) -> Option<String> {
    let value = serde_json::from_str(line.trim()).ok()?;
    let Value::Object(mut map) = value else {
        return None;
    };
    for key in VOLATILE_KEYS {
        map.remove(*key);
    }
    if let Some(Value::Object(manifest)) = map.get_mut("manifest") {
        manifest.remove("volatile");
    }
    serde_json::to_string(&Value::Object(map)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_events(path: &Path) -> Vec<Value> {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .map(|l| serde_json::from_str(l).expect("heartbeat lines parse"))
            .collect()
    }

    fn kind(event: &Value) -> String {
        event
            .get("event")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned()
    }

    #[test]
    fn reorder_buffer_releases_cells_in_submission_order() {
        let dir = std::env::temp_dir().join("bf-heartbeat-test-reorder");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.ndjson");
        arm(&path, Value::Null, 0).unwrap();
        sweep_started(3);
        // Simulate out-of-order completion: cell 2 starts and finishes
        // first, then cell 1, then cell 0. (Single-threaded, so the
        // thread-local current cell is just re-pointed each time.)
        for index in [2usize, 1, 0] {
            cell_started(index);
            cell_finished(index);
        }
        finish();
        let events = read_events(&path);
        let order: Vec<(String, Option<u64>)> = events
            .iter()
            .map(|e| (kind(e), e.get("index").and_then(Value::as_u64)))
            .collect();
        assert_eq!(order[0].0, "run_start");
        assert_eq!(order[1].0, "sweep_start");
        // Cells drain strictly in submission order despite reverse
        // completion order.
        let cell_events: Vec<(String, u64)> = order
            .iter()
            .filter_map(|(k, i)| i.map(|i| (k.clone(), i)))
            .collect();
        assert_eq!(
            cell_events,
            vec![
                ("cell_start".to_owned(), 0),
                ("cell_finish".to_owned(), 0),
                ("cell_start".to_owned(), 1),
                ("cell_finish".to_owned(), 1),
                ("cell_start".to_owned(), 2),
                ("cell_finish".to_owned(), 2),
            ]
        );
        assert_eq!(kind(events.last().unwrap()), "run_end");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strip_volatile_removes_wall_clock_fields_only() {
        let line = r#"{"cell":"a","eta_s":1.5,"event":"progress","frac":0.5,"ts":123}"#;
        let stripped = strip_volatile_line(line).unwrap();
        assert!(!stripped.contains("ts"), "{stripped}");
        assert!(!stripped.contains("eta_s"), "{stripped}");
        assert!(stripped.contains("frac"), "{stripped}");
        let manifest =
            r#"{"event":"run_start","manifest":{"seed":1,"volatile":{"hostname":"x"}},"ts":9}"#;
        let stripped = strip_volatile_line(manifest).unwrap();
        assert!(!stripped.contains("hostname"), "{stripped}");
        assert!(stripped.contains("seed"), "{stripped}");
    }
}
