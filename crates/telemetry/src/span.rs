//! Cycle-stamped hierarchical span tracing (`bf-trace`).
//!
//! Counters say *how many*; spans say *why*. A [`SpanTracer`] records
//! begin/end pairs and instants stamped with **simulated cycles** (never
//! wall-clock time), organised into tracks: one Chrome/Perfetto
//! "process" per CCID (container group) and one "thread" per simulated
//! process, so one memory access reads as a nested causal chain —
//! `access ▸ tlb.l1 ▸ tlb.l2 ▸ walk ▸ walk.pmd ▸ pwc.miss …` — in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ## Context, not plumbing
//!
//! The machine loop owns the clock; component crates (TLB, PWC, cache,
//! page tables, kernel) do not. Instead of threading `(cycle, ccid,
//! pid)` through every call, the tracer carries a *current context*
//! (track + cycle + active flag) that the machine sets once per traced
//! access via [`SpanTracer::sample_access`] and advances with
//! [`SpanTracer::set_now`]. Components just call
//! [`instant`](SpanTracer::instant) / [`span`](SpanTracer::span); when
//! the current access was not sampled every call is a cheap early-out.
//!
//! ## Sampling and truncation
//!
//! [`SpanTracer::set_sampling`] selects every Nth access (0 = tracing
//! off), keeping full-figure runs tractable. The event buffer is
//! bounded; once full, *whole sub-spans* are dropped (a dropped begin
//! suppresses its matching end) so the export always has balanced B/E
//! pairs per track, and every dropped event is counted exactly —
//! truncated traces are never silently read as complete.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// One Chrome trace track: `pid` groups tracks (we use the CCID, or
/// [`SpanTrack::MACHINE_PID`] for machine-level counter tracks), `tid`
/// is the lane within the group (the simulated process id, or the core
/// index for machine tracks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanTrack {
    /// Track group (Chrome `pid`); the simulated CCID.
    pub pid: u32,
    /// Lane within the group (Chrome `tid`); the simulated process id.
    pub tid: u32,
}

impl SpanTrack {
    /// The reserved `pid` of machine-level tracks (counter lanes).
    pub const MACHINE_PID: u32 = u32::MAX;

    /// A per-CCID / per-process track.
    pub fn new(ccid: u32, pid: u32) -> Self {
        SpanTrack {
            pid: ccid,
            tid: pid,
        }
    }

    /// The machine-level track for `core` (TLB occupancy, shared-PTE
    /// refcount counter series).
    pub fn machine(core: u32) -> Self {
        SpanTrack {
            pid: Self::MACHINE_PID,
            tid: core,
        }
    }
}

/// What one recorded [`SpanEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span opens (Chrome `"B"`).
    Begin,
    /// Span closes (Chrome `"E"`).
    End,
    /// Point event (Chrome `"i"`).
    Instant,
    /// Counter sample (Chrome `"C"`).
    Counter,
}

/// One recorded trace event (cycle-stamped).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Simulated cycle the event happened at.
    pub ts: u64,
    /// Track the event belongs to.
    pub track: SpanTrack,
    /// Event (or counter-series) name.
    pub name: &'static str,
    /// Begin / end / instant / counter.
    pub phase: SpanPhase,
    /// Numeric arguments (`("va", 0x7000)`-style pairs; the counter
    /// value for [`SpanPhase::Counter`] events).
    pub args: Vec<(&'static str, u64)>,
}

/// Default event-buffer capacity of [`SpanTracer::new`].
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug, Default)]
struct SpanState {
    events: Vec<SpanEvent>,
    /// Open-span name stacks per track (for matching `end`s).
    open: BTreeMap<SpanTrack, Vec<&'static str>>,
    /// Depth of dropped (not recorded) begins per track: while > 0,
    /// nested begins/ends are swallowed so recorded pairs balance.
    drop_depth: BTreeMap<SpanTrack, u64>,
    dropped: u64,
}

#[derive(Debug)]
struct SpanInner {
    capacity: usize,
    /// Trace every Nth sampled access; 0 disables tracing.
    sample_every: AtomicU64,
    /// Accesses offered to the sampling gate so far.
    seq: AtomicU64,
    /// Current simulated cycle (the machine advances this).
    now: AtomicU64,
    /// Current track, packed `pid << 32 | tid`.
    track: AtomicU64,
    /// Whether the current access is being traced.
    active: AtomicBool,
    state: Mutex<SpanState>,
}

/// Shared recording handle for hierarchical spans. Clones are views
/// of the same buffer (like every bf-telemetry handle).
#[derive(Debug, Clone)]
pub struct SpanTracer(Arc<SpanInner>);

impl Default for SpanTracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanTracer {
    /// A tracer with the default buffer capacity, sampling disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer holding at most `capacity` events (ends that close
    /// an already-recorded begin may exceed it, bounded by the open
    /// depth, so pairs stay balanced).
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTracer(Arc::new(SpanInner {
            capacity,
            sample_every: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            now: AtomicU64::new(0),
            track: AtomicU64::new(0),
            active: AtomicBool::new(false),
            state: Mutex::new(SpanState::default()),
        }))
    }

    /// Traces every `every`-th access offered to
    /// [`SpanTracer::sample_access`]; 0 turns tracing off.
    pub fn set_sampling(&self, every: u64) {
        self.0.sample_every.store(every, Relaxed);
    }

    /// The current sampling interval (0 = off).
    pub fn sampling(&self) -> u64 {
        self.0.sample_every.load(Relaxed)
    }

    /// The sampling gate: offers one access starting at cycle `now`
    /// on `track`. Returns (and latches) whether this access is
    /// traced; until the next call every span/instant call records
    /// or no-ops accordingly.
    pub fn sample_access(&self, track: SpanTrack, now: u64) -> bool {
        let every = self.0.sample_every.load(Relaxed);
        if every == 0 {
            self.0.active.store(false, Relaxed);
            return false;
        }
        let seq = self.0.seq.load(Relaxed);
        self.0.seq.store(seq.wrapping_add(1), Relaxed);
        let take = seq.is_multiple_of(every);
        if take {
            self.set_track(track);
            self.set_now(now);
        }
        self.0.active.store(take, Relaxed);
        take
    }

    /// Ends the current traced access (recording stops until the
    /// next [`SpanTracer::sample_access`]).
    pub fn finish_access(&self) {
        self.0.active.store(false, Relaxed);
    }

    /// Whether the current access is being traced. Callers use this
    /// to skip *computing* expensive event arguments; the recording
    /// methods themselves are already gated.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.active.load(Relaxed)
    }

    /// Sets the current simulated cycle.
    #[inline]
    pub fn set_now(&self, cycle: u64) {
        self.0.now.store(cycle, Relaxed);
    }

    /// The current simulated cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.now.load(Relaxed)
    }

    /// Sets the current track.
    pub fn set_track(&self, track: SpanTrack) {
        self.0
            .track
            .store(((track.pid as u64) << 32) | track.tid as u64, Relaxed);
    }

    /// The current track.
    pub fn track(&self) -> SpanTrack {
        let packed = self.0.track.load(Relaxed);
        SpanTrack {
            pid: (packed >> 32) as u32,
            tid: packed as u32,
        }
    }

    /// Opens a span named `name` at the current cycle on the current
    /// track. Must be paired with [`SpanTracer::end`].
    pub fn begin(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if !self.is_active() {
            return;
        }
        let (ts, track) = (self.now(), self.track());
        let mut st = self.0.state.lock().expect("span lock poisoned");
        let dropping = st.drop_depth.get(&track).copied().unwrap_or(0) > 0;
        if dropping || st.events.len() >= self.capacity() {
            *st.drop_depth.entry(track).or_insert(0) += 1;
            st.dropped += 1;
            return;
        }
        st.open.entry(track).or_default().push(name);
        st.events.push(SpanEvent {
            ts,
            track,
            name,
            phase: SpanPhase::Begin,
            args: args.to_vec(),
        });
    }

    /// Closes the innermost open span on the current track at the
    /// current cycle. A close with nothing open is ignored.
    pub fn end(&self) {
        if !self.is_active() {
            return;
        }
        let (ts, track) = (self.now(), self.track());
        let mut st = self.0.state.lock().expect("span lock poisoned");
        if let Some(depth) = st.drop_depth.get_mut(&track) {
            if *depth > 0 {
                *depth -= 1;
                st.dropped += 1;
                return;
            }
        }
        if let Some(name) = st.open.get_mut(&track).and_then(|stack| stack.pop()) {
            // Recorded begins always get their end, even past
            // capacity (bounded by the open depth), so pairs stay
            // balanced under truncation.
            st.events.push(SpanEvent {
                ts,
                track,
                name,
                phase: SpanPhase::End,
                args: Vec::new(),
            });
        }
    }

    /// Records a complete span covering `[now, now + duration]` —
    /// for components that know an operation's cost only after the
    /// fact (e.g. the kernel fault path).
    pub fn span(&self, name: &'static str, duration: u64, args: &[(&'static str, u64)]) {
        if !self.is_active() {
            return;
        }
        let (ts, track) = (self.now(), self.track());
        let mut st = self.0.state.lock().expect("span lock poisoned");
        let dropping = st.drop_depth.get(&track).copied().unwrap_or(0) > 0;
        if dropping || st.events.len() + 2 > self.capacity() {
            st.dropped += 2;
            return;
        }
        st.events.push(SpanEvent {
            ts,
            track,
            name,
            phase: SpanPhase::Begin,
            args: args.to_vec(),
        });
        st.events.push(SpanEvent {
            ts: ts + duration,
            track,
            name,
            phase: SpanPhase::End,
            args: Vec::new(),
        });
    }

    /// Records a point event at the current cycle on the current
    /// track.
    pub fn instant(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if !self.is_active() {
            return;
        }
        let (ts, track) = (self.now(), self.track());
        self.push_leaf(SpanEvent {
            ts,
            track,
            name,
            phase: SpanPhase::Instant,
            args: args.to_vec(),
        });
    }

    /// Records a counter sample (its own series lane in Perfetto) on
    /// an explicit track at the current cycle.
    pub fn counter(&self, track: SpanTrack, name: &'static str, value: u64) {
        if !self.is_active() {
            return;
        }
        self.push_leaf(SpanEvent {
            ts: self.now(),
            track,
            name,
            phase: SpanPhase::Counter,
            args: vec![("value", value)],
        });
    }

    fn push_leaf(&self, event: SpanEvent) {
        let mut st = self.0.state.lock().expect("span lock poisoned");
        if st.events.len() >= self.capacity() {
            st.dropped += 1;
            return;
        }
        st.events.push(event);
    }

    fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.0
            .state
            .lock()
            .expect("span lock poisoned")
            .events
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the buffer was full — exact, so a
    /// truncated trace is never silently read as complete.
    pub fn dropped(&self) -> u64 {
        self.0.state.lock().expect("span lock poisoned").dropped
    }

    /// A copy of the recorded events (tests and custom exporters).
    pub fn events(&self) -> Vec<SpanEvent> {
        self.0
            .state
            .lock()
            .expect("span lock poisoned")
            .events
            .clone()
    }

    /// Builds the Chrome trace-event JSON document (see
    /// [`validate_chrome_trace`] for the invariants it
    /// guarantees). Spans still open at export time are closed at
    /// the latest recorded cycle so B/E pairs always balance.
    pub fn chrome_trace(&self) -> serde::Value {
        let st = self.0.state.lock().expect("span lock poisoned");
        let mut events = st.events.clone();
        let max_ts = events.iter().map(|e| e.ts).max().unwrap_or(0);
        for (track, stack) in &st.open {
            for name in stack.iter().rev() {
                events.push(SpanEvent {
                    ts: max_ts,
                    track: *track,
                    name,
                    phase: SpanPhase::End,
                    args: Vec::new(),
                });
            }
        }
        let dropped = st.dropped;
        drop(st);
        // Per-track insertion order is already cycle-sorted; a
        // stable global sort makes the whole stream monotonic
        // without reordering any track's own events.
        events.sort_by_key(|e| e.ts);
        build_chrome_doc(&events, dropped, self.sampling())
    }

    /// Writes [`SpanTracer::chrome_trace`] to `path` as pretty JSON
    /// (creating parent directories), e.g. `results/trace-fig10.json`.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::export::write_json(path, &self.chrome_trace())
    }
}

/// Renders events (already globally sorted by `ts`) as a Chrome
/// trace-event document: per-track `process_name`/`thread_name` metadata
/// first, then the B/E/i/C stream, with drop accounting in `otherData`.
fn build_chrome_doc(events: &[SpanEvent], dropped: u64, sample_every: u64) -> serde::Value {
    use serde::Value;

    let mut out: Vec<Value> = Vec::with_capacity(events.len() + 8);
    let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for event in events {
        let lanes = groups.entry(event.track.pid).or_default();
        if !lanes.contains(&event.track.tid) {
            lanes.push(event.track.tid);
        }
    }
    for (pid, lanes) in &groups {
        let pname = if *pid == SpanTrack::MACHINE_PID {
            "machine".to_owned()
        } else {
            format!("ccid-{pid}")
        };
        out.push(meta_event("process_name", *pid, 0, &pname));
        for tid in lanes {
            let tname = if *pid == SpanTrack::MACHINE_PID {
                format!("core-{tid}")
            } else {
                format!("pid-{tid}")
            };
            out.push(meta_event("thread_name", *pid, *tid, &tname));
        }
    }

    for event in events {
        let mut map = BTreeMap::new();
        map.insert("name".to_owned(), Value::String(event.name.to_owned()));
        map.insert(
            "ph".to_owned(),
            Value::String(
                match event.phase {
                    SpanPhase::Begin => "B",
                    SpanPhase::End => "E",
                    SpanPhase::Instant => "i",
                    SpanPhase::Counter => "C",
                }
                .to_owned(),
            ),
        );
        map.insert("ts".to_owned(), Value::U64(event.ts));
        map.insert("pid".to_owned(), Value::U64(event.track.pid as u64));
        map.insert("tid".to_owned(), Value::U64(event.track.tid as u64));
        map.insert("cat".to_owned(), Value::String("sim".to_owned()));
        if event.phase == SpanPhase::Instant {
            map.insert("s".to_owned(), Value::String("t".to_owned()));
        }
        if !event.args.is_empty() {
            map.insert(
                "args".to_owned(),
                Value::Object(
                    event
                        .args
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Value::U64(*v)))
                        .collect(),
                ),
            );
        }
        out.push(Value::Object(map));
    }

    let mut other = BTreeMap::new();
    other.insert(
        "clock".to_owned(),
        Value::String("simulated-cycles".to_owned()),
    );
    other.insert(
        "recorded_events".to_owned(),
        Value::U64(events.len() as u64),
    );
    other.insert("dropped_events".to_owned(), Value::U64(dropped));
    other.insert("sample_every".to_owned(), Value::U64(sample_every));

    let mut doc = BTreeMap::new();
    doc.insert("displayTimeUnit".to_owned(), Value::String("ns".to_owned()));
    doc.insert("otherData".to_owned(), Value::Object(other));
    doc.insert("traceEvents".to_owned(), Value::Array(out));
    Value::Object(doc)
}

fn meta_event(name: &str, pid: u32, tid: u32, label: &str) -> serde::Value {
    use serde::Value;
    let mut args = BTreeMap::new();
    args.insert("name".to_owned(), Value::String(label.to_owned()));
    let mut map = BTreeMap::new();
    map.insert("name".to_owned(), Value::String(name.to_owned()));
    map.insert("ph".to_owned(), Value::String("M".to_owned()));
    map.insert("pid".to_owned(), Value::U64(pid as u64));
    map.insert("tid".to_owned(), Value::U64(tid as u64));
    map.insert("args".to_owned(), Value::Object(args));
    serde::Value::Object(map)
}

/// What [`validate_chrome_trace`] found in a valid document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// `"B"` events.
    pub begins: usize,
    /// `"E"` events.
    pub ends: usize,
    /// `"i"` events.
    pub instants: usize,
    /// `"C"` events.
    pub counters: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
    /// Deepest observed span nesting on any track.
    pub max_depth: usize,
}

/// The golden-file validator for Chrome trace-event exports. Checks:
/// the document parses as `{"traceEvents": [...]}`; every event carries
/// `name`/`ph`/`pid`/`tid` (+ `ts` for non-metadata); timestamps are
/// globally non-decreasing; and per `(pid, tid)` track the B/E events
/// form balanced, properly nested pairs with matching names.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_trace(doc: &serde::Value) -> Result<ChromeTraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .ok_or("traceEvents array missing")?;
    let mut summary = ChromeTraceSummary::default();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: Option<u64> = None;

    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("event {i}: field {key} missing"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: ph is not a string"))?
            .to_owned();
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name is not a string"))?
            .to_owned();
        let pid = field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: pid is not a number"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: tid is not a number"))?;

        if ph == "M" {
            summary.metadata += 1;
            continue;
        }
        let ts = field("ts")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: ts is not a number"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name}): ts {ts} goes backwards (previous {prev})"
                ));
            }
        }
        last_ts = Some(ts);

        let stack = stacks.entry((pid, tid)).or_default();
        match ph.as_str() {
            "B" => {
                summary.begins += 1;
                stack.push(name);
                summary.max_depth = summary.max_depth.max(stack.len());
            }
            "E" => {
                summary.ends += 1;
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: end of {name} but {open} is open on track {pid}/{tid}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: end of {name} with no open span on track {pid}/{tid}"
                        ));
                    }
                }
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }

    for ((pid, tid), stack) in &stacks {
        if let Some(name) = stack.last() {
            return Err(format!("span {name} left open on track {pid}/{tid}"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> SpanTracer {
        let tracer = SpanTracer::with_capacity(1024);
        tracer.set_sampling(1);
        tracer.sample_access(SpanTrack::new(1, 10), 100);
        tracer
    }

    #[test]
    fn nested_spans_export_balanced_and_sorted() {
        let tracer = traced();
        tracer.begin("access", &[("va", 0x7000)]);
        tracer.set_now(101);
        tracer.begin("tlb.l1", &[]);
        tracer.instant("tlb.l1.miss", &[]);
        tracer.set_now(102);
        tracer.end();
        tracer.span("os.fault.minor", 1_600, &[]);
        tracer.counter(SpanTrack::machine(0), "tlb.occupancy", 42);
        tracer.set_now(2_000);
        tracer.end();
        tracer.finish_access();

        let summary = validate_chrome_trace(&tracer.chrome_trace()).expect("valid trace");
        assert_eq!(summary.begins, 3);
        assert_eq!(summary.ends, 3);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert!(summary.max_depth >= 2);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn unsampled_accesses_record_nothing() {
        let tracer = SpanTracer::with_capacity(64);
        tracer.set_sampling(2);
        assert!(tracer.sample_access(SpanTrack::new(0, 1), 0));
        tracer.begin("a", &[]);
        tracer.end();
        assert!(!tracer.sample_access(SpanTrack::new(0, 1), 10));
        tracer.begin("b", &[]);
        tracer.end();
        assert!(tracer.sample_access(SpanTrack::new(0, 1), 20));
        assert_eq!(tracer.len(), 2, "only the sampled access recorded");
    }

    #[test]
    fn sampling_zero_disables_tracing() {
        let tracer = SpanTracer::new();
        assert!(!tracer.sample_access(SpanTrack::new(0, 1), 0));
        tracer.begin("a", &[]);
        tracer.instant("b", &[]);
        assert!(tracer.is_empty());
    }

    #[test]
    fn overflow_drops_whole_subtrees_and_counts_exactly() {
        let tracer = SpanTracer::with_capacity(2);
        tracer.set_sampling(1);
        tracer.sample_access(SpanTrack::new(0, 1), 0);
        tracer.begin("outer", &[]); // recorded
        tracer.begin("inner", &[]); // recorded — buffer now full
        tracer.begin("over", &[]); // dropped (full)
        tracer.instant("leaf", &[]); // dropped (full)
        tracer.end(); // matches the dropped "over": swallowed
        tracer.end(); // closes "inner" past capacity, keeping balance
        tracer.end(); // closes "outer"
        tracer.finish_access();

        let summary = validate_chrome_trace(&tracer.chrome_trace()).expect("valid trace");
        assert_eq!(summary.begins, 2);
        assert_eq!(summary.ends, 2, "balanced under overflow");
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 3, "over-begin, leaf, over-end");
        let offered = 3 + 1 + 3; // begins + instant + ends
        assert_eq!(tracer.len() as u64 + tracer.dropped(), offered);
    }

    #[test]
    fn open_spans_are_closed_at_export() {
        let tracer = traced();
        tracer.begin("access", &[]);
        tracer.set_now(500);
        tracer.begin("walk", &[]);
        // Export without ending either span.
        let summary = validate_chrome_trace(&tracer.chrome_trace()).expect("valid trace");
        assert_eq!(summary.begins, 2);
        assert_eq!(summary.ends, 2, "exporter closed both open spans");
    }

    #[test]
    fn empty_trace_is_valid() {
        let tracer = SpanTracer::new();
        let doc = tracer.chrome_trace();
        let summary = validate_chrome_trace(&doc).expect("valid empty trace");
        assert_eq!(summary.begins, 0);
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(serde::Value::as_u64),
            Some(0),
            "drop count always present in the export"
        );
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        use serde::Value;
        let event = |ph: &str, name: &str, ts: u64| {
            let mut map = std::collections::BTreeMap::new();
            map.insert("name".to_owned(), Value::String(name.to_owned()));
            map.insert("ph".to_owned(), Value::String(ph.to_owned()));
            map.insert("ts".to_owned(), Value::U64(ts));
            map.insert("pid".to_owned(), Value::U64(1));
            map.insert("tid".to_owned(), Value::U64(1));
            Value::Object(map)
        };
        let doc = |events: Vec<Value>| {
            let mut map = std::collections::BTreeMap::new();
            map.insert("traceEvents".to_owned(), Value::Array(events));
            Value::Object(map)
        };

        // Unbalanced end.
        assert!(validate_chrome_trace(&doc(vec![event("E", "x", 0)])).is_err());
        // Name mismatch.
        assert!(validate_chrome_trace(&doc(vec![event("B", "a", 0), event("E", "b", 1)])).is_err());
        // Backwards timestamps.
        assert!(validate_chrome_trace(&doc(vec![event("i", "a", 5), event("i", "b", 4)])).is_err());
        // Left open.
        assert!(validate_chrome_trace(&doc(vec![event("B", "a", 0)])).is_err());
        // Balanced and ordered passes.
        let ok = validate_chrome_trace(&doc(vec![event("B", "a", 0), event("E", "a", 2)]));
        assert_eq!(ok.unwrap().begins, 1);
    }
}
