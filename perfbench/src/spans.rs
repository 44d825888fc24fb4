//! Host-time spans recorded from the benchmark's own files around each
//! call into a simulator crate, exported as a Chrome trace-event document
//! that `bf_telemetry::validate_chrome_trace` accepts.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One Chrome track per layer, so the trace viewer shows a lane per
/// crate.
const TRACK: &[&str] = &[
    "sim",
    "containers",
    "workloads",
    "tlb",
    "pgtable",
    "cache",
    "mem",
    "os",
    "capture",
];

/// A span recorder; disabled recorders record nothing, so the untraced
/// run pays one branch per call.
pub struct Spans {
    enabled: bool,
    start: Instant,
    events: Vec<(u64, &'static str, &'static str, bool)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            start: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` on the lane of the crate the
    /// name starts with (`"tlb.lookup"` goes on the `tlb` lane).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let lane = name.split('.').next().unwrap_or(name);
        self.mark(lane, name, true);
        let out = f();
        self.mark(lane, name, false);
        out
    }

    fn mark(&mut self, lane: &'static str, name: &'static str, begin: bool) {
        let ts = self.start.elapsed().as_nanos() as u64;
        self.events.push((ts, lane, name, begin));
    }

    /// The Chrome trace-event document (timestamps in host ns).
    pub fn chrome_trace(&self) -> Value {
        let tid = |lane: &str| TRACK.iter().position(|t| *t == lane).unwrap_or(TRACK.len()) as u64;
        let mut out = Vec::with_capacity(self.events.len() + TRACK.len() + 1);
        out.push(meta("process_name", 0, "perfbench"));
        for (i, lane) in TRACK.iter().enumerate() {
            out.push(meta("thread_name", i as u64, lane));
        }
        for &(ts, lane, name, begin) in &self.events {
            let mut event = BTreeMap::new();
            event.insert("name".to_owned(), Value::String(name.to_owned()));
            event.insert(
                "ph".to_owned(),
                Value::String(if begin { "B" } else { "E" }.to_owned()),
            );
            event.insert("ts".to_owned(), Value::U64(ts));
            event.insert("pid".to_owned(), Value::U64(0));
            event.insert("tid".to_owned(), Value::U64(tid(lane)));
            event.insert("cat".to_owned(), Value::String("host".to_owned()));
            out.push(Value::Object(event));
        }
        let mut other = BTreeMap::new();
        other.insert("clock".to_owned(), Value::String("host-ns".to_owned()));
        let mut doc = BTreeMap::new();
        doc.insert("displayTimeUnit".to_owned(), Value::String("ns".to_owned()));
        doc.insert("otherData".to_owned(), Value::Object(other));
        doc.insert("traceEvents".to_owned(), Value::Array(out));
        Value::Object(doc)
    }
}

fn meta(name: &str, tid: u64, label: &str) -> Value {
    let mut args = BTreeMap::new();
    args.insert("name".to_owned(), Value::String(label.to_owned()));
    let mut event = BTreeMap::new();
    event.insert("name".to_owned(), Value::String(name.to_owned()));
    event.insert("ph".to_owned(), Value::String("M".to_owned()));
    event.insert("pid".to_owned(), Value::U64(0));
    event.insert("tid".to_owned(), Value::U64(tid));
    event.insert("args".to_owned(), Value::Object(args));
    Value::Object(event)
}
