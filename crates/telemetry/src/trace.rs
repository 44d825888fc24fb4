//! Bounded structured event tracing.
//!
//! The tracer keeps the *first* `capacity` events of a run and counts
//! everything offered after that (drop-newest policy). That makes the
//! drop accounting exact — `dropped == offered - capacity` whenever the
//! buffer fills — and keeps memory strictly bounded no matter how long
//! a simulation runs.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// What kind of simulator event a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceKind {
    /// A TLB structure missed.
    TlbMiss,
    /// A TLB entry was installed.
    TlbFill,
    /// A CCID-shared TLB entry hit via a container's private copy.
    PrivateCopyHit,
    /// A shared TLB entry changed owner on fill.
    OwnershipTransition,
    /// A page-table walk completed.
    PageWalk,
    /// A MaskPage bit was set to mark a copy-on-write private PTE.
    CowMark,
    /// The OS fault path ran.
    Fault,
    /// Anything a caller wants to stamp ad hoc (see `detail`).
    Custom,
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred at.
    pub cycle: u64,
    /// Core that produced the event.
    pub cpu: u32,
    /// Event discriminator.
    pub kind: TraceKind,
    /// Container context ID involved (0 when not applicable).
    pub ccid: u16,
    /// Process involved (0 when not applicable).
    pub pid: u32,
    /// Virtual page number involved (0 when not applicable).
    pub vpn: u64,
    /// Free-form static annotation, e.g. the fault kind or walk level.
    pub detail: &'static str,
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("cycle".to_owned(), self.cycle.to_value());
        map.insert("cpu".to_owned(), self.cpu.to_value());
        map.insert("kind".to_owned(), self.kind.to_value());
        map.insert("ccid".to_owned(), self.ccid.to_value());
        map.insert("pid".to_owned(), self.pid.to_value());
        map.insert("vpn".to_owned(), self.vpn.to_value());
        map.insert("detail".to_owned(), self.detail.to_value());
        serde::Value::Object(map)
    }
}

#[derive(Debug)]
struct TracerInner {
    capacity: usize,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

/// Shared handle onto one bounded event buffer.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<TracerInner>);

impl Tracer {
    /// Default ring capacity used by [`crate::Registry::new`].
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a tracer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Arc::new(TracerInner {
            capacity,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }))
    }

    /// Records `event`, or counts it as dropped if the buffer is full.
    pub fn record(&self, event: TraceEvent) {
        let mut events = self.0.events.lock().expect("tracer lock poisoned");
        if events.len() < self.0.capacity {
            events.push(event);
        } else {
            drop(events);
            self.0.dropped.fetch_add(1, Relaxed);
        }
    }

    /// A copy of the buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.events.lock().expect("tracer lock poisoned").clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.events.lock().expect("tracer lock poisoned").len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of events the buffer holds.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// Events offered after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(Relaxed)
    }

    /// Empties the buffer and resets the drop counter.
    pub fn clear(&self) {
        self.0.events.lock().expect("tracer lock poisoned").clear();
        self.0.dropped.store(0, Relaxed);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            cpu: 0,
            kind: TraceKind::Custom,
            ccid: 0,
            pid: 0,
            vpn: 0,
            detail: "test",
        }
    }

    #[test]
    fn overflow_drops_newest_with_exact_count() {
        let tracer = Tracer::with_capacity(3);
        for cycle in 0..10 {
            tracer.record(event(cycle));
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 7);
        let kept: Vec<u64> = tracer.events().iter().map(|e| e.cycle).collect();
        assert_eq!(kept, vec![0, 1, 2]);
        tracer.clear();
        assert!(tracer.is_empty());
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn event_serializes_kind_as_string() {
        let v = serde::Serialize::to_value(&event(7));
        assert_eq!(v.get("cycle").and_then(|c| c.as_u64()), Some(7));
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("Custom"));
        assert_eq!(v.get("detail").and_then(|d| d.as_str()), Some("test"));
    }
}
