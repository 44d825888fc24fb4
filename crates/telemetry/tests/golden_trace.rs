//! Golden-file test for the Chrome trace-event export: a fixed span
//! sequence (shaped like one traced page-walk access) must serialize to
//! byte-identical JSON, and every export must satisfy the validator.
//!
//! Regenerate the golden after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test -p bf-telemetry --test golden_trace`.

use bf_telemetry::{validate_chrome_trace, SpanTracer, SpanTrack};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/span_trace.json");

/// One traced access through the whole translation stack, plus a second
/// short access on a sibling process and a machine counter sample —
/// every event class the exporter emits.
fn build_trace() -> SpanTracer {
    let spans = SpanTracer::new();
    spans.set_sampling(1);

    let first = SpanTrack::new(1, 42);
    spans.sample_access(first, 100);
    spans.begin("access", &[("va", 0xdead_b000), ("write", 0)]);
    spans.begin("tlb.l1", &[]);
    spans.set_now(101);
    spans.instant("tlb.l1.miss", &[]);
    spans.end();
    spans.begin("tlb.l2", &[]);
    spans.set_now(103);
    spans.instant("tlb.l2.miss", &[]);
    spans.end();
    spans.begin("walk", &[("attempt", 1)]);
    spans.instant("pwc.hit", &[("level", 0)]);
    spans.set_now(115);
    spans.end();
    // Retrospective kernel span: the fault cost is known only after the
    // handler returns, so it lands as a complete B/E pair.
    spans.span("os.fault.minor", 50, &[("va", 0xdead_b000)]);
    spans.set_now(165);
    spans.begin("mem", &[]);
    spans.set_now(185);
    spans.end();
    spans.end(); // access
    spans.counter(SpanTrack::machine(0), "tlb.occupancy", 7);
    spans.finish_access();

    let second = SpanTrack::new(1, 43);
    spans.sample_access(second, 200);
    spans.begin("access", &[("va", 0xbeef_0000), ("write", 1)]);
    spans.set_now(203);
    spans.instant("tlb.l1.hit", &[]);
    spans.end();
    spans.finish_access();

    spans
}

#[test]
fn chrome_export_matches_golden_file() {
    let spans = build_trace();
    let doc = spans.chrome_trace();
    let summary = validate_chrome_trace(&doc).expect("export must validate");

    assert_eq!(summary.begins, summary.ends, "balanced B/E");
    assert_eq!(summary.max_depth, 2, "walk spans nest under access");
    assert_eq!(spans.dropped(), 0);

    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&doc).expect("trace serializes")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("writing golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "Chrome trace export drifted from {GOLDEN_PATH}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn golden_file_itself_validates() {
    let Ok(golden) = std::fs::read_to_string(GOLDEN_PATH) else {
        panic!("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    };
    let doc = serde_json::from_str(&golden).expect("golden parses");
    let summary = validate_chrome_trace(&doc).expect("golden validates");
    assert!(summary.begins > 0, "golden holds a real trace");
    assert!(summary.metadata > 0, "golden names its tracks");
}
