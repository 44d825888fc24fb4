//! End-to-end determinism contract of the capture/replay subsystem:
//! a live run and its replay must produce byte-identical results
//! documents (counters, telemetry, timeline), and re-capturing a replay
//! must reproduce the trace file byte for byte.

use babelfish::experiment::{CaptureApp, ExperimentConfig};
use babelfish::replay::{capture_meta, capture_to_file, replay_file, CaptureFile, ReplayOptions};
use babelfish::Mode;
use bf_bench::capture::window_doc;

fn quick() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 8_000;
    cfg.measure_instructions = 30_000;
    cfg.dataset_bytes = 4 << 20;
    cfg
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-capture-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn live_and_replayed_results_documents_are_byte_identical() {
    let mut cfg = quick();
    // Timelines on for both runs: the timeline JSON is part of the
    // equivalence claim, not just the scalar counters.
    cfg.timeline_every = 2048;
    let app = CaptureApp::from_name("mongodb").unwrap();
    let mode = Mode::babelfish();
    let trace = temp_path("fig10-e2e.bft");

    let live = capture_to_file(mode, app, &cfg, &trace).expect("live capture");
    let outcome = replay_file(
        &trace,
        ReplayOptions {
            timeline_every: cfg.timeline_every,
            ..Default::default()
        },
    )
    .expect("replay");

    let live_doc = serde_json::to_string(&window_doc(mode, app.name(), &cfg, &live)).unwrap();
    let replay_doc = serde_json::to_string(&window_doc(
        outcome.mode,
        outcome.app,
        &outcome.config,
        &outcome.result,
    ))
    .unwrap();
    assert!(
        live_doc == replay_doc,
        "live and replayed documents must be byte-identical"
    );
    // The equivalence must cover a real timeline, not two nulls.
    assert!(
        live_doc.contains("\"timeline\":{"),
        "the equivalence must cover a real timeline export, got {live_doc}"
    );

    std::fs::remove_file(&trace).ok();
}

#[test]
fn live_and_replayed_profiles_are_byte_identical() {
    let mut cfg = quick();
    // Profiling on for both runs: the trace header carries no
    // instrumentation knobs, so the replay layers the same --profile
    // setting on top and must reconstruct the identical attribution.
    cfg.profile_top_k = 32;
    let app = CaptureApp::from_name("mongodb").unwrap();
    let mode = Mode::babelfish();
    let trace = temp_path("fig10-profile-e2e.bft");

    let live = capture_to_file(mode, app, &cfg, &trace).expect("live capture");
    let outcome = replay_file(
        &trace,
        ReplayOptions {
            profile_top_k: cfg.profile_top_k,
            ..Default::default()
        },
    )
    .expect("replay");

    let live_doc = serde_json::to_string(&bf_bench::profile_doc(
        "capture-mongodb-babelfish",
        &cfg,
        &[("mongodb-babelfish".to_owned(), live.profile.clone())],
    ))
    .unwrap();
    let replay_doc = serde_json::to_string(&bf_bench::profile_doc(
        "capture-mongodb-babelfish",
        &outcome.config,
        &[(
            "mongodb-babelfish".to_owned(),
            outcome.result.profile.clone(),
        )],
    ))
    .unwrap();
    assert!(
        live_doc == replay_doc,
        "live and replayed profiles must be byte-identical"
    );
    // The equivalence must cover a real profile, not two nulls.
    assert!(
        live_doc.contains("\"miss_regions\":[{"),
        "expected monitored hot regions in {live_doc}"
    );

    std::fs::remove_file(&trace).ok();
}

#[test]
fn recapturing_a_replay_reproduces_the_trace_byte_for_byte() {
    let cfg = quick();
    let app = CaptureApp::from_name("fio").unwrap();
    let mode = Mode::babelfish();
    let first = temp_path("roundtrip-1.bft");
    let second = temp_path("roundtrip-2.bft");

    capture_to_file(mode, app, &cfg, &first).expect("live capture");

    // The replay's header is built from the *reconstructed* config: the
    // meta keys must round-trip for the second header to match the
    // first.
    let outcome = {
        let recapture =
            CaptureFile::create(&second, &capture_meta(mode, app, &quick())).expect("recapture");
        let outcome = replay_file(
            &first,
            ReplayOptions {
                recapture: Some(recapture.sink()),
                ..Default::default()
            },
        )
        .expect("replay");
        recapture.finish().expect("finishing recapture");
        outcome
    };
    assert!(outcome.records_replayed > 0);

    let a = std::fs::read(&first).unwrap();
    let b = std::fs::read(&second).unwrap();
    assert!(
        a == b,
        "capture -> replay -> capture must be byte-identical ({} vs {} bytes)",
        a.len(),
        b.len()
    );

    std::fs::remove_file(&first).ok();
    std::fs::remove_file(&second).ok();
}
