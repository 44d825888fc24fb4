//! The benchmark's self-test: every workload at toy size.
//!
//! Checks that every metric `BENCHMARK.json` names appears with its unit,
//! that every check passes, that the traced run's `ns_by_layer` rows plus
//! the residual add up to the traced ns/access, and that every simulated
//! count repeats exactly across two invocations with the same seed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "serve-mongodb-paper",
    "serve-resident",
    "faas-churn",
    "replay-mongodb",
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one toy invocation and returns its metrics as name -> (value, unit).
fn invoke(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--toy"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{workload} (trace {trace}) failed its checks: {stdout}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("a numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("a unit")
                .to_owned();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn assert_declared(
    metrics: &BTreeMap<String, (f64, String)>,
    declared: &[(String, String)],
    what: &str,
) {
    for (name, unit) in declared {
        let (_, got) = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(got, unit, "{what}: unit of {name}");
    }
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{what}: undeclared metrics printed"
    );
}

/// Simulated statistics, which must repeat exactly for a seed: every
/// metric that is neither a host time nor a host diagnostic.
fn deterministic(name: &str, unit: &str) -> bool {
    !matches!(unit, "ns" | "s" | "ms" | "%")
        && !name.starts_with("host.")
        && !name.starts_with("trace.")
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_counts() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let mut unrepeated = Vec::new();
    for workload in WORKLOADS {
        let e2e = invoke(workload, 3, false);
        assert_declared(&e2e, &end_to_end, workload);
        for (name, (value, _)) in &e2e {
            assert!(*value > 0.0, "{workload}: {name} must never be 0");
        }

        let first = invoke(workload, 3, true);
        assert_declared(&first, &per_layer, workload);
        let rows: f64 = first
            .iter()
            .filter(|(name, _)| name.starts_with("ns_by_layer."))
            .map(|(_, (value, _))| value)
            .sum();
        let sim = first["sim.ns_per_access"].0;
        let residual = first["sim.residual_ns_per_access"].0;
        assert!(
            (rows + residual - sim).abs() <= 1e-6 * sim.abs().max(1.0),
            "{workload}: rows {rows} + residual {residual} != {sim}"
        );

        let second = invoke(workload, 3, true);
        for (name, (value, unit)) in &first {
            if deterministic(name, unit) && *value != second[name].0 {
                unrepeated.push(format!(
                    "{workload}: {name} {value} then {}",
                    second[name].0
                ));
            }
        }
        let faults = first["os.minor_faults_pka"].0;
        if workload == "faas-churn" {
            assert!(faults > 0.0, "FaaS rounds take minor faults");
        } else {
            assert_eq!(faults, 0.0, "{workload} is prefaulted");
        }
    }
    assert!(
        unrepeated.is_empty(),
        "counts that did not repeat:\n{}",
        unrepeated.join("\n")
    );
}
