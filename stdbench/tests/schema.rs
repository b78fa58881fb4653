//! `BENCHMARK.json` and the printed result line agree: every metric the
//! command prints is declared with its unit, and every declared metric is
//! printed.

use serde_json::Value;
use stdbench::inputs::{Scale, Workload};
use stdbench::run::{run, RunOptions};
use stdbench::schema::{Metric, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
                m.get("better")
                    .and_then(Value::as_str)
                    .expect("better")
                    .to_string(),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn schema_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Workload::DECLARED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the widest bound"
    );
}

/// Runs a smoke-sized workload and returns the printed metrics as
/// `(name, unit)` pairs, in print order.
fn printed(workload: Workload, trace: bool) -> Vec<(String, String)> {
    let outcome = run(&RunOptions {
        workload,
        seed: 1,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
    })
    .expect("smoke run");
    assert!(outcome.correct, "{:?}", outcome.failures);
    let line: Value = serde_json::from_str(&outcome.json()).expect("result line is JSON");
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("metrics object missing");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_and_every_declared_metric_printed() {
    let doc = benchmark_json();
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut want: Vec<(String, String)> = declared(&doc, key)
            .into_iter()
            .map(|(name, unit, _, _)| (name, unit))
            .collect();
        want.sort();
        for w in Workload::ALL {
            let mut got = printed(w, trace);
            got.sort();
            assert_eq!(got, want, "{} with trace {trace}", w.name());
        }
    }
}
