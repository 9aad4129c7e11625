//! Smoke test of the benchmark: every workload at its minimum size, untraced
//! and traced, must check out correct and print exactly the metrics that
//! `BENCHMARK.json` declares, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::{DeError, Deserialize, Value};
use std::path::Path;
use std::process::Command;

/// A parsed JSON document, navigated by hand.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
        .0
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    let map = v
        .as_map()
        .unwrap_or_else(|| panic!("{name}: not an object"));
    serde::get_field(map, name).unwrap_or_else(|| panic!("missing key {name}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    field(bench, list)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect("string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse(&text);
    let workloads: Vec<String> = field(&bench, "workloads")
        .as_seq()
        .expect("workload list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name").to_string())
        .collect();
    assert!(!workloads.is_empty());
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(field(&result, "failed"), &Value::UInt(0), "{workload}");
            let metrics = field(&result, "metrics").as_map().expect("metrics object");
            let want = declared(&bench, list);
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, names, "{workload} trace={trace}");
            for (name, unit) in &want {
                let m = field(field(&result, "metrics"), name);
                assert_eq!(
                    field(m, "unit").as_str(),
                    Some(unit.as_str()),
                    "{workload} {name}"
                );
                let value = field(m, "value");
                assert!(
                    matches!(value, Value::Float(_) | Value::UInt(_) | Value::Int(_)),
                    "{workload} {name}: {value:?}"
                );
            }
        }
    }
}
