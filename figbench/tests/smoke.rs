//! Smoke test of the benchmark itself: every workload, untraced and traced,
//! at the tiny smoke budget. Each run must print every metric that
//! `BENCHMARK.json` names for its mode — finite, with a unit — and pass the
//! correctness gate (`failed_frac` = 0).

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "bb-uniform-fixed",
    "hgp-uniform-adaptive",
    "hetero-structured-fixed",
];

fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (
        serde_json::from_str(&last).expect("result line parses"),
        stdout,
    )
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_gate() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = benchmark_metrics(section);
        for workload in WORKLOADS {
            let (result, stdout) = run(workload, trace);
            let ctx = format!("{workload} --trace {trace}:\n{stdout}");
            let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{ctx}");
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{ctx}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{ctx}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{ctx}"
            );
            let metrics: &BTreeMap<String, Value> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            assert_eq!(metrics.len(), expected.len(), "{ctx}");
            for (name, unit) in &expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing: {ctx}"));
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}: {ctx}");
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{ctx}"
                );
                // The human-readable report carries the same metric and unit.
                assert!(
                    stdout.contains(&format!("{name} = ")),
                    "{name} not printed: {ctx}"
                );
            }
            if trace == "1" {
                assert_eq!(
                    metrics["failed_frac"].get("value").and_then(Value::as_f64),
                    Some(0.0)
                );
            }
        }
    }
}

#[test]
fn malformed_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"][..],
        &["--workload", "bb-uniform-fixed", "--trace", "2"][..],
        &["--workload", "bb-uniform-fixed", "--bogus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn cyclone_variables_make_the_run_refuse() {
    let out = Command::new(env!("CARGO_BIN_EXE_figbench"))
        .args([
            "--workload",
            "bb-uniform-fixed",
            "--smoke",
            "--seconds",
            "0",
        ])
        .env("CYCLONE_SIMD", "off")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("CYCLONE_SIMD"));
}
