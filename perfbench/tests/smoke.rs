//! Smallest-size run of every workload, untraced and traced: each must
//! exit 0, pass its own output checks, and print exactly the metrics
//! `BENCHMARK.json` lists, with their units.

use serde::Value;
use std::process::Command;

fn listed(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(kind)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read")).expect("parses");
    v.get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_at_smallest_size_and_prints_the_listed_metrics() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for workload in workloads() {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "2"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(&dir)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let r: Value = serde_json::from_str(last).expect("result line is JSON");
            assert_eq!(
                r.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0));
            assert!(r.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let Some(Value::Map(metrics)) = r.get("metrics") else {
                panic!("no metrics map");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = listed(kind);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
    // Workloads leave no scratch behind.
    let work = dir.join(".perfbench-work");
    let leftovers = std::fs::read_dir(&work).map_or(0, |d| d.count());
    assert_eq!(leftovers, 0, "scratch left in {}", work.display());
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "figs-cold", "--bogus", "1"],
        vec!["--seed", "x", "--workload", "figs-cold"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
