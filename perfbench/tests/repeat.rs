//! Two traced runs of the benchmark at one seed must report identical
//! per-layer counters. Time-based metrics (units `ms` and `1/ms`, and
//! the tracing overhead) are left out of the comparison.

use std::process::Command;

use holistic_core::json::Json;

/// The counters of one traced run, in the order the run prints them.
fn traced_counters(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_holistic-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .filter(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            !matches!(unit, "ms" | "1/ms") && name != "trace.overhead_frac"
        })
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            (name.clone(), value)
        })
        .collect()
}

fn assert_repeats(workload: &str) {
    let first = traced_counters(workload, 42);
    let second = traced_counters(workload, 42);
    assert!(first.len() >= 20, "{workload}: {first:?}");
    assert_eq!(first, second, "{workload}");
}

#[test]
fn table2_counters_repeat_exactly() {
    assert_repeats("table2");
}

#[test]
fn mutants_counters_repeat_exactly() {
    assert_repeats("mutants");
}

#[test]
fn oracle_counters_repeat_exactly() {
    assert_repeats("oracle");
}
