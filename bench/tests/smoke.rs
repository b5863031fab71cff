//! Runs the built `bench` binary the way a user and the driver do, on
//! `--quick` windows, and checks the shape of what comes out against
//! `BENCHMARK.json`. Quick windows prove the plumbing; they are never the
//! basis of a performance claim.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

/// The measuring tests take turns: they load both cores and write the same
/// trace files.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn contract() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// name → unit of one metric list of the contract.
fn named_units(contract: &Value, key: &str) -> BTreeMap<String, String> {
    contract[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

/// name → unit of a `{"name": {"value":.., "unit":..}}` object, checking
/// every value is a finite number on the way.
fn reported_units(metrics: &Value) -> BTreeMap<String, String> {
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value =
                m["value"].as_f64().unwrap_or_else(|| panic!("{name} has no numeric value: {m}"));
            assert!(value.is_finite(), "{name} is not finite");
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BENCH).args(args).output().expect("bench binary runs")
}

#[test]
fn debug_builds_refuse_to_measure() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = run(&["run", "--workload", "rest_echo_seq", "--seed", "1", "--quick"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in
        [&["run"][..], &["run", "--seed", "1", "--workload", "nope"], &["compare", "x"], &[]]
    {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
    }
}

#[test]
fn quick_suite_reports_every_named_metric_with_its_unit_and_no_failed_operation() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the benchmark only measures release builds (cargo test --release)");
        return;
    }
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let contract = contract();
    let out_path = format!("{}/out/smoke-{}.json", env!("CARGO_MANIFEST_DIR"), std::process::id());
    let _ = std::fs::remove_file(&out_path);
    let out = run(&["run", "--seed", "7", "--quick", "--out", &out_path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    std::fs::remove_file(&out_path).unwrap();
    let run_doc = &doc["runs"][0];
    for key in [
        "git_sha",
        "rustc",
        "nproc",
        "kernel",
        "wal_dir_fs",
        "max_client_threads",
        "seed",
        "window_s",
    ] {
        assert!(!run_doc["header"][key].is_null(), "header lacks {key}");
    }
    assert_eq!(run_doc["correct"], true);

    let end_to_end = named_units(&contract, "end_to_end");
    let per_layer = named_units(&contract, "per_layer");
    let ladder = reported_units(&run_doc["ladder"]);
    let workloads: Vec<&str> = contract["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(workloads.len(), 4);
    for name in workloads {
        let w = &run_doc["workloads"][name];
        assert_eq!(w["ops_failed"], 0, "{name} failed operations");
        assert_eq!(w["traced_ops_failed"], 0, "{name} failed traced operations");
        assert!(w["ops_attempted"].as_u64().unwrap() > 0);
        assert_eq!(reported_units(&w["end_to_end"]), end_to_end, "{name} end-to-end metrics");
        // The ladder is workload-independent and reported once; with the
        // traced run's metrics it covers the per-layer list exactly.
        let mut layers = reported_units(&w["per_layer"]);
        layers.extend(ladder.clone());
        assert_eq!(layers, per_layer, "{name} per-layer metrics");
        assert_eq!(w["per_layer"]["http.connect_errors"]["value"].as_f64(), Some(0.0));
        // Every metric line is printed by name with its unit.
        for (metric, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(
                stdout.lines().any(|l| l.contains(metric.as_str()) && l.contains(unit.as_str())),
                "{metric} [{unit}] not printed"
            );
        }
        let trace_path = format!("{}/out/trace-{name}.json", env!("CARGO_MANIFEST_DIR"));
        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(trace_path).unwrap()).unwrap();
        assert!(!trace["spans"].as_array().unwrap().is_empty(), "{name} wrote no spans");
    }
}

#[test]
fn driver_style_runs_end_in_one_json_line_matching_the_contract() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the benchmark only measures release builds (cargo test --release)");
        return;
    }
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let contract = contract();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "run",
            "--workload",
            "fabric_echo_8k",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--quick",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
        let line: Value =
            serde_json::from_str(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line["correct"], true);
        assert_eq!(line["failed"], 0);
        assert!(line["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(
            reported_units(&line["metrics"]),
            named_units(&contract, key),
            "--trace {trace}"
        );
    }
}
