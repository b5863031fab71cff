//! `bench compare <a.json> <b.json>`: judge result set `b` against `a`
//! with the bounds in `BENCHMARK.json`.
//!
//! A result file holds one or more runs (`bench run --out <file>` appends
//! to it). For every workload and end-to-end metric the two sets are
//! summarised by their medians; `b` regresses when its median is worse
//! than `a`'s by more than the metric's bound. A row is `unresolved` when
//! either set's own run-to-run spread exceeds the bound, because then the
//! sets cannot tell a change of that size from noise. A workload also
//! regresses when `b` fails a larger share of its operations than `a`.

use serde_json::Value;

use crate::stats::Sorted;

/// The benchmark's contract, compiled in so the tool and the file the
/// driver reads cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

pub struct Contract {
    /// Length of the measured window, seconds.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
}

pub fn contract() -> Contract {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let end_to_end = doc["end_to_end"]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| MetricSpec {
            name: m["name"].as_str().expect("name").to_string(),
            unit: m["unit"].as_str().expect("unit").to_string(),
            higher_is_better: m["better"] == "higher",
            bound: m["bound"].as_f64().expect("bound"),
        })
        .collect();
    Contract {
        run_seconds: doc["run_seconds"].as_f64().expect("run_seconds"),
        workloads: doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect(),
        end_to_end,
    }
}

/// The runs of a result file: a `{"runs": [...]}` set, or one bare run.
pub fn load_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => Ok(runs.clone()),
        None => Ok(vec![doc]),
    }
}

/// Every value of one (workload, end-to-end metric) across `runs`.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| run["workloads"][workload]["end_to_end"][metric]["value"].as_f64())
        .collect()
}

/// Failed operations as a share of attempted ones, over all `runs`.
fn failed_share(runs: &[Value], workload: &str) -> Option<f64> {
    let sum = |key: &str| -> f64 {
        runs.iter().filter_map(|run| run["workloads"][workload][key].as_f64()).sum()
    };
    let attempted = sum("ops_attempted");
    (attempted > 0.0).then(|| sum("ops_failed") / attempted)
}

/// Run-to-run spread as a share of the median: the interquartile range
/// when there are enough runs for quartiles, the full range for two or
/// three, and unknown (zero) for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let sorted = Sorted::new(values.to_vec());
    let (Some(median), true) = (sorted.median(), values.len() >= 2) else { return 0.0 };
    let (lo, hi) = if values.len() >= 4 {
        (sorted.quantile(0.25), sorted.quantile(0.75))
    } else {
        (sorted.quantile(1e-9), sorted.quantile(1.0))
    };
    (hi.expect("non-empty") - lo.expect("non-empty")) / median.abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// Judge one metric: medians `a` and `b`, their spreads, against `spec`.
pub fn judge(spec: &MetricSpec, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let bound = spec.bound;
    if spread_a > bound || spread_b > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if spec.higher_is_better { (a - b) / a } else { (b - a) / a };
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Print one row per (workload, metric); `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (runs_a, runs_b) = (load_runs(path_a)?, load_runs(path_b)?);
    let contract = contract();
    println!("a = {path_a} ({} runs)   b = {path_b} ({} runs)", runs_a.len(), runs_b.len());
    println!(
        "{:<20} {:<24} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "iqr_a", "iqr_b", "bound"
    );
    let (mut regressions, mut unresolved, mut rows) = (0, 0, 0);
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let (va, vb) =
                (values(&runs_a, workload, &spec.name), values(&runs_b, workload, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a, b) = (crate::stats::median(&va), crate::stats::median(&vb));
            let (sa, sb) = (spread(&va), spread(&vb));
            let verdict = judge(spec, a, b, sa, sb);
            rows += 1;
            match verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<20} {:<24} {:>12.4} {:>12.4} {:>9.4} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                workload,
                format!("{} [{}]", spec.name, spec.unit),
                a,
                b,
                b / a,
                sa * 100.0,
                sb * 100.0,
                spec.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if let (Some(fa), Some(fb)) =
            (failed_share(&runs_a, workload), failed_share(&runs_b, workload))
        {
            rows += 1;
            let regressed = fb > fa;
            regressions += usize::from(regressed);
            println!(
                "{:<20} {:<24} {:>12.6} {:>12.6} {:>9} {:>8} {:>8} {:>6}  {}",
                workload,
                "ops_failed_share",
                fa,
                fb,
                "-",
                "-",
                "-",
                "-",
                if regressed { "REGRESSION" } else { "ok" }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    println!("{rows} rows: {regressions} regressions, {unresolved} unresolved");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn a_metric_regresses_only_beyond_its_bound_in_its_bad_direction() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, 100.0, 109.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, 111.0, 0.0, 0.0), Verdict::Regression);
        assert_eq!(judge(&lower, 100.0, 50.0, 0.0, 0.0), Verdict::Ok);
        let higher = spec(true, 0.10);
        assert_eq!(judge(&higher, 100.0, 91.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&higher, 100.0, 89.0, 0.0, 0.0), Verdict::Regression);
        assert_eq!(judge(&higher, 100.0, 200.0, 0.0, 0.0), Verdict::Ok);
    }

    #[test]
    fn noisy_sets_are_unresolved_not_judged() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, 100.0, 150.0, 0.2, 0.0), Verdict::Unresolved);
        assert_eq!(judge(&lower, 100.0, 100.0, 0.0, 0.11), Verdict::Unresolved);
    }

    #[test]
    fn spread_is_iqr_over_median_given_enough_runs() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 11.0]) - 2.0 / 9.0).abs() < 1e-12);
        // Eight runs: quartiles are the 2nd and 6th values, median the 4th.
        let runs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0];
        assert!((spread(&runs) - (6.0 - 2.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn contract_names_four_workloads_and_four_bounded_metrics() {
        let c = contract();
        assert_eq!(c.workloads.len(), 4);
        assert_eq!(c.end_to_end.len(), 4);
        assert!(c.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
    }
}
