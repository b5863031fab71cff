//! Result records: metrics with their units and sample counts, the run
//! header, and the JSON forms the driver and `bench compare` read.

use serde_json::{json, Map, Value};

use crate::procfs;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// `{"<name>": {"value": .., "unit": ..}}`, the driver's metric form; result
/// files also carry the sample count beside each value.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    let map: Map<String, Value> = metrics
        .iter()
        .map(|m| {
            let mut entry = json!({"value": m.value, "unit": m.unit});
            if with_samples {
                entry
                    .as_object_mut()
                    .expect("an object")
                    .insert("samples".into(), json!(m.samples));
            }
            (m.name.clone(), entry)
        })
        .collect();
    Value::Object(map)
}

/// Print metrics one per line, by name and unit.
pub fn print_metrics(scope: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{scope:<20} {:<38} {:>14.4} {:<8} n={}", m.name, m.value, m.unit, m.samples);
    }
}

/// Where and how a run was made; the head of every result file.
pub fn header(seed: u64, window_s: f64, warmup_s: f64, quick: bool, wal_dir_fs: &str) -> Value {
    json!({
        "git_sha": procfs::git_sha(),
        "rustc": procfs::command_line("rustc", &["--version"]),
        "nproc": procfs::nproc(),
        "kernel": procfs::kernel_release(),
        "wal_dir_fs": wal_dir_fs,
        "max_client_threads": 2,
        "seed": seed,
        "window_s": window_s,
        "warmup_s": warmup_s,
        "quick": quick,
    })
}
