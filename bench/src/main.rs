//! The fabric benchmark. See `bench/README.md` for what it measures.
//!
//! ```text
//! bench run --seed <n>                        every workload, ladder, traced runs
//! bench run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!                                             one run, as the driver makes them
//! bench compare <a.json> <b.json>             judge b against a
//! ```

mod compare;
mod ladder;
mod load;
mod payload;
mod procfs;
mod report;
mod run;
mod stack;
mod stats;
mod trace;

use std::process::ExitCode;

use serde_json::{json, Map, Value};

use load::{Workload, WORKLOADS};
use report::Metric;

/// Warm-up before an untraced window, seconds. The window itself is
/// `--seconds`, or `run_seconds` of `BENCHMARK.json` when that is not given,
/// so a full-suite run and the driver's runs give comparable numbers.
const WARMUP_S: f64 = 2.0;
/// `--quick` windows: smoke tests only, never a claim.
const QUICK_WINDOW_S: f64 = 2.0;

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed =
        RunArgs { workload: None, seed: 0, seconds: None, trace: false, quick: false, out: None };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    load::workload_named(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(parsed)
}

/// The numbers only mean something on an optimised build with a core for
/// each client thread.
fn check_environment() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".into());
    }
    if procfs::nproc() < 2 {
        return Err(format!(
            "refusing to run on {} core(s); the load uses 2 client threads",
            procfs::nproc()
        ));
    }
    Ok(())
}

fn workload_json(
    workload: &Workload,
    end_to_end: Option<&run::RunResult>,
    traced: Option<&run::TracedRun>,
) -> Value {
    let mut doc = Map::new();
    doc.insert("clients".into(), json!(workload.clients));
    doc.insert("max_in_flight_per_client".into(), json!(workload.max_in_flight_per_client()));
    if let Some(r) = end_to_end {
        doc.insert("ops_attempted".into(), json!(r.attempted));
        doc.insert("ops_failed".into(), json!(r.failed));
        doc.insert("setup_measured_s".into(), json!(r.setup_measured_s));
        doc.insert("end_to_end".into(), report::metrics_json(&r.metrics, true));
    }
    if let Some(t) = traced {
        doc.insert("traced_ops_attempted".into(), json!(t.result.attempted));
        doc.insert("traced_ops_failed".into(), json!(t.result.failed));
        doc.insert("traced_tasks_sampled".into(), json!(t.sampled_tasks));
        doc.insert("timeline_within_latency_share".into(), json!(t.within_latency_share));
        doc.insert("per_layer".into(), report::metrics_json(&t.result.metrics, true));
    }
    Value::Object(doc)
}

/// Append `run` to the result set at `path`, creating it when missing.
fn append_run(path: &str, run: Value) -> Result<(), String> {
    let mut runs =
        if std::path::Path::new(path).exists() { compare::load_runs(path)? } else { vec![] };
    runs.push(run);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string_pretty(&json!({ "runs": runs })).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Warm-up and window lengths and the ladder's op-count scale.
struct Timings {
    warmup_s: f64,
    window_s: f64,
    ladder_scale: f64,
}

fn timings(args: &RunArgs) -> Timings {
    if args.quick {
        Timings {
            warmup_s: 0.5,
            window_s: args.seconds.unwrap_or(QUICK_WINDOW_S),
            ladder_scale: 0.1,
        }
    } else {
        let window_s = args.seconds.unwrap_or_else(|| compare::contract().run_seconds);
        Timings { warmup_s: WARMUP_S, window_s, ladder_scale: 1.0 }
    }
}

/// Print one run's metrics, counts and errors; whether every value checked.
fn print_result(workload: &Workload, result: &run::RunResult) -> bool {
    report::print_metrics(workload.name, &result.metrics);
    println!(
        "{:<20} ops_attempted={} ops_failed={}",
        workload.name, result.attempted, result.failed
    );
    if let Some(s) = result.setup_measured_s {
        println!(
            "{:<20} set-up measured {:.4} s; setup_s adds the {} s floor",
            workload.name,
            s,
            run::SETUP_FLOOR_S
        );
    }
    for e in &result.errors {
        eprintln!("{}: {e}", workload.name);
    }
    result.correct && result.failed == 0
}

/// The traced run of one workload, its trace file written and announced.
fn traced_run(workload: &Workload, seed: u64, t: &Timings) -> Result<run::TracedRun, String> {
    let traced = run::run_traced(workload, seed, t.warmup_s.min(1.0), t.window_s)?;
    let path = run::write_trace_file(workload, seed, &traced).map_err(|e| e.to_string())?;
    println!(
        "{:<20} traced: {} sampled tasks, {:.1}% with ts+tf+te+tw within the client latency, {}",
        workload.name,
        traced.sampled_tasks,
        traced.within_latency_share * 100.0,
        path.display()
    );
    Ok(traced)
}

/// One run of one workload, ending in the driver's one-line JSON.
fn driver_run(args: &RunArgs, workload: &'static Workload) -> Result<bool, String> {
    let t = timings(args);
    let header = report::header(args.seed, t.window_s, t.warmup_s, args.quick, stack::wal_root().1);
    let (result, doc) = if args.trace {
        // The driver wants every per-layer metric from the traced run, so
        // the ladder runs here too, first, while the process is fresh.
        let mut metrics = ladder::run(args.seed, t.ladder_scale);
        let mut traced = traced_run(workload, args.seed, &t)?;
        metrics.append(&mut traced.result.metrics);
        traced.result.metrics = metrics;
        let doc = workload_json(workload, None, Some(&traced));
        (traced.result, doc)
    } else {
        let result = run::run_end_to_end(workload, args.seed, t.warmup_s, t.window_s)?;
        let doc = workload_json(workload, Some(&result), None);
        (result, doc)
    };
    let correct = print_result(workload, &result);
    if let Some(path) = &args.out {
        append_run(path, json!({ "header": header, "workloads": { workload.name: doc } }))?;
    }
    let line = json!({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": report::metrics_json(&result.metrics, false),
    });
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(correct)
}

/// The ladder once, then every workload untraced and traced. The ladder
/// goes first: it is the part most sensitive to what the process has
/// already allocated and freed.
fn suite_run(args: &RunArgs) -> Result<bool, String> {
    let t = timings(args);
    let header = report::header(args.seed, t.window_s, t.warmup_s, args.quick, stack::wal_root().1);
    println!("{}", serde_json::to_string(&header).map_err(|e| e.to_string())?);

    let ladder: Vec<Metric> = ladder::run(args.seed, t.ladder_scale);
    report::print_metrics("ladder", &ladder);

    let mut all_correct = true;
    let mut workloads: Map<String, Value> = Map::new();
    for workload in &WORKLOADS {
        let untraced = run::run_end_to_end(workload, args.seed, t.warmup_s, t.window_s)?;
        all_correct &= print_result(workload, &untraced);
        let traced = traced_run(workload, args.seed, &t)?;
        all_correct &= print_result(workload, &traced.result);
        workloads
            .insert(workload.name.into(), workload_json(workload, Some(&untraced), Some(&traced)));
    }

    let run = json!({
        "header": header,
        "correct": all_correct,
        "workloads": workloads,
        "ladder": report::metrics_json(&ladder, true),
    });
    let default_out = format!("{}/out/result-{}.json", env!("CARGO_MANIFEST_DIR"), args.seed);
    let out = args.out.clone().unwrap_or(default_out);
    append_run(&out, run)?;
    println!("result appended to {out}; every value checked: {all_correct}");
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run_args = parse_run_args(&args[1..])?;
            check_environment()?;
            match run_args.workload {
                Some(workload) => driver_run(&run_args, workload),
                None => suite_run(&run_args),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: bench compare <a.json> <b.json>".into()),
        },
        _ => {
            Err("usage: bench run [--workload <name>] --seed <n> [--seconds <s>] [--trace <0|1>] \
                  [--quick] [--out <file>] | bench compare <a.json> <b.json>"
                .into())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
