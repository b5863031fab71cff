//! `sandbox` — the sandbox runtime's session pools and cap enforcement.
//!
//! ```sh
//! cargo run --release -p funcx-bench --bin sandbox            # full
//! cargo run --release -p funcx-bench --bin sandbox -- --quick # CI sizes
//! ```
//!
//! Two questions, answered with wall-clock numbers:
//!
//! 1. **What does a pre-warmed session buy?** Cold acquisition compiles
//!    the program and mints a fresh environment; a warm acquisition pops
//!    a recycled one from the pool. We execute a deliberately
//!    compile-heavy program (many defs, trivial entry) N times from cold
//!    (unique source each time) and N times warm (same source, pool
//!    recycled between runs) and compare per-execution latency.
//! 2. **What does metering cost?** The same compute-bound function runs
//!    on the one evaluator under both of its policies: FxScript's (fuel and
//!    value size) and the sandbox's (fuel + memory + deadline + output
//!    metering on every step). The sandbox host for this section has its
//!    modelled tier costs set to zero, so the p50 ratio is the
//!    cap-enforcement overhead and not the 500 µs warm-acquisition sleep.
//!
//! Emits `BENCH_sandbox.json`. The CI verdict (warm acquisition under
//! 10% of cold) is WARN-only.

use std::sync::Arc;
use std::time::Instant;

use funcx_bench::Table;
use funcx_endpoint::{FunctionRuntime, FxScriptRuntime, RuntimeJob, SandboxRuntime};
use funcx_lang::{Limits, NoopHooks, Value};
use funcx_sandbox::{ExecRequest, SandboxConfig, SandboxHost};
use funcx_types::time::{RealClock, SharedClock, VirtualDuration};
use funcx_types::TaskLimits;

/// A compile-heavy program: `pad` dead defs the parser must chew through,
/// plus a trivial entry. `tag` makes each source unique (a distinct
/// program key → a cold acquisition).
fn padded_source(tag: usize, pad: usize) -> String {
    let mut src = String::new();
    for i in 0..pad {
        src.push_str(&format!("def pad_{i}(x):\n    return x + {i} + {tag}\n\n"));
    }
    src.push_str(&format!("def entry(x):\n    return x + {tag}\n"));
    src
}

fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Execute `source` once on `host`, returning the wall latency in µs.
fn exec_us(host: &Arc<SandboxHost>, source: &str) -> f64 {
    let args = [Value::Int(1)];
    let start = Instant::now();
    let out = host
        .execute(ExecRequest {
            source,
            entry: "entry",
            args: &args,
            kwargs: &[],
            limits: TaskLimits::default(),
            capabilities: &[],
            session: None,
            extra_modules: &[],
            hooks: &NoopHooks,
        })
        .expect("bench program cannot fail");
    assert!(matches!(out.value, Value::Int(_)));
    start.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 60 } else { 300 };
    let pad = if quick { 120 } else { 240 };
    let compute_iters = if quick { 400 } else { 1500 };

    // Virtual time = wall time, which keeps the sandbox's virtual deadline
    // meaningful. It also means the hosts of section 1 really sleep their
    // modelled tier costs (cold 80 ms, clone 6 ms, warm 500 µs): those
    // numbers hold the model as well as the compile.
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1.0));

    // ---- 1. cold vs pre-warmed session acquisition ----------------------
    // Cold: every execution presents a never-seen program.
    let cold_host = SandboxHost::with_defaults(Arc::clone(&clock));
    let cold_us: Vec<f64> = (0..n).map(|i| exec_us(&cold_host, &padded_source(i, pad))).collect();
    let cold_stats = cold_host.stats();
    assert_eq!(cold_stats.cold_misses, n as u64, "every acquisition was cold");

    // Warm: one program, executed n+1 times; the first (cold) sample is
    // dropped, the rest reuse the pooled session environment.
    let warm_host = SandboxHost::with_defaults(Arc::clone(&clock));
    let warm_source = padded_source(n + 1, pad);
    let _prime = exec_us(&warm_host, &warm_source);
    let warm_us: Vec<f64> = (0..n).map(|_| exec_us(&warm_host, &warm_source)).collect();
    let warm_stats = warm_host.stats();
    let recycled = warm_stats.warm_hits + warm_stats.predicted_hits + warm_stats.clone_hits;
    assert!(recycled >= n as u64, "pool recycling failed: {warm_stats:?}");

    let cold_p50 = quantile(&cold_us, 0.50);
    let warm_p50 = quantile(&warm_us, 0.50);
    let warm_over_cold = warm_p50 / cold_p50.max(f64::EPSILON);
    let warm_under_10pct = warm_over_cold < 0.10;

    let mut table = Table::new(
        "session acquisition: cold compile vs pre-warmed pool (wall µs)",
        &["path", "execs", "p50", "p99"],
    );
    table.row(vec![
        "cold".into(),
        n.to_string(),
        format!("{cold_p50:.1}"),
        format!("{:.1}", quantile(&cold_us, 0.99)),
    ]);
    table.row(vec![
        "warm".into(),
        n.to_string(),
        format!("{warm_p50:.1}"),
        format!("{:.1}", quantile(&warm_us, 0.99)),
    ]);
    println!("{table}");
    println!(
        "warm acquisition is {:.1}% of cold ({})",
        warm_over_cold * 100.0,
        if warm_under_10pct { "under the 10% target" } else { "WARN: over the 10% target" }
    );

    // ---- 2. cap-enforcement overhead vs FxScript ------------------------
    let compute = format!(
        "def entry(x):\n    total = 0\n    for i in range({compute_iters}):\n        total = total + i\n    return total + x\n"
    );
    let fx = FxScriptRuntime::new(Limits::default());
    let meter_host = SandboxHost::new(
        Arc::clone(&clock),
        SandboxConfig {
            cold_cost: VirtualDuration::ZERO,
            clone_cost: VirtualDuration::ZERO,
            warm_cost: VirtualDuration::ZERO,
            ..SandboxConfig::default()
        },
    );
    let sb = SandboxRuntime::new(meter_host);
    let limits = TaskLimits::default();
    let args = [Value::Int(0)];
    let run = |rt: &dyn FunctionRuntime, source: &str| -> f64 {
        let start = Instant::now();
        let verdict = rt.execute(RuntimeJob {
            source,
            entry: "entry",
            args: &args,
            kwargs: &[],
            limits: &limits,
            capabilities: &[],
            session: None,
            extra_modules: &[],
            hooks: &NoopHooks,
        });
        verdict.outcome.expect("compute program cannot fail");
        start.elapsed().as_secs_f64() * 1e6
    };
    // Prime both runtimes (pool mint) before sampling.
    let _ = run(&fx, &compute);
    let _ = run(&sb, &compute);
    let fx_us: Vec<f64> = (0..n).map(|_| run(&fx, &compute)).collect();
    let sb_us: Vec<f64> = (0..n).map(|_| run(&sb, &compute)).collect();
    let fx_p50 = quantile(&fx_us, 0.50);
    let sb_p50 = quantile(&sb_us, 0.50);
    let overhead = sb_p50 / fx_p50.max(f64::EPSILON);

    let mut table = Table::new(
        "cap-enforcement overhead: same compute under both policies (wall µs)",
        &["policy", "execs", "p50", "p99"],
    );
    table.row(vec![
        "fxscript".into(),
        n.to_string(),
        format!("{fx_p50:.1}"),
        format!("{:.1}", quantile(&fx_us, 0.99)),
    ]);
    table.row(vec![
        "sandbox".into(),
        n.to_string(),
        format!("{sb_p50:.1}"),
        format!("{:.1}", quantile(&sb_us, 0.99)),
    ]);
    println!("{table}");
    println!("the sandbox policy costs {overhead:.2}x the FxScript policy at p50");

    let json = format!(
        "{{\n  \"bench\": \"sandbox\",\n  \"quick\": {quick},\n  \"execs_per_path\": {n},\n  \"acquisition\": {{\n    \"cold_p50_us\": {:.3},\n    \"cold_p99_us\": {:.3},\n    \"warm_p50_us\": {:.3},\n    \"warm_p99_us\": {:.3},\n    \"warm_over_cold\": {:.4},\n    \"warm_under_10pct_of_cold\": {warm_under_10pct},\n    \"warm_tiers\": {{\"warm\": {}, \"predicted\": {}, \"clone\": {}, \"cold\": {}}}\n  }},\n  \"cap_enforcement\": {{\n    \"fxscript_p50_us\": {:.3},\n    \"fxscript_p99_us\": {:.3},\n    \"sandbox_p50_us\": {:.3},\n    \"sandbox_p99_us\": {:.3},\n    \"overhead_ratio\": {:.4}\n  }}\n}}\n",
        cold_p50,
        quantile(&cold_us, 0.99),
        warm_p50,
        quantile(&warm_us, 0.99),
        warm_over_cold,
        warm_stats.warm_hits,
        warm_stats.predicted_hits,
        warm_stats.clone_hits,
        warm_stats.cold_misses,
        fx_p50,
        quantile(&fx_us, 0.99),
        sb_p50,
        quantile(&sb_us, 0.99),
        overhead,
    );
    std::fs::write("BENCH_sandbox.json", json).expect("write BENCH_sandbox.json");
    println!("wrote BENCH_sandbox.json");
}
