//! One workload end to end: stand the stack up (several times, for the
//! set-up figure), warm it, drive the closed loop through one or more
//! measured windows, tear everything down, and turn the logs into metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use funcx_service::http::http_request;

use crate::load::{self, ClientLog, ClientSetup, WindowStats, Workload};
use crate::procfs;
use crate::report::Metric;
use crate::stack::Stack;
use crate::stats::{median, midmean, Sorted};
use crate::trace::{ApiCall, CallKind, Span, TaskTrace, Timeline};

/// How many times a run stands the stack up.
pub const SETUPS_PER_RUN: usize = 40;

/// `setup_s` is this constant plus the midmean of the measured set-ups.
///
/// A set-up takes 3 to 9 ms, most of it thread spawns and page faults, and
/// on this sandbox that kind of work takes half as long again in some
/// quarter-hours as in others. A bound is a share of the base value, so a
/// 25 % bound on the bare figure would be about one millisecond, one poll
/// period, and would fire on the host's mood. The constant is the issue's
/// "floor 0.1 s" in a contract that has no floors: with it the bound
/// tolerates about 26 ms, and any change that moves more work than that
/// into set-up still shows. The bare figure is reported beside it.
pub const SETUP_FLOOR_S: f64 = 0.1;

/// At most this many tasks of a traced window get their timeline fetched.
pub const MAX_TRACED_TASKS: usize = 500;

/// Index of the task that proves a fresh stack works; far above any index
/// a measured window reaches.
const WARM_TASK_INDEX: u64 = u64::MAX / 2;

/// A stack with the workload's clients connected and one task verified.
struct Ready {
    stack: Stack,
    clients: Vec<ClientSetup>,
}

/// Stand up the stack and the clients, and push one verified task through
/// client 0. Everything a first request needs has happened when this
/// returns: WAL recovery, REST bind, endpoint attach, registrations.
fn set_up(
    workload: &Workload,
    seed: u64,
    recording: Option<&Arc<AtomicBool>>,
) -> Result<Ready, String> {
    let stack = Stack::start()?;
    let clients = (0..workload.clients)
        .map(|_| load::connect_client(&stack, workload, recording.cloned()))
        .collect::<Result<Vec<_>, _>>()?;
    let first = &clients[0];
    let (args, expected) = workload.function.invocation(seed, WARM_TASK_INDEX);
    let task = first
        .client
        .run(first.function_id, first.endpoint_id, args, vec![])
        .map_err(|e| format!("warm task submit: {e}"))?;
    let value = first
        .client
        .get_result(task, load::TASK_TIMEOUT)
        .map_err(|e| format!("warm task result: {e}"))?;
    if value != expected {
        return Err("warm task returned the wrong value".to_string());
    }
    Ok(Ready { stack, clients })
}

/// Set up [`SETUPS_PER_RUN`] times, keeping the last stack. Returns the
/// seconds each set-up took.
fn set_up_repeatedly(workload: &Workload, seed: u64) -> Result<(Ready, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS_PER_RUN);
    let mut kept = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(kept.take());
        let t0 = Instant::now();
        let ready = set_up(workload, seed, None)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(ready);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// One stretch of the closed loop.
#[derive(Debug, Clone, Copy)]
struct Phase {
    seconds: f64,
    /// SDK calls are recorded and counters scraped around this phase.
    traced: bool,
}

/// Host and service counters at one instant.
#[derive(Debug, Clone, Default)]
struct Counters {
    service: std::collections::HashMap<String, f64>,
    rss_kb: u64,
    context_switches: u64,
}

fn scrape(stack: &Stack) -> Counters {
    let text = http_request(stack.rest_addr, "GET", "/v1/metrics", None, &[])
        .map(|resp| String::from_utf8_lossy(&resp.body).into_owned())
        .unwrap_or_default();
    Counters {
        service: procfs::parse_metrics(&text),
        rss_kb: procfs::rss_kb(),
        context_switches: procfs::host_context_switches(),
    }
}

/// What the coordinating thread noted about one phase.
struct PhaseMark {
    from_ns: u64,
    to_ns: u64,
    cpu_s: f64,
    before: Counters,
    after: Counters,
    threads_peak: u64,
}

/// Run the clients through `phases`, back to back, then stop them and
/// collect what was in flight.
fn drive(
    ready: &Ready,
    workload: &Workload,
    seed: u64,
    phases: &[Phase],
    recording: &AtomicBool,
) -> (Vec<ClientLog>, Vec<PhaseMark>) {
    let stop = AtomicBool::new(false);
    let now_ns = || ready.stack.clock.now().as_nanos();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter()
            .enumerate()
            .map(|(i, setup)| {
                let stop = &stop;
                scope.spawn(move || load::run_client(setup, workload, seed, i, stop))
            })
            .collect();
        let mut marks = Vec::with_capacity(phases.len());
        for &phase in phases {
            let before = if phase.traced { scrape(&ready.stack) } else { Counters::default() };
            recording.store(phase.traced, Ordering::Release);
            let (from_ns, cpu0) = (now_ns(), procfs::cpu_seconds());
            let deadline = Instant::now() + Duration::from_secs_f64(phase.seconds);
            let mut threads_peak = 0;
            if phase.traced {
                // The coordinator is idle anyway: sample the thread count.
                while Instant::now() < deadline {
                    threads_peak = threads_peak.max(procfs::threads());
                    std::thread::sleep(Duration::from_millis(50));
                }
            } else {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            }
            let (to_ns, cpu1) = (now_ns(), procfs::cpu_seconds());
            recording.store(false, Ordering::Release);
            let after = if phase.traced { scrape(&ready.stack) } else { Counters::default() };
            marks.push(PhaseMark {
                from_ns,
                to_ns,
                cpu_s: cpu1 - cpu0,
                before,
                after,
                threads_peak,
            });
        }
        stop.store(true, Ordering::Release);
        let logs = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (logs, marks)
    })
}

/// The `q` quantile of a non-empty sample set, with a note on stderr when
/// fewer than ten samples lie beyond it (short `--quick` windows).
fn percentile(scope: &str, samples: &Sorted, q: f64) -> f64 {
    if !samples.supports(q) {
        eprintln!("{scope}: p{:.0} rests on only {} samples", q * 100.0, samples.len());
    }
    samples.quantile(q).expect("callers check the set is non-empty")
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Tasks collected inside the measured windows.
    pub attempted: u64,
    pub failed: u64,
    /// Every task of the run verified, warm-up and drain included.
    pub correct: bool,
    pub errors: Vec<String>,
    /// Midmean of the set-ups without [`SETUP_FLOOR_S`]; `None` for a
    /// traced run, which sets up once and does not time it.
    pub setup_measured_s: Option<f64>,
}

fn summarize_failures(logs: &[ClientLog]) -> (bool, Vec<String>) {
    let correct = logs.iter().all(|l| l.tasks.iter().all(|t| t.ok));
    let errors = logs.iter().flat_map(|l| l.errors.iter().cloned()).take(5).collect();
    (correct, errors)
}

/// The untraced run: the end-to-end metrics of one workload.
pub fn run_end_to_end(
    workload: &Workload,
    seed: u64,
    warmup_s: f64,
    window_s: f64,
) -> Result<RunResult, String> {
    let (ready, setup_times) = set_up_repeatedly(workload, seed)?;
    let phases =
        [Phase { seconds: warmup_s, traced: false }, Phase { seconds: window_s, traced: false }];
    let (logs, marks) = drive(&ready, workload, seed, &phases, &AtomicBool::new(false));
    drop(ready);

    let mark = &marks[1];
    let mut stats = load::window_stats(&logs, mark.from_ns, mark.to_ns);
    let (correct, errors) = summarize_failures(&logs);
    if stats.completed() == 0 {
        return Err(format!("no task completed inside the window; errors: {errors:?}"));
    }
    let latency = Sorted::new(std::mem::take(&mut stats.latency_ms));
    let roundtrip = Sorted::new(std::mem::take(&mut stats.batch_roundtrip_ms));
    if roundtrip.len() == 0 {
        return Err("no batch finished inside the window; lengthen it".to_string());
    }
    let q = |s: &Sorted, q: f64| percentile(workload.name, s, q);
    let setup_measured_s = midmean(&setup_times);
    let metrics = vec![
        Metric::new("setup_s", SETUP_FLOOR_S + setup_measured_s, "s", setup_times.len()),
        Metric::new("tasks_per_s", stats.tasks_per_s(), "1/s", stats.completed() as usize),
        Metric::new("latency_p50_ms", q(&latency, 0.5), "ms", latency.len()),
        Metric::new("batch_roundtrip_p50_ms", q(&roundtrip, 0.5), "ms", roundtrip.len()),
    ];
    Ok(RunResult {
        metrics,
        attempted: stats.attempted,
        failed: stats.failed,
        correct,
        errors,
        setup_measured_s: Some(setup_measured_s),
    })
}

/// What a traced run yields beyond its metrics.
pub struct TracedRun {
    pub result: RunResult,
    /// Span trees of the sampled tasks, flattened.
    pub spans: Vec<Span>,
    pub sampled_tasks: usize,
    /// Share of sampled tasks whose service-side stations fit inside the
    /// latency the client saw.
    pub within_latency_share: f64,
}

/// The traced run: an untraced window, a traced one, another untraced one
/// on the same stack (so drift over the run cancels out of the overhead
/// ratio), then the timelines of a sample of the traced window's tasks.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    warmup_s: f64,
    window_s: f64,
) -> Result<TracedRun, String> {
    let recording = Arc::new(AtomicBool::new(false));
    let ready = set_up(workload, seed, Some(&recording))?;
    let side = Phase { seconds: window_s / 4.0, traced: false };
    let phases = [
        Phase { seconds: warmup_s, traced: false },
        side,
        Phase { seconds: window_s / 2.0, traced: true },
        side,
    ];
    let (logs, marks) = drive(&ready, workload, seed, &phases, &recording);
    let calls: Vec<ApiCall> = ready.clients.iter().flat_map(|c| c.call_log.take()).collect();

    let window = |i: usize| load::window_stats(&logs, marks[i].from_ns, marks[i].to_ns);
    let (before, traced, after) = (window(1), window(2), window(3));
    let mark = &marks[2];
    let (correct, errors) = summarize_failures(&logs);
    if traced.completed() == 0 {
        return Err(format!("no task completed inside the traced window; errors: {errors:?}"));
    }

    let traces = sample_traces(&ready, &logs, &calls, mark.from_ns, mark.to_ns);
    let time_wait = procfs::time_wait_sockets(ready.stack.rest_addr);
    let connect_errors: u64 = logs.iter().map(|l| l.connect_errors).sum();
    drop(ready);

    let mut metrics = sdk_and_station_metrics(&traced, &calls, &traces, mark)?;
    metrics.extend(counter_metrics(&traced, mark, connect_errors, time_wait));
    let untraced_rate = (before.tasks_per_s() + after.tasks_per_s()) / 2.0;
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        traced.tasks_per_s() / untraced_rate,
        "ratio",
        traced.completed() as usize,
    ));

    let judged: Vec<bool> = traces.iter().filter_map(TaskTrace::timeline_within_latency).collect();
    let within_latency_share =
        judged.iter().filter(|&&ok| ok).count() as f64 / judged.len().max(1) as f64;
    Ok(TracedRun {
        result: RunResult {
            metrics,
            attempted: traced.attempted,
            failed: traced.failed,
            correct,
            errors,
            setup_measured_s: None,
        },
        spans: traces.iter().flat_map(TaskTrace::spans).collect(),
        sampled_tasks: traces.len(),
        within_latency_share,
    })
}

/// Pick up to [`MAX_TRACED_TASKS`] verified tasks of the window, evenly
/// spread, and join what the client saw with the service's timeline.
fn sample_traces(
    ready: &Ready,
    logs: &[ClientLog],
    calls: &[ApiCall],
    from_ns: u64,
    to_ns: u64,
) -> Vec<TaskTrace> {
    let mut candidates: Vec<(u128, u128, (u64, u64))> = logs
        .iter()
        .flat_map(|log| {
            log.tasks.iter().filter(|t| t.ok && t.done_ns >= from_ns && t.done_ns < to_ns).map(
                |t| {
                    let batch = &log.batches[t.batch as usize];
                    (t.task, batch.first_task, (batch.submit_ns, t.done_ns))
                },
            )
        })
        .collect();
    candidates.sort_unstable_by_key(|c| c.2 .1);
    let stride = candidates.len().div_ceil(MAX_TRACED_TASKS).max(1);
    let chosen: Vec<_> = candidates.into_iter().step_by(stride).collect();

    let mut submits = std::collections::HashMap::new();
    let mut polls: std::collections::HashMap<u128, Vec<(u64, u64)>> = Default::default();
    for call in calls {
        match call.kind {
            CallKind::Submit => {
                submits.insert(call.task, (call.start_ns, call.end_ns));
            }
            CallKind::Result => {
                polls.entry(call.task).or_default().push((call.start_ns, call.end_ns))
            }
        }
    }
    chosen
        .into_iter()
        .map(|(task, first_task, client)| {
            let id = funcx_types::TaskId::from_u128(task);
            let timeline = http_request(
                ready.stack.rest_addr,
                "GET",
                &format!("/v1/tasks/{id}/timeline"),
                Some(&ready.stack.token),
                &[],
            )
            .ok()
            .and_then(|resp| serde_json::from_slice::<serde_json::Value>(&resp.body).ok())
            .and_then(|body| Timeline::from_json(&body));
            TaskTrace {
                task,
                client,
                submit_call: submits.get(&first_task).copied(),
                polls: polls.remove(&task).unwrap_or_default(),
                timeline,
            }
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `sdk.*` and the four station medians, from the call log and the
/// sampled timelines.
fn sdk_and_station_metrics(
    traced: &WindowStats,
    calls: &[ApiCall],
    traces: &[TaskTrace],
    mark: &PhaseMark,
) -> Result<Vec<Metric>, String> {
    let in_window = |c: &&ApiCall| c.end_ns >= mark.from_ns && c.end_ns < mark.to_ns;
    let submit_ms: Vec<f64> = calls
        .iter()
        .filter(in_window)
        .filter(|c| c.kind == CallKind::Submit)
        .map(|c| ms(c.end_ns - c.start_ns))
        .collect();
    let polls = calls.iter().filter(in_window).filter(|c| c.kind == CallKind::Result).count();
    let tasks = traced.completed().max(1) as f64;
    // Per sampled task: first poll start to last poll end, minus the polls.
    let sleep_ms: Vec<f64> = traces
        .iter()
        .filter(|t| !t.polls.is_empty())
        .map(|t| {
            let span = t.polls.last().expect("non-empty").1 - t.polls[0].0;
            let polling: u64 = t.polls.iter().map(|p| p.1 - p.0).sum();
            ms(span.saturating_sub(polling))
        })
        .collect();
    let latency = Sorted::new(traced.latency_ms.clone());
    let timelines: Vec<(&TaskTrace, Timeline)> =
        traces.iter().filter_map(|t| t.timeline.map(|tl| (t, tl))).collect();
    if submit_ms.is_empty() || sleep_ms.is_empty() || timelines.is_empty() {
        return Err(format!(
            "traced window too thin: {} submit calls, {} polled tasks, {} complete timelines",
            submit_ms.len(),
            sleep_ms.len(),
            timelines.len()
        ));
    }
    let station = |f: fn(&Timeline) -> u64| -> f64 {
        median(&timelines.iter().map(|(_, tl)| ms(f(tl))).collect::<Vec<_>>())
    };
    let unattributed: Vec<f64> = timelines
        .iter()
        .map(|(t, tl)| ms((t.client.1 - t.client.0).saturating_sub(tl.total_ns())))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Ok(vec![
        Metric::new("sdk.submit_ms", median(&submit_ms), "ms", submit_ms.len()),
        Metric::new("sdk.polls_per_task", polls as f64 / tasks, "count", polls),
        Metric::new("sdk.poll_sleep_ms_per_task", mean(&sleep_ms), "ms", sleep_ms.len()),
        Metric::new(
            "sdk.latency_p95_ms",
            percentile("traced window", &latency, 0.95),
            "ms",
            latency.len(),
        ),
        Metric::new(
            "sdk.latency_p99_ms",
            percentile("traced window", &latency, 0.99),
            "ms",
            latency.len(),
        ),
        Metric::new("sdk.unattributed_ms", median(&unattributed), "ms", unattributed.len()),
        Metric::new("service.ts_ms", station(Timeline::ts_ns), "ms", timelines.len()),
        Metric::new("service.tf_ms", station(Timeline::tf_ns), "ms", timelines.len()),
        Metric::new("endpoint.te_ms", station(Timeline::te_ns), "ms", timelines.len()),
        Metric::new("endpoint.tw_ms", station(Timeline::tw_ns), "ms", timelines.len()),
    ])
}

/// Counter deltas over the traced window, per task where that is the
/// useful form.
fn counter_metrics(
    traced: &WindowStats,
    mark: &PhaseMark,
    connect_errors: u64,
    time_wait: u64,
) -> Vec<Metric> {
    let tasks = traced.completed().max(1) as f64;
    let n = traced.completed() as usize;
    let delta = |name: &str| {
        let at = |c: &Counters| c.service.get(name).copied().unwrap_or(0.0);
        at(&mark.after) - at(&mark.before)
    };
    let submitted = delta("funcx_tasks_submitted_total");
    let per_submitted = |v: f64| v / submitted.max(1.0);
    vec![
        Metric::new("http.connect_errors", connect_errors as f64, "count", n),
        Metric::new("http.time_wait_sockets", time_wait as f64, "count", 1),
        Metric::new("service.tasks_submitted", submitted, "count", 1),
        Metric::new("service.results_stored", delta("funcx_results_stored_total"), "count", 1),
        Metric::new("service.tasks_requeued", delta("funcx_tasks_requeued_total"), "count", 1),
        Metric::new(
            "wal.appends_per_task",
            per_submitted(delta("funcx_wal_appends_total")),
            "count",
            n,
        ),
        Metric::new(
            "wal.bytes_per_task",
            per_submitted(delta("funcx_wal_bytes_written_total")),
            "bytes",
            n,
        ),
        Metric::new(
            "wal.fsyncs_per_ktask",
            per_submitted(delta("funcx_wal_fsyncs_total")) * 1e3,
            "count",
            n,
        ),
        Metric::new("process.cpu_ms_per_task", mark.cpu_s * 1e3 / tasks, "ms", n),
        Metric::new(
            "process.rss_kb_per_task",
            (mark.after.rss_kb as f64 - mark.before.rss_kb as f64) / tasks,
            "KiB",
            n,
        ),
        Metric::new(
            "process.ctx_switches_per_task",
            (mark.after.context_switches - mark.before.context_switches) as f64 / tasks,
            "count",
            n,
        ),
        Metric::new("process.threads_peak", mark.threads_peak as f64, "count", 1),
    ]
}

/// Write the span trees of a traced run where the README says they go.
pub fn write_trace_file(
    workload: &Workload,
    seed: u64,
    run: &TracedRun,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", workload.name));
    let spans: Vec<serde_json::Value> = run
        .spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "trace_id": funcx_types::TaskId::from_u128(s.trace_id).to_string(),
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": s.self_ns,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "workload": workload.name,
        "seed": seed,
        "sampled_tasks": run.sampled_tasks,
        "timeline_within_latency_share": run.within_latency_share,
        "spans": spans,
    });
    std::fs::write(&path, serde_json::to_vec(&doc).expect("trace serializes"))?;
    Ok(path)
}
