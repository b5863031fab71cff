//! Integration: the instrumentation pipeline against a live in-process
//! deployment — counters, histograms, scrape rendering, and the Figure 4
//! timeline decomposition, without the HTTP layer in between.

use std::sync::Arc;
use std::time::Duration;

use funcx_auth::{IdentityProvider, Scope};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_proto::channel::inproc_pair;
use funcx_registry::Sharing;
use funcx_serial::Serializer;
use funcx_service::service::SubmitRequest;
use funcx_service::{FuncxService, ServiceConfig};
use funcx_types::task::TaskOutcome;
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::trace::TraceId;
use funcx_types::{EndpointId, TaskId};

struct Deployment {
    service: Arc<FuncxService>,
    token: String,
    endpoint_id: EndpointId,
    // Held so the forwarder thread stays alive for the deployment's lifetime.
    _forwarder: funcx_service::forwarder::Forwarder,
    agent: Agent,
    managers: Vec<Manager>,
}

fn deploy() -> Deployment {
    deploy_with(ServiceConfig {
        heartbeat_timeout: Duration::from_secs(600),
        ..ServiceConfig::default()
    })
}

fn deploy_with(service_config: ServiceConfig) -> Deployment {
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), service_config);
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let endpoint_id = service.register_endpoint(&token, "laptop", "", false).unwrap();
    let (forwarder, agent_channel) = service.connect_endpoint(endpoint_id, Duration::ZERO).unwrap();
    let config = EndpointConfig {
        workers_per_manager: 4,
        dispatch_overhead: Duration::ZERO,
        heartbeat_period: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(600),
        ..EndpointConfig::default()
    };
    let agent = Agent::spawn(endpoint_id, config.clone(), Arc::clone(&clock), agent_channel);
    let (agent_side, mgr_side) = inproc_pair();
    let manager = Manager::spawn(config, Arc::clone(&clock), Serializer::default(), mgr_side, None);
    agent.attach_manager(agent_side);
    Deployment {
        service,
        token,
        endpoint_id,
        _forwarder: forwarder,
        agent,
        managers: vec![manager],
    }
}

fn run_task(d: &Deployment, source: &str, entry: &str) -> TaskId {
    let f = d
        .service
        .register_function(&d.token, entry, source, entry, None, Sharing::default())
        .unwrap();
    let task = d
        .service
        .submit(
            &d.token,
            SubmitRequest {
                function_id: f,
                target: d.endpoint_id.into(),
                args: vec![],
                kwargs: vec![],
                allow_memo: false,
            },
        )
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if let Ok(Some(outcome)) = d.service.get_result(&d.token, task) {
            assert!(matches!(outcome, TaskOutcome::Success(_)));
            return task;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("task did not complete");
}

fn shutdown(mut d: Deployment) {
    for m in &mut d.managers {
        m.stop();
    }
    d.agent.stop();
}

/// A task's trace id is its uuid bits verbatim.
fn trace_of(task: TaskId) -> TraceId {
    TraceId(task.uuid().as_u128())
}

/// Block until the sampler retains `trace`. The keep/drop decision runs in
/// the forwarder's result loop *after* the record write `get_result`
/// observes, so a just-completed task's trace may still be active.
fn await_trace(d: &Deployment, trace: TraceId) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !d.service.tracer.retained(trace) {
        assert!(std::time::Instant::now() < deadline, "trace {trace} never retained");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn live_pipeline_populates_counters_histograms_and_timelines() {
    let d = deploy();
    let mut tasks = Vec::new();
    for i in 0..3 {
        tasks.push(run_task(&d, &format!("def f{i}():\n    return {i}\n"), &format!("f{i}")));
    }

    // Stage counters all saw every task.
    for name in [
        "funcx_tasks_submitted_total",
        "funcx_tasks_dispatched_total",
        "funcx_results_stored_total",
    ] {
        let v = d.service.metrics.counter_value(name, &[]).unwrap_or(0);
        assert_eq!(v, 3, "{name} = {v}");
    }
    // Both histograms carry one observation per task.
    let latency = d.service.metrics.histogram_snapshot("funcx_task_latency_seconds", &[]).unwrap();
    assert_eq!(latency.count, 3);
    assert!(latency.sum > Duration::ZERO);
    let exec = d.service.metrics.histogram_snapshot("funcx_task_exec_seconds", &[]).unwrap();
    assert_eq!(exec.count, 3);

    // The scrape surface renders those same values in the text format.
    let scrape = d.service.render_metrics();
    assert!(scrape.contains("funcx_tasks_submitted_total 3"), "{scrape}");
    assert!(scrape.contains("# TYPE funcx_task_latency_seconds histogram"), "{scrape}");
    assert!(scrape.contains("funcx_task_latency_seconds_count 3"), "{scrape}");
    assert!(scrape.contains("funcx_endpoints_online 1"), "{scrape}");

    // Every timeline is fully stamped, ordered, and tiles the Figure 4
    // decomposition exactly: ts + tf + te + tw == end-to-end latency.
    for task in tasks {
        let record = d.service.timeline(&d.token, task).unwrap();
        let tl = &record.timeline;
        assert!(tl.is_complete(), "incomplete timeline: {tl:?}");
        assert!(tl.is_monotone(), "non-monotone timeline: {tl:?}");
        let total = tl.total().unwrap();
        let sum = tl.t_service().unwrap()
            + tl.t_forwarder().unwrap()
            + tl.t_endpoint().unwrap()
            + tl.t_exec().unwrap();
        assert_eq!(sum, total, "components do not tile: {tl:?}");
        assert!(total > Duration::ZERO);
    }

    // The lifecycle is still on the counters once the timelines are read:
    // one submit and one stored result per task, no more.
    assert_eq!(d.service.metrics.counter_value("funcx_tasks_submitted_total", &[]), Some(3));
    assert_eq!(d.service.metrics.counter_value("funcx_results_stored_total", &[]), Some(3));
    shutdown(d);
}

#[test]
fn completed_task_yields_connected_trace_tree() {
    let d = deploy();
    let task = run_task(&d, "def f():\n    return 1\n", "f");
    let trace = trace_of(task);
    await_trace(&d, trace);

    let tree = d.service.tracer.tree_json(trace).unwrap();
    assert_eq!(tree["complete"], true);
    assert_eq!(tree["root_count"], 1, "{tree}");

    // Connectedness: every non-root span's parent resolves inside the
    // trace — one tree, stitched across the service/forwarder/endpoint
    // boundaries, not islands.
    let spans = tree["spans"].as_array().unwrap();
    let ids: std::collections::HashSet<&str> =
        spans.iter().map(|s| s["span_id"].as_str().unwrap()).collect();
    for s in spans {
        if let Some(parent) = s["parent_id"].as_str() {
            assert!(ids.contains(parent), "dangling parent in {s}");
        }
    }
    let root = spans.iter().find(|s| s["parent_id"].as_str().is_none()).unwrap();
    assert_eq!(root["name"], "task");

    let names: Vec<&str> = spans.iter().map(|s| s["name"].as_str().unwrap()).collect();
    for required in
        ["task", "service", "forwarder_out", "endpoint", "manager_pickup", "exec", "forwarder_in"]
    {
        assert!(names.contains(&required), "missing span {required}: {names:?}");
    }

    // Figure 4 tiling: the five station spans sum to the root exactly, and
    // the root agrees with the TaskTimeline's end-to-end latency.
    let dur = |name: &str| {
        spans.iter().find(|s| s["name"] == name).unwrap()["duration_nanos"].as_u64().unwrap()
    };
    let stations =
        dur("service") + dur("forwarder_out") + dur("endpoint") + dur("exec") + dur("forwarder_in");
    assert_eq!(stations, dur("task"), "station spans do not tile the root: {tree}");
    let record = d.service.timeline(&d.token, task).unwrap();
    assert_eq!(u128::from(dur("task")), record.timeline.total().unwrap().as_nanos());
    shutdown(d);
}

#[test]
fn tail_sampler_keeps_error_traces_and_drops_healthy_ones() {
    // 1% head sampling, slow-tail of one: of ~100 healthy traces at most a
    // handful survive, but the error-flagged trace is always retained.
    let d = deploy_with(ServiceConfig {
        heartbeat_timeout: Duration::from_secs(600),
        trace_head_sample: 0.01,
        trace_slowest_keep: 1,
        ..ServiceConfig::default()
    });
    let healthy = d
        .service
        .register_function(&d.token, "f", "def f():\n    return 1\n", "f", None, Sharing::default())
        .unwrap();
    let failing = d
        .service
        .register_function(
            &d.token,
            "g",
            "def g():\n    return 1 / 0\n",
            "g",
            None,
            Sharing::default(),
        )
        .unwrap();
    let submit = |function_id| {
        d.service
            .submit(
                &d.token,
                SubmitRequest {
                    function_id,
                    target: d.endpoint_id.into(),
                    args: vec![],
                    kwargs: vec![],
                    allow_memo: false,
                },
            )
            .unwrap()
    };
    let tasks: Vec<TaskId> = (0..100).map(|_| submit(healthy)).collect();
    let bad = submit(failing);

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    for &t in tasks.iter().chain([&bad]) {
        loop {
            if let Ok(Some(_)) = d.service.get_result(&d.token, t) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "task {t} did not complete");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert!(matches!(d.service.get_result(&d.token, bad), Ok(Some(TaskOutcome::Failure(_)))));

    // Wait for every completion decision to land, then count survivors.
    while d.service.tracer.active_len() > 0 {
        assert!(std::time::Instant::now() < deadline, "traces never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let kept = tasks.iter().filter(|t| d.service.tracer.retained(trace_of(**t))).count();
    assert!(
        kept * 10 <= tasks.len(),
        "{kept}/{} healthy traces kept at 1% head sample",
        tasks.len()
    );
    assert!(
        d.service.tracer.traces_sampled_out() >= 90,
        "sampled_out = {}",
        d.service.tracer.traces_sampled_out()
    );

    // The failed task's trace survived with its error flag, full tree intact.
    let tree = d.service.tracer.tree_json(trace_of(bad)).unwrap();
    assert_eq!(tree["flags"][0], "error", "{tree}");
    assert_eq!(tree["complete"], true);
    shutdown(d);
}

#[test]
fn endpoint_status_reports_report_age() {
    // Guard: under the offline stub harness serde_json cannot serialize,
    // which the REST layer requires; the real dependency set runs this.
    if serde_json::to_vec(&serde_json::json!({})).is_err() {
        eprintln!("skipping: serde_json stubbed");
        return;
    }
    let d = deploy();
    let task = run_task(&d, "def f():\n    return 1\n", "f");

    // Wait for the first heartbeat-cadence stats report to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let record = d.service.endpoint_status(&d.token, d.endpoint_id).unwrap();
        if record.last_heartbeat.is_some() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no stats report arrived");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Drive the REST handler directly (no sockets): the status body must
    // expose the router's staleness signal as `report_age_ms`.
    let handler = funcx_service::rest::make_handler(Arc::clone(&d.service));
    let mut headers = std::collections::HashMap::new();
    headers.insert("authorization".to_string(), format!("Bearer {}", d.token));
    let get = |path: String, query: &str| {
        let resp = handler(funcx_service::http::Request {
            method: "GET".into(),
            path,
            query: query.into(),
            headers: headers.clone(),
            body: Vec::new(),
        });
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        serde_json::from_slice::<serde_json::Value>(&resp.body).unwrap()
    };
    let body = get(format!("/v1/endpoints/{}/status", d.endpoint_id), "");
    assert!(
        body["report_age_ms"].as_u64().is_some(),
        "report_age_ms missing or non-numeric: {body}"
    );
    // The age is measured on the 1000x-speedup virtual clock, so keep the
    // bound loose: fresh-report age is wall-milliseconds of virtual time,
    // far under ten virtual minutes even on a stalled scheduler.
    assert!(body["report_age_ms"].as_u64().unwrap() < 600_000, "{body}");
    // The status body surfaces the agent-side span-drop counter.
    assert!(body["spans_dropped"].as_u64().is_some(), "spans_dropped missing: {body}");

    // The timeline body carries the task's trace id, linking the Figure 4
    // aggregate view to the span tree behind it.
    let trace = trace_of(task);
    let body = get(format!("/v1/tasks/{task}/timeline"), "");
    assert_eq!(body["trace_id"], trace.to_string(), "{body}");

    // And the trace API serves that id once the sampler retains it.
    await_trace(&d, trace);
    let body = get(format!("/v1/traces/{trace}"), "");
    assert_eq!(body["trace_id"], trace.to_string());
    assert_eq!(body["complete"], true);
    let body = get("/v1/traces".into(), "slowest=3");
    assert!(!body["traces"].as_array().unwrap().is_empty(), "{body}");
    let body = get(format!("/v1/traces/{trace}/chrome"), "");
    assert!(!body["traceEvents"].as_array().unwrap().is_empty(), "{body}");

    // `report_age` agrees with the raw registry record.
    let record = d.service.endpoint_status(&d.token, d.endpoint_id).unwrap();
    assert!(d.service.report_age(&record).is_some());
    shutdown(d);
}
