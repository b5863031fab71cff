//! The layer ladder: each station of the path timed alone, single-threaded
//! from the caller's side, through its public functions, with the
//! workloads' own inputs. Op counts are fixed, so a run always does the
//! same work; every figure is the median over its samples.
//!
//! Task frames are not hand-built: the ladder submits real tasks to a
//! service and plays the agent on the channel `connect_endpoint` returns,
//! so the `TaskDispatch` frames it encodes, ships and executes are the
//! ones the forwarder builds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use funcx_auth::{IdentityProvider, Scope};
use funcx_endpoint::{Agent, Manager, Worker};
use funcx_lang::{Limits, NoopHooks, Value};
use funcx_proto::channel::{inproc_pair, ChannelHandle};
use funcx_proto::message::{Message, TaskDispatch, TaskResult};
use funcx_proto::tcp::TcpServer;
use funcx_sandbox::{ExecRequest, SandboxHost};
use funcx_serial::{Payload, Serializer};
use funcx_service::http::{http_request, HttpServer, Request, Response};
use funcx_service::rest::make_handler;
use funcx_service::{FuncxService, SubmitRequest};
use funcx_store::{BlockingQueue, KvStore};
use funcx_types::task::TaskOutcome;
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::{EndpointId, FunctionId, TaskId, TaskLimits};
use funcx_wal::{DurableEvent, Wal, WalConfig, WalInstruments};

use crate::load::Function;
use crate::report::Metric;
use crate::stack::{endpoint_config, service_config, wal_root};
use crate::stats::{median, Sorted};

const LOOP1K_SOURCE: &str =
    "def loop1k():\n    t = 0\n    for i in range(1000):\n        t = t + i\n    return t\n";

/// Per-op microseconds of `samples` timings, each over `reps` calls.
fn time_us(samples: usize, reps: usize, mut op: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect()
}

struct Ladder {
    out: Vec<Metric>,
}

impl Ladder {
    /// Record the median of `samples` under `name`.
    fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> f64 {
        let m = median(samples);
        self.out.push(Metric::new(name, m, unit, samples.len()));
        m
    }

    fn value(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.out.push(Metric::new(name, value, unit, samples));
    }
}

/// The service-side half of the ladder: a durable service, the three
/// functions registered, and no endpoint attached yet.
struct Bed {
    clock: SharedClock,
    service: Arc<FuncxService>,
    token: String,
    endpoint_id: EndpointId,
    functions: HashMap<&'static str, FunctionId>,
    wal_dir: std::path::PathBuf,
}

impl Bed {
    fn new(tag: &str) -> Bed {
        let wal_dir =
            wal_root().0.join(format!("funcx-fabric-ladder-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1.0));
        let (service, _) = FuncxService::recover(Arc::clone(&clock), service_config(&wal_dir))
            .expect("ladder service recovers from an empty WAL directory");
        let (_, token) = service.auth.login("ladder", IdentityProvider::Institution, &[Scope::All]);
        let endpoint_id =
            service.register_endpoint(&token, "ladder-endpoint", "", false).expect("endpoint");
        let mut functions = HashMap::new();
        for f in [Function::EchoSmall, Function::Noop] {
            let (source, entry) = f.source();
            let id = service
                .register_function(&token, entry, source, entry, None, Default::default())
                .expect("function registers");
            functions.insert(entry, id);
        }
        Bed { clock, service, token, endpoint_id, functions, wal_dir }
    }

    fn request(&self, function: Function, seed: u64, index: u64) -> SubmitRequest {
        let (args, _) = function.invocation(seed, index);
        SubmitRequest {
            function_id: self.functions[function.source().1],
            target: self.endpoint_id.into(),
            args,
            kwargs: vec![],
            allow_memo: false,
        }
    }

    /// The SDK's JSON body for `POST /v1/submit`.
    fn submit_json(&self, function: Function, seed: u64, index: u64) -> serde_json::Value {
        let request = self.request(function, seed, index);
        serde_json::json!({
            "function_id": request.function_id.to_string(),
            "endpoint_id": self.endpoint_id.to_string(),
            "args": request.args.iter().map(Value::to_json).collect::<Vec<_>>(),
            "kwargs": Vec::<serde_json::Value>::new(),
            "allow_memo": false,
        })
    }

    fn rest_request(&self, method: &str, path: String, body: Vec<u8>) -> Request {
        let mut headers = HashMap::new();
        headers.insert("authorization".to_string(), format!("Bearer {}", self.token));
        Request { method: method.to_string(), path, query: String::new(), headers, body }
    }
}

impl Drop for Bed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// A successful result frame for `task`, as a worker would build it.
fn canned_result(task: &TaskDispatch, serializer: &Serializer, now_ns: u64) -> TaskResult {
    TaskResult {
        task_id: task.task_id,
        success: true,
        body: serializer
            .serialize_packed(task.task_id.uuid(), &Payload::Document(Value::None))
            .expect("None serializes"),
        endpoint_received_nanos: now_ns,
        manager_received_nanos: now_ns,
        exec_start_nanos: now_ns,
        exec_end_nanos: now_ns,
        stdout: vec![],
        span: task.span,
        runtime: task.runtime,
        cap_kill: None,
    }
}

/// The benchmark standing in for an agent: registers, then answers every
/// task frame with canned results until told to stop.
struct FakeAgent {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FakeAgent {
    fn spawn(channel: ChannelHandle, endpoint_id: EndpointId, clock: SharedClock) -> FakeAgent {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let serializer = Serializer::default();
                let _ = channel.send(Message::RegisterEndpoint { endpoint_id, generation: 1 });
                while !stop.load(Ordering::Acquire) {
                    match channel.recv_timeout(Duration::from_millis(20)) {
                        Ok(Message::Tasks(tasks)) => {
                            let now_ns = clock.now().as_nanos();
                            let results = tasks
                                .iter()
                                .map(|t| canned_result(t, &serializer, now_ns))
                                .collect();
                            let _ = channel.send(Message::Results(results));
                        }
                        Ok(Message::Heartbeat { seq, .. }) => {
                            let _ = channel.send(Message::HeartbeatAck { seq });
                        }
                        _ => {}
                    }
                }
            })
        };
        FakeAgent { stop, thread: Some(thread) }
    }
}

impl Drop for FakeAgent {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spin (yielding) until `task` has a stored outcome.
fn await_outcome(bed: &Bed, task: TaskId) -> TaskOutcome {
    let deadline = Instant::now() + crate::load::TASK_TIMEOUT;
    loop {
        if let Some(outcome) = bed.service.get_result(&bed.token, task).expect("task exists") {
            return outcome;
        }
        assert!(Instant::now() < deadline, "ladder task {task} never completed");
        std::thread::yield_now();
    }
}

/// Receive until a frame of results arrives.
fn recv_results(channel: &ChannelHandle) -> Vec<TaskResult> {
    let deadline = Instant::now() + crate::load::TASK_TIMEOUT;
    loop {
        match channel.recv_timeout(Duration::from_millis(50)) {
            Ok(Message::Results(results)) => return results,
            Ok(Message::Heartbeat { seq, .. }) => {
                let _ = channel.send(Message::HeartbeatAck { seq });
            }
            _ => {}
        }
        assert!(Instant::now() < deadline, "no result frame from the endpoint");
    }
}

/// Run the whole ladder. `scale` multiplies the op counts (1.0 for
/// measurement, less for smoke tests).
pub fn run(seed: u64, scale: f64) -> Vec<Metric> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(20);
    // Counts that are small to begin with.
    let few = |base: usize| ((base as f64 * scale).ceil() as usize).max(2);
    let mut l = Ladder { out: Vec::new() };

    // ---- lang / sandbox / serial: pure functions -------------------------
    let (echo_src, _) = Function::EchoSmall.source();
    let (noop_src, noop_entry) = Function::Noop.source();
    let limits = Limits::default();
    l.median(
        "lang.parse_echo_us",
        "us",
        &time_us(n(400), 20, || {
            funcx_lang::parse(echo_src).expect("echo parses");
        }),
    );
    l.median(
        "lang.run_noop_us",
        "us",
        &time_us(n(400), 20, || {
            let v = funcx_lang::run_function(noop_src, noop_entry, &[], &[], &NoopHooks, &limits);
            assert_eq!(v.expect("noop runs"), Value::None);
        }),
    );
    let lang_loop = l.median(
        "lang.run_loop1k_us",
        "us",
        &time_us(n(300), 1, || {
            let v =
                funcx_lang::run_function(LOOP1K_SOURCE, "loop1k", &[], &[], &NoopHooks, &limits);
            assert_eq!(v.expect("loop runs"), Value::Int(499_500));
        }),
    );

    let clock: SharedClock = Arc::new(RealClock::with_speedup(1.0));
    let sandbox = SandboxHost::with_defaults(Arc::clone(&clock));
    let sandbox_exec = |source: &str, entry: &str| {
        sandbox
            .execute(ExecRequest {
                source,
                entry,
                args: &[],
                kwargs: &[],
                limits: TaskLimits::default(),
                capabilities: &[],
                session: None,
                extra_modules: &[],
                hooks: &NoopHooks,
            })
            .expect("sandbox executes")
            .value
    };
    l.median(
        "sandbox.execute_noop_us",
        "us",
        &time_us(n(300), 1, || {
            assert_eq!(sandbox_exec(noop_src, noop_entry), Value::None);
        }),
    );
    let sandbox_loop = l.median(
        "sandbox.run_loop1k_us",
        "us",
        &time_us(n(200), 1, || {
            assert_eq!(sandbox_exec(LOOP1K_SOURCE, "loop1k"), Value::Int(499_500));
        }),
    );
    l.value("sandbox.over_lang_ratio", "ratio", sandbox_loop / lang_loop, 1);

    let serializer = Serializer::default();
    let document = |function: Function| {
        let (args, _) = function.invocation(seed, 0);
        Payload::Document(Value::Dict(vec![
            ("args".into(), Value::List(args)),
            ("kwargs".into(), Value::Dict(vec![])),
        ]))
    };
    let routing = TaskId::random().uuid();
    for (tag, function) in [("noop", Function::Noop), ("8k", Function::EchoBlob)] {
        let doc = document(function);
        let packed = serializer.serialize_packed(routing, &doc).expect("document packs");
        l.median(
            &format!("serial.pack_{tag}_us"),
            "us",
            &time_us(n(400), 10, || {
                serializer.serialize_packed(routing, &doc).expect("document packs");
            }),
        );
        l.median(
            &format!("serial.unpack_{tag}_us"),
            "us",
            &time_us(n(400), 10, || {
                serializer.deserialize_packed(&packed).expect("document unpacks");
            }),
        );
    }

    // ---- store / wal ------------------------------------------------------
    let queue = BlockingQueue::new();
    let item = bytes::Bytes::copy_from_slice(&routing.as_u128().to_be_bytes());
    l.median(
        "store.queue_push_drain_us",
        "us",
        &time_us(n(400), 1, || {
            for _ in 0..128 {
                queue.push_back(item.clone());
            }
            assert_eq!(queue.drain(128).len(), 128);
        })
        .iter()
        .map(|us| us / 128.0)
        .collect::<Vec<_>>(),
    );
    let kv = KvStore::new(Arc::clone(&clock));
    let mut field = 0u64;
    l.median(
        "store.kv_hset_hget_us",
        "us",
        &time_us(n(400), 20, || {
            field += 1;
            let name = field.to_string();
            kv.hset("tasks", &name, item.clone());
            assert!(kv.hget("tasks", &name).is_some());
        }),
    );

    // ---- service, rest, auth: a durable service with no endpoint yet ------
    let bed = Bed::new("service");
    l.median(
        "auth.authorize_us",
        "us",
        &time_us(n(400), 50, || {
            bed.service.auth.authorize(&bed.token, Scope::All).expect("token authorizes");
        }),
    );

    let mut next = 0u64;
    let mut fresh = || {
        next += 1;
        next
    };
    let mut submitted: Vec<TaskId> = Vec::new();
    l.median(
        "service.submit_us",
        "us",
        &time_us(n(600), 1, || {
            let req = bed.request(Function::EchoSmall, seed, fresh());
            submitted.push(bed.service.submit(&bed.token, req).expect("submit"));
        }),
    );
    let small_task = *submitted.last().expect("submitted");
    l.median(
        "service.submit_8k_us",
        "us",
        &time_us(n(200), 1, || {
            let req = bed.request(Function::EchoBlob, seed, fresh());
            submitted.push(bed.service.submit(&bed.token, req).expect("submit"));
        }),
    );
    let blob_task = *submitted.last().expect("submitted");
    let per_task_128 = |us: Vec<f64>| us.into_iter().map(|v| v / 128.0).collect::<Vec<_>>();
    l.median(
        "service.submit_batch128_us_per_task",
        "us",
        &per_task_128(time_us(few(20), 1, || {
            let reqs = (0..128).map(|_| bed.request(Function::Noop, seed, 0)).collect();
            submitted.extend(bed.service.submit_batch(&bed.token, reqs).expect("batch"));
        })),
    );
    let noop_task = *submitted.last().expect("submitted");

    let handler = make_handler(Arc::clone(&bed.service));
    let post = |path: &str, body: serde_json::Value| {
        bed.rest_request("POST", path.to_string(), serde_json::to_vec(&body).expect("body"))
    };
    let task_id_of = |resp: &Response| -> TaskId {
        let body: serde_json::Value = serde_json::from_slice(&resp.body).expect("json body");
        body["task_id"].as_str().expect("task_id").parse().expect("task id parses")
    };
    let submit_reqs: Vec<Request> = (0..n(400))
        .map(|_| post("/v1/submit", bed.submit_json(Function::EchoSmall, seed, fresh())))
        .collect();
    let mut reqs = submit_reqs.into_iter();
    l.median(
        "rest.submit_handler_us",
        "us",
        &time_us(n(400), 1, || {
            let resp = handler(reqs.next().expect("one request per op"));
            assert_eq!(resp.status, 200);
            submitted.push(task_id_of(&resp));
        }),
    );
    let batch_reqs: Vec<Request> = (0..few(20))
        .map(|_| {
            let tasks: Vec<_> =
                (0..128).map(|_| bed.submit_json(Function::Noop, seed, 0)).collect();
            post("/v1/batch", serde_json::json!({ "tasks": tasks }))
        })
        .collect();
    let mut reqs = batch_reqs.into_iter();
    l.median(
        "rest.batch128_handler_us_per_task",
        "us",
        &per_task_128(time_us(few(20), 1, || {
            let resp = handler(reqs.next().expect("one request per op"));
            assert_eq!(resp.status, 200);
            let body: serde_json::Value = serde_json::from_slice(&resp.body).expect("json body");
            let ids = body["task_ids"].as_array().expect("task_ids");
            assert_eq!(ids.len(), 128);
            submitted.extend(
                ids.iter().map(|id| id.as_str().expect("id").parse::<TaskId>().expect("id")),
            );
        })),
    );

    // WAL records of real tasks, for the WAL rungs below.
    let record_of = |task: TaskId| bed.service.task_record(task).expect("task record");
    let (small_record, blob_record) = (record_of(noop_task), record_of(blob_task));

    // ---- attach the forwarder; the benchmark plays the agent --------------
    // First by hand, to capture one real dispatch frame per input kind.
    let (mut forwarder, agent_channel) =
        bed.service.connect_endpoint(bed.endpoint_id, Duration::ZERO).expect("forwarder");
    agent_channel
        .send(Message::RegisterEndpoint { endpoint_id: bed.endpoint_id, generation: 1 })
        .expect("register");
    let mut dispatches: HashMap<TaskId, TaskDispatch> = HashMap::new();
    let canned_serializer = Serializer::default();
    let mut answered = 0usize;
    let capture_deadline = Instant::now() + crate::load::TASK_TIMEOUT;
    while answered < submitted.len() {
        assert!(Instant::now() < capture_deadline, "forwarder never drained the ladder queue");
        if let Ok(Message::Tasks(tasks)) = agent_channel.recv_timeout(Duration::from_millis(50)) {
            let now_ns = bed.clock.now().as_nanos();
            let results: Vec<TaskResult> =
                tasks.iter().map(|t| canned_result(t, &canned_serializer, now_ns)).collect();
            answered += tasks.len();
            for t in tasks {
                if [small_task, blob_task, noop_task].contains(&t.task_id) {
                    dispatches.insert(t.task_id, t);
                }
            }
            agent_channel.send(Message::Results(results)).expect("results");
        }
    }
    for &task in &submitted {
        await_outcome(&bed, task);
    }
    let noop_dispatch = dispatches.remove(&noop_task).expect("noop dispatch captured");
    let blob_dispatch = dispatches.remove(&blob_task).expect("8k dispatch captured");

    // Completed tasks feed the read-side rungs; each op reads a task no one
    // has fetched yet, as a client's final poll does.
    let mut done = submitted.iter().copied();
    l.median(
        "service.get_result_us",
        "us",
        &time_us(n(400), 1, || {
            let task = done.next().expect("enough completed tasks");
            assert!(bed.service.get_result(&bed.token, task).expect("result").is_some());
        }),
    );
    l.median(
        "service.status_us",
        "us",
        &time_us(n(400), 10, || {
            bed.service.status(&bed.token, small_task).expect("status");
        }),
    );
    let result_reqs: Vec<Request> = done
        .by_ref()
        .take(n(400))
        .map(|task| bed.rest_request("GET", format!("/v1/tasks/{task}/result"), vec![]))
        .collect();
    let mut reqs = result_reqs.into_iter();
    l.median(
        "rest.result_handler_us",
        "us",
        &time_us(n(400), 1, || {
            let resp = handler(reqs.next().expect("one request per op"));
            assert_eq!(resp.status, 200);
            assert!(resp.body.starts_with(b"{\"pending\":false"), "completed task reads as done");
        }),
    );
    l.median(
        "rest.status_handler_us",
        "us",
        &time_us(n(400), 1, || {
            let req = bed.rest_request("GET", format!("/v1/tasks/{small_task}/status"), vec![]);
            assert_eq!(handler(req).status, 200);
        }),
    );

    // Now a thread answers, and the caller times whole round trips.
    forwarder.stop();
    drop(agent_channel);
    let (mut forwarder, agent_channel) =
        bed.service.connect_endpoint(bed.endpoint_id, Duration::ZERO).expect("forwarder");
    let fake_agent = FakeAgent::spawn(agent_channel, bed.endpoint_id, Arc::clone(&bed.clock));
    l.median(
        "service.forwarder_roundtrip_us",
        "us",
        &time_us(n(300), 1, || {
            let req = bed.request(Function::Noop, seed, 0);
            let task = bed.service.submit(&bed.token, req).expect("submit");
            assert!(matches!(await_outcome(&bed, task), TaskOutcome::Success(_)));
        }),
    );
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut tasks = Vec::new();
            for _ in 0..few(16) {
                let reqs = (0..128).map(|_| bed.request(Function::Noop, seed, 0)).collect();
                tasks.extend(bed.service.submit_batch(&bed.token, reqs).expect("batch"));
            }
            for &task in &tasks {
                await_outcome(&bed, task);
            }
            tasks.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    l.median("service.forwarder_tasks_per_s", "1/s", &rates);
    // The forwarder first, so it does not see its agent vanish and requeue.
    forwarder.stop();
    drop(fake_agent);

    // ---- wal --------------------------------------------------------------
    wal_rungs(&mut l, &n, &few, small_record, blob_record);

    // ---- proto: frames and hops -------------------------------------------
    let worker_clock = Arc::clone(&bed.clock);
    let mut worker =
        Worker::new(Arc::clone(&worker_clock), Serializer::default(), limits.clone(), None);
    for (tag, dispatch) in [("noop", &noop_dispatch), ("8k", &blob_dispatch)] {
        let result = worker.execute(dispatch, worker_clock.now().as_nanos());
        assert!(result.success, "captured {tag} dispatch executes");
        let frames = [Message::Tasks(vec![dispatch.clone()]), Message::Results(vec![result])];
        let encoded: Vec<Vec<u8>> = frames.iter().map(Message::to_bytes).collect();
        l.median(
            &format!("proto.encode_{tag}_us"),
            "us",
            &time_us(n(300), 5, || {
                for frame in &frames {
                    std::hint::black_box(frame.to_bytes());
                }
            }),
        );
        l.median(
            &format!("proto.decode_{tag}_us"),
            "us",
            &time_us(n(300), 5, || {
                for bytes in &encoded {
                    Message::from_bytes(bytes).expect("frame decodes");
                }
            }),
        );
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        l.value(&format!("proto.frame_bytes_{tag}"), "bytes", bytes as f64, 1);
        l.median(
            &format!("endpoint.worker_execute_{tag}_us"),
            "us",
            &time_us(n(300), 5, || {
                assert!(worker.execute(dispatch, worker_clock.now().as_nanos()).success);
            }),
        );
    }

    let ping_pong = |a: &ChannelHandle, b: &ChannelHandle| {
        a.send(Message::heartbeat(1)).expect("send");
        b.recv_timeout(Duration::from_secs(1)).expect("recv");
        b.send(Message::HeartbeatAck { seq: 1 }).expect("send");
        a.recv_timeout(Duration::from_secs(1)).expect("recv");
    };
    let (a, b) = inproc_pair();
    let hops = |us: Vec<f64>| us.into_iter().map(|v| v / 2.0).collect::<Vec<_>>();
    l.median("proto.inproc_hop_us", "us", &hops(time_us(n(400), 20, || ping_pong(&a, &b))));
    let server = TcpServer::bind("127.0.0.1:0").expect("tcp bind");
    let dialled = funcx_proto::tcp::connect(server.local_addr()).expect("tcp connect");
    let accepted = server.accept().expect("tcp accept");
    l.median(
        "proto.tcp_hop_us",
        "us",
        &hops(time_us(n(400), 5, || ping_pong(&dialled, &accepted))),
    );
    dialled.close();
    accepted.close();

    // ---- endpoint: a real agent and manager, the benchmark as forwarder ---
    let (forwarder_side, agent_side) = inproc_pair();
    let mut agent =
        Agent::spawn(bed.endpoint_id, endpoint_config(), Arc::clone(&bed.clock), agent_side);
    let (agent_to_manager, manager_side) = inproc_pair();
    let mut manager = Manager::spawn(
        endpoint_config(),
        Arc::clone(&bed.clock),
        Serializer::default(),
        manager_side,
        None,
    );
    agent.attach_manager(agent_to_manager);
    forwarder_side.send(Message::RegisterAck).expect("ack");
    let fresh_dispatch = || TaskDispatch { task_id: TaskId::random(), ..noop_dispatch.clone() };
    l.median(
        "endpoint.task_roundtrip_us",
        "us",
        &time_us(n(300), 1, || {
            let task = fresh_dispatch();
            let id = task.task_id;
            forwarder_side.send(Message::Tasks(vec![task])).expect("send");
            let results = recv_results(&forwarder_side);
            assert!(results.len() == 1 && results[0].task_id == id && results[0].success);
        }),
    );
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let total = 256 * few(8);
            let t0 = Instant::now();
            for _ in 0..total / 256 {
                let batch: Vec<TaskDispatch> = (0..256).map(|_| fresh_dispatch()).collect();
                forwarder_side.send(Message::Tasks(batch)).expect("send");
            }
            let mut back = 0;
            while back < total {
                let results = recv_results(&forwarder_side);
                assert!(results.iter().all(|r| r.success));
                back += results.len();
            }
            total as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    l.median("endpoint.tasks_per_s", "1/s", &rates);
    manager.stop();
    agent.stop();

    // ---- http: the server and client alone, constant handler --------------
    let mut server =
        HttpServer::serve("127.0.0.1:0", Arc::new(|_req: Request| Response::json(200, "{}")))
            .expect("http bind");
    let addr = server.local_addr();
    let noop = Sorted::new(time_us(n(1000), 1, || {
        let resp = http_request(addr, "GET", "/noop", None, &[]).expect("http round trip");
        assert_eq!(resp.status, 200);
    }));
    l.value("http.noop_roundtrip_us", "us", noop.median().expect("samples"), noop.len());
    l.value("http.noop_roundtrip_p99_us", "us", noop.quantile(0.99).expect("samples"), noop.len());
    let body = vec![b'x'; 16 << 10];
    l.median(
        "http.post_16k_roundtrip_us",
        "us",
        &time_us(n(300), 1, || {
            let resp = http_request(addr, "POST", "/noop", None, &body).expect("http round trip");
            assert_eq!(resp.status, 200);
        }),
    );
    server.stop();

    l.out
}

/// WAL rungs: appends of real task records under the shipped fsync policy
/// with snapshots off, then a snapshot of, and a recovery into, a
/// 10 000-task state.
fn wal_rungs(
    l: &mut Ladder,
    n: &dyn Fn(usize) -> usize,
    few: &dyn Fn(usize) -> usize,
    small: funcx_types::TaskRecord,
    blob: funcx_types::TaskRecord,
) {
    let dir = wal_root().0.join(format!("funcx-fabric-ladder-{}-wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = WalConfig { snapshot_every: 0, ..WalConfig::new(dir.clone()) };
    let created = |record: &funcx_types::TaskRecord| {
        let mut record = record.clone();
        record.spec.task_id = TaskId::random();
        DurableEvent::TaskCreated { record: Box::new(record) }
    };
    {
        let wal = Wal::open(config.clone(), WalInstruments::standalone()).expect("wal opens");
        l.median(
            "wal.append_8k_us",
            "us",
            &time_us(n(300), 1, || {
                wal.append(&created(&blob)).expect("append");
            }),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    {
        let wal = Wal::open(config.clone(), WalInstruments::standalone()).expect("wal opens");
        let events: Vec<DurableEvent> = (0..10_000).map(|_| created(&small)).collect();
        let mut events = events.iter();
        l.median(
            "wal.append_us",
            "us",
            &time_us(10_000 / 20, 20, || {
                wal.append(events.next().expect("one event per op")).expect("append");
            }),
        );
        let snapshots: Vec<f64> = (0..few(5))
            .map(|_| {
                let t0 = Instant::now();
                wal.snapshot_now().expect("snapshot");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        l.median("wal.snapshot_ms_at_10k", "ms", &snapshots);
    }
    let recoveries: Vec<f64> = (0..few(5))
        .map(|_| {
            let t0 = Instant::now();
            let wal =
                Wal::open(config.clone(), WalInstruments::standalone()).expect("wal recovers");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(wal.state().tasks.len(), 10_000, "recovery restores every task");
            ms
        })
        .collect();
    l.median("wal.recover_ms_at_10k", "ms", &recoveries);
    let _ = std::fs::remove_dir_all(&dir);
}
