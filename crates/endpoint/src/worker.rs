//! Workers: one container, one task at a time (§4.3).
//!
//! "Workers persist within containers and each executes one task at a time.
//! Since workers have a single responsibility, they use blocking
//! communication to wait for functions from the manager. Once a task is
//! received it is deserialized, executed, and the serialized results are
//! returned via the manager."

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use funcx_container::{ContainerInstance, WarmStartEngine};
use funcx_lang::{ExecHooks, Limits, Value};
use funcx_proto::message::{TaskDispatch, TaskResult};
use funcx_serial::{Payload, Serializer};
use funcx_types::time::{SharedClock, Wake};
use funcx_types::{ContainerImageId, WorkerId};
use parking_lot::Mutex;

use crate::runtime::{RuntimeJob, RuntimeRegistry};

/// Hooks wiring FxScript's `sleep`/`stress`/`print` to the virtual clock
/// and a per-task stdout capture.
struct WorkerHooks {
    clock: SharedClock,
    stdout: Mutex<Vec<String>>,
}

impl ExecHooks for WorkerHooks {
    fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }

    fn stress(&self, d: Duration) {
        // CPU burn occupies the worker exactly like sleep in virtual time;
        // the distinction matters for schedulers that co-locate, which
        // funcX's one-task-per-worker model rules out.
        self.clock.sleep(d);
    }

    fn print(&self, line: &str) {
        self.stdout.lock().push(line.to_string());
    }
}

/// Split a packed input document into (args, kwargs). The SDK encodes every
/// invocation as `{"args": [...], "kwargs": {...}}`.
pub fn parse_invocation(doc: &Value) -> (Vec<Value>, Vec<(String, Value)>) {
    let args = match doc.dict_get("args") {
        Some(Value::List(items)) => items.clone(),
        _ => Vec::new(),
    };
    let kwargs = match doc.dict_get("kwargs") {
        Some(Value::Dict(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    (args, kwargs)
}

/// A worker bound to (at most) one container image.
pub struct Worker {
    /// Worker id (diagnostics).
    pub worker_id: WorkerId,
    clock: SharedClock,
    serializer: Serializer,
    runtimes: Arc<RuntimeRegistry>,
    engine: Option<Arc<WarmStartEngine>>,
    /// The container instance the worker currently occupies.
    current: Option<ContainerInstance>,
}

impl Worker {
    /// New bare-environment worker executing only the classic FxScript
    /// runtime with `limits` as the endpoint defaults (tasks requiring
    /// containers are acquired through `engine` when given).
    pub fn new(
        clock: SharedClock,
        serializer: Serializer,
        limits: Limits,
        engine: Option<Arc<WarmStartEngine>>,
    ) -> Self {
        Self::with_runtimes(clock, serializer, Arc::new(RuntimeRegistry::new(limits)), engine)
    }

    /// New worker dispatching through an explicit runtime table — the
    /// negotiated-runtime path; managers share one registry (and thus one
    /// sandbox host) across all their workers.
    pub fn with_runtimes(
        clock: SharedClock,
        serializer: Serializer,
        runtimes: Arc<RuntimeRegistry>,
        engine: Option<Arc<WarmStartEngine>>,
    ) -> Self {
        Worker { worker_id: WorkerId::random(), clock, serializer, runtimes, engine, current: None }
    }

    /// The image this worker's container currently provides.
    pub fn current_container(&self) -> Option<ContainerImageId> {
        self.current.as_ref().map(|c| c.image)
    }

    /// Ensure the worker is inside a container providing `image`, acquiring
    /// through the warm-start engine (warm hit → snapshot clone → cold
    /// start, charging virtual time) on a mismatch. `None` keeps / reverts
    /// to the bare environment (free).
    fn ensure_container(&mut self, image: Option<ContainerImageId>) -> Result<(), String> {
        if self.current_container() == image {
            return Ok(());
        }
        // Release the old container back to the engine's pool, clearing
        // `current` *before* the fallible acquire below: leaving it set on
        // failure would release the same instance again on the next call
        // (double-release — the pool would hand one instance to two
        // workers).
        if let Some(old) = self.current.take() {
            if let Some(engine) = &self.engine {
                engine.release(old);
            }
        }
        match image {
            None => Ok(()),
            Some(img) => {
                let Some(engine) = &self.engine else {
                    return Err("task requires a container but worker has no runtime".into());
                };
                let lease = engine.acquire(img).map_err(|e| e.to_string())?;
                self.current = Some(lease.instance);
                Ok(())
            }
        }
    }

    /// Execute one dispatched task to completion. Blocking; charges all
    /// container/execution time to the virtual clock.
    ///
    /// `manager_received_nanos` is the manager's arrival stamp for the task;
    /// it doubles as the fallback `endpoint_received` stamp until the agent
    /// overwrites that field with its own (earlier) arrival time on the way
    /// upstream.
    pub fn execute(&mut self, task: &TaskDispatch, manager_received_nanos: u64) -> TaskResult {
        let fail = |msg: String, start: u64, end: u64, serializer: &Serializer| {
            let tb = Payload::Traceback(funcx_lang::LangError::new(msg, 0));
            let body = serializer.serialize_packed(task.task_id.uuid(), &tb).unwrap_or_default();
            TaskResult {
                task_id: task.task_id,
                success: false,
                body,
                endpoint_received_nanos: manager_received_nanos,
                manager_received_nanos,
                exec_start_nanos: start,
                exec_end_nanos: end,
                stdout: Vec::new(),
                span: task.span,
                runtime: task.runtime,
                cap_kill: None,
            }
        };

        // Resolve the negotiated runtime before paying for anything else.
        // The service refuses to route to non-supporting endpoints, so this
        // miss is a defensive path (e.g. a frame from a newer service).
        let Some(engine_for_task) = self.runtimes.get(task.runtime).cloned() else {
            let now = self.clock.now().as_nanos();
            return fail(
                format!("runtime '{}' is not available on this endpoint", task.runtime),
                now,
                now,
                &self.serializer,
            );
        };

        // Container setup happens before exec_start: it is endpoint
        // overhead (`te`), not function time (`tw`).
        if let Err(msg) = self.ensure_container(task.container) {
            let now = self.clock.now().as_nanos();
            return fail(msg, now, now, &self.serializer);
        }

        // Unpack code and input.
        let code = match self.serializer.deserialize_packed(&task.code) {
            Ok((_, Payload::Code { source, entry })) => (source, entry),
            Ok(_) => {
                let now = self.clock.now().as_nanos();
                return fail("code buffer did not contain code".into(), now, now, &self.serializer);
            }
            Err(e) => {
                let now = self.clock.now().as_nanos();
                return fail(format!("bad code buffer: {e}"), now, now, &self.serializer);
            }
        };
        let doc = match self.serializer.deserialize_packed(&task.payload) {
            Ok((_, Payload::Document(v))) => v,
            Ok(_) => Value::Dict(vec![]),
            Err(e) => {
                let now = self.clock.now().as_nanos();
                return fail(format!("bad input buffer: {e}"), now, now, &self.serializer);
            }
        };
        let (args, kwargs) = parse_invocation(&doc);

        let hooks = WorkerHooks { clock: Arc::clone(&self.clock), stdout: Mutex::new(Vec::new()) };
        let exec_start = self.clock.now().as_nanos();
        let verdict = engine_for_task.execute(RuntimeJob {
            source: &code.0,
            entry: &code.1,
            args: &args,
            kwargs: &kwargs,
            limits: &task.limits,
            capabilities: &task.capabilities,
            session: task.session.as_deref(),
            extra_modules: &task.container_modules,
            hooks: &hooks,
        });
        let exec_end = self.clock.now().as_nanos();
        let stdout = hooks.stdout.into_inner();

        match verdict.outcome {
            Ok(value) => {
                let body = self
                    .serializer
                    .serialize_packed(task.task_id.uuid(), &Payload::Document(value));
                match body {
                    Ok(body) => TaskResult {
                        task_id: task.task_id,
                        success: true,
                        body,
                        endpoint_received_nanos: manager_received_nanos,
                        manager_received_nanos,
                        exec_start_nanos: exec_start,
                        exec_end_nanos: exec_end,
                        stdout,
                        span: task.span,
                        runtime: task.runtime,
                        cap_kill: None,
                    },
                    Err(e) => fail(
                        format!("result serialization failed: {e}"),
                        exec_start,
                        exec_end,
                        &self.serializer,
                    ),
                }
            }
            Err(lang_err) => {
                let tb = Payload::Traceback(lang_err);
                let body =
                    self.serializer.serialize_packed(task.task_id.uuid(), &tb).unwrap_or_default();
                TaskResult {
                    task_id: task.task_id,
                    success: false,
                    body,
                    endpoint_received_nanos: manager_received_nanos,
                    manager_received_nanos,
                    exec_start_nanos: exec_start,
                    exec_end_nanos: exec_end,
                    stdout,
                    span: task.span,
                    runtime: task.runtime,
                    cap_kill: verdict.cap_kill,
                }
            }
        }
    }
}

/// What the manager sends a worker thread.
pub enum WorkerCommand {
    /// Run this task (stamped with when the manager got it).
    Run(Box<TaskDispatch>, u64),
    /// Exit the worker loop.
    Stop,
}

/// Spawn a worker event loop on its own (big-stacked) thread.
///
/// The worker blocks on its command channel ("workers ... use blocking
/// communication to wait for functions", §4.3) and reports each result —
/// tagged with its slot index and current container — to the manager,
/// posting `manager_wake` so the manager's loop sees it at once.
pub fn spawn_worker_thread(
    slot: usize,
    mut worker: Worker,
    commands: Receiver<WorkerCommand>,
    results: Sender<(usize, Option<ContainerImageId>, TaskResult)>,
    manager_wake: Arc<Wake>,
    stack_bytes: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("funcx-worker-{slot}"))
        .stack_size(stack_bytes)
        .spawn(move || {
            while let Ok(cmd) = commands.recv() {
                match cmd {
                    WorkerCommand::Stop => break,
                    WorkerCommand::Run(task, received) => {
                        let result = worker.execute(&task, received);
                        let container = worker.current_container();
                        if results.send((slot, container, result)).is_err() {
                            break;
                        }
                        manager_wake.notify();
                    }
                }
            }
        })
        .expect("spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::time::RealClock;
    use funcx_types::{FunctionId, TaskId};

    fn serializer() -> Serializer {
        Serializer::default()
    }

    fn make_dispatch(source: &str, entry: &str, args: Vec<Value>) -> TaskDispatch {
        let s = serializer();
        let task_id = TaskId::random();
        let code = s
            .serialize_packed(
                task_id.uuid(),
                &Payload::Code { source: source.into(), entry: entry.into() },
            )
            .unwrap();
        let doc = Value::Dict(vec![
            ("args".into(), Value::List(args)),
            ("kwargs".into(), Value::Dict(vec![])),
        ]);
        let payload = s.serialize_packed(task_id.uuid(), &Payload::Document(doc)).unwrap();
        TaskDispatch {
            task_id,
            function_id: FunctionId::random(),
            code,
            payload,
            container: None,
            container_modules: vec![],
            span: Default::default(),
            runtime: Default::default(),
            limits: Default::default(),
            capabilities: vec![],
            session: None,
        }
    }

    fn bare_worker(clock: SharedClock) -> Worker {
        Worker::new(clock, serializer(), Limits::default(), None)
    }

    /// The traceback codec rides on `serde_json`; under the offline stub
    /// harness that path is unavailable, so traceback-*content* assertions
    /// are skipped (the success/cap-kill/runtime assertions still run).
    fn tracebacks_available() -> bool {
        serializer()
            .serialize_packed(
                TaskId::random().uuid(),
                &Payload::Traceback(funcx_lang::LangError::new("probe", 0)),
            )
            .is_ok()
    }

    #[test]
    fn oversized_function_is_killed_with_fuel_traceback() {
        // Regression: the worker used to execute every task under one
        // hard-coded `Limits::default()`, silently ignoring the limits the
        // function was registered with. A function whose dispatch pins a
        // small fuel budget must be killed at *that* budget.
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock);
        let mut task = make_dispatch(
            "def f():\n    total = 0\n    while True:\n        total = total + 1\n    return total\n",
            "f",
            vec![],
        );
        task.limits =
            funcx_types::TaskLimits { max_fuel: Some(300), ..funcx_types::TaskLimits::default() };
        let result = w.execute(&task, 0);
        assert!(!result.success, "runaway loop must be killed");
        assert_eq!(result.runtime, funcx_types::Runtime::FxScript);
        assert!(result.cap_kill.is_none());
        if tracebacks_available() {
            let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
            let Payload::Traceback(e) = payload else { panic!("expected traceback") };
            assert!(e.to_string().contains("fuel exhausted"), "got: {e}");
        }
    }

    #[test]
    fn sandbox_task_routes_through_registry_and_reports_cap_kills() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let host = funcx_sandbox::SandboxHost::with_defaults(Arc::clone(&clock));
        let runtimes =
            Arc::new(crate::runtime::RuntimeRegistry::with_sandbox(Limits::default(), host));
        let mut w = Worker::with_runtimes(Arc::clone(&clock), serializer(), runtimes, None);

        // Success path.
        let mut ok = make_dispatch("def sq(x):\n    return x * x\n", "sq", vec![Value::Int(9)]);
        ok.runtime = funcx_types::Runtime::Sandbox;
        let result = w.execute(&ok, 0);
        assert!(result.success, "{result:?}");
        assert_eq!(result.runtime, funcx_types::Runtime::Sandbox);
        let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
        assert_eq!(payload, Payload::Document(Value::Int(81)));

        // Cap-kill path: the fuel cap rides the dispatch and the result
        // carries the cap label back for the service's counters.
        let mut hot = make_dispatch("def f():\n    while True:\n        pass\n", "f", vec![]);
        hot.runtime = funcx_types::Runtime::Sandbox;
        hot.limits =
            funcx_types::TaskLimits { max_fuel: Some(200), ..funcx_types::TaskLimits::default() };
        let result = w.execute(&hot, 0);
        assert!(!result.success);
        assert_eq!(result.cap_kill.as_deref(), Some("fuel"));
        if tracebacks_available() {
            let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
            let Payload::Traceback(e) = payload else { panic!("expected traceback") };
            assert!(e.to_string().contains("SandboxFuelExceeded"), "got: {e}");
        }
    }

    #[test]
    fn unsupported_runtime_fails_cleanly() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock); // FxScript-only registry
        let mut task = make_dispatch("def f():\n    return 1\n", "f", vec![]);
        task.runtime = funcx_types::Runtime::Sandbox;
        let result = w.execute(&task, 0);
        assert!(!result.success);
        if tracebacks_available() {
            let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
            let Payload::Traceback(e) = payload else { panic!("expected traceback") };
            assert!(e.to_string().contains("not available"), "got: {e}");
        }
    }

    #[test]
    fn executes_shipped_code() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock);
        let task =
            make_dispatch("def double(x):\n    return x * 2\n", "double", vec![Value::Int(21)]);
        let result = w.execute(&task, 0);
        assert!(result.success, "{result:?}");
        let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
        assert_eq!(payload, Payload::Document(Value::Int(42)));
    }

    #[test]
    fn sleep_charges_virtual_time_and_sets_exec_span() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(10_000.0));
        let mut w = bare_worker(Arc::clone(&clock));
        let task = make_dispatch("def f():\n    sleep(2)\n    return 'ok'\n", "f", vec![]);
        let result = w.execute(&task, 0);
        assert!(result.success);
        assert!(result.exec_nanos() >= 1_900_000_000, "slept {} ns", result.exec_nanos());
    }

    #[test]
    fn failure_ships_a_traceback() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock);
        let task = make_dispatch("def f():\n    return 1 / 0\n", "f", vec![]);
        let result = w.execute(&task, 0);
        assert!(!result.success);
        if tracebacks_available() {
            let (_, payload) = serializer().deserialize_packed(&result.body).unwrap();
            let Payload::Traceback(e) = payload else { panic!("expected traceback") };
            assert!(e.to_string().contains("division by zero"));
        }
    }

    #[test]
    fn stdout_is_captured() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock);
        let task = make_dispatch(
            "def f():\n    print('hello', 1)\n    print('world')\n    return None\n",
            "f",
            vec![],
        );
        let result = w.execute(&task, 0);
        assert_eq!(result.stdout, vec!["hello 1".to_string(), "world".to_string()]);
    }

    fn test_engine(
        clock: &SharedClock,
    ) -> (Arc<funcx_container::ContainerRuntime>, Arc<WarmStartEngine>) {
        use funcx_container::{ContainerRuntime, PoolConfig, SystemProfile, WarmStartConfig};
        let rt = ContainerRuntime::new(Arc::clone(clock), SystemProfile::Ec2, 1);
        // Huge TTL: the sped-up real clock must not expire pooled instances
        // between assertions.
        let engine = WarmStartEngine::new(
            Arc::clone(clock),
            Arc::clone(&rt),
            WarmStartConfig {
                pool: PoolConfig {
                    max_prewarm_per_tick: 0,
                    ..PoolConfig::with_ttl(Duration::from_secs(1_000_000))
                },
                ..WarmStartConfig::default()
            },
        );
        (rt, engine)
    }

    #[test]
    fn container_task_cold_starts_then_reuses() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1_000_000.0));
        let (rt, engine) = test_engine(&clock);
        let mut w = Worker::new(Arc::clone(&clock), serializer(), Limits::default(), Some(engine));
        let img = ContainerImageId::from_u128(5);
        let mut task = make_dispatch("def f():\n    return 1\n", "f", vec![]);
        task.container = Some(img);

        let before = clock.now();
        let r1 = w.execute(&task, 0);
        let cold_elapsed = clock.now().saturating_duration_since(before);
        assert!(r1.success);
        assert!(cold_elapsed >= Duration::from_secs(1), "cold start charged");
        assert_eq!(rt.cold_start_count(), 1);
        assert_eq!(w.current_container(), Some(img));

        // Same container again: no new cold start.
        let r2 = w.execute(&task, 0);
        assert!(r2.success);
        assert_eq!(rt.cold_start_count(), 1);
    }

    #[test]
    fn failed_cold_start_does_not_double_release_previous_container() {
        // Regression: `ensure_container` released the old instance to the
        // pool before the fallible cold start but kept `current` pointing at
        // it on failure — the next mismatched task then released the *same*
        // instance again, and the pool would hand it to two workers.
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1_000_000.0));
        let (rt, engine) = test_engine(&clock);
        let mut w =
            Worker::new(Arc::clone(&clock), serializer(), Limits::default(), Some(engine.clone()));
        let img_a = ContainerImageId::from_u128(1);
        let img_b = ContainerImageId::from_u128(2);

        let mut task_a = make_dispatch("def f():\n    return 1\n", "f", vec![]);
        task_a.container = Some(img_a);
        assert!(w.execute(&task_a, 0).success);
        assert_eq!(w.current_container(), Some(img_a));

        // Every subsequent start fails: acquiring img_b releases img_a's
        // instance and then errors (img_b has no snapshot to clone from).
        rt.set_failure_rate(1.0);
        let mut task_b = make_dispatch("def f():\n    return 1\n", "f", vec![]);
        task_b.container = Some(img_b);
        assert!(!w.execute(&task_b, 0).success);
        assert_eq!(w.current_container(), None, "failed start must clear the current instance");
        assert_eq!(engine.warm_count(img_a), 1, "img_a instance released exactly once");

        // The buggy path released img_a's instance a second time here.
        assert!(!w.execute(&task_b, 0).success);
        assert_eq!(engine.warm_count(img_a), 1, "no double-release after a failed start");

        // And the single pooled instance is handed out exactly once: the
        // second img_a acquire must mint a clone, not a duplicate warm hit.
        rt.set_failure_rate(0.0);
        let first = engine.acquire(img_a).unwrap();
        let second = engine.acquire(img_a).unwrap();
        assert_eq!(first.tier, funcx_container::AcquireTier::Warm);
        assert_ne!(second.instance.instance, first.instance.instance);
    }

    #[test]
    fn container_without_runtime_fails_cleanly() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let mut w = bare_worker(clock);
        let mut task = make_dispatch("def f():\n    return 1\n", "f", vec![]);
        task.container = Some(ContainerImageId::from_u128(9));
        let result = w.execute(&task, 0);
        assert!(!result.success);
    }

    #[test]
    fn worker_thread_loop_runs_and_stops() {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let w = bare_worker(clock);
        let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded();
        let (res_tx, res_rx) = crossbeam::channel::unbounded();
        let wake = Wake::new();
        let handle = spawn_worker_thread(3, w, cmd_rx, res_tx, Arc::clone(&wake), 4 << 20);
        let task = make_dispatch("def f():\n    return 7\n", "f", vec![]);
        cmd_tx.send(WorkerCommand::Run(Box::new(task), 42)).unwrap();
        let (slot, _, result) = res_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(slot, 3);
        assert!(result.success);
        assert!(wake.wait_timeout(Duration::from_secs(5)), "completion posts the manager's wake");
        assert_eq!(result.manager_received_nanos, 42);
        // until the agent overwrites it, endpoint_received falls back to
        // the manager stamp
        assert_eq!(result.endpoint_received_nanos, 42);
        cmd_tx.send(WorkerCommand::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn kwargs_parsed_from_invocation_doc() {
        let doc = Value::Dict(vec![
            ("args".into(), Value::List(vec![Value::Int(1)])),
            ("kwargs".into(), Value::Dict(vec![("x".into(), Value::Int(2))])),
        ]);
        let (args, kwargs) = parse_invocation(&doc);
        assert_eq!(args, vec![Value::Int(1)]);
        assert_eq!(kwargs, vec![("x".to_string(), Value::Int(2))]);
        // Missing keys default to empty.
        let (a, k) = parse_invocation(&Value::Dict(vec![]));
        assert!(a.is_empty() && k.is_empty());
    }
}
