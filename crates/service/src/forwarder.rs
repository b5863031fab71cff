//! Forwarders: the service-side peer of each connected endpoint (§4.1).
//!
//! "When an endpoint registers with the funcX service a unique forwarder
//! process is created for each endpoint. Endpoints establish ZeroMQ
//! connections with their forwarder to receive tasks, return results, and
//! perform heartbeats. ... The forwarder dispatches tasks to the agent only
//! when an agent is connected. The forwarder uses heartbeats to detect if
//! an agent is disconnected and then returns outstanding tasks back into
//! the task queue. When the agent reconnects the tasks are forwarded to
//! that agent. This architecture ensures that funcX agents receive tasks
//! with at least once semantics."

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use funcx_proto::channel::{inproc_pair_with_latency, ChannelHandle};
use funcx_proto::heartbeat::HeartbeatTracker;
use funcx_proto::message::{Message, TaskDispatch, TaskResult};
use funcx_serial::{pack_buffer, CodecTag, Payload};
use funcx_store::QueueKind;
use funcx_telemetry::fx_log;
use funcx_types::ids::Uuid;
use funcx_types::task::{TaskOutcome, TaskState};
use funcx_types::time::{VirtualDuration, VirtualInstant, Wake};
use funcx_types::{EndpointId, FunctionId, TaskId};

use funcx_wal::DurableEvent;

use crate::memo::MemoCache;
use crate::service::FuncxService;

/// Handle to a running forwarder thread.
pub struct Forwarder {
    endpoint_id: EndpointId,
    shutdown: Arc<AtomicBool>,
    /// The loop's wake-up; posted by the task queue, the agent channel and
    /// [`stop`](Self::stop).
    wake: Arc<Wake>,
    thread: Option<JoinHandle<()>>,
}

impl Forwarder {
    /// Which endpoint this forwarder serves.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint_id
    }

    /// Stop the forwarder (service shutdown; not a failure path).
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// True while the forwarder loop runs — i.e. while the agent is
    /// connected (the loop exits when the agent is lost).
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().map(|t| !t.is_finished()).unwrap_or(false)
    }
}

impl Drop for Forwarder {
    fn drop(&mut self) {
        self.stop();
    }
}

impl FuncxService {
    /// Create the forwarder for an endpoint and return the channel the
    /// agent should connect over, with `latency` of one-way propagation
    /// delay injected (the WAN between the cloud service and the facility).
    ///
    /// Models the §4.1 registration flow: each (re)connection gets a fresh
    /// forwarder; the old one, if any, has already exited by requeueing its
    /// outstanding tasks.
    pub fn connect_endpoint(
        self: &Arc<Self>,
        endpoint_id: EndpointId,
        latency: VirtualDuration,
    ) -> funcx_types::Result<(Forwarder, ChannelHandle)> {
        // Ensure the endpoint exists before spawning anything.
        let _ = self.endpoints.get(endpoint_id)?;
        let (service_side, agent_side) = inproc_pair_with_latency(self.clock(), latency);
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Wake::new();
        let thread = {
            let service = Arc::clone(self);
            let shutdown = Arc::clone(&shutdown);
            let wake = Arc::clone(&wake);
            std::thread::Builder::new()
                .name(format!("funcx-forwarder-{endpoint_id}"))
                .spawn(move || {
                    run_forwarder_loop(service, endpoint_id, service_side, shutdown, wake)
                })
                .expect("spawn forwarder thread")
        };
        Ok((Forwarder { endpoint_id, shutdown, wake, thread: Some(thread) }, agent_side))
    }
}

impl FuncxService {
    /// Like [`connect_endpoint`](Self::connect_endpoint), but over real TCP:
    /// binds `addr` (port 0 = ephemeral), returns the bound address for the
    /// remote agent to dial (`funcx_proto::tcp::connect`), and runs the
    /// forwarder once the agent's connection arrives. This is the
    /// distributed deployment path — "Communication addresses are
    /// communicated as part of the registration process" (§4.8).
    pub fn connect_endpoint_tcp(
        self: &Arc<Self>,
        endpoint_id: EndpointId,
        addr: &str,
    ) -> funcx_types::Result<(Forwarder, std::net::SocketAddr)> {
        let _ = self.endpoints.get(endpoint_id)?;
        let server = funcx_proto::tcp::TcpServer::bind(addr)?;
        let bound = server.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Wake::new();
        let thread = {
            let service = Arc::clone(self);
            let shutdown = Arc::clone(&shutdown);
            let wake = Arc::clone(&wake);
            std::thread::Builder::new()
                .name(format!("funcx-forwarder-tcp-{endpoint_id}"))
                .spawn(move || {
                    // Wait for the agent to dial in, honouring shutdown.
                    let channel = loop {
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        match server.accept_timeout(std::time::Duration::from_millis(50)) {
                            Ok(Some(ch)) => break ch,
                            Ok(None) => continue,
                            Err(_) => return,
                        }
                    };
                    run_forwarder_loop(service, endpoint_id, channel, shutdown, wake)
                })
                .expect("spawn tcp forwarder thread")
        };
        Ok((Forwarder { endpoint_id, shutdown, wake, thread: Some(thread) }, bound))
    }
}

/// The forwarder's event loop. Its sources — the endpoint's task queue, the
/// agent channel and `Forwarder::stop` — all post `wake`; each pass drains
/// them and only then blocks, so nothing on the task path waits out
/// `poll_interval`, which is left as the idle tick for heartbeats and the
/// liveness check.
fn run_forwarder_loop(
    service: Arc<FuncxService>,
    endpoint_id: EndpointId,
    channel: ChannelHandle,
    shutdown: Arc<AtomicBool>,
    wake: Arc<Wake>,
) {
    let config = service.config.clone();
    let clock = service.clock();
    let task_queue = service.store.queue(endpoint_id, QueueKind::Task);
    channel.set_waker(Arc::clone(&wake));
    task_queue.set_waker(Arc::clone(&wake));

    // Phase 1: wait for the agent's registration.
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match channel.try_recv() {
            Ok(Some(Message::RegisterEndpoint { endpoint_id: claimed, .. })) => {
                if claimed != endpoint_id {
                    // An agent for a different endpoint on our channel is a
                    // protocol violation; refuse service.
                    let _ = channel.send(Message::Shutdown);
                    return;
                }
                let _ = service.endpoints.mark_online(endpoint_id);
                let _ = channel.send(Message::RegisterAck);
                break;
            }
            Ok(Some(_)) => {} // ignore anything pre-registration
            Ok(None) => {
                wake.wait_timeout(config.poll_interval);
            }
            Err(_) => return, // agent vanished before registering
        }
    }

    // Phase 2: dispatch/collect until the agent is lost or we shut down.
    let heartbeat = HeartbeatTracker::new(clock.clone(), config.heartbeat_timeout);
    // Outstanding tasks in dispatch order: on agent loss they are pushed
    // back to the queue *front* in reverse, so redelivery preserves the
    // §4.1 FIFO fairness instead of scrambling it hash-map style.
    let mut outstanding: Vec<TaskId> = Vec::new();
    // Per-(function, version) packed-code cache: code buffers are immutable
    // per version, so each forwarder serializes a function body once.
    let mut code_cache: HashMap<(FunctionId, u32), Vec<u8>> = HashMap::new();
    let mut last_heartbeat = clock.now();
    let mut hb_seq = 0u64;
    let mut agent_lost = false;

    'serve: while !shutdown.load(Ordering::Acquire) && !agent_lost {
        // 1. Drain the task queue into a dispatch batch (Fig. 3 step 4).
        let drained = task_queue.drain(config.forwarder_batch);
        // A full batch may have left more behind, unannounced.
        let queue_emptied = drained.is_empty() || drained.len() < config.forwarder_batch;
        if !drained.is_empty() {
            let mut batch: Vec<TaskDispatch> = Vec::with_capacity(drained.len());
            let now = clock.now();
            for raw in drained {
                let Some(task_id) = FuncxService::queue_bytes_to_task_id(&raw) else {
                    continue;
                };
                let Some(dispatch) = build_dispatch(&service, task_id, now, &mut code_cache) else {
                    continue;
                };
                outstanding.push(task_id);
                batch.push(dispatch);
            }
            if !batch.is_empty() {
                let n = batch.len();
                if channel.send(Message::Tasks(batch)).is_err() {
                    agent_lost = true;
                } else {
                    service.instruments.tasks_dispatched.add(n as u64);
                }
            }
        }

        // 2. Everything inbound from the agent.
        loop {
            match channel.try_recv() {
                Ok(Some(msg)) => {
                    heartbeat.record();
                    match msg {
                        Message::Results(results) => {
                            let done: HashSet<TaskId> = results.iter().map(|r| r.task_id).collect();
                            outstanding.retain(|id| !done.contains(id));
                            store_results(&service, endpoint_id, results);
                        }
                        Message::Heartbeat { seq, .. } => {
                            let _ = channel.send(Message::HeartbeatAck { seq });
                        }
                        Message::EndpointStatus { endpoint_id: claimed, report }
                            if claimed == endpoint_id =>
                        {
                            let _ = service.endpoints.record_heartbeat(
                                endpoint_id,
                                report,
                                clock.now(),
                            );
                        }
                        Message::HeartbeatAck { .. } => {}
                        Message::RegisterEndpoint { .. } => {
                            // Duplicate registration on a live channel: ack again.
                            let _ = channel.send(Message::RegisterAck);
                        }
                        Message::Shutdown => break 'serve,
                        _ => {}
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    agent_lost = true;
                    break;
                }
            }
        }

        // 3. Liveness: silence beyond the timeout counts as loss.
        if !heartbeat.is_alive() {
            agent_lost = true;
        }

        // 4. Our own heartbeat.
        let now = clock.now();
        if now.saturating_duration_since(last_heartbeat) >= config.heartbeat_period {
            hb_seq += 1;
            if channel.send(Message::heartbeat(hb_seq)).is_err() {
                agent_lost = true;
            }
            last_heartbeat = now;
        }

        // 5. Block until a source posts or the housekeeping tick is due.
        if queue_emptied && !agent_lost {
            wake.wait_timeout(config.poll_interval);
        }
    }

    // Exit: hand the endpoint's work to the failover path — pool-routed
    // tasks move to a healthy sibling, pinned tasks return to the queue for
    // redelivery ("returns outstanding tasks back into the task queue",
    // §4.1) — and mark the endpoint offline.
    if agent_lost {
        let (requeued, rerouted) = service.handle_endpoint_loss(endpoint_id, outstanding);
        service.instruments.tasks_requeued.add(requeued as u64);
        fx_log!(
            Warn,
            "forwarder",
            "agent lost",
            endpoint_id = endpoint_id,
            requeued = requeued,
            rerouted = rerouted
        );
    }
}

/// Build the wire dispatch for a queued task, updating its record.
///
/// Lock-hold hygiene: function code is serialized *before* any task lock
/// is taken; the shard write section below only transitions the record and
/// clones the pre-serialized payload.
fn build_dispatch(
    service: &Arc<FuncxService>,
    task_id: TaskId,
    now: VirtualInstant,
    code_cache: &mut HashMap<(FunctionId, u32), Vec<u8>>,
) -> Option<TaskDispatch> {
    // Cheap read-locked projection: what does this task need, and is it
    // still waiting for us?
    let (state, function_id, container) =
        service.tasks.read_record(task_id, |r| (r.state, r.spec.function_id, r.spec.container))?;
    if state != TaskState::WaitingForEndpoint {
        return None; // raced with a duplicate delivery; skip
    }
    let function = service.functions.get(function_id).ok()?;
    // Serialize (or reuse) the code buffer with no lock held. The buffer
    // is shared across every task of this (function, version), so its
    // routing tag is nil — the control-payload convention; the task id
    // travels in the TaskDispatch itself.
    let code = code_cache
        .entry((function.function_id, function.version))
        .or_insert_with(|| {
            let payload =
                Payload::Code { source: function.source.clone(), entry: function.entry.clone() };
            let (tag, body) =
                service.serializer().serialize(&payload).expect("code serialization cannot fail");
            pack_buffer(Uuid::nil(), tag, &body)
        })
        .clone();
    let container_modules = container
        .and_then(|img| service.images.get(img))
        .map(|img| img.modules)
        .unwrap_or_default();
    // Runtime negotiation: the dispatch frame carries which engine runs the
    // function plus its registered caps / grants. Session names are scoped
    // by the owning user so two users' `counter` sessions never collide on
    // a shared endpoint.
    let options = &function.options;
    let session_key = options.session.as_ref().map(|s| format!("{}:{}", function.owner, s));
    // Per-task write section: re-check the state (another forwarder
    // generation may have raced us between the read above and now), then
    // transition and stamp. Nothing here serializes or hashes.
    let dispatch = service
        .tasks
        .with_record_mut(task_id, |record| {
            if record.state != TaskState::WaitingForEndpoint {
                return None;
            }
            record.transition(TaskState::DispatchedToEndpoint);
            record.timeline.forwarder_read = Some(now);
            record.delivery_count += 1;
            Some(TaskDispatch {
                task_id,
                function_id: record.spec.function_id,
                code,
                payload: record.spec.payload.clone(),
                container: record.spec.container,
                container_modules,
                // The trace context crosses the wire with the task; the
                // agent echoes it back on the result frame.
                span: record.spec.span,
                runtime: record.spec.runtime,
                limits: options.limits,
                capabilities: options.capabilities.clone(),
                session: session_key.clone(),
            })
        })
        .flatten();
    if dispatch.is_some() {
        // Logged after the transition: recovery treats a dispatched-but-
        // unacked task as outstanding and redelivers it. Until this record
        // lands the log says "waiting", and a crash redelivers it too.
        service.log_event(&DurableEvent::TaskDispatched { task_id });
    }
    dispatch
}

/// Write results into records and the memo cache (Fig. 3 steps 5–6);
/// clients poll the record, so there is no result queue to notify.
///
/// Lock-hold hygiene: traceback deserialization, memo-key hashing, and
/// result unpacking all happen with no task lock held; each record gets
/// its own short per-task write section (never one batch-wide lock), so a
/// burst of results from one endpoint cannot freeze status polls for the
/// whole batch.
fn store_results(service: &Arc<FuncxService>, endpoint_id: EndpointId, results: Vec<TaskResult>) {
    let now = service.clock().now();
    for r in results {
        // Snapshot what the expensive pre-work needs under a brief read
        // lock: memoization intent and the input payload (cloned only
        // when a memo insert is actually coming).
        let Some((terminal, function_id, user_id, memo_payload, span)) =
            service.tasks.read_record(r.task_id, |record| {
                let wants_memo = r.success && record.spec.allow_memo;
                (
                    record.state.is_terminal(),
                    record.spec.function_id,
                    record.spec.user_id,
                    wants_memo.then(|| record.spec.payload.clone()),
                    record.spec.span,
                )
            })
        else {
            continue;
        };
        if terminal {
            continue; // duplicate delivery of a result
        }

        // Expensive pre-work, outside any lock.
        let failure_message = (!r.success).then(|| {
            service
                .serializer()
                .deserialize_packed(&r.body)
                .ok()
                .and_then(|(_, p)| match p {
                    Payload::Traceback(e) => Some(e.to_string()),
                    _ => None,
                })
                .unwrap_or_else(|| "execution failed (unreadable traceback)".to_string())
        });
        // Memoize successful results when the submission allowed it: hash
        // the key and unpack the result body now, cache codec + body (the
        // pack header is per-task and must not be cached — see
        // `MemoCache::get_packed`).
        let memo_insert: Option<(u64, CodecTag, Vec<u8>)> = memo_payload.and_then(|payload| {
            let function = service.functions.get(function_id).ok()?;
            let input = funcx_serial::unpack_buffer(&payload).ok()?;
            let key = MemoCache::key(&function.source, input.body);
            let result = funcx_serial::unpack_buffer(&r.body).ok()?;
            Some((key, result.codec, result.body.to_vec()))
        });

        // Per-task write section: stamps, transitions, outcome — only.
        // The outcome+timeline clone for the WAL happens inside the lock
        // (plain memcpy, no serialization) and only when a WAL is attached.
        let wal_enabled = service.wal_enabled();
        let stored = service
            .tasks
            .with_record_mut(r.task_id, |record| {
                if record.state.is_terminal() {
                    return None; // raced with a duplicate in another batch
                }
                // Remote-side timeline (shared virtual clock). A zero
                // manager stamp means an older agent that didn't record it.
                record.timeline.endpoint_received =
                    Some(VirtualInstant::from_nanos(r.endpoint_received_nanos));
                if r.manager_received_nanos != 0 {
                    record.timeline.manager_received =
                        Some(VirtualInstant::from_nanos(r.manager_received_nanos));
                }
                record.timeline.execution_start =
                    Some(VirtualInstant::from_nanos(r.exec_start_nanos));
                record.timeline.execution_end = Some(VirtualInstant::from_nanos(r.exec_end_nanos));
                record.timeline.result_stored = Some(now);
                if record.state == TaskState::DispatchedToEndpoint {
                    record.transition(TaskState::WaitingForLaunch);
                }
                if record.state == TaskState::WaitingForLaunch {
                    record.transition(TaskState::Running);
                }
                if r.success {
                    record.transition(TaskState::Success);
                    record.outcome = Some(TaskOutcome::Success(r.body.clone()));
                } else {
                    record.transition(TaskState::Failed);
                    record.outcome = Some(TaskOutcome::Failure(
                        failure_message.clone().expect("set for failures"),
                    ));
                }
                let logged = wal_enabled
                    .then(|| (record.outcome.clone().expect("just set"), record.timeline));
                Some((record.timeline, record.delivery_count, logged))
            })
            .flatten();
        let Some((timeline, delivery_count, logged)) = stored else {
            continue;
        };
        let (total, exec) = (timeline.total(), timeline.t_exec());

        // Post-work: WAL append, counters, memo insert, trace — all outside
        // the task lock.
        if let Some((outcome, timeline)) = logged {
            service.log_event(&DurableEvent::ResultStored {
                task_id: r.task_id,
                outcome,
                timeline,
            });
        }
        if let Some((key, codec, body)) = memo_insert {
            if wal_enabled {
                service.log_event(&DurableEvent::MemoInsert {
                    key,
                    codec: codec.as_byte(),
                    body: body.clone(),
                });
            }
            service.memo.insert(key, codec, body);
        }
        if !r.success {
            service.instruments.tasks_failed.inc();
        }
        service.instruments.results_stored.inc();
        // Runtime-negotiation counters: which engine ran the task, and —
        // when a sandbox cap killed it — which cap.
        if let Some(idx) = funcx_types::Runtime::ALL.iter().position(|rt| *rt == r.runtime) {
            service.instruments.runtime_execs[idx][if r.success { 0 } else { 1 }].inc();
        }
        if let Some(cap) = &r.cap_kill {
            if let Some(ci) = crate::service::CAP_LABELS.iter().position(|c| c == cap) {
                service.instruments.cap_kills[ci].inc();
            }
        }
        if let Some(total) = total {
            service.instruments.task_latency.record(total);
        }
        if let Some(exec) = exec {
            service.instruments.task_exec.record(exec);
        }
        service.stats.on_result(function_id, endpoint_id, user_id, &timeline, r.success);
        // Synthesize the remote-side spans from the timeline the result
        // carried home (shared virtual clock, §4 instrumentation). The five
        // children — service, forwarder_out, endpoint, exec, forwarder_in —
        // tile the root exactly: Figure 4's decomposition as a span tree.
        if span.is_active() {
            let tracer = &service.tracer;
            if let (Some(queued), Some(arrived)) =
                (timeline.queued_at_service, timeline.endpoint_received)
            {
                tracer.record(
                    &span.child(),
                    "forwarder_out",
                    queued,
                    arrived,
                    vec![
                        ("endpoint_id", endpoint_id.to_string()),
                        ("delivery_count", delivery_count.to_string()),
                    ],
                );
            }
            if let (Some(arrived), Some(exec_start)) =
                (timeline.endpoint_received, timeline.execution_start)
            {
                let endpoint_ctx = span.child();
                tracer.record(
                    &endpoint_ctx,
                    "endpoint",
                    arrived,
                    exec_start,
                    vec![("endpoint_id", endpoint_id.to_string())],
                );
                if let Some(picked) = timeline.manager_received {
                    tracer.record(
                        &endpoint_ctx.child(),
                        "manager_pickup",
                        picked,
                        exec_start,
                        vec![],
                    );
                }
            }
            if let (Some(exec_start), Some(exec_end)) =
                (timeline.execution_start, timeline.execution_end)
            {
                tracer.record(
                    &span.child(),
                    "exec",
                    exec_start,
                    exec_end,
                    vec![("success", r.success.to_string())],
                );
            }
            if let Some(exec_end) = timeline.execution_end {
                tracer.record(&span.child(), "forwarder_in", exec_end, now, vec![]);
            }
            if !r.success {
                tracer.flag(span.trace_id, "error");
            }
            tracer.complete(span.trace_id, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::SubmitRequest;
    use funcx_auth::{IdentityProvider, Scope};
    use funcx_endpoint::{Agent, EndpointConfig, Manager};
    use funcx_lang::Value;
    use funcx_proto::channel::inproc_pair;
    use funcx_registry::Sharing;
    use funcx_serial::Serializer;
    use funcx_types::time::{RealClock, SharedClock};
    use std::time::Duration;

    fn fast_endpoint_config() -> EndpointConfig {
        EndpointConfig {
            workers_per_manager: 4,
            dispatch_overhead: Duration::ZERO,
            heartbeat_period: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(600),
            ..EndpointConfig::default()
        }
    }

    #[allow(dead_code)]
    struct Deployment {
        service: Arc<FuncxService>,
        token: String,
        endpoint_id: EndpointId,
        forwarder: Forwarder,
        agent: Agent,
        managers: Vec<Manager>,
        clock: SharedClock,
    }

    /// Full stack: service + forwarder + agent + one manager, in-process.
    fn deploy() -> Deployment {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let service = FuncxService::new(
            Arc::clone(&clock),
            ServiceConfig {
                heartbeat_timeout: Duration::from_secs(600),
                ..ServiceConfig::default()
            },
        );
        let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
        let endpoint_id = service.register_endpoint(&token, "laptop", "", false).unwrap();
        let (forwarder, agent_channel) =
            service.connect_endpoint(endpoint_id, Duration::ZERO).unwrap();
        let config = fast_endpoint_config();
        let agent = Agent::spawn(endpoint_id, config.clone(), Arc::clone(&clock), agent_channel);
        let (agent_side, mgr_side) = inproc_pair();
        let manager =
            Manager::spawn(config, Arc::clone(&clock), Serializer::default(), mgr_side, None);
        agent.attach_manager(agent_side);
        Deployment { service, token, endpoint_id, forwarder, agent, managers: vec![manager], clock }
    }

    fn await_result(d: &Deployment, task: TaskId, timeout: Duration) -> Option<TaskOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if let Ok(Some(outcome)) = d.service.get_result(&d.token, task) {
                return Some(outcome);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }

    fn register_fn(d: &Deployment, source: &str, entry: &str) -> FunctionId {
        d.service
            .register_function(&d.token, entry, source, entry, None, Sharing::default())
            .unwrap()
    }

    fn submit(d: &Deployment, f: FunctionId, args: Vec<Value>, allow_memo: bool) -> TaskId {
        d.service
            .submit(
                &d.token,
                SubmitRequest {
                    function_id: f,
                    target: d.endpoint_id.into(),
                    args,
                    kwargs: vec![],
                    allow_memo,
                },
            )
            .unwrap()
    }

    #[test]
    fn full_path_submit_execute_retrieve() {
        let mut d = deploy();
        let f = register_fn(&d, "def double(x):\n    return x * 2\n", "double");
        let task = submit(&d, f, vec![Value::Int(21)], false);
        let outcome = await_result(&d, task, Duration::from_secs(20)).expect("task completed");
        let TaskOutcome::Success(body) = outcome else { panic!("failed: {outcome:?}") };
        let (_, payload) = d.service.serializer().deserialize_packed(&body).unwrap();
        assert_eq!(payload, Payload::Document(Value::Int(42)));
        assert_eq!(d.service.status(&d.token, task).unwrap(), TaskState::Success);

        // Timeline is fully populated (Figure 4 instrumentation).
        let record = d.service.task_record(task).unwrap();
        assert!(record.timeline.total().is_some());
        assert!(record.timeline.t_service().is_some());
        assert!(record.timeline.t_exec().is_some());
        assert_eq!(record.delivery_count, 1);

        for m in &mut d.managers {
            m.stop();
        }
        d.agent.stop();
        d.forwarder.stop();
    }

    #[test]
    fn failures_surface_the_remote_traceback() {
        let mut d = deploy();
        let f = register_fn(&d, "def boom():\n    return 1 / 0\n", "boom");
        let task = submit(&d, f, vec![], false);
        let outcome = await_result(&d, task, Duration::from_secs(20)).expect("task completed");
        let TaskOutcome::Failure(msg) = outcome else { panic!("expected failure") };
        assert!(msg.contains("division by zero"), "{msg}");
        assert_eq!(d.service.status(&d.token, task).unwrap(), TaskState::Failed);
        for m in &mut d.managers {
            m.stop();
        }
    }

    #[test]
    fn memoization_end_to_end() {
        let mut d = deploy();
        let f = register_fn(&d, "def slow_id(x):\n    sleep(500)\n    return x\n", "slow_id");
        // First call executes remotely (500 virtual s ≈ 0.5 s wall).
        let t1 = submit(&d, f, vec![Value::Int(7)], true);
        let o1 = await_result(&d, t1, Duration::from_secs(30)).expect("first run");
        assert!(matches!(o1, TaskOutcome::Success(_)));
        assert!(!d.service.memo.is_empty(), "result memoized");

        // Second identical call is served instantly from cache — no queue.
        let before = d.service.memo.stats().hits;
        let t2 = submit(&d, f, vec![Value::Int(7)], true);
        assert_eq!(d.service.status(&d.token, t2).unwrap(), TaskState::Success);
        assert_eq!(d.service.memo.stats().hits, before + 1);

        // Different argument misses.
        let t3 = submit(&d, f, vec![Value::Int(8)], true);
        assert_ne!(d.service.status(&d.token, t3).unwrap(), TaskState::Success);
        let _ = await_result(&d, t3, Duration::from_secs(30));
        for m in &mut d.managers {
            m.stop();
        }
    }

    #[test]
    fn endpoint_failure_requeues_and_redelivers() {
        let mut d = deploy();
        let f = register_fn(&d, "def f(x):\n    sleep(2000)\n    return x\n", "f");
        // Several tasks, all long enough to still be outstanding when the
        // agent is severed (workers_per_manager = 4 runs them concurrently).
        let tasks: Vec<TaskId> =
            (0..3).map(|i| submit(&d, f, vec![Value::Int(i)], false)).collect();
        // Let the tasks reach the workers (2000 virtual s ≈ 2 s wall).
        std::thread::sleep(Duration::from_millis(300));
        for &task in &tasks {
            assert_eq!(d.service.status(&d.token, task).unwrap(), TaskState::DispatchedToEndpoint);
        }

        // Sever the agent (Figure 8 failure).
        d.agent.disconnect_forwarder();
        // Forwarder notices (channel closed) and requeues; endpoint offline.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while d.forwarder.is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!d.forwarder.is_running(), "old forwarder exits on loss");
        for &task in &tasks {
            assert_eq!(
                d.service.status(&d.token, task).unwrap(),
                TaskState::WaitingForEndpoint,
                "outstanding task returned to the queue"
            );
        }
        assert_eq!(
            d.service.endpoints.get(d.endpoint_id).unwrap().status,
            funcx_registry::EndpointStatus::Offline
        );

        // Redelivery preserves FIFO fairness: the queue front holds the
        // requeued tasks in their original dispatch order. Inspect by
        // draining (no forwarder is attached) and restore.
        let queue = d.service.store.queue(d.endpoint_id, QueueKind::Task);
        let mut redelivery_order = Vec::new();
        while let Some(bytes) = queue.try_pop() {
            redelivery_order.push(FuncxService::queue_bytes_to_task_id(&bytes).unwrap());
        }
        assert_eq!(
            redelivery_order, tasks,
            "requeue must preserve dispatch order, not hash-map order"
        );
        for &task in &tasks {
            queue.push_back(FuncxService::task_id_to_queue_bytes(task));
        }

        // Recovery: agent reconnects through a fresh forwarder (§4.3).
        let (fwd2, agent_channel) =
            d.service.connect_endpoint(d.endpoint_id, Duration::ZERO).unwrap();
        d.agent.reconnect(agent_channel);
        for &task in &tasks {
            let outcome = await_result(&d, task, Duration::from_secs(30)).expect("redelivered");
            assert!(matches!(outcome, TaskOutcome::Success(_)));
            let record = d.service.task_record(task).unwrap();
            assert!(record.delivery_count >= 2, "task was redelivered");
        }
        drop(fwd2);
        for m in &mut d.managers {
            m.stop();
        }
    }
}
