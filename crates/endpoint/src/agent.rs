//! The funcX agent (§4.3).
//!
//! "The funcX agent is a software agent that is deployed by a user on a
//! compute resource ... It registers with the funcX service and acts as a
//! conduit for routing tasks and results between the service and workers."
//!
//! Responsibilities implemented here:
//!
//! * **Routing** — pending tasks go to managers with credit via the
//!   pluggable [`RoutingPolicy`](crate::scheduler::RoutingPolicy)
//!   (randomized greedy by default), preferring container affinity (§4.5).
//! * **Flow control** — a manager's task *window* derives from its worker
//!   capacity and the batching/prefetch config (§4.7); the agent never
//!   exceeds `window − outstanding` in flight per manager.
//! * **Fault tolerance** — "the funcX agent relies on periodic heartbeat
//!   messages and a watchdog process to detect lost managers. The funcX
//!   agent tracks tasks that have been distributed to managers so that when
//!   failures do occur, lost tasks can be re-executed" (Figure 7's path).
//! * **Reconnection** — on forwarder loss the agent buffers results and
//!   keeps workers busy; [`Agent::reconnect`] re-registers with a bumped
//!   generation (Figure 8's path).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use funcx_container::WarmStartEngine;
use funcx_proto::channel::ChannelHandle;
use funcx_proto::heartbeat::HeartbeatTracker;
use funcx_proto::message::{Message, TaskDispatch, TaskResult};
use funcx_telemetry::{fx_log, Counter, Gauge, MetricsRegistry};
use funcx_types::time::{SharedClock, Wake};
use funcx_types::{EndpointId, EndpointStatsReport, ManagerId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::EndpointConfig;
use crate::scheduler::{ManagerView, RandomizedGreedy, RoutingPolicy};

/// Live queue/capacity instruments, exposed for tests, the elasticity
/// controller, experiments, and the heartbeat-cadence status report.
///
/// The handles are lock-free [`funcx_telemetry`] gauges/counters. By default
/// they are standalone (registered nowhere); [`AgentStats::with_registry`]
/// binds the same handles into a [`MetricsRegistry`] so an endpoint process
/// can expose its own scrape surface.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Tasks waiting at the agent for a manager slot.
    pub pending: Gauge,
    /// Tasks in flight at managers.
    pub outstanding: Gauge,
    /// Live (heartbeating) managers.
    pub managers: Gauge,
    /// Total idle worker slots across live managers (from last adverts).
    pub idle_slots: Gauge,
    /// Tasks re-queued after a manager was declared lost.
    pub requeued: Counter,
    /// Results delivered upstream.
    pub results_sent: Counter,
    /// Dispatches whose trace was not head-sampled, so no spans were emitted
    /// for them on the endpoint side.
    pub spans_dropped: Counter,
}

impl AgentStats {
    /// Stats handles registered in `registry`, labelled by endpoint, so the
    /// agent's queues show up on a local Prometheus scrape surface.
    pub fn with_registry(registry: &MetricsRegistry, endpoint_id: EndpointId) -> AgentStats {
        let ep = endpoint_id.to_string();
        let labels: &[(&'static str, &str)] = &[("endpoint", ep.as_str())];
        AgentStats {
            pending: registry.gauge("funcx_agent_pending_tasks", labels),
            outstanding: registry.gauge("funcx_agent_outstanding_tasks", labels),
            managers: registry.gauge("funcx_agent_managers", labels),
            idle_slots: registry.gauge("funcx_agent_idle_slots", labels),
            requeued: registry.counter("funcx_agent_requeued_total", labels),
            results_sent: registry.counter("funcx_agent_results_sent_total", labels),
            spans_dropped: registry.counter("funcx_agent_spans_dropped_total", labels),
        }
    }

    /// Point-in-time snapshot shipped upstream alongside heartbeats.
    pub fn report(&self) -> EndpointStatsReport {
        EndpointStatsReport {
            pending: self.pending.get(),
            outstanding: self.outstanding.get(),
            managers: self.managers.get(),
            idle_slots: self.idle_slots.get(),
            requeued: self.requeued.get(),
            results_sent: self.results_sent.get(),
            spans_dropped: self.spans_dropped.get(),
            // Warm-start tiers are zero here; the agent loop overlays them
            // from the attached engine at heartbeat time.
            ..EndpointStatsReport::default()
        }
    }
}

struct ManagerConn {
    channel: ChannelHandle,
    registered: Option<ManagerState>,
}

struct ManagerState {
    manager_id: ManagerId,
    capacity: usize,
    idle: usize,
    prefetch: usize,
    deployed: Vec<funcx_types::ContainerImageId>,
    outstanding: HashMap<funcx_types::TaskId, (TaskDispatch, u64)>,
    heartbeat: HeartbeatTracker,
}

impl ManagerState {
    /// Flow-control window for this manager under `config`.
    fn window(&self, config: &EndpointConfig) -> usize {
        if config.batching {
            self.capacity + self.prefetch
        } else {
            1
        }
    }
}

struct Shared {
    /// Channels attached but not yet polled into the loop.
    new_managers: Mutex<Vec<ChannelHandle>>,
    /// Replacement forwarder channel after a reconnect.
    new_forwarder: Mutex<Option<ChannelHandle>>,
    stats: Arc<AgentStats>,
    /// The node-side warm-start engine, when containers are in play; its
    /// hit-tier counters ride the heartbeat status report.
    warm_engine: Mutex<Option<Arc<WarmStartEngine>>>,
    /// The node-shared sandbox host, when the sandbox runtime is enabled;
    /// its session-tier and cap-kill counters ride the heartbeat too.
    sandbox: Mutex<Option<Arc<funcx_sandbox::SandboxHost>>>,
    shutdown: AtomicBool,
    /// Cut the forwarder link abruptly (endpoint-failure injection).
    drop_forwarder: AtomicBool,
    /// The loop's wake-up: posted by the forwarder channel, every manager
    /// channel, and each handle method that leaves the loop something to do.
    wake: Arc<Wake>,
}

/// Handle to a running agent.
pub struct Agent {
    endpoint_id: EndpointId,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// A detachable, cloneable handle for attaching manager channels to an
/// agent — what a pilot-job launcher holds (it outlives borrows of the
/// [`Agent`] itself).
#[derive(Clone)]
pub struct AttachHandle {
    shared: Arc<Shared>,
}

impl AttachHandle {
    /// Attach a manager connection (same contract as
    /// [`Agent::attach_manager`]).
    pub fn attach(&self, channel: ChannelHandle) {
        self.shared.new_managers.lock().push(channel);
        self.shared.wake.notify();
    }
}

impl Agent {
    /// Spawn an agent for `endpoint_id`, connected to its forwarder over
    /// `forwarder` (the §4.1 ZeroMQ channel).
    pub fn spawn(
        endpoint_id: EndpointId,
        config: EndpointConfig,
        clock: SharedClock,
        forwarder: ChannelHandle,
    ) -> Agent {
        Self::spawn_with_policy(endpoint_id, config, clock, forwarder, Box::new(RandomizedGreedy))
    }

    /// Spawn with an explicit routing policy (ablation benches).
    pub fn spawn_with_policy(
        endpoint_id: EndpointId,
        config: EndpointConfig,
        clock: SharedClock,
        forwarder: ChannelHandle,
        policy: Box<dyn RoutingPolicy>,
    ) -> Agent {
        let shared = Arc::new(Shared {
            new_managers: Mutex::new(Vec::new()),
            new_forwarder: Mutex::new(None),
            stats: Arc::new(AgentStats::default()),
            warm_engine: Mutex::new(None),
            sandbox: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            drop_forwarder: AtomicBool::new(false),
            wake: Wake::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("funcx-agent-{endpoint_id}"))
                .spawn(move || {
                    run_agent_loop(endpoint_id, config, clock, forwarder, policy, shared)
                })
                .expect("spawn agent thread")
        };
        Agent { endpoint_id, shared, thread: Some(thread) }
    }

    /// This agent's endpoint id.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint_id
    }

    /// Attach a manager connection (the agent side of the pair the manager
    /// was spawned with). The agent acks registration when it arrives.
    pub fn attach_manager(&self, channel: ChannelHandle) {
        self.attach_handle().attach(channel);
    }

    /// Attach the node's warm-start engine so its hit-tier counters ride
    /// the heartbeat status report upstream (and reach `/v1/endpoints/<id>/
    /// status` and `/v1/metrics` on the service).
    pub fn attach_warm_engine(&self, engine: Arc<WarmStartEngine>) {
        *self.shared.warm_engine.lock() = Some(engine);
    }

    /// Attach the node-shared sandbox host so its session-tier hits,
    /// live-session count, and cap-kill totals ride the heartbeat status
    /// report upstream (the `sandbox_*` fields of the status API).
    pub fn attach_sandbox(&self, host: Arc<funcx_sandbox::SandboxHost>) {
        *self.shared.sandbox.lock() = Some(host);
    }

    /// Live stats.
    pub fn stats(&self) -> &AgentStats {
        &self.shared.stats
    }

    /// Cloneable stats handle (outlives borrows of the agent — the
    /// elasticity controller polls this from its own thread).
    pub fn stats_handle(&self) -> Arc<AgentStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Cloneable attach handle for pilot-job launchers.
    pub fn attach_handle(&self) -> AttachHandle {
        AttachHandle { shared: Arc::clone(&self.shared) }
    }

    /// Abruptly sever the forwarder link (endpoint goes offline, Fig. 8).
    /// Managers keep executing; results buffer at the agent.
    pub fn disconnect_forwarder(&self) {
        self.shared.drop_forwarder.store(true, Ordering::Release);
        self.shared.wake.notify();
    }

    /// Hand the agent a fresh forwarder channel after an outage; it
    /// re-registers with a bumped generation (§4.3: "when the funcX agent
    /// recovers, it repeats the registration process to acquire a new
    /// forwarder").
    pub fn reconnect(&self, forwarder: ChannelHandle) {
        *self.shared.new_forwarder.lock() = Some(forwarder);
        self.shared.wake.notify();
    }

    /// Graceful stop.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// True while the loop runs.
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().map(|t| !t.is_finished()).unwrap_or(false)
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The agent's event loop. Its sources — the forwarder channel, every
/// manager channel and the handle's control plane — all post `shared.wake`;
/// each pass drains them, routes, flushes results, and only then blocks, so
/// a completion is forwarded when it arrives. `poll_interval` is the idle
/// tick: heartbeats, the manager watchdog, and noticing a moved clock.
fn run_agent_loop(
    endpoint_id: EndpointId,
    config: EndpointConfig,
    clock: SharedClock,
    mut forwarder: ChannelHandle,
    policy: Box<dyn RoutingPolicy>,
    shared: Arc<Shared>,
) {
    let mut rng = StdRng::seed_from_u64(endpoint_id.uuid().as_u128() as u64 ^ 0x5eed);
    let mut generation: u64 = 1;
    let mut forwarder_up = true;
    forwarder.set_waker(Arc::clone(&shared.wake));
    let _ = forwarder.send(Message::RegisterEndpoint { endpoint_id, generation });

    let mut managers: Vec<ManagerConn> = Vec::new();
    let mut pending: VecDeque<(TaskDispatch, u64)> = VecDeque::new();
    let mut result_buffer: Vec<TaskResult> = Vec::new();
    let mut last_heartbeat = clock.now();
    let mut hb_seq = 0u64;

    'serve: while !shared.shutdown.load(Ordering::Acquire) {
        // 0. Control-plane operations from the handle.
        if shared.drop_forwarder.swap(false, Ordering::AcqRel) {
            forwarder.close();
            forwarder_up = false;
        }
        if let Some(fresh) = shared.new_forwarder.lock().take() {
            forwarder = fresh;
            forwarder.set_waker(Arc::clone(&shared.wake));
            generation += 1;
            forwarder_up =
                forwarder.send(Message::RegisterEndpoint { endpoint_id, generation }).is_ok();
        }
        for channel in shared.new_managers.lock().drain(..) {
            channel.set_waker(Arc::clone(&shared.wake));
            managers.push(ManagerConn { channel, registered: None });
        }

        // 1. Everything inbound from the forwarder.
        while forwarder_up {
            match forwarder.try_recv() {
                Ok(Some(Message::Tasks(tasks))) => {
                    let now = clock.now().as_nanos();
                    for t in tasks {
                        // The head-sampling decision rode the wire: count
                        // what the sampler will discard so operators can see
                        // trace coverage per endpoint (`spans_dropped` in
                        // the status report).
                        if t.span.is_active() && !t.span.sampled {
                            shared.stats.spans_dropped.inc();
                        }
                        pending.push_back((t, now));
                    }
                }
                Ok(Some(Message::Heartbeat { seq, .. })) => {
                    let _ = forwarder.send(Message::HeartbeatAck { seq });
                }
                Ok(Some(Message::Shutdown)) => break 'serve,
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    fx_log!(Warn, "agent", "forwarder connection lost; buffering results");
                    forwarder_up = false; // buffer results; wait for reconnect
                }
            }
        }

        // 2. Inbound from managers.
        let mut dead: Vec<usize> = Vec::new();
        for (idx, conn) in managers.iter_mut().enumerate() {
            loop {
                match conn.channel.try_recv() {
                    Ok(Some(msg)) => {
                        if let Some(state) = conn.registered.as_mut() {
                            state.heartbeat.record();
                        }
                        match msg {
                            Message::RegisterManager {
                                manager_id,
                                capacity,
                                deployed_containers,
                            } => {
                                conn.registered = Some(ManagerState {
                                    manager_id,
                                    capacity,
                                    idle: capacity,
                                    prefetch: config.prefetch,
                                    deployed: deployed_containers,
                                    outstanding: HashMap::new(),
                                    heartbeat: HeartbeatTracker::new(
                                        Arc::clone(&clock),
                                        config.heartbeat_timeout,
                                    ),
                                });
                                let _ = conn.channel.send(Message::RegisterAck);
                            }
                            Message::Results(mut results) => {
                                if let Some(state) = conn.registered.as_mut() {
                                    for r in &mut results {
                                        // Stamp the agent-arrival instant over
                                        // the worker's manager-side fallback —
                                        // this is the "endpoint received"
                                        // station of Figure 4's breakdown.
                                        if let Some((_, received)) =
                                            state.outstanding.remove(&r.task_id)
                                        {
                                            r.endpoint_received_nanos = received;
                                        }
                                    }
                                }
                                result_buffer.extend(results);
                            }
                            Message::CapacityAdvert {
                                idle, prefetch, deployed_containers, ..
                            } => {
                                if let Some(state) = conn.registered.as_mut() {
                                    state.idle = idle;
                                    state.prefetch = prefetch;
                                    state.deployed = deployed_containers;
                                }
                            }
                            Message::Heartbeat { seq, .. } => {
                                let _ = conn.channel.send(Message::HeartbeatAck { seq });
                            }
                            _ => {}
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        dead.push(idx);
                        break;
                    }
                }
            }
        }

        // 3. Watchdog: declare managers lost on channel death or heartbeat
        //    silence, and re-queue their outstanding tasks (§4.3).
        for (idx, conn) in managers.iter().enumerate() {
            if let Some(state) = &conn.registered {
                if !state.heartbeat.is_alive() && !dead.contains(&idx) {
                    dead.push(idx);
                }
            }
        }
        dead.sort_unstable();
        for idx in dead.into_iter().rev() {
            let conn = managers.remove(idx);
            if let Some(state) = conn.registered {
                let lost = state.outstanding.len();
                fx_log!(
                    Warn,
                    "agent",
                    "manager lost; requeueing outstanding tasks",
                    manager_id = state.manager_id,
                    requeued = lost
                );
                for (_, (task, received)) in state.outstanding {
                    pending.push_front((task, received));
                }
                shared.stats.requeued.add(lost as u64);
            }
        }

        // 4. Dispatch pending tasks to managers with credit. Nothing in
        //    here changes a deployment, and the only credit that moves is
        //    the one a dispatch spends, so the policy's view is built once
        //    per pass and kept current in place.
        if !pending.is_empty() {
            let mut views: Vec<ManagerView> = managers
                .iter()
                .filter_map(|c| c.registered.as_ref())
                .filter(|s| s.outstanding.len() < s.window(&config))
                .map(|s| ManagerView {
                    manager_id: s.manager_id,
                    credit: s.window(&config) - s.outstanding.len(),
                    deployed_containers: s.deployed.clone(),
                })
                .collect();
            while !views.is_empty() {
                let Some((front, _)) = pending.front() else { break };
                let Some(target) = policy.route(&mut rng, &views, front.container) else {
                    break;
                };
                let (task, received) = pending.pop_front().expect("front checked");
                // Per-task dispatch cost: the serialization + socket work that
                // bounds a single agent at ~1 700 tasks/s (§5.2.3).
                clock.sleep(config.dispatch_overhead);
                let view = views
                    .iter()
                    .position(|v| v.manager_id == target)
                    .expect("policy routes to a manager it was shown");
                views[view].credit -= 1;
                if views[view].credit == 0 {
                    views.remove(view); // order-preserving: policies index it
                }
                let conn = managers
                    .iter_mut()
                    .find(|c| c.registered.as_ref().map(|s| s.manager_id) == Some(target))
                    .expect("routed to live manager");
                let state = conn.registered.as_mut().expect("registered");
                // The one copy: the agent keeps the task for re-execution
                // if this manager is lost, the frame takes the original.
                state.outstanding.insert(task.task_id, (task.clone(), received));
                // A send that fails (channel died between poll and send)
                // leaves the task outstanding; the watchdog reclaims it.
                let _ = conn.channel.send(Message::Tasks(vec![task]));
            }
        }

        // 5. Results upstream (buffered across outages).
        if forwarder_up && !result_buffer.is_empty() {
            let batch = std::mem::take(&mut result_buffer);
            let n = batch.len();
            match forwarder.send(Message::Results(batch)) {
                Ok(()) => {
                    shared.stats.results_sent.add(n as u64);
                }
                Err(_) => {
                    forwarder_up = false;
                    // Can't recover the moved batch — in the real system the
                    // socket buffer is lost too; the forwarder's redelivery
                    // handles it. We conservatively count them unsent.
                }
            }
        }

        // 6. Stats refresh, then heartbeat + status report upstream (the
        //    report rides the heartbeat cadence, §4.3).
        let outstanding: usize = managers
            .iter()
            .filter_map(|c| c.registered.as_ref())
            .map(|s| s.outstanding.len())
            .sum();
        let idle: usize =
            managers.iter().filter_map(|c| c.registered.as_ref()).map(|s| s.idle).sum();
        shared.stats.pending.set(pending.len() as u64);
        shared.stats.outstanding.set(outstanding as u64);
        shared
            .stats
            .managers
            .set(managers.iter().filter(|c| c.registered.is_some()).count() as u64);
        shared.stats.idle_slots.set(idle as u64);
        let now = clock.now();
        if forwarder_up && now.saturating_duration_since(last_heartbeat) >= config.heartbeat_period
        {
            hb_seq += 1;
            let mut report = shared.stats.report();
            if let Some(engine) = shared.warm_engine.lock().as_ref() {
                let warm = engine.stats();
                report.warm_hits = warm.warm_hits;
                report.predicted_hits = warm.predicted_hits;
                report.clone_hits = warm.clone_hits;
                report.cold_misses = warm.cold_misses;
                report.prewarm_minted = warm.prewarm_minted;
                report.warm_evictions = warm.evictions;
                report.warm_snapshots = warm.snapshots;
            }
            if let Some(host) = shared.sandbox.lock().as_ref() {
                let sb = host.stats();
                report.sandbox_warm_hits = sb.warm_hits;
                report.sandbox_predicted_hits = sb.predicted_hits;
                report.sandbox_clone_hits = sb.clone_hits;
                report.sandbox_cold_misses = sb.cold_misses;
                report.sandbox_sessions = host.session_count() as u64;
                report.sandbox_cap_kills = sb.cap_kills();
            }
            let status = Message::EndpointStatus { endpoint_id, report };
            if forwarder.send(Message::heartbeat(hb_seq)).is_err()
                || forwarder.send(status).is_err()
            {
                forwarder_up = false;
            }
            last_heartbeat = now;
        }

        // 7. Block until a source posts or the housekeeping tick is due.
        shared.wake.wait_timeout(config.poll_interval);
    }

    // Graceful drain: tell managers to shut down.
    for conn in &managers {
        let _ = conn.channel.send(Message::Shutdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Manager;
    use funcx_lang::Value;
    use funcx_proto::channel::inproc_pair;
    use funcx_serial::{Payload, Serializer};
    use funcx_types::time::RealClock;
    use funcx_types::{FunctionId, FuncxError, TaskId};
    use std::time::Duration;

    fn clock() -> SharedClock {
        Arc::new(RealClock::with_speedup(1000.0))
    }

    fn dispatch(serializer: &Serializer, source: &str) -> TaskDispatch {
        let task_id = TaskId::random();
        let code = serializer
            .serialize_packed(
                task_id.uuid(),
                &Payload::Code { source: source.into(), entry: "f".into() },
            )
            .unwrap();
        let doc = Value::Dict(vec![
            ("args".into(), Value::List(vec![])),
            ("kwargs".into(), Value::Dict(vec![])),
        ]);
        let payload = serializer.serialize_packed(task_id.uuid(), &Payload::Document(doc)).unwrap();
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

    /// A fake forwarder: collects results, acks heartbeats.
    fn pump_forwarder(ch: &ChannelHandle, want: usize, timeout: Duration) -> Vec<TaskResult> {
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + timeout;
        while out.len() < want && std::time::Instant::now() < deadline {
            match ch.recv_timeout(Duration::from_millis(20)) {
                Ok(Message::Results(rs)) => out.extend(rs),
                Ok(Message::Heartbeat { seq, .. }) => {
                    let _ = ch.send(Message::HeartbeatAck { seq });
                }
                Ok(_) => {}
                Err(FuncxError::Timeout(_)) => {}
                Err(e) => panic!("forwarder channel error after {} results: {e}", out.len()),
            }
        }
        out
    }

    fn quick_config(workers: usize) -> EndpointConfig {
        // Virtual heartbeat windows must be generous relative to one event
        // loop tick: at speedup 1000 a 1 ms wall poll is ~1 s of virtual
        // time, so a timeout of a few virtual seconds would declare healthy
        // peers dead between ticks.
        EndpointConfig {
            workers_per_manager: workers,
            dispatch_overhead: Duration::ZERO,
            heartbeat_period: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(120),
            ..EndpointConfig::default()
        }
    }

    /// Wire agent + one manager; returns (forwarder side, agent, manager).
    fn rig(workers: usize) -> (ChannelHandle, Agent, Manager, SharedClock) {
        let clock = clock();
        let serializer = Serializer::default();
        let config = quick_config(workers);
        let (fwd_side, agent_side) = inproc_pair();
        let agent =
            Agent::spawn(EndpointId::random(), config.clone(), Arc::clone(&clock), agent_side);
        let (agent_mgr_side, mgr_side) = inproc_pair();
        let manager = Manager::spawn(config, Arc::clone(&clock), serializer, mgr_side, None);
        agent.attach_manager(agent_mgr_side);
        // Consume the agent's registration message.
        let msg = fwd_side.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(msg, Message::RegisterEndpoint { generation: 1, .. }));
        (fwd_side, agent, manager, clock)
    }

    #[test]
    fn end_to_end_task_through_agent_and_manager() {
        let (fwd, mut agent, mut manager, _clock) = rig(2);
        let serializer = Serializer::default();
        let tasks: Vec<TaskDispatch> =
            (0..6).map(|_| dispatch(&serializer, "def f():\n    return 3\n")).collect();
        fwd.send(Message::Tasks(tasks)).unwrap();
        let results = pump_forwarder(&fwd, 6, Duration::from_secs(20));
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.success));
        // The counter increments after the send the pump just read — poll
        // briefly rather than racing the agent thread.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while agent.stats().results_sent.get() < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(agent.stats().results_sent.get(), 6);
        manager.stop();
        agent.stop();
    }

    #[test]
    fn manager_death_requeues_and_reexecutes() {
        let (fwd, mut agent, mut manager1, clock) = rig(1);
        let serializer = Serializer::default();
        // A slow task occupies the single worker (2000 virtual seconds =
        // 2 s wall at speedup 1000); more tasks queue behind it.
        let mut tasks =
            vec![dispatch(&serializer, "def f():\n    sleep(2000)\n    return 'slow'\n")];
        for _ in 0..3 {
            tasks.push(dispatch(&serializer, "def f():\n    return 'fast'\n"));
        }
        fwd.send(Message::Tasks(tasks)).unwrap();
        // Give the agent a moment to dispatch to manager1; the slow task is
        // then mid-execution.
        std::thread::sleep(Duration::from_millis(300));

        // Kill the manager mid-task (Figure 7).
        manager1.kill();

        // Attach a replacement manager ("lost tasks can be re-executed").
        let config = quick_config(1);
        let (agent_mgr_side, mgr_side) = inproc_pair();
        let mut manager2 =
            Manager::spawn(config, Arc::clone(&clock), serializer.clone(), mgr_side, None);
        agent.attach_manager(agent_mgr_side);

        // All 4 tasks eventually complete on the replacement.
        let results = pump_forwarder(&fwd, 4, Duration::from_secs(30));
        assert_eq!(results.len(), 4, "all tasks re-executed after manager loss");
        assert!(agent.stats().requeued.get() >= 1);
        manager2.stop();
        agent.stop();
    }

    #[test]
    fn forwarder_outage_buffers_results_until_reconnect() {
        let (fwd, mut agent, mut manager, _clock) = rig(2);
        let serializer = Serializer::default();

        // Tasks run for 1000 virtual seconds (1 s wall at speedup 1000) so
        // the link can be cut while they execute; their results must then
        // buffer at the agent across the outage.
        let tasks: Vec<TaskDispatch> = (0..4)
            .map(|_| dispatch(&serializer, "def f():\n    sleep(1000)\n    return 1\n"))
            .collect();
        fwd.send(Message::Tasks(tasks)).unwrap();
        std::thread::sleep(Duration::from_millis(300)); // tasks reach workers
        agent.disconnect_forwarder();
        std::thread::sleep(Duration::from_millis(1200)); // tasks finish; results buffer

        // Reconnect on a fresh channel (Figure 8 recovery).
        let (new_fwd, agent_side) = inproc_pair();
        agent.reconnect(agent_side);
        let msg = new_fwd.recv_timeout(Duration::from_secs(5)).unwrap();
        let Message::RegisterEndpoint { generation, .. } = msg else { panic!("{msg:?}") };
        assert_eq!(generation, 2, "re-registration bumps the generation");

        let results = pump_forwarder(&new_fwd, 4, Duration::from_secs(20));
        assert_eq!(results.len(), 4, "buffered results flushed after recovery");
        manager.stop();
        agent.stop();
    }

    #[test]
    fn stats_reflect_load() {
        let (fwd, mut agent, mut manager, _clock) = rig(1);
        let serializer = Serializer::default();
        // Long tasks (1 s wall each at speedup 1000) so the snapshot below
        // observes the system under load.
        let tasks: Vec<TaskDispatch> = (0..5)
            .map(|_| dispatch(&serializer, "def f():\n    sleep(1000)\n    return 0\n"))
            .collect();
        fwd.send(Message::Tasks(tasks)).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let pending = agent.stats().pending.get();
        let outstanding = agent.stats().outstanding.get();
        assert!(outstanding >= 1, "one task at the single worker");
        assert!(pending >= 3, "rest waiting at the agent, got {pending}");
        assert_eq!(agent.stats().managers.get(), 1);
        // Don't drain: stopping mid-load must also be clean.
        manager.stop();
        agent.stop();
    }

    #[test]
    fn no_batching_window_is_one() {
        // With batching disabled the agent keeps at most one task in flight
        // per manager even with many idle workers.
        let clock = clock();
        let serializer = Serializer::default();
        let config = EndpointConfig { batching: false, ..quick_config(8) };
        let (fwd, agent_side) = inproc_pair();
        let mut agent =
            Agent::spawn(EndpointId::random(), config.clone(), Arc::clone(&clock), agent_side);
        let (agent_mgr_side, mgr_side) = inproc_pair();
        let mut manager =
            Manager::spawn(config, Arc::clone(&clock), serializer.clone(), mgr_side, None);
        agent.attach_manager(agent_mgr_side);
        let _ = fwd.recv_timeout(Duration::from_secs(5)).unwrap();

        let tasks: Vec<TaskDispatch> = (0..4)
            .map(|_| dispatch(&serializer, "def f():\n    sleep(1)\n    return 0\n"))
            .collect();
        fwd.send(Message::Tasks(tasks)).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(agent.stats().outstanding.get() <= 1, "window must be 1 without batching");
        let _ = pump_forwarder(&fwd, 4, Duration::from_secs(30));
        manager.stop();
        agent.stop();
    }
}
