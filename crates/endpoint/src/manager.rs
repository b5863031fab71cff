//! Managers: per-node worker pools (§4.3).
//!
//! "Managers represent, and communicate on behalf of, the collective
//! capacity of the workers on a single node, thereby limiting the number of
//! sockets used to just two per node. ... Once all workers connect to the
//! manager it registers with the endpoint. Managers advertise deployed
//! container types and available capacity to the endpoint."
//!
//! The manager's task *window* (how many tasks it may hold at once) is what
//! the batching and prefetching optimizations tune:
//!
//! * batching off → window 1: a round trip to the agent per task (§5.5.2's
//!   slow case);
//! * batching on → window = workers: all workers stay busy, but a worker
//!   idles for one round trip between tasks;
//! * prefetching → window = workers + prefetch: next tasks are already
//!   buffered on the node when a worker frees up (§4.7, Figure 11).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use funcx_container::WarmStartEngine;
use funcx_proto::channel::ChannelHandle;
use funcx_proto::message::{Message, TaskDispatch, TaskResult};
use funcx_serial::Serializer;
use funcx_types::time::{SharedClock, Wake};
use funcx_types::{ContainerImageId, ManagerId};

use funcx_sandbox::SandboxHost;

use crate::config::EndpointConfig;
use crate::runtime::RuntimeRegistry;
use crate::worker::{spawn_worker_thread, Worker, WorkerCommand};

/// What a worker thread reports back: its slot index, the container it
/// holds after the task (for warm reuse), and the task's result.
type SlotResult = (usize, Option<ContainerImageId>, TaskResult);

/// Handle to a running manager (the node-level process).
pub struct Manager {
    manager_id: ManagerId,
    shutdown: Arc<AtomicBool>,
    /// The loop's wake-up; posted by the agent channel, every worker
    /// completion, and [`stop`](Self::stop) / [`kill`](Self::kill).
    wake: Arc<Wake>,
    channel: ChannelHandle,
    thread: Option<JoinHandle<()>>,
}

impl Manager {
    /// Spawn a manager with its workers, connected to the agent over
    /// `agent_channel`. Workers execute FxScript only; use
    /// [`Manager::spawn_with_sandbox`] to also host the sandbox runtime.
    pub fn spawn(
        config: EndpointConfig,
        clock: SharedClock,
        serializer: Serializer,
        agent_channel: ChannelHandle,
        warm_engine: Option<Arc<WarmStartEngine>>,
    ) -> Manager {
        Self::spawn_with_sandbox(config, clock, serializer, agent_channel, warm_engine, None)
    }

    /// Spawn a manager whose workers additionally route sandbox-runtime
    /// tasks through `sandbox` (one node-shared host: all the node's
    /// workers draw from its pre-warmed env pool and session store, and the
    /// manager loop drives its pre-warming/TTL maintenance).
    pub fn spawn_with_sandbox(
        config: EndpointConfig,
        clock: SharedClock,
        serializer: Serializer,
        agent_channel: ChannelHandle,
        warm_engine: Option<Arc<WarmStartEngine>>,
        sandbox: Option<Arc<SandboxHost>>,
    ) -> Manager {
        let manager_id = ManagerId::random();
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Wake::new();
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let wake = Arc::clone(&wake);
            let channel = Arc::clone(&agent_channel);
            std::thread::Builder::new()
                .name(format!("funcx-manager-{manager_id}"))
                .spawn(move || {
                    run_manager_loop(
                        manager_id,
                        config,
                        clock,
                        serializer,
                        channel,
                        warm_engine,
                        sandbox,
                        shutdown,
                        wake,
                    )
                })
                .expect("spawn manager thread")
        };
        Manager { manager_id, shutdown, wake, channel: agent_channel, thread: Some(thread) }
    }

    /// This manager's id.
    pub fn manager_id(&self) -> ManagerId {
        self.manager_id
    }

    /// Abrupt failure: the node dies mid-flight (Figure 7's experiment).
    /// The channel drops without any farewell; in-queue tasks are lost and
    /// must be re-executed by the agent's watchdog.
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.channel.close();
        self.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful stop: drain and exit.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// True while the manager loop is alive.
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().map(|t| !t.is_finished()).unwrap_or(false)
    }
}

impl Drop for Manager {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Slot {
    commands: Sender<WorkerCommand>,
    busy: bool,
    container: Option<ContainerImageId>,
    handle: Option<JoinHandle<()>>,
}

/// The manager's event loop. Its sources — the agent channel, the workers'
/// completions and `Manager::{stop, kill}` — all post `wake`; each pass
/// drains them, refills idle workers, returns results, and only then
/// blocks, so a freed worker is refilled when it frees. `poll_interval` is
/// the idle tick: heartbeats, pool maintenance, noticing a moved clock.
#[allow(clippy::too_many_arguments)]
fn run_manager_loop(
    manager_id: ManagerId,
    config: EndpointConfig,
    clock: SharedClock,
    serializer: Serializer,
    agent: ChannelHandle,
    warm_engine: Option<Arc<WarmStartEngine>>,
    sandbox: Option<Arc<SandboxHost>>,
    shutdown: Arc<AtomicBool>,
    wake: Arc<Wake>,
) {
    agent.set_waker(Arc::clone(&wake));
    // One runtime table for the whole node: every worker shares the same
    // sandbox host (env pool + session store).
    let runtimes = Arc::new(match sandbox {
        Some(host) => RuntimeRegistry::with_sandbox(config.limits.clone(), host),
        None => RuntimeRegistry::new(config.limits.clone()),
    });

    // Spawn the node's workers.
    let (result_tx, result_rx): (Sender<SlotResult>, Receiver<SlotResult>) = unbounded();
    let mut slots: Vec<Slot> = (0..config.workers_per_manager)
        .map(|i| {
            let (cmd_tx, cmd_rx) = unbounded();
            let worker = Worker::with_runtimes(
                Arc::clone(&clock),
                serializer.clone(),
                Arc::clone(&runtimes),
                warm_engine.clone(),
            );
            let handle = spawn_worker_thread(
                i,
                worker,
                cmd_rx,
                result_tx.clone(),
                Arc::clone(&wake),
                config.worker_stack_bytes,
            );
            Slot { commands: cmd_tx, busy: false, container: None, handle: Some(handle) }
        })
        .collect();

    // Register with the agent ("once all workers connect to the manager it
    // registers with the endpoint", §4.3).
    let _ = agent.send(Message::RegisterManager {
        manager_id,
        capacity: slots.len(),
        deployed_containers: Vec::new(),
    });

    let mut queue: VecDeque<(TaskDispatch, u64)> = VecDeque::new();
    let mut result_buffer: Vec<TaskResult> = Vec::new();
    let mut last_heartbeat = clock.now();
    let mut last_advert: Option<(usize, Vec<ContainerImageId>)> = None;
    let mut hb_seq = 0u64;

    'main: while !shutdown.load(Ordering::Acquire) {
        // 1. Everything inbound from the agent.
        loop {
            match agent.try_recv() {
                Ok(Some(Message::Tasks(tasks))) => {
                    let now = clock.now().as_nanos();
                    for t in tasks {
                        // Feed the pre-warmer's arrival-rate estimate at
                        // *receipt* (not dispatch): queueing delay must not
                        // starve or double-count the prediction signal.
                        if let (Some(engine), Some(img)) = (&warm_engine, t.container) {
                            engine.note_arrival(img);
                        }
                        queue.push_back((t, now));
                    }
                }
                Ok(Some(Message::Heartbeat { seq, .. })) => {
                    let _ = agent.send(Message::HeartbeatAck { seq });
                }
                Ok(Some(Message::Shutdown)) => break 'main,
                Ok(Some(_)) => {} // acks; other kinds are not manager-bound
                Ok(None) => break,
                Err(_) => break 'main, // agent gone; node drains and dies
            }
        }

        // 2. Worker completions.
        while let Ok((slot_idx, container, result)) = result_rx.try_recv() {
            slots[slot_idx].busy = false;
            slots[slot_idx].container = container;
            result_buffer.push(result);
        }

        // 3. Assign queued tasks to idle workers, container-affine first
        //    (§4.5: "either deploys a new worker in a suitable container or
        //    sends the task to an existing worker deployed in a suitable
        //    container"). A worker with a mismatched container redeploys
        //    itself, paying the cold-start cost.
        while let Some((task, _)) = queue.front() {
            let want = task.container;
            let slot_idx = slots
                .iter()
                .position(|s| !s.busy && s.container == want)
                .or_else(|| slots.iter().position(|s| !s.busy));
            match slot_idx {
                Some(i) => {
                    let (task, received) = queue.pop_front().expect("front checked");
                    slots[i].busy = true;
                    // A send can only fail if the worker thread died, which
                    // leaves the slot marked busy and effectively poisoned.
                    let _ = slots[i].commands.send(WorkerCommand::Run(Box::new(task), received));
                }
                None => break, // all workers busy; keep rest queued
            }
        }

        // 4. Return results upstream, batched per iteration.
        if !result_buffer.is_empty()
            && agent.send(Message::Results(std::mem::take(&mut result_buffer))).is_err()
        {
            break 'main;
        }

        // 5. Advertise capacity when it changed (§4.7: managers
        //    "continuously advertise the anticipated capacity").
        let idle = slots.iter().filter(|s| !s.busy).count();
        let mut deployed: Vec<ContainerImageId> =
            slots.iter().filter_map(|s| s.container).collect();
        deployed.sort_unstable();
        deployed.dedup();
        let snapshot = (idle, deployed.clone());
        if last_advert.as_ref() != Some(&snapshot) {
            let _ = agent.send(Message::CapacityAdvert {
                manager_id,
                idle,
                prefetch: config.prefetch,
                deployed_containers: deployed,
            });
            last_advert = Some(snapshot);
        }

        // 6. Warm-start maintenance: reap expired idle clones and pre-mint
        //    toward the predicted demand (background work, never charged to
        //    a worker's task). The runtime table's upkeep covers the
        //    sandbox host's env pre-warming and session TTL reaping.
        if let Some(engine) = &warm_engine {
            engine.maintain();
        }
        runtimes.maintain();

        // 7. Heartbeat on virtual period.
        let now = clock.now();
        if now.saturating_duration_since(last_heartbeat) >= config.heartbeat_period {
            hb_seq += 1;
            let _ = agent.send(Message::heartbeat(hb_seq));
            last_heartbeat = now;
        }

        // 8. Block until a source posts or the housekeeping tick is due.
        wake.wait_timeout(config.poll_interval);
    }

    // Drain: stop workers.
    for slot in &mut slots {
        let _ = slot.commands.send(WorkerCommand::Stop);
    }
    for slot in &mut slots {
        if let Some(h) = slot.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_lang::Value;
    use funcx_proto::channel::inproc_pair;
    use funcx_serial::Payload;
    use funcx_types::time::RealClock;
    use funcx_types::{FunctionId, FuncxError, TaskId};
    use std::time::Duration;

    fn clock() -> SharedClock {
        Arc::new(RealClock::with_speedup(1000.0))
    }

    fn dispatch(serializer: &Serializer, source: &str, entry: &str) -> TaskDispatch {
        let task_id = TaskId::random();
        let code = serializer
            .serialize_packed(
                task_id.uuid(),
                &Payload::Code { source: source.into(), entry: entry.into() },
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

    /// Drive an agent-side channel until `n` results arrive (acking
    /// heartbeats along the way).
    fn collect_results(agent_side: &ChannelHandle, n: usize) -> Vec<TaskResult> {
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while out.len() < n && std::time::Instant::now() < deadline {
            match agent_side.recv_timeout(Duration::from_millis(50)) {
                Ok(Message::Results(rs)) => out.extend(rs),
                Ok(Message::Heartbeat { seq, .. }) => {
                    let _ = agent_side.send(Message::HeartbeatAck { seq });
                }
                Ok(_) => {}
                Err(FuncxError::Timeout(_)) => {}
                Err(e) => panic!("channel error: {e}"),
            }
        }
        out
    }

    #[test]
    fn manager_registers_then_executes_tasks() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let mut manager = Manager::spawn(
            EndpointConfig { workers_per_manager: 2, ..EndpointConfig::default() },
            clock,
            serializer.clone(),
            manager_side,
            None,
        );

        // First message is registration.
        let msg = agent_side.recv_timeout(Duration::from_secs(5)).unwrap();
        let Message::RegisterManager { capacity, .. } = msg else { panic!("got {msg:?}") };
        assert_eq!(capacity, 2);

        // Send a batch of 4 tasks to 2 workers.
        let tasks: Vec<TaskDispatch> =
            (0..4).map(|_| dispatch(&serializer, "def f():\n    return 5\n", "f")).collect();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.task_id).collect();
        agent_side.send(Message::Tasks(tasks)).unwrap();

        let results = collect_results(&agent_side, 4);
        assert_eq!(results.len(), 4);
        let mut got: Vec<TaskId> = results.iter().map(|r| r.task_id).collect();
        got.sort();
        let mut want = ids;
        want.sort();
        assert_eq!(got, want);
        assert!(results.iter().all(|r| r.success));
        manager.stop();
    }

    #[test]
    fn parallel_workers_overlap_sleeps() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let mut manager = Manager::spawn(
            EndpointConfig { workers_per_manager: 8, ..EndpointConfig::default() },
            Arc::clone(&clock),
            serializer.clone(),
            manager_side,
            None,
        );
        let _ = agent_side.recv_timeout(Duration::from_secs(5)).unwrap(); // register

        // 8 × 1s sleeps on 8 workers should take ~1s virtual, not 8.
        let t0 = clock.now();
        let tasks: Vec<TaskDispatch> = (0..8)
            .map(|_| dispatch(&serializer, "def f():\n    sleep(1)\n    return 0\n", "f"))
            .collect();
        agent_side.send(Message::Tasks(tasks)).unwrap();
        let results = collect_results(&agent_side, 8);
        let elapsed = clock.now().saturating_duration_since(t0);
        assert_eq!(results.len(), 8);
        // Serial execution would be ≥ 8 s; parallel is ~1 s plus scheduler
        // noise (generous bound for loaded single-core CI hosts).
        assert!(
            elapsed < Duration::from_secs(6),
            "8 concurrent 1s sleeps took {elapsed:?} virtual"
        );
        manager.stop();
    }

    #[test]
    fn manager_heartbeats() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let mut manager = Manager::spawn(
            EndpointConfig {
                workers_per_manager: 1,
                heartbeat_period: Duration::from_millis(100),
                ..EndpointConfig::default()
            },
            clock,
            serializer,
            manager_side,
            None,
        );
        let _ = agent_side.recv_timeout(Duration::from_secs(5)).unwrap(); // register
        let mut beats = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while beats < 3 && std::time::Instant::now() < deadline {
            if let Ok(Message::Heartbeat { .. }) =
                agent_side.recv_timeout(Duration::from_millis(50))
            {
                beats += 1;
            }
        }
        assert!(beats >= 3, "only {beats} heartbeats");
        manager.stop();
    }

    #[test]
    fn kill_drops_channel_without_farewell() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let mut manager = Manager::spawn(
            EndpointConfig { workers_per_manager: 1, ..EndpointConfig::default() },
            clock,
            serializer,
            manager_side,
            None,
        );
        let _ = agent_side.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(manager.is_running());
        manager.kill();
        assert!(!manager.is_running());
        // Agent side observes disconnect.
        let mut disconnected = false;
        for _ in 0..100 {
            match agent_side.recv_timeout(Duration::from_millis(20)) {
                Err(FuncxError::Disconnected(_)) => {
                    disconnected = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(disconnected);
    }

    #[test]
    fn shutdown_message_stops_manager() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let manager = Manager::spawn(
            EndpointConfig { workers_per_manager: 1, ..EndpointConfig::default() },
            clock,
            serializer,
            manager_side,
            None,
        );
        let _ = agent_side.recv_timeout(Duration::from_secs(5)).unwrap();
        agent_side.send(Message::Shutdown).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while manager.is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!manager.is_running());
    }

    #[test]
    fn failed_function_returns_failure_result() {
        let clock = clock();
        let serializer = Serializer::default();
        let (agent_side, manager_side) = inproc_pair();
        let mut manager = Manager::spawn(
            EndpointConfig { workers_per_manager: 1, ..EndpointConfig::default() },
            clock,
            serializer.clone(),
            manager_side,
            None,
        );
        let _ = agent_side.recv_timeout(Duration::from_secs(5)).unwrap();
        agent_side
            .send(Message::Tasks(vec![dispatch(
                &serializer,
                "def f():\n    return missing()\n",
                "f",
            )]))
            .unwrap();
        let results = collect_results(&agent_side, 1);
        assert!(!results[0].success);
        manager.stop();
    }
}
