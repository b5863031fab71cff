//! Integration: durability and crash recovery (`funcx-wal`).
//!
//! The paper's service keeps task state in Redis/RDS and relies on the
//! cloud provider for durability; the Rust build gets the same property
//! from a write-ahead log. These tests kill the service with tasks in
//! every lifecycle stage, restart from the log directory, and check the
//! §4.1 contract across process death: no acknowledged result is lost,
//! unacknowledged dispatches are redelivered in FIFO order, and nothing
//! runs (or is stored) twice.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use funcx_auth::{IdentityProvider, Scope};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_lang::Value;
use funcx_proto::channel::inproc_pair;
use funcx_registry::Sharing;
use funcx_serial::{Payload, Serializer};
use funcx_service::forwarder::Forwarder;
use funcx_service::{FsyncPolicy, FuncxService, ServiceConfig, SubmitRequest};
use funcx_store::QueueKind;
use funcx_types::task::{TaskOutcome, TaskState};
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::{EndpointId, FunctionId, TaskId};
use funcx_wal::frame::{decode_all, HEADER_LEN};
use funcx_wal::DurableEvent;

/// Fresh, collision-free log directory under the system temp dir.
fn unique_wal_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-durability-{tag}-{}-{nanos}", std::process::id()))
}

/// Durable service profile: every append is synced before the call
/// returns, so an abrupt kill can never lose an acknowledged write and
/// the tests are deterministic about what survives.
fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        heartbeat_timeout: Duration::from_secs(600),
        wal_dir: Some(dir.to_path_buf()),
        wal_fsync: FsyncPolicy::Always,
        ..ServiceConfig::default()
    }
}

fn fast_endpoint_config() -> EndpointConfig {
    EndpointConfig {
        workers_per_manager: 4,
        dispatch_overhead: Duration::ZERO,
        heartbeat_period: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(600),
        ..EndpointConfig::default()
    }
}

/// The endpoint side of one connection: forwarder + agent + managers.
/// `managers == 0` builds an endpoint that accepts dispatches but never
/// executes anything — the factory for dispatched-but-unacked tasks.
struct Fabric {
    forwarder: Forwarder,
    agent: Agent,
    managers: Vec<Manager>,
}

fn connect(service: &Arc<FuncxService>, endpoint_id: EndpointId, managers: usize) -> Fabric {
    let (forwarder, channel) =
        service.connect_endpoint(endpoint_id, Duration::ZERO).expect("endpoint registered");
    let config = fast_endpoint_config();
    let agent = Agent::spawn(endpoint_id, config.clone(), service.clock(), channel);
    let mut mgrs = Vec::with_capacity(managers);
    for _ in 0..managers {
        let (agent_side, mgr_side) = inproc_pair();
        mgrs.push(Manager::spawn(
            config.clone(),
            service.clock(),
            Serializer::default(),
            mgr_side,
            None,
        ));
        agent.attach_manager(agent_side);
    }
    Fabric { forwarder, agent, managers: mgrs }
}

impl Fabric {
    /// Simulate abrupt process death. The forwarder's shutdown flag exits
    /// its loop *without* the agent-loss requeue path, so tasks it had
    /// dispatched stay `DispatchedToEndpoint` in the store — exactly the
    /// state a real crash leaves behind for recovery to clean up.
    fn crash(mut self) {
        self.forwarder.stop();
        for m in &mut self.managers {
            m.kill();
        }
        self.agent.stop();
    }
}

fn register_ident(service: &Arc<FuncxService>, token: &str) -> FunctionId {
    service
        .register_function(
            token,
            "ident",
            "def ident(x):\n    return x\n",
            "ident",
            None,
            Sharing::default(),
        )
        .expect("register function")
}

fn submit(
    service: &Arc<FuncxService>,
    token: &str,
    f: FunctionId,
    endpoint_id: EndpointId,
    arg: i64,
) -> TaskId {
    service
        .submit(
            token,
            SubmitRequest {
                function_id: f,
                target: endpoint_id.into(),
                args: vec![Value::Int(arg)],
                kwargs: vec![],
                allow_memo: false,
            },
        )
        .expect("submit")
}

/// Poll until every task reaches `want` (wall-clock deadline).
fn wait_for_states(
    service: &Arc<FuncxService>,
    token: &str,
    tasks: &[TaskId],
    want: TaskState,
    timeout: Duration,
) {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let done = tasks
            .iter()
            .filter(|&&t| service.status(token, t).map(|s| s == want).unwrap_or(false))
            .count();
        if done == tasks.len() {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {done}/{} tasks reached {want:?} before the deadline",
            tasks.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn await_result(
    service: &Arc<FuncxService>,
    token: &str,
    task: TaskId,
    timeout: Duration,
) -> Option<TaskOutcome> {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if let Ok(Some(outcome)) = service.get_result(token, task) {
            return Some(outcome);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

fn assert_int_result(outcome: TaskOutcome, want: i64) {
    let TaskOutcome::Success(body) = outcome else {
        panic!("expected success, got {outcome:?}");
    };
    let (_, payload) = Serializer::default().deserialize_packed(&body).expect("packed result");
    assert_eq!(payload, Payload::Document(Value::Int(want)));
}

fn queue_task_ids<B: AsRef<[u8]>>(items: &[B]) -> Vec<TaskId> {
    items
        .iter()
        .map(|raw| {
            let bytes: [u8; 16] = raw.as_ref().try_into().expect("task queue items are ids");
            TaskId::from_u128(u128::from_be_bytes(bytes))
        })
        .collect()
}

/// The tentpole scenario: ≥40 tasks across two endpoints, killed with
/// work in every stage, restarted from the log.
///
/// * endpoint `alpha` ran 24 tasks to completion — 4 results were
///   retrieved, 20 are stored and unretrieved (acked, must survive);
/// * endpoint `beta` had 20 tasks dispatched to an agent with no workers
///   (in flight, unacked — must be redelivered FIFO, exactly once).
#[test]
fn kill_and_recover_preserves_acked_results_and_redelivers_unacked() {
    let dir = unique_wal_dir("kill-recover");

    // --- incarnation 1 ----------------------------------------------------
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), durable_config(&dir));
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let ep_a = service.register_endpoint(&token, "alpha", "", false).unwrap();
    let ep_b = service.register_endpoint(&token, "beta", "", false).unwrap();
    let f = register_ident(&service, &token);

    let fabric_a = connect(&service, ep_a, 1);
    let acked: Vec<TaskId> = (0..24).map(|i| submit(&service, &token, f, ep_a, i)).collect();
    wait_for_states(&service, &token, &acked, TaskState::Success, Duration::from_secs(30));
    for &t in &acked[..4] {
        let outcome = service.get_result(&token, t).unwrap().expect("stored result");
        assert!(matches!(outcome, TaskOutcome::Success(_)));
    }

    let fabric_b = connect(&service, ep_b, 0);
    let unacked: Vec<TaskId> =
        (0..20).map(|i| submit(&service, &token, f, ep_b, 100 + i)).collect();
    wait_for_states(
        &service,
        &token,
        &unacked,
        TaskState::DispatchedToEndpoint,
        Duration::from_secs(30),
    );

    // --- crash ------------------------------------------------------------
    fabric_a.crash();
    fabric_b.crash();
    drop(service);

    // --- incarnation 2 ----------------------------------------------------
    let clock2: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let (service2, report) =
        FuncxService::recover(Arc::clone(&clock2), durable_config(&dir)).expect("recovery");
    assert_eq!(report.tasks_restored, 44);
    assert_eq!(report.endpoints_restored, 2);
    assert_eq!(report.functions_restored, 1);
    assert_eq!(report.unacked_redelivered, 20, "every in-flight task requeued");
    assert!(report.events_replayed > 0);

    // Zero acked-task loss: every alpha result survives the restart and is
    // served to the same user on a fresh login (identities are stable
    // across incarnations, like Globus Auth subjects).
    let (_, token2) = service2.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    for (i, &t) in acked.iter().enumerate() {
        assert_eq!(
            service2.task_record(t).unwrap().state,
            TaskState::Success,
            "acked task {i} lost across restart"
        );
        let outcome =
            service2.get_result(&token2, t).unwrap().expect("stored result must be served");
        assert_int_result(outcome, i as i64);
    }

    // Unacked dispatches are waiting again, queued FIFO in the original
    // submission order, each exactly once.
    for &t in &unacked {
        assert_eq!(service2.task_record(t).unwrap().state, TaskState::WaitingForEndpoint);
    }
    let queue = service2.store.queue(ep_b, QueueKind::Task);
    assert_eq!(queue.len(), unacked.len());
    let redelivery = queue_task_ids(&queue.drain(usize::MAX));
    assert_eq!(redelivery, unacked, "redelivery preserves FIFO submission order");

    // Terminal alpha tasks were not resurrected into any queue.
    assert_eq!(service2.store.queue_len(ep_a, QueueKind::Task), 0);
}

/// Redelivered tasks actually run after the restart — and only once:
/// one stored outcome per task, and one result stored per task.
#[test]
fn recovered_unacked_tasks_execute_exactly_once_after_restart() {
    let dir = unique_wal_dir("redelivery");

    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), durable_config(&dir));
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let ep = service.register_endpoint(&token, "ep", "", false).unwrap();
    let f = register_ident(&service, &token);

    let fabric = connect(&service, ep, 0); // dispatches, never executes
    let tasks: Vec<TaskId> = (0..8).map(|i| submit(&service, &token, f, ep, i)).collect();
    wait_for_states(
        &service,
        &token,
        &tasks,
        TaskState::DispatchedToEndpoint,
        Duration::from_secs(30),
    );
    fabric.crash();
    drop(service);

    let clock2: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let (service2, report) =
        FuncxService::recover(Arc::clone(&clock2), durable_config(&dir)).expect("recovery");
    assert_eq!(report.unacked_redelivered, 8);

    // This time the endpoint has a real worker pool.
    let fabric2 = connect(&service2, ep, 1);
    let (_, token2) = service2.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    for (i, &t) in tasks.iter().enumerate() {
        let outcome = await_result(&service2, &token2, t, Duration::from_secs(30))
            .expect("redelivered task completed");
        assert_int_result(outcome, i as i64);
        let record = service2.task_record(t).unwrap();
        assert!(
            record.delivery_count >= 2,
            "redelivery must be visible in delivery_count, got {}",
            record.delivery_count
        );
        assert!(record.outcome.is_some());
    }
    // Exactly one result per task was stored — no duplicates.
    assert_eq!(
        service2.metrics.counter_value("funcx_results_stored_total", &[]),
        Some(tasks.len() as u64)
    );
    fabric2.crash();
}

/// Satellite: deregistering an endpoint is terminal — its queues do not
/// come back on restart and its backlog tasks stay failed.
#[test]
fn deregistered_endpoint_queue_stays_gone_across_restart() {
    let dir = unique_wal_dir("dereg");

    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), durable_config(&dir));
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let keep = service.register_endpoint(&token, "keep", "", false).unwrap();
    let gone = service.register_endpoint(&token, "gone", "", false).unwrap();
    let f = register_ident(&service, &token);

    // Backlog on the doomed endpoint: never connected, tasks queue up.
    let backlog: Vec<TaskId> = (0..3).map(|i| submit(&service, &token, f, gone, i)).collect();
    assert_eq!(service.store.queue_len(gone, QueueKind::Task), 3);

    let counts = service.deregister_endpoint(&token, gone).expect("owner may deregister");
    assert_eq!(counts.tasks_dropped, 3, "drained backlog is reported");
    for &t in &backlog {
        assert_eq!(service.task_record(t).unwrap().state, TaskState::Failed);
    }
    drop(service);

    let clock2: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let (service2, report) =
        FuncxService::recover(Arc::clone(&clock2), durable_config(&dir)).expect("recovery");

    // The surviving endpoint is back (offline until it reconnects); the
    // deregistered one is gone for good, queue included.
    assert!(service2.endpoints.get(keep).is_ok());
    assert!(service2.endpoints.get(gone).is_err(), "deregistration survives restart");
    assert_eq!(service2.store.queue_len(gone, QueueKind::Task), 0);
    assert_eq!(report.redelivered(), 0, "failed backlog tasks must not be queued again");
    for &t in &backlog {
        let record = service2.task_record(t).unwrap();
        assert_eq!(record.state, TaskState::Failed);
        let Some(TaskOutcome::Failure(trace)) = record.outcome else {
            panic!("failed task keeps its traceback");
        };
        assert!(trace.contains("deregistered"), "unhelpful traceback: {trace}");
    }
}

/// The one segment a durable test service writes (nothing here rotates).
fn segment_path(dir: &Path) -> PathBuf {
    dir.join(format!("wal-{:020}.seg", 0))
}

/// The log at `dir` as whole frames: `(bytes of the frame, its record)`.
fn log_frames(dir: &Path) -> Vec<(Vec<u8>, DurableEvent)> {
    let bytes = std::fs::read(segment_path(dir)).expect("segment exists");
    let (payloads, valid) = decode_all(&bytes);
    assert_eq!(valid, bytes.len(), "a cleanly closed log has no torn tail");
    let mut at = 0;
    payloads
        .into_iter()
        .map(|payload| {
            let frame = bytes[at..at + HEADER_LEN + payload.len()].to_vec();
            at += frame.len();
            (frame, DurableEvent::from_bytes(payload).expect("a record this build wrote"))
        })
        .collect()
}

/// A log directory holding exactly `frames`.
fn write_log(tag: &str, frames: &[&(Vec<u8>, DurableEvent)]) -> PathBuf {
    let dir = unique_wal_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bytes: Vec<u8> = frames.iter().flat_map(|(frame, _)| frame.iter().copied()).collect();
    std::fs::write(segment_path(&dir), bytes).expect("write log");
    dir
}

/// Regression: a submit that races `deregister_endpoint` logs its
/// `TaskCreated`, has its push refused by the closed queue, and the
/// process dies before `TaskFailed` is logged. The restarted service must
/// fail the task with the deregistration reason; it used to leave it
/// `WaitingForEndpoint` in no queue, and `get_result` pending for ever.
#[test]
fn a_task_whose_endpoint_the_log_deregistered_is_failed_not_parked() {
    let dir = unique_wal_dir("parked");
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), durable_config(&dir));
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let gone = service.register_endpoint(&token, "gone", "", false).unwrap();
    let f = register_ident(&service, &token);
    // The deregistration has closed the queue; the racing submit, already
    // past its endpoint lookup, logs the task and is refused.
    service.store.queue(gone, QueueKind::Task).close();
    let task = submit(&service, &token, f, gone, 7);
    service.deregister_endpoint(&token, gone).expect("owner may deregister");
    drop(service);

    // The crash: everything above reached the log except the refusal's
    // `TaskFailed` (each frame stands alone, so dropping one leaves exactly
    // the log that interleaving writes).
    let frames = log_frames(&dir);
    let kept: Vec<_> = frames
        .iter()
        .filter(|(_, event)| !matches!(event, DurableEvent::TaskFailed { task_id, .. } if *task_id == task))
        .collect();
    assert_eq!(kept.len(), frames.len() - 1, "exactly the refusal is lost");
    assert!(matches!(kept.last(), Some((_, DurableEvent::EndpointDeregistered { .. }))));
    let crashed = write_log("parked-crash", &kept);

    let clock2: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let (service2, _) =
        FuncxService::recover(Arc::clone(&clock2), durable_config(&crashed)).expect("recovery");
    let (_, token2) = service2.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let outcome = service2.get_result(&token2, task).expect("the owner may ask");
    let Some(TaskOutcome::Failure(reason)) = outcome else {
        panic!(
            "the task is parked: {:?}, result {outcome:?}",
            service2.task_record(task).unwrap().state
        );
    };
    assert!(reason.contains("deregistered"), "unhelpful reason: {reason}");
    assert_eq!(service2.store.queue_len(gone, QueueKind::Task), 0);
    // And it stays failed: the failure was logged, not just applied.
    drop(service2);
    let (service3, report) =
        FuncxService::recover(Arc::clone(&clock2), durable_config(&crashed)).expect("recovery");
    assert_eq!(service3.task_record(task).unwrap().state, TaskState::Failed);
    assert_eq!(report.redelivered(), 0);
}

/// Whatever prefix of the log survives a crash, recovery leaves every
/// non-terminal task in exactly one queue — its endpoint's — exactly once,
/// in the order the tasks were created, and every terminal task in none.
/// The expectation is worked out from the log's records alone.
#[test]
fn recovery_from_every_log_prefix_queues_each_live_task_once_in_creation_order() {
    let dir = unique_wal_dir("prefixes");
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), durable_config(&dir));
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let [done, in_flight, backlog, doomed] = ["done", "in-flight", "backlog", "doomed"]
        .map(|name| service.register_endpoint(&token, name, "", false).unwrap());
    let f = register_ident(&service, &token);

    // Every stage: finished (one retrieved), dispatched and unacked, never
    // dispatched, and failed by a deregistration.
    let runs = connect(&service, done, 1);
    let finished: Vec<TaskId> = (0..4).map(|i| submit(&service, &token, f, done, i)).collect();
    wait_for_states(&service, &token, &finished, TaskState::Success, Duration::from_secs(30));
    service.get_result(&token, finished[0]).unwrap().expect("stored result");
    let stalls = connect(&service, in_flight, 0);
    let unacked: Vec<TaskId> = (0..3).map(|i| submit(&service, &token, f, in_flight, i)).collect();
    wait_for_states(
        &service,
        &token,
        &unacked,
        TaskState::DispatchedToEndpoint,
        Duration::from_secs(30),
    );
    for i in 0..3 {
        submit(&service, &token, f, backlog, i);
        submit(&service, &token, f, doomed, i);
    }
    service.deregister_endpoint(&token, doomed).expect("owner may deregister");
    runs.crash();
    stalls.crash();
    drop(service);

    let frames = log_frames(&dir);
    assert!(frames.len() > 30, "a log with every record kind in it: {}", frames.len());
    for cut in 0..=frames.len() {
        // From the records: who was created where, in what order, and who
        // has finished.
        let mut created: Vec<(TaskId, EndpointId)> = Vec::new();
        let mut terminal: Vec<TaskId> = Vec::new();
        for (_, event) in &frames[..cut] {
            match event {
                DurableEvent::TaskCreated { record } => {
                    created.push((record.spec.task_id, record.spec.endpoint_id))
                }
                DurableEvent::ResultStored { task_id, .. }
                | DurableEvent::TaskFailed { task_id, .. } => terminal.push(*task_id),
                _ => {}
            }
        }

        let prefix = write_log("prefix", &frames[..cut].iter().collect::<Vec<_>>());
        let clock2: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
        let (recovered, report) =
            FuncxService::recover(clock2, durable_config(&prefix)).expect("recovery");
        assert_eq!(report.events_replayed, cut as u64);
        assert_eq!(report.tasks_restored, created.len(), "cut {cut}");
        let mut queued = 0;
        for endpoint in [done, in_flight, backlog, doomed] {
            let want: Vec<TaskId> = created
                .iter()
                .filter(|(task, at)| *at == endpoint && !terminal.contains(task))
                .map(|(task, _)| *task)
                .collect();
            let got =
                queue_task_ids(&recovered.store.queue(endpoint, QueueKind::Task).drain(usize::MAX));
            assert_eq!(got, want, "cut {cut}: queue of {endpoint}");
            queued += got.len();
        }
        assert_eq!(report.redelivered(), queued, "cut {cut}");
        for (task, _) in &created {
            let state = recovered.task_record(*task).unwrap().state;
            assert_eq!(
                state.is_terminal(),
                terminal.contains(task),
                "cut {cut}: {task} recovered {state:?}"
            );
            assert!(state.is_terminal() || state == TaskState::WaitingForEndpoint, "cut {cut}");
        }
        drop(recovered);
        std::fs::remove_dir_all(&prefix).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a submit that hits a closed task queue must fail
/// the task with a traceback instead of silently dropping it (the old
/// code discarded the `push_back` bool).
#[test]
fn submit_to_closed_queue_fails_the_task_with_a_traceback() {
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(Arc::clone(&clock), ServiceConfig::default());
    let (_, token) = service.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
    let ep = service.register_endpoint(&token, "ep", "", false).unwrap();
    let f = register_ident(&service, &token);

    service.store.queue(ep, QueueKind::Task).close();

    // The submit itself succeeds (the record exists) but the task is
    // terminally failed, with the refusal explained to the user.
    let task = submit(&service, &token, f, ep, 7);
    let record = service.task_record(task).unwrap();
    assert_eq!(record.state, TaskState::Failed);
    let Some(TaskOutcome::Failure(trace)) = record.outcome else {
        panic!("refused task must carry a failure outcome");
    };
    assert!(trace.contains("Traceback"), "refusal reads like a traceback: {trace}");
    assert!(trace.contains("refused"), "refusal names the cause: {trace}");
    assert!(
        service.render_metrics().contains("funcx_queue_refusals_total"),
        "refusal counter is exported"
    );
}
