//! Queue membership is a function of task state.
//!
//! 1. **The scripted history.** The records the service writes for a
//!    history that touches every way a task enters, leaves or changes
//!    queue — interleaved submits, a partial drain, results, agent loss
//!    with pinned tasks, a pool re-route to a sibling, an administrative
//!    failure, a deregistration, a purge, a restart's requeue, adopted
//!    (re-logged) creations — with the per-endpoint order after every
//!    step written out. Before queue journaling was deleted this test ran
//!    against both records and held the derived order equal to the
//!    journaled one (unacked dispatches, then the journaled queue) at each
//!    of these steps; the literals are what both said.
//! 2. **Every prefix.** In the style of `torn_tail.rs`: whatever prefix of
//!    that log survives a crash, recovery owes every non-terminal task
//!    exactly once, in arrival order, on the endpoint its record names,
//!    and owes no terminal task — and the same through a checkpoint taken
//!    at the cut.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use funcx_types::task::{TaskOutcome, TaskState};
use funcx_types::{EndpointId, TaskId};
use funcx_wal::{DurableEvent, FsyncPolicy, Wal, WalConfig, WalInstruments, WalState};

include!("fixtures/lifecycle_events.rs");

const A: u128 = 1;
const B: u128 = 2;
const C: u128 = 3;

/// The log of the scripted history, with the state after each step.
struct History {
    log: Vec<DurableEvent>,
    state: WalState,
}

impl History {
    fn new() -> Self {
        History { log: Vec::new(), state: WalState::new() }
    }

    fn write(&mut self, event: DurableEvent) {
        self.state.apply(&event);
        self.log.push(event);
    }

    fn task(id: u128) -> TaskId {
        TaskId::from_u128(id)
    }

    /// `submit_resolved`: the record is logged already waiting.
    fn submit(&mut self, id: u128, endpoint: u128) {
        self.write(waiting_task(id, endpoint, 5));
    }

    /// The forwarder drained `ids` from the queue and shipped them.
    fn dispatch(&mut self, ids: &[u128]) {
        for &id in ids {
            self.write(DurableEvent::TaskDispatched { task_id: Self::task(id) });
        }
    }

    fn result(&mut self, id: u128) {
        self.write(DurableEvent::ResultStored {
            task_id: Self::task(id),
            outcome: TaskOutcome::Success(vec![id as u8]),
            timeline: Default::default(),
        });
    }

    /// `handle_endpoint_loss`: outstanding work, then the drained backlog,
    /// each requeued onto `onto` (its own endpoint when pinned, a pool
    /// sibling when re-routed).
    fn endpoint_lost(&mut self, owed_there: &[u128], onto: u128) {
        for &id in owed_there {
            self.write(DurableEvent::TaskRequeued {
                task_id: Self::task(id),
                endpoint_id: EndpointId::from_u128(onto),
            });
        }
    }

    fn fail(&mut self, id: u128, why: &str) {
        self.write(DurableEvent::TaskFailed { task_id: Self::task(id), error: why.into() });
    }

    /// The derived queue of `endpoint`.
    fn queue(state: &WalState, endpoint: u128) -> Vec<u128> {
        state
            .owed()
            .iter()
            .filter(|record| record.spec.endpoint_id == EndpointId::from_u128(endpoint))
            .map(|record| record.spec.task_id.uuid().as_u128())
            .collect()
    }

    fn expect(&self, step: &str, a: &[u128], b: &[u128], c: &[u128]) {
        for (endpoint, want) in [(A, a), (B, b), (C, c)] {
            assert_eq!(Self::queue(&self.state, endpoint), want, "{step}: endpoint {endpoint}");
        }
    }
}

/// Run the script, checking the order after every step.
fn scripted_history() -> History {
    let mut h = History::new();

    // Two submitters interleave across two endpoints.
    for (id, endpoint) in [(1, A), (2, B), (3, A), (4, B), (5, A), (6, B)] {
        h.submit(id, endpoint);
    }
    h.expect("interleaved submits", &[1, 3, 5], &[2, 4, 6], &[]);

    // A's forwarder drains two of three: dispatched work is still owed,
    // and is the oldest.
    h.dispatch(&[1, 3]);
    h.expect("partial drain", &[1, 3, 5], &[2, 4, 6], &[]);
    h.result(1);
    h.expect("result", &[3, 5], &[2, 4, 6], &[]);
    h.submit(7, A);
    h.expect("submit behind an outstanding task", &[3, 5, 7], &[2, 4, 6], &[]);

    // A's agent is lost; its tasks are pinned and go back in place.
    h.endpoint_lost(&[3, 5, 7], A);
    h.expect("pinned requeue", &[3, 5, 7], &[2, 4, 6], &[]);
    h.dispatch(&[3]);
    h.dispatch(&[2, 4]);
    h.expect("both forwarders drain", &[3, 5, 7], &[2, 4, 6], &[]);

    // B's agent is lost; its tasks are pool-routed and move to sibling A,
    // outstanding first, then the backlog that never left the queue —
    // all behind what A already owes.
    h.endpoint_lost(&[2, 4, 6], A);
    h.expect("pool re-route", &[3, 5, 7, 2, 4, 6], &[], &[]);

    // An enqueue is refused: created, then failed administratively.
    h.submit(8, B);
    h.fail(8, "enqueue refused");
    h.expect("administrative failure", &[3, 5, 7, 2, 4, 6], &[], &[]);

    // C is deregistered with one task outstanding and one queued: the
    // backlog is failed; the outstanding one is owed until its result.
    h.submit(9, C);
    h.submit(10, C);
    h.dispatch(&[9]);
    h.fail(10, "endpoint deregistered");
    h.write(DurableEvent::EndpointDeregistered { endpoint_id: EndpointId::from_u128(C) });
    h.expect("deregistration", &[3, 5, 7, 2, 4, 6], &[], &[9]);
    h.result(9);
    h.expect("late result", &[3, 5, 7, 2, 4, 6], &[], &[]);

    // Retrieval and purge touch no queue.
    h.write(DurableEvent::ResultRetrieved { task_id: History::task(1), at_nanos: 99 });
    h.write(DurableEvent::TaskPurged { task_id: History::task(1) });
    h.expect("purge", &[3, 5, 7, 2, 4, 6], &[], &[]);

    // A restart finds 3 dispatched and unacked, and requeues it in place.
    h.endpoint_lost(&[3], A);
    h.expect("restart requeue", &[3, 5, 7, 2, 4, 6], &[], &[]);
    h.dispatch(&[3]);

    // `absorb_state` re-logs adopted creations: a new id joins the back,
    // and so does an id this log already had out for delivery.
    h.submit(11, A);
    h.submit(3, A);
    h.expect("adopted creations", &[5, 7, 2, 4, 6, 11, 3], &[], &[]);
    h
}

#[test]
fn the_derived_order_after_every_step_of_a_scripted_history() {
    let h = scripted_history();
    assert!(h.state.deregistered.contains(&EndpointId::from_u128(C)));
    assert!(!h.state.tasks.contains_key(&History::task(1)), "purged");
}

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-wal-derived-{tag}-{}-{nanos}", std::process::id()))
}

fn config(dir: &Path) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        segment_max_bytes: 512,
        snapshot_every: 0,
        ..WalConfig::new(dir.to_path_buf())
    }
}

#[test]
fn recovery_from_every_prefix_owes_each_live_task_exactly_once_in_order() {
    let log = scripted_history().log;
    for cut in 0..=log.len() {
        // What a never-crashed replay of the prefix says, and — worked out
        // apart from it — the order tasks arrived at their endpoints: on
        // creation, and on a requeue that names another endpoint.
        let mut reference = WalState::new();
        let mut home: HashMap<TaskId, EndpointId> = HashMap::new();
        let mut arrivals: Vec<TaskId> = Vec::new();
        for event in &log[..cut] {
            reference.apply(event);
            let (task_id, endpoint_id) = match event {
                DurableEvent::TaskCreated { record } => {
                    (record.spec.task_id, record.spec.endpoint_id)
                }
                DurableEvent::TaskRequeued { task_id, endpoint_id }
                    if home.get(task_id).is_some_and(|at| at != endpoint_id) =>
                {
                    (*task_id, *endpoint_id)
                }
                _ => continue,
            };
            home.insert(task_id, endpoint_id);
            arrivals.retain(|id| *id != task_id);
            arrivals.push(task_id);
        }

        let dir = tmp_dir("prefix");
        let wal = Wal::open(config(&dir), WalInstruments::standalone()).expect("open");
        for event in &log[..cut] {
            wal.append(event).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        // Once from the log alone, once more through a checkpoint of it.
        for pass in ["log", "checkpoint"] {
            let (wal, state) =
                Wal::recover(config(&dir), WalInstruments::standalone()).expect("recover");
            assert_eq!(state, reference, "cut {cut} via {pass}");
            let owed: Vec<TaskId> = state.owed().iter().map(|r| r.spec.task_id).collect();
            let distinct: HashSet<TaskId> = owed.iter().copied().collect();
            assert_eq!(distinct.len(), owed.len(), "cut {cut} via {pass}: a task owed twice");
            let live: Vec<TaskId> = arrivals
                .iter()
                .copied()
                .filter(|id| state.tasks.get(id).is_some_and(|r| !r.state.is_terminal()))
                .collect();
            assert_eq!(owed, live, "cut {cut} via {pass}: not the live tasks in arrival order");
            for record in state.owed() {
                assert_eq!(home[&record.spec.task_id], record.spec.endpoint_id, "cut {cut}");
                assert!(
                    matches!(
                        record.state,
                        TaskState::WaitingForEndpoint | TaskState::DispatchedToEndpoint
                    ),
                    "cut {cut} via {pass}: {:?} owed",
                    record.state
                );
            }
            for record in state.tasks.values().filter(|r| r.state.is_terminal()) {
                assert!(!distinct.contains(&record.spec.task_id), "cut {cut}: terminal task owed");
            }
            wal.snapshot_now().expect("checkpoint");
            drop(wal);
        }
        fs::remove_dir_all(&dir).ok();
    }
}
