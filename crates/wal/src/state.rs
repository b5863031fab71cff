//! The materialized view of the log: what the service's durable state
//! looks like after applying a prefix of [`DurableEvent`]s.
//!
//! Nothing keeps one of these resident beside the log: recovery builds it,
//! a checkpoint is recovery's result written back, a follower holds the
//! one it tails. They all satisfy a single invariant:
//!
//! > checkpoint + replay of the surviving log suffix == replay of the whole
//! > history up to the last durable append.
//!
//! `apply` must never panic: the log being replayed may be an arbitrary
//! valid prefix of history (a crash can land between any two appends), so
//! every transition is guarded rather than asserted, and events that no
//! longer make sense (result for a purged task, pop on a missing queue)
//! are dropped instead of trusted.

use std::collections::{HashMap, HashSet, VecDeque};

use funcx_registry::{EndpointRecord, FunctionRecord};
use funcx_types::task::{TaskOutcome, TaskRecord, TaskState};
use funcx_types::time::VirtualInstant;
use funcx_types::{EndpointId, FunctionId, TaskId};

use crate::event::{DurableEvent, QueueKind};

/// Durable state reconstructed from the log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalState {
    /// Task records by id — the Redis task-store substitute.
    pub tasks: HashMap<TaskId, TaskRecord>,
    /// Tasks currently dispatched-but-unacked, in dispatch order. Recovery
    /// re-queues these (front of queue, order preserved) for at-least-once
    /// redelivery.
    pub dispatch_order: Vec<TaskId>,
    /// Per-endpoint queue contents — the Redis list substitute.
    pub queues: HashMap<(EndpointId, QueueKind), VecDeque<Vec<u8>>>,
    /// Endpoints whose queues were terminally removed (deregistration):
    /// recovery must not resurrect these.
    pub removed_queues: HashSet<EndpointId>,
    /// Memoized results: memo key → (codec wire byte, unpacked body).
    pub memo: HashMap<u64, (u8, Vec<u8>)>,
    /// KV hash space: (hash, field) → (value, optional absolute expiry ns).
    pub kv: HashMap<(String, String), (Vec<u8>, Option<u64>)>,
    /// Registered endpoints — the RDS substitute.
    pub endpoints: HashMap<EndpointId, EndpointRecord>,
    /// Registered functions.
    pub functions: HashMap<FunctionId, FunctionRecord>,
}

impl WalState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        WalState::default()
    }

    /// Apply one event. Infallible by design: impossible events (illegal
    /// transition, unknown task) are ignored, because a replayed prefix may
    /// legitimately stop before the event that would have made them valid.
    pub fn apply(&mut self, event: &DurableEvent) {
        self.apply_owned(event.clone());
    }

    /// [`WalState::apply`] for a caller that is done with the event (replay
    /// decodes each record only to apply it): payloads move into the state
    /// instead of being copied a second time.
    pub fn apply_owned(&mut self, event: DurableEvent) {
        match event {
            DurableEvent::TaskCreated { record } => {
                // Dedup by task id: a re-logged creation replaces wholesale.
                let task_id = record.spec.task_id;
                self.dispatch_order.retain(|id| *id != task_id);
                self.tasks.insert(task_id, *record);
            }
            DurableEvent::TaskDispatched { task_id } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if record.state.can_transition_to(TaskState::DispatchedToEndpoint) {
                        record.state = TaskState::DispatchedToEndpoint;
                        record.delivery_count += 1;
                        if !self.dispatch_order.contains(&task_id) {
                            self.dispatch_order.push(task_id);
                        }
                    }
                }
            }
            DurableEvent::TaskRequeued { task_id, endpoint_id } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if record.state.can_transition_to(TaskState::WaitingForEndpoint) {
                        record.state = TaskState::WaitingForEndpoint;
                        record.spec.endpoint_id = endpoint_id;
                        self.dispatch_order.retain(|id| *id != task_id);
                    }
                }
            }
            DurableEvent::ResultStored { task_id, outcome, timeline } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    // Dedup: the first stored result for a task id wins;
                    // a duplicate delivery replays into a no-op.
                    if !record.state.is_terminal() {
                        record.state = if outcome.is_success() {
                            TaskState::Success
                        } else {
                            TaskState::Failed
                        };
                        record.outcome = Some(outcome);
                        record.timeline = timeline;
                        self.dispatch_order.retain(|id| *id != task_id);
                    }
                }
            }
            DurableEvent::ResultRetrieved { task_id, at_nanos } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if record.state.is_terminal() {
                        record.retrieved_at = Some(VirtualInstant::from_nanos(at_nanos));
                    }
                }
            }
            DurableEvent::TaskPurged { task_id } => {
                self.tasks.remove(&task_id);
                self.dispatch_order.retain(|id| *id != task_id);
            }
            DurableEvent::TaskFailed { task_id, error } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if !record.state.is_terminal() {
                        record.state = TaskState::Failed;
                        record.outcome = Some(TaskOutcome::Failure(error));
                        self.dispatch_order.retain(|id| *id != task_id);
                    }
                }
            }
            DurableEvent::QueuePush { endpoint_id, kind, front, item } => {
                if self.removed_queues.contains(&endpoint_id) {
                    return;
                }
                let queue = self.queues.entry((endpoint_id, kind)).or_default();
                if front {
                    queue.push_front(item);
                } else {
                    queue.push_back(item);
                }
            }
            DurableEvent::QueuePop { endpoint_id, kind, count } => {
                if let Some(queue) = self.queues.get_mut(&(endpoint_id, kind)) {
                    for _ in 0..count {
                        if queue.pop_front().is_none() {
                            break;
                        }
                    }
                }
            }
            DurableEvent::QueuesRemoved { endpoint_id } => {
                self.queues.remove(&(endpoint_id, QueueKind::Task));
                self.queues.remove(&(endpoint_id, QueueKind::Result));
                self.removed_queues.insert(endpoint_id);
            }
            DurableEvent::MemoInsert { key, codec, body } => {
                self.memo.insert(key, (codec, body));
            }
            DurableEvent::KvSet { key, field, value, expires_at_nanos } => {
                self.kv.insert((key, field), (value, expires_at_nanos));
            }
            DurableEvent::KvDel { key, field } => {
                self.kv.remove(&(key, field));
            }
            DurableEvent::EndpointRegistered { record } => {
                self.endpoints.insert(record.endpoint_id, *record);
            }
            DurableEvent::EndpointDeregistered { endpoint_id } => {
                self.endpoints.remove(&endpoint_id);
            }
            DurableEvent::FunctionRegistered { record } => {
                self.functions.insert(record.function_id, *record);
            }
        }
    }

    /// Replay a sequence of events onto this state.
    pub fn apply_all<'a>(&mut self, events: impl IntoIterator<Item = &'a DurableEvent>) {
        for event in events {
            self.apply(event);
        }
    }

    /// Tasks in [`TaskState::DispatchedToEndpoint`] with no stored result,
    /// in original dispatch order — what recovery must redeliver.
    pub fn unacked_dispatches(&self) -> Vec<&TaskRecord> {
        self.dispatch_order
            .iter()
            .filter_map(|id| self.tasks.get(id))
            .filter(|r| r.state == TaskState::DispatchedToEndpoint)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::task::TaskSpec;
    use funcx_types::UserId;

    fn created(id: u128) -> DurableEvent {
        DurableEvent::TaskCreated {
            record: Box::new(TaskRecord::new(
                TaskSpec {
                    task_id: TaskId::from_u128(id),
                    function_id: FunctionId::from_u128(7),
                    endpoint_id: EndpointId::from_u128(1),
                    user_id: UserId::from_u128(9),
                    payload: vec![id as u8],
                    container: None,
                    allow_memo: false,
                    pool: None,
                    span: Default::default(),
                    runtime: Default::default(),
                },
                VirtualInstant::ZERO,
            )),
        }
    }

    fn waiting(id: u128) -> DurableEvent {
        // Submit path: created (Received) then queued. The service logs the
        // record post-transition, so mimic that here with a raw state poke.
        let DurableEvent::TaskCreated { mut record } = created(id) else { unreachable!() };
        record.state = TaskState::WaitingForEndpoint;
        DurableEvent::TaskCreated { record }
    }

    #[test]
    fn lifecycle_replay_reaches_terminal_state() {
        let mut state = WalState::new();
        state.apply_all(&[
            waiting(1),
            DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) },
            DurableEvent::ResultStored {
                task_id: TaskId::from_u128(1),
                outcome: TaskOutcome::Success(vec![42]),
                timeline: Default::default(),
            },
            DurableEvent::ResultRetrieved { task_id: TaskId::from_u128(1), at_nanos: 5 },
        ]);
        let record = &state.tasks[&TaskId::from_u128(1)];
        assert_eq!(record.state, TaskState::Success);
        assert_eq!(record.outcome, Some(TaskOutcome::Success(vec![42])));
        assert_eq!(record.retrieved_at, Some(VirtualInstant::from_nanos(5)));
        assert_eq!(record.delivery_count, 1);
        assert!(state.unacked_dispatches().is_empty());
    }

    #[test]
    fn unacked_dispatches_preserve_order() {
        let mut state = WalState::new();
        for id in 1..=3 {
            state.apply(&waiting(id));
        }
        for id in [2u128, 3, 1] {
            state.apply(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(id) });
        }
        // Task 3 gets acked; 2 then 1 remain outstanding in dispatch order.
        state.apply(&DurableEvent::ResultStored {
            task_id: TaskId::from_u128(3),
            outcome: TaskOutcome::Success(vec![]),
            timeline: Default::default(),
        });
        let order: Vec<TaskId> =
            state.unacked_dispatches().iter().map(|r| r.spec.task_id).collect();
        assert_eq!(order, vec![TaskId::from_u128(2), TaskId::from_u128(1)]);
    }

    #[test]
    fn duplicate_result_is_ignored() {
        let mut state = WalState::new();
        state.apply(&waiting(1));
        state.apply(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) });
        state.apply(&DurableEvent::ResultStored {
            task_id: TaskId::from_u128(1),
            outcome: TaskOutcome::Success(vec![1]),
            timeline: Default::default(),
        });
        state.apply(&DurableEvent::ResultStored {
            task_id: TaskId::from_u128(1),
            outcome: TaskOutcome::Failure("dup".into()),
            timeline: Default::default(),
        });
        assert_eq!(state.tasks[&TaskId::from_u128(1)].outcome, Some(TaskOutcome::Success(vec![1])));
    }

    #[test]
    fn orphan_events_never_panic() {
        let ghost = TaskId::from_u128(404);
        let mut state = WalState::new();
        state.apply_all(&[
            DurableEvent::TaskDispatched { task_id: ghost },
            DurableEvent::TaskRequeued { task_id: ghost, endpoint_id: EndpointId::from_u128(1) },
            DurableEvent::ResultStored {
                task_id: ghost,
                outcome: TaskOutcome::Success(vec![]),
                timeline: Default::default(),
            },
            DurableEvent::ResultRetrieved { task_id: ghost, at_nanos: 1 },
            DurableEvent::TaskPurged { task_id: ghost },
            DurableEvent::TaskFailed { task_id: ghost, error: "x".into() },
            DurableEvent::QueuePop {
                endpoint_id: EndpointId::from_u128(1),
                kind: QueueKind::Task,
                count: 10,
            },
        ]);
        assert_eq!(state, WalState::new());
    }

    #[test]
    fn illegal_transition_is_dropped_not_panicked() {
        let mut state = WalState::new();
        state.apply(&created(1)); // still Received, not yet queued
                                  // Received -> DispatchedToEndpoint is not a legal edge.
        state.apply(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) });
        assert_eq!(state.tasks[&TaskId::from_u128(1)].state, TaskState::Received);
        assert!(state.dispatch_order.is_empty());
    }

    #[test]
    fn queue_push_pop_and_terminal_removal() {
        let ep = EndpointId::from_u128(1);
        let key = (ep, QueueKind::Task);
        let mut state = WalState::new();
        for i in 0..4u8 {
            state.apply(&DurableEvent::QueuePush {
                endpoint_id: ep,
                kind: QueueKind::Task,
                front: false,
                item: vec![i],
            });
        }
        state.apply(&DurableEvent::QueuePush {
            endpoint_id: ep,
            kind: QueueKind::Task,
            front: true,
            item: vec![99],
        });
        state.apply(&DurableEvent::QueuePop { endpoint_id: ep, kind: QueueKind::Task, count: 2 });
        assert_eq!(state.queues[&key], VecDeque::from(vec![vec![1], vec![2], vec![3]]));

        state.apply(&DurableEvent::QueuesRemoved { endpoint_id: ep });
        assert!(state.queues.is_empty());
        // Pushes after terminal removal do not resurrect the queue.
        state.apply(&DurableEvent::QueuePush {
            endpoint_id: ep,
            kind: QueueKind::Task,
            front: false,
            item: vec![7],
        });
        assert!(state.queues.is_empty());
        assert!(state.removed_queues.contains(&ep));
    }

    #[test]
    fn kv_and_memo_replay() {
        let mut state = WalState::new();
        state.apply_all(&[
            DurableEvent::KvSet {
                key: "h".into(),
                field: "a".into(),
                value: vec![1],
                expires_at_nanos: None,
            },
            DurableEvent::KvSet {
                key: "h".into(),
                field: "a".into(),
                value: vec![2],
                expires_at_nanos: Some(50),
            },
            DurableEvent::KvSet {
                key: "h".into(),
                field: "b".into(),
                value: vec![3],
                expires_at_nanos: None,
            },
            DurableEvent::KvDel { key: "h".into(), field: "b".into() },
            DurableEvent::MemoInsert { key: 11, codec: b'J', body: vec![4] },
        ]);
        assert_eq!(state.kv[&("h".into(), "a".into())], (vec![2], Some(50)));
        assert!(!state.kv.contains_key(&("h".into(), "b".into())));
        assert_eq!(state.memo[&11], (b'J', vec![4]));
    }
}
