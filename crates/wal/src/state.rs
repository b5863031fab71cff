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
//! longer make sense (result for a purged task, dispatch of a finished one)
//! are dropped instead of trusted.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use funcx_registry::{EndpointRecord, FunctionRecord};
use funcx_types::task::{TaskOutcome, TaskRecord, TaskState};
use funcx_types::time::VirtualInstant;
use funcx_types::{EndpointId, FunctionId, TaskId};

use crate::event::DurableEvent;

/// Hasher of the maps keyed by task id. Task ids are random uuids minted
/// by the service, so folding their bytes through one multiply spreads
/// them; every replayed record is a lookup by task id, and SipHash was the
/// larger part of applying one.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by task id.
pub type TaskMap<V> = HashMap<TaskId, V, BuildHasherDefault<IdHasher>>;

/// Durable state reconstructed from the log.
///
/// There is no record of queue contents: an endpoint's task queue *is* its
/// non-terminal tasks, oldest arrival first ([`WalState::owed`]). A task
/// arrives at an endpoint when its `TaskCreated` is applied, and again
/// when a `TaskRequeued` moves it to a different endpoint (a pool
/// re-route joins the back of the sibling's line, as it does live).
#[derive(Debug, Clone, Default)]
pub struct WalState {
    /// Task records by id — the Redis task-store substitute.
    pub tasks: TaskMap<TaskRecord>,
    /// Arrival stamp of every non-terminal task; terminal tasks have none,
    /// so this is bounded by the work in flight, not by history.
    arrivals: TaskMap<u64>,
    next_arrival: u64,
    /// Endpoints this log deregistered and has not seen register again.
    /// What such an endpoint still owed can never run: recovery fails it.
    pub deregistered: HashSet<EndpointId>,
    /// Memoized results: memo key → (codec wire byte, unpacked body).
    pub memo: HashMap<u64, (u8, Vec<u8>)>,
    /// Registered endpoints — the RDS substitute.
    pub endpoints: HashMap<EndpointId, EndpointRecord>,
    /// Registered functions.
    pub functions: HashMap<FunctionId, FunctionRecord>,
}

/// Arrival stamps are an encoding of an order: two states are equal when
/// they owe the same tasks in the same order, whatever the numbers.
impl PartialEq for WalState {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks
            && self.deregistered == other.deregistered
            && self.memo == other.memo
            && self.endpoints == other.endpoints
            && self.functions == other.functions
            && self
                .owed()
                .iter()
                .map(|r| r.spec.task_id)
                .eq(other.owed().iter().map(|r| r.spec.task_id))
    }
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
            DurableEvent::TaskCreated { record } => self.insert_task(*record),
            DurableEvent::TaskDispatched { task_id } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if record.state.can_transition_to(TaskState::DispatchedToEndpoint) {
                        record.state = TaskState::DispatchedToEndpoint;
                        record.delivery_count += 1;
                    }
                }
            }
            DurableEvent::TaskRequeued { task_id, endpoint_id } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    // A backlog task re-routed to a pool sibling is requeued
                    // without ever having left `WaitingForEndpoint`.
                    if record.state == TaskState::WaitingForEndpoint
                        || record.state.can_transition_to(TaskState::WaitingForEndpoint)
                    {
                        record.state = TaskState::WaitingForEndpoint;
                        if record.spec.endpoint_id != endpoint_id {
                            record.spec.endpoint_id = endpoint_id;
                            self.arrive(task_id);
                        }
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
                        self.arrivals.remove(&task_id);
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
                self.arrivals.remove(&task_id);
            }
            DurableEvent::TaskFailed { task_id, error } => {
                if let Some(record) = self.tasks.get_mut(&task_id) {
                    if !record.state.is_terminal() {
                        record.state = TaskState::Failed;
                        record.outcome = Some(TaskOutcome::Failure(error));
                        self.arrivals.remove(&task_id);
                    }
                }
            }
            DurableEvent::MemoInsert { key, codec, body } => {
                self.memo.insert(key, (codec, body));
            }
            DurableEvent::EndpointRegistered { record } => {
                self.deregistered.remove(&record.endpoint_id);
                self.endpoints.insert(record.endpoint_id, *record);
            }
            DurableEvent::EndpointDeregistered { endpoint_id } => {
                self.endpoints.remove(&endpoint_id);
                self.deregistered.insert(endpoint_id);
            }
            DurableEvent::FunctionRegistered { record } => {
                self.functions.insert(record.function_id, *record);
            }
            DurableEvent::Retired => {}
        }
    }

    /// Replay a sequence of events onto this state.
    pub fn apply_all<'a>(&mut self, events: impl IntoIterator<Item = &'a DurableEvent>) {
        for event in events {
            self.apply(event);
        }
    }

    /// Store `record`, replacing any record with its id wholesale (a
    /// re-logged creation). A non-terminal record arrives at the back of
    /// its endpoint's line — what `TaskCreated` does, and how a checkpoint
    /// reader or a slicer rebuilds a state in [`WalState::tasks_in_order`].
    pub fn insert_task(&mut self, record: TaskRecord) {
        let task_id = record.spec.task_id;
        if record.state.is_terminal() {
            self.arrivals.remove(&task_id);
        } else {
            self.arrive(task_id);
        }
        self.tasks.insert(task_id, record);
    }

    fn arrive(&mut self, task_id: TaskId) {
        self.arrivals.insert(task_id, self.next_arrival);
        self.next_arrival += 1;
    }

    /// Move `task_id` to the back of the line if it is still owed. Only a
    /// checkpoint written before queues were derived needs this: its tasks
    /// come in no order, and its dispatch list and queue items say which
    /// order they were in.
    pub(crate) fn rearrive(&mut self, task_id: TaskId) {
        if self.arrivals.contains_key(&task_id) {
            self.arrive(task_id);
        }
    }

    /// Every non-terminal task, oldest arrival first. Filtered by
    /// `spec.endpoint_id` this is that endpoint's task queue: dispatched
    /// but unacked tasks (necessarily the oldest) ahead of the waiting
    /// backlog, so re-enqueueing in this order redelivers FIFO.
    pub fn owed(&self) -> Vec<&TaskRecord> {
        // One pass over the records (in memory order) with a stamp lookup
        // each, rather than one record lookup per stamp.
        let mut stamped: Vec<(u64, &TaskRecord)> = self
            .tasks
            .values()
            .filter_map(|record| Some((*self.arrivals.get(&record.spec.task_id)?, record)))
            .collect();
        stamped.sort_unstable_by_key(|(stamp, _)| *stamp);
        stamped.into_iter().map(|(_, record)| record).collect()
    }

    /// Every task: the owed ones in [`WalState::owed`] order, then the
    /// terminal ones. Feeding this to [`WalState::insert_task`] rebuilds
    /// the same tasks in the same order.
    pub fn tasks_in_order(&self) -> impl Iterator<Item = &TaskRecord> {
        self.owed()
            .into_iter()
            .chain(self.tasks.values().filter(|record| record.state.is_terminal()))
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
        assert!(state.owed().is_empty());
    }

    fn owed_ids(state: &WalState) -> Vec<u128> {
        state.owed().iter().map(|r| r.spec.task_id.uuid().as_u128()).collect()
    }

    #[test]
    fn owed_is_creation_order_whatever_the_dispatch_order() {
        let mut state = WalState::new();
        for id in 1..=4 {
            state.apply(&waiting(id));
        }
        for id in [2u128, 3, 1] {
            state.apply(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(id) });
        }
        // Task 3 gets acked; the rest are owed in the order they arrived,
        // the unacked dispatches (1, 2) ahead of the waiting backlog (4).
        state.apply(&DurableEvent::ResultStored {
            task_id: TaskId::from_u128(3),
            outcome: TaskOutcome::Success(vec![]),
            timeline: Default::default(),
        });
        assert_eq!(owed_ids(&state), vec![1, 2, 4]);
        let states: Vec<TaskState> = state.owed().iter().map(|r| r.state).collect();
        assert_eq!(
            states,
            vec![
                TaskState::DispatchedToEndpoint,
                TaskState::DispatchedToEndpoint,
                TaskState::WaitingForEndpoint
            ]
        );
    }

    #[test]
    fn a_reroute_joins_the_back_and_a_pinned_requeue_keeps_its_place() {
        let other = EndpointId::from_u128(2);
        let mut state = WalState::new();
        for id in 1..=3 {
            state.apply(&waiting(id));
        }
        state.apply(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) });
        // Pinned requeue: same endpoint, still the oldest.
        state.apply(&DurableEvent::TaskRequeued {
            task_id: TaskId::from_u128(1),
            endpoint_id: EndpointId::from_u128(1),
        });
        assert_eq!(owed_ids(&state), vec![1, 2, 3]);
        // Re-route of a backlog task that was never dispatched: the record
        // follows it, and it queues behind what the sibling already owes.
        state.apply(&DurableEvent::TaskRequeued {
            task_id: TaskId::from_u128(2),
            endpoint_id: other,
        });
        assert_eq!(owed_ids(&state), vec![1, 3, 2]);
        let moved = &state.tasks[&TaskId::from_u128(2)];
        assert_eq!((moved.state, moved.spec.endpoint_id), (TaskState::WaitingForEndpoint, other));
        // A re-logged creation replaces the record and arrives afresh.
        state.apply(&waiting(1));
        assert_eq!(owed_ids(&state), vec![3, 2, 1]);
        // Finished and purged tasks are owed nothing.
        state.apply(&DurableEvent::TaskFailed { task_id: TaskId::from_u128(3), error: "x".into() });
        state.apply(&DurableEvent::TaskPurged { task_id: TaskId::from_u128(2) });
        assert_eq!(owed_ids(&state), vec![1]);
    }

    #[test]
    fn equality_is_about_order_not_arrival_numbers() {
        let mut replayed = WalState::new();
        for id in [9u128, 1, 5, 1] {
            replayed.apply(&waiting(id));
        }
        let mut rebuilt = WalState::new();
        for record in replayed.tasks_in_order() {
            rebuilt.insert_task(record.clone());
        }
        assert_eq!(owed_ids(&rebuilt), vec![9, 5, 1]);
        assert_eq!(rebuilt, replayed);
        let mut reordered = WalState::new();
        for id in [1u128, 5, 9] {
            reordered.apply(&waiting(id));
        }
        assert_ne!(reordered, replayed);
    }

    #[test]
    fn a_deregistration_is_remembered_until_the_endpoint_registers_again() {
        let endpoint_id = EndpointId::from_u128(1);
        let record = EndpointRecord {
            endpoint_id,
            owner: UserId::from_u128(9),
            name: "ep".into(),
            description: String::new(),
            allowed_users: vec![],
            allowed_groups: vec![],
            public: false,
            status: funcx_registry::EndpointStatus::Offline,
            generation: 1,
            registered_at: VirtualInstant::ZERO,
            last_report: None,
            last_heartbeat: None,
            runtimes: funcx_types::Runtime::ALL.to_vec(),
        };
        let registered = DurableEvent::EndpointRegistered { record: Box::new(record) };
        let mut state = WalState::new();
        state.apply(&registered);
        state.apply(&DurableEvent::EndpointDeregistered { endpoint_id });
        assert!(state.deregistered.contains(&endpoint_id) && state.endpoints.is_empty());
        state.apply(&registered);
        assert!(state.deregistered.is_empty() && state.endpoints.contains_key(&endpoint_id));
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
            DurableEvent::Retired,
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
    }

    #[test]
    fn memo_replay_keeps_the_last_insert() {
        let mut state = WalState::new();
        state.apply_all(&[
            DurableEvent::MemoInsert { key: 11, codec: b'N', body: vec![1] },
            DurableEvent::MemoInsert { key: 11, codec: b'J', body: vec![4] },
        ]);
        assert_eq!(state.memo[&11], (b'J', vec![4]));
    }
}
