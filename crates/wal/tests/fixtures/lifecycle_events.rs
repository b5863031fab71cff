// Shared test fodder, `include!`d by the integration tests and by the
// crate's unit tests (which bring `DurableEvent` into scope themselves).

/// A task record as the service logs it at submit: already
/// `WaitingForEndpoint`, `payload_len` bytes of input.
#[allow(dead_code)]
pub(crate) fn waiting_task(id: u128, endpoint: u128, payload_len: usize) -> DurableEvent {
    use funcx_types::task::{TaskRecord, TaskSpec, TaskState};
    let mut record = TaskRecord::new(
        TaskSpec {
            task_id: funcx_types::TaskId::from_u128(id),
            function_id: funcx_types::FunctionId::from_u128(2),
            endpoint_id: funcx_types::EndpointId::from_u128(endpoint),
            user_id: funcx_types::UserId::from_u128(4),
            payload: vec![id as u8; payload_len],
            container: None,
            allow_memo: id % 2 == 0,
            pool: None,
            span: Default::default(),
            runtime: Default::default(),
        },
        funcx_types::time::VirtualInstant::from_nanos(10 + id as u64),
    );
    record.state = TaskState::WaitingForEndpoint;
    DurableEvent::TaskCreated { record: Box::new(record) }
}

/// Deterministic stream of the records the service really writes, in
/// groups of eight about two tasks: both created, the first dispatched and
/// requeued (every third group onto another endpoint), the second
/// dispatched and finished, then a retrieval or memo insert and one of
/// four closers. Payloads and outcomes grow and shrink so frame lengths
/// are irregular; most groups leave their first task owed, so the derived
/// queue order is never trivially empty.
#[allow(dead_code)]
pub(crate) fn event(i: u64) -> DurableEvent {
    use funcx_types::task::TaskOutcome;
    use funcx_types::{EndpointId, TaskId};
    let group = i / 8;
    let endpoint = 1 + (group as u128 % 3);
    let first = TaskId::from_u128(group as u128 * 2);
    let second = TaskId::from_u128(group as u128 * 2 + 1);
    match i % 8 {
        0 => waiting_task(group as u128 * 2, endpoint, (i as usize % 7) * 9 + 1),
        1 => waiting_task(group as u128 * 2 + 1, endpoint, (i as usize % 5) * 13),
        2 => DurableEvent::TaskDispatched { task_id: first },
        3 => DurableEvent::TaskRequeued {
            task_id: first,
            endpoint_id: EndpointId::from_u128(if group % 3 == 0 {
                1 + (endpoint % 3)
            } else {
                endpoint
            }),
        },
        4 => DurableEvent::TaskDispatched { task_id: second },
        5 => DurableEvent::ResultStored {
            task_id: second,
            outcome: if group % 2 == 0 {
                TaskOutcome::Success(vec![i as u8; (i as usize % 11) * 5])
            } else {
                TaskOutcome::Failure(format!("boom {i}"))
            },
            timeline: Default::default(),
        },
        6 if group % 2 == 0 => {
            DurableEvent::ResultRetrieved { task_id: second, at_nanos: 1_000_000_000 + i }
        }
        6 => DurableEvent::MemoInsert { key: i, codec: b'N', body: vec![i as u8; i as usize % 9] },
        _ => match group % 4 {
            0 => DurableEvent::TaskFailed { task_id: first, error: format!("gone {i}") },
            1 => DurableEvent::TaskPurged { task_id: second },
            2 => {
                DurableEvent::EndpointDeregistered { endpoint_id: EndpointId::from_u128(endpoint) }
            }
            _ => DurableEvent::TaskDispatched { task_id: first },
        },
    }
}
