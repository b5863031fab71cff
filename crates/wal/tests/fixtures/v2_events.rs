/// The history behind `fixtures/v2-single-frame.snap`: every state section
/// a checkpoint carries that needs no registry record — tasks in several
/// lifecycle states, the dispatch order, live, drained and removed queues,
/// KV with and without expiry, a memo entry.
fn fixture_events() -> Vec<DurableEvent> {
    let task = |id: u128| {
        let mut record = TaskRecord::new(
            TaskSpec {
                task_id: TaskId::from_u128(id),
                function_id: FunctionId::from_u128(2),
                endpoint_id: EndpointId::from_u128(3),
                user_id: UserId::from_u128(4),
                payload: vec![id as u8; 40],
                container: None,
                allow_memo: id % 2 == 0,
                pool: None,
                span: Default::default(),
                runtime: Default::default(),
            },
            VirtualInstant::from_nanos(10 + id as u64),
        );
        record.state = TaskState::WaitingForEndpoint;
        DurableEvent::TaskCreated { record: Box::new(record) }
    };
    let push = |endpoint: u128, item: u128| DurableEvent::QueuePush {
        endpoint_id: EndpointId::from_u128(endpoint),
        kind: QueueKind::Task,
        front: false,
        item: item.to_be_bytes().to_vec(),
    };
    let pop = |endpoint: u128, count: u32| DurableEvent::QueuePop {
        endpoint_id: EndpointId::from_u128(endpoint),
        kind: QueueKind::Task,
        count,
    };
    vec![
        task(1),
        push(3, 1),
        task(2),
        push(3, 2),
        task(3),
        push(3, 3),
        task(4),
        push(3, 4),
        pop(3, 3),
        DurableEvent::TaskDispatched { task_id: TaskId::from_u128(2) },
        DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) },
        DurableEvent::TaskDispatched { task_id: TaskId::from_u128(3) },
        DurableEvent::ResultStored {
            task_id: TaskId::from_u128(1),
            outcome: TaskOutcome::Success(vec![42; 17]),
            timeline: Default::default(),
        },
        DurableEvent::ResultRetrieved { task_id: TaskId::from_u128(1), at_nanos: 5_000 },
        DurableEvent::TaskFailed { task_id: TaskId::from_u128(3), error: "worker lost".into() },
        DurableEvent::KvSet {
            key: "hash".into(),
            field: "kept".into(),
            value: vec![9, 9],
            expires_at_nanos: Some(123_456),
        },
        DurableEvent::KvSet {
            key: "hash".into(),
            field: "gone".into(),
            value: vec![1],
            expires_at_nanos: None,
        },
        DurableEvent::KvDel { key: "hash".into(), field: "gone".into() },
        DurableEvent::MemoInsert { key: 77, codec: b'N', body: vec![5; 33] },
        push(9, 90),
        DurableEvent::QueuesRemoved { endpoint_id: EndpointId::from_u128(9) },
        push(5, 50),
        pop(5, 1),
    ]
}
