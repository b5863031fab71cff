/// The history behind `fixtures/v2-single-frame.snap` (and the first
/// [`FIXTURE_RECORDS`] records of the `parent-*` fixtures), in the records
/// this build still writes: tasks in several lifecycle states, a memo
/// entry. The build that wrote the fixtures logged 23 records for it — also
/// each push of tasks 1–4 onto endpoint 3's queue and the pop of three, a
/// KV set, set and delete, and queue traffic on endpoints 5 and 9 ending in
/// the removal of 9's queues. Those are in the files; they are read and
/// dropped, except the removal, which said what `EndpointDeregistered`
/// says.
fn fixture_events() -> Vec<DurableEvent> {
    let task = |id: u128| waiting_task(id, 3, 40);
    vec![
        task(1),
        task(2),
        task(3),
        task(4),
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
        DurableEvent::MemoInsert { key: 77, codec: b'N', body: vec![5; 33] },
        DurableEvent::EndpointDeregistered { endpoint_id: EndpointId::from_u128(9) },
    ]
}

/// Records in the fixture files for [`fixture_events`].
const FIXTURE_RECORDS: u64 = 23;

/// What the `parent-*` fixtures hold after those: the deregistration the
/// service logs beside a queue removal, registry records, one more submit
/// (journaled push), and a restart's requeue of task 2 (journaled push to
/// the front) — [`FIXTURE_TAIL_RECORDS`] records, six of them these.
fn fixture_tail_events() -> Vec<DurableEvent> {
    let endpoint = funcx_registry::EndpointRecord {
        endpoint_id: EndpointId::from_u128(3),
        owner: UserId::from_u128(4),
        name: "theta".into(),
        description: "fixture endpoint".into(),
        allowed_users: vec![UserId::from_u128(8)],
        allowed_groups: vec![],
        public: false,
        status: funcx_registry::EndpointStatus::Offline,
        generation: 1,
        registered_at: VirtualInstant::from_nanos(1),
        last_report: None,
        last_heartbeat: None,
        runtimes: funcx_types::Runtime::ALL.to_vec(),
    };
    let function = funcx_registry::FunctionRecord {
        function_id: FunctionId::from_u128(2),
        owner: UserId::from_u128(4),
        name: "ident".into(),
        source: "def ident(x):\n    return x\n".into(),
        entry: "ident".into(),
        container: None,
        sharing: Default::default(),
        version: 1,
        registered_at: VirtualInstant::from_nanos(2),
        options: Default::default(),
    };
    vec![
        DurableEvent::EndpointDeregistered { endpoint_id: EndpointId::from_u128(9) },
        DurableEvent::EndpointRegistered { record: Box::new(endpoint) },
        DurableEvent::FunctionRegistered { record: Box::new(function) },
        waiting_task(5, 3, 40),
        DurableEvent::TaskRequeued {
            task_id: TaskId::from_u128(2),
            endpoint_id: EndpointId::from_u128(3),
        },
        DurableEvent::MemoInsert { key: 78, codec: b'J', body: vec![6; 9] },
    ]
}

/// Records in the `parent-*` fixtures after the first [`FIXTURE_RECORDS`].
const FIXTURE_TAIL_RECORDS: u64 = 8;
