//! The `Durable` event model: every state change that must survive a
//! service-host crash, as an append-only sequence.
//!
//! The paper's service keeps this state in ElastiCache Redis and RDS, both
//! of which outlive the service host (§4.1). Our in-process substitutes do
//! not, so each mutation that the at-least-once contract depends on is
//! journalled here before (or atomically with) taking effect:
//!
//! * task lifecycle — created, dispatched, requeued, result stored, result
//!   retrieved, purged, failed-at-enqueue. This is also the only record of
//!   queue membership: a queue is its endpoint's non-terminal tasks
//!   ([`crate::WalState::owed`]), so no crash can leave a task's record and
//!   its queue entry in disagreement;
//! * memoization inserts (§4.7 — a warm cache is part of the service's
//!   observable behaviour);
//! * endpoint/function registrations (the RDS registry substitute), so a
//!   recovered service can re-dispatch without re-registration.
//!
//! Deliberately *not* journalled: auth sessions (Globus Auth tokens are
//! re-minted by clients), pool/router state (health is re-learned from
//! heartbeats), and in-flight channel buffers (redelivery covers them).

use funcx_registry::{EndpointRecord, FunctionRecord};
use funcx_types::task::{TaskOutcome, TaskRecord, TaskTimeline};
use funcx_types::{EndpointId, TaskId};

use crate::codec::{self, Cur};
use crate::retired;

/// One durable state change. Serialized with the hand-rolled binary codec
/// ([`crate::codec`]) inside a CRC-framed record: the framing catches
/// torn/corrupt bytes, and an unknown variant tag fails one record, not
/// the log (recovery skips it and keeps replaying).
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// A task was accepted: the full record as stored at submit time
    /// (memo hits are created terminal, so one event covers them too).
    TaskCreated {
        /// The record exactly as inserted into the task store.
        record: Box<TaskRecord>,
    },
    /// A forwarder shipped the task to its endpoint.
    TaskDispatched {
        /// Which task.
        task_id: TaskId,
    },
    /// A dispatched task went back to `WaitingForEndpoint` (agent loss or
    /// failover re-route); `endpoint_id` is its home after the move.
    TaskRequeued {
        /// Which task.
        task_id: TaskId,
        /// The endpoint whose queue now holds it (differs from the spec's
        /// original endpoint after a pool re-route).
        endpoint_id: EndpointId,
    },
    /// A result (success or failure) was written into the task record.
    ResultStored {
        /// Which task.
        task_id: TaskId,
        /// The stored outcome.
        outcome: TaskOutcome,
        /// The completed timeline, so recovered records still answer
        /// `/v1/tasks/<id>/timeline`.
        timeline: TaskTimeline,
    },
    /// The owner fetched the outcome (arms the purge TTL).
    ResultRetrieved {
        /// Which task.
        task_id: TaskId,
        /// Virtual retrieval time (nanoseconds).
        at_nanos: u64,
    },
    /// The record was purged after its retrieved-result TTL lapsed.
    TaskPurged {
        /// Which task.
        task_id: TaskId,
    },
    /// The task was failed administratively (enqueue refused, endpoint
    /// deregistered) rather than by a worker traceback.
    TaskFailed {
        /// Which task.
        task_id: TaskId,
        /// Human-readable reason, stored as the failure outcome.
        error: String,
    },
    /// A memoized result entered the cache.
    MemoInsert {
        /// Memo key (function body + input hash).
        key: u64,
        /// Codec wire byte of the cached body.
        codec: u8,
        /// The unpacked result body.
        body: Vec<u8>,
    },
    /// An endpoint registered (RDS substitute). Re-registration of the same
    /// id (generation bumps) replaces the record.
    EndpointRegistered {
        /// The registry record at registration time.
        record: Box<EndpointRecord>,
    },
    /// An endpoint was deregistered and must not be recovered.
    EndpointDeregistered {
        /// Which endpoint.
        endpoint_id: EndpointId,
    },
    /// A function registered or was updated (latest record wins on replay).
    FunctionRegistered {
        /// The registry record after the write.
        record: Box<FunctionRecord>,
    },
    /// A record of a kind older builds wrote and this one does not (see
    /// [`retired`]). It is still a record — it holds a sequence number and
    /// counts as replayed, not skipped — and applying it changes nothing.
    Retired,
}

impl DurableEvent {
    /// Serialize to the on-disk payload (binary; the frame adds the CRC).
    /// Layout: one variant tag byte, then the variant's fields in
    /// declaration order using the [`crate::codec`] conventions.
    ///
    /// Record-bearing variants are versioned by tag: tags 0/13/15 are the
    /// pre-runtime (v1) record layouts — still *read* so an old log replays
    /// — while new writes emit tags 16/17/18 with the runtime-aware
    /// layouts. The codec carries both readers side by side.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// [`DurableEvent::to_bytes`] appended to a caller-owned buffer, so the
    /// log can encode a record straight into its frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DurableEvent::TaskCreated { record } => {
                out.push(16);
                codec::put_task_record(out, record);
            }
            DurableEvent::TaskDispatched { task_id } => {
                out.push(1);
                codec::put_uuid(out, task_id.uuid());
            }
            DurableEvent::TaskRequeued { task_id, endpoint_id } => {
                out.push(2);
                codec::put_uuid(out, task_id.uuid());
                codec::put_uuid(out, endpoint_id.uuid());
            }
            DurableEvent::ResultStored { task_id, outcome, timeline } => {
                out.push(3);
                codec::put_uuid(out, task_id.uuid());
                codec::put_outcome(out, outcome);
                codec::put_timeline(out, timeline);
            }
            DurableEvent::ResultRetrieved { task_id, at_nanos } => {
                out.push(4);
                codec::put_uuid(out, task_id.uuid());
                codec::put_u64(out, *at_nanos);
            }
            DurableEvent::TaskPurged { task_id } => {
                out.push(5);
                codec::put_uuid(out, task_id.uuid());
            }
            DurableEvent::TaskFailed { task_id, error } => {
                out.push(6);
                codec::put_uuid(out, task_id.uuid());
                codec::put_str(out, error);
            }
            DurableEvent::MemoInsert { key, codec: wire, body } => {
                out.push(10);
                codec::put_u64(out, *key);
                out.push(*wire);
                codec::put_bytes(out, body);
            }
            DurableEvent::EndpointRegistered { record } => {
                out.push(17);
                codec::put_endpoint_record(out, record);
            }
            DurableEvent::EndpointDeregistered { endpoint_id } => {
                out.push(14);
                codec::put_uuid(out, endpoint_id.uuid());
            }
            DurableEvent::FunctionRegistered { record } => {
                out.push(18);
                codec::put_function_record(out, record);
            }
            DurableEvent::Retired => out.push(retired::MARKER),
        }
    }

    /// Parse an on-disk payload. `None` for unknown/incompatible records —
    /// recovery skips them rather than aborting the whole log. Trailing
    /// bytes after a decoded variant are rejected (they indicate either
    /// corruption the CRC missed or a framing bug).
    pub fn from_bytes(bytes: &[u8]) -> Option<DurableEvent> {
        let mut cur = Cur::new(bytes);
        let event = match cur.u8()? {
            // Tag 0 is the pre-runtime task-record layout (logs written
            // before runtime negotiation); tag 16 is the current one.
            0 => DurableEvent::TaskCreated {
                record: Box::new(codec::read_task_record_v1(&mut cur)?),
            },
            1 => DurableEvent::TaskDispatched { task_id: TaskId(codec::read_uuid(&mut cur)?) },
            2 => DurableEvent::TaskRequeued {
                task_id: TaskId(codec::read_uuid(&mut cur)?),
                endpoint_id: EndpointId(codec::read_uuid(&mut cur)?),
            },
            3 => DurableEvent::ResultStored {
                task_id: TaskId(codec::read_uuid(&mut cur)?),
                outcome: codec::read_outcome(&mut cur)?,
                timeline: codec::read_timeline(&mut cur)?,
            },
            4 => DurableEvent::ResultRetrieved {
                task_id: TaskId(codec::read_uuid(&mut cur)?),
                at_nanos: cur.u64()?,
            },
            5 => DurableEvent::TaskPurged { task_id: TaskId(codec::read_uuid(&mut cur)?) },
            6 => DurableEvent::TaskFailed {
                task_id: TaskId(codec::read_uuid(&mut cur)?),
                error: cur.str()?,
            },
            10 => {
                DurableEvent::MemoInsert { key: cur.u64()?, codec: cur.u8()?, body: cur.bytes()? }
            }
            13 => DurableEvent::EndpointRegistered {
                record: Box::new(codec::read_endpoint_record_v1(&mut cur)?),
            },
            14 => DurableEvent::EndpointDeregistered {
                endpoint_id: EndpointId(codec::read_uuid(&mut cur)?),
            },
            15 => DurableEvent::FunctionRegistered {
                record: Box::new(codec::read_function_record_v1(&mut cur)?),
            },
            16 => {
                DurableEvent::TaskCreated { record: Box::new(codec::read_task_record(&mut cur)?) }
            }
            17 => DurableEvent::EndpointRegistered {
                record: Box::new(codec::read_endpoint_record(&mut cur)?),
            },
            18 => DurableEvent::FunctionRegistered {
                record: Box::new(codec::read_function_record(&mut cur)?),
            },
            tag => retired::read(tag, &mut cur)?,
        };
        if !cur.at_end() {
            return None;
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::task::{TaskSpec, TaskState};
    use funcx_types::time::VirtualInstant;
    use funcx_types::{FunctionId, UserId};

    fn sample_endpoint() -> EndpointRecord {
        EndpointRecord {
            endpoint_id: EndpointId::from_u128(3),
            owner: UserId::from_u128(4),
            name: "theta-knl".into(),
            description: "test endpoint".into(),
            allowed_users: vec![UserId::from_u128(8)],
            allowed_groups: vec![funcx_auth::GroupId(funcx_types::ids::Uuid::from_u128(9))],
            public: false,
            status: funcx_registry::EndpointStatus::Online,
            generation: 2,
            registered_at: VirtualInstant::from_nanos(11),
            last_report: Some(funcx_types::stats::EndpointStatsReport {
                pending: 1,
                outstanding: 2,
                managers: 3,
                idle_slots: 4,
                requeued: 5,
                results_sent: 6,
                spans_dropped: 7,
                warm_hits: 8,
                predicted_hits: 9,
                clone_hits: 10,
                cold_misses: 11,
                prewarm_minted: 12,
                warm_evictions: 13,
                warm_snapshots: 14,
                sandbox_warm_hits: 15,
                sandbox_predicted_hits: 16,
                sandbox_clone_hits: 17,
                sandbox_cold_misses: 18,
                sandbox_sessions: 19,
                sandbox_cap_kills: 20,
            }),
            last_heartbeat: Some(VirtualInstant::from_nanos(12)),
            runtimes: vec![funcx_types::Runtime::FxScript, funcx_types::Runtime::Sandbox],
        }
    }

    fn sample_function() -> FunctionRecord {
        FunctionRecord {
            function_id: FunctionId::from_u128(2),
            owner: UserId::from_u128(4),
            name: "double".into(),
            source: "def double(x): return x * 2".into(),
            entry: "double".into(),
            container: None,
            sharing: funcx_registry::Sharing {
                public: true,
                users: vec![],
                groups: vec![funcx_auth::GroupId(funcx_types::ids::Uuid::from_u128(5))],
            },
            version: 3,
            registered_at: VirtualInstant::from_nanos(13),
            options: funcx_types::FunctionOptions {
                runtime: funcx_types::Runtime::Sandbox,
                limits: funcx_types::TaskLimits {
                    max_fuel: Some(10_000),
                    max_memory_bytes: Some(1 << 20),
                    ..funcx_types::TaskLimits::default()
                },
                capabilities: vec![funcx_types::Capability::Session],
                session: Some("acc".into()),
            },
        }
    }

    fn sample_record() -> TaskRecord {
        TaskRecord::new(
            TaskSpec {
                task_id: TaskId::from_u128(1),
                function_id: FunctionId::from_u128(2),
                endpoint_id: EndpointId::from_u128(3),
                user_id: UserId::from_u128(4),
                payload: vec![9, 8, 7],
                container: None,
                allow_memo: true,
                pool: None,
                span: funcx_types::trace::SpanContext::root(funcx_types::trace::TraceId(1), true),
                runtime: funcx_types::Runtime::Sandbox,
            },
            VirtualInstant::from_nanos(42),
        )
    }

    #[test]
    fn events_roundtrip_through_bytes() {
        let events = vec![
            DurableEvent::TaskCreated { record: Box::new(sample_record()) },
            DurableEvent::TaskDispatched { task_id: TaskId::from_u128(1) },
            DurableEvent::TaskRequeued {
                task_id: TaskId::from_u128(1),
                endpoint_id: EndpointId::from_u128(3),
            },
            DurableEvent::ResultStored {
                task_id: TaskId::from_u128(1),
                outcome: TaskOutcome::Success(vec![1, 2]),
                timeline: TaskTimeline::default(),
            },
            DurableEvent::ResultRetrieved { task_id: TaskId::from_u128(1), at_nanos: 7 },
            DurableEvent::TaskPurged { task_id: TaskId::from_u128(1) },
            DurableEvent::TaskFailed { task_id: TaskId::from_u128(1), error: "gone".into() },
            DurableEvent::MemoInsert { key: 0xDEAD, codec: b'N', body: vec![5] },
            DurableEvent::EndpointRegistered { record: Box::new(sample_endpoint()) },
            DurableEvent::EndpointDeregistered { endpoint_id: EndpointId::from_u128(3) },
            DurableEvent::FunctionRegistered { record: Box::new(sample_function()) },
            DurableEvent::Retired,
        ];
        for event in events {
            let bytes = event.to_bytes();
            assert_eq!(DurableEvent::from_bytes(&bytes), Some(event));
        }
    }

    /// The five retired layouts, hand-encoded as the last build that wrote
    /// them did ([`crate::retired`]'s table).
    fn retired_records() -> Vec<Vec<u8>> {
        let endpoint = EndpointId::from_u128(3).uuid();
        let mut push = vec![7u8];
        codec::put_uuid(&mut push, endpoint);
        push.push(0); // task queue
        codec::put_bool(&mut push, true);
        codec::put_bytes(&mut push, &1u128.to_be_bytes());
        let mut pop = vec![8u8];
        codec::put_uuid(&mut pop, endpoint);
        pop.push(1); // result queue
        codec::put_u32(&mut pop, 4);
        let mut removed = vec![9u8];
        codec::put_uuid(&mut removed, endpoint);
        let mut set = vec![11u8];
        codec::put_str(&mut set, "h");
        codec::put_str(&mut set, "f");
        codec::put_bytes(&mut set, &[1]);
        codec::put_opt(&mut set, Some(&99u64), |o, n| codec::put_u64(o, *n));
        let mut del = vec![12u8];
        codec::put_str(&mut del, "h");
        codec::put_str(&mut del, "f");
        vec![push, pop, removed, set, del]
    }

    #[test]
    fn retired_records_decode_whole_or_not_at_all() {
        for bytes in retired_records() {
            assert_eq!(DurableEvent::from_bytes(&bytes), Some(DurableEvent::Retired));
            // Still shape-checked: a cut or padded one is a bad record.
            for cut in 0..bytes.len() {
                assert_eq!(DurableEvent::from_bytes(&bytes[..cut]), None, "cut at {cut}");
            }
            let padded = [&bytes[..], &[0u8][..]].concat();
            assert_eq!(DurableEvent::from_bytes(&padded), None);
        }
        // A queue kind that never existed is corruption, not history.
        let mut bad_kind = retired_records().swap_remove(1);
        bad_kind[17] = 2;
        assert_eq!(DurableEvent::from_bytes(&bad_kind), None);
    }

    #[test]
    fn junk_bytes_parse_to_none() {
        // 0xFF is not a variant tag; a bare tag with no fields is truncated;
        // empty input has no tag at all.
        assert_eq!(DurableEvent::from_bytes(&[0xFF, 1, 2, 3]), None);
        assert_eq!(DurableEvent::from_bytes(&[0]), None);
        assert_eq!(DurableEvent::from_bytes(b""), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = DurableEvent::TaskPurged { task_id: TaskId::from_u128(1) }.to_bytes();
        assert!(DurableEvent::from_bytes(&bytes).is_some());
        bytes.push(0x00);
        assert_eq!(DurableEvent::from_bytes(&bytes), None);
    }

    #[test]
    fn every_truncation_of_every_event_parses_to_none() {
        let events = vec![
            DurableEvent::TaskCreated { record: Box::new(sample_record()) },
            DurableEvent::ResultStored {
                task_id: TaskId::from_u128(1),
                outcome: TaskOutcome::Failure("boom".into()),
                timeline: TaskTimeline::default(),
            },
            DurableEvent::MemoInsert { key: 7, codec: b'N', body: vec![1, 2, 3, 4] },
            DurableEvent::EndpointRegistered { record: Box::new(sample_endpoint()) },
            DurableEvent::FunctionRegistered { record: Box::new(sample_function()) },
        ];
        for event in events {
            let bytes = event.to_bytes();
            for cut in 0..bytes.len() {
                assert_eq!(DurableEvent::from_bytes(&bytes[..cut]), None, "cut at {cut}");
            }
        }
    }

    #[test]
    fn v1_tags_decode_with_runtime_defaults() {
        // Hand-build the pre-runtime layouts under the old tags and check
        // they still replay, with the new fields at their defaults.
        use crate::codec;

        // Tag 0: TaskCreated with a v1 spec (no runtime byte).
        let record = {
            let mut r = sample_record();
            r.spec.runtime = funcx_types::Runtime::FxScript;
            r
        };
        let mut bytes = vec![0u8];
        // v1 spec = current spec minus the trailing runtime tag byte.
        let mut spec_now = Vec::new();
        codec::put_spec(&mut spec_now, &record.spec);
        bytes.extend_from_slice(&spec_now[..spec_now.len() - 1]);
        let mut rest = Vec::new();
        codec::put_task_record(&mut rest, &record);
        bytes.extend_from_slice(&rest[spec_now.len()..]);
        let DurableEvent::TaskCreated { record: back } =
            DurableEvent::from_bytes(&bytes).expect("v1 TaskCreated decodes")
        else {
            panic!("variant changed");
        };
        assert_eq!(back.spec.runtime, funcx_types::Runtime::FxScript);
        assert_eq!(back.spec.task_id, record.spec.task_id);

        // Tag 15: FunctionRegistered with no options bundle → defaults.
        let function = {
            let mut f = sample_function();
            f.options = funcx_types::FunctionOptions::default();
            f
        };
        let mut full = Vec::new();
        codec::put_function_record(&mut full, &function);
        let mut opts = Vec::new();
        codec::put_options(&mut opts, &function.options);
        let mut bytes = vec![15u8];
        bytes.extend_from_slice(&full[..full.len() - opts.len()]);
        let DurableEvent::FunctionRegistered { record: back } =
            DurableEvent::from_bytes(&bytes).expect("v1 FunctionRegistered decodes")
        else {
            panic!("variant changed");
        };
        assert_eq!(back.options, funcx_types::FunctionOptions::default());
        assert_eq!(back.source, function.source);

        // Tag 13: EndpointRegistered with the 14-field report and no
        // runtime set → advertises every runtime.
        let endpoint = {
            let mut e = sample_endpoint();
            e.last_report = None; // keep the hand-built layout simple
            e
        };
        let mut full = Vec::new();
        codec::put_endpoint_record(&mut full, &endpoint);
        // Strip the trailing runtimes vec (u32 count + one byte per entry).
        let tail = 4 + endpoint.runtimes.len();
        let mut bytes = vec![13u8];
        bytes.extend_from_slice(&full[..full.len() - tail]);
        let DurableEvent::EndpointRegistered { record: back } =
            DurableEvent::from_bytes(&bytes).expect("v1 EndpointRegistered decodes")
        else {
            panic!("variant changed");
        };
        assert_eq!(back.runtimes, funcx_types::Runtime::ALL.to_vec());
        assert_eq!(back.endpoint_id, endpoint.endpoint_id);
    }

    #[test]
    fn task_state_in_record_survives_roundtrip() {
        let mut record = sample_record();
        record.transition(TaskState::WaitingForEndpoint);
        let event = DurableEvent::TaskCreated { record: Box::new(record) };
        let DurableEvent::TaskCreated { record: back } =
            DurableEvent::from_bytes(&event.to_bytes()).unwrap()
        else {
            panic!("variant changed");
        };
        assert_eq!(back.state, TaskState::WaitingForEndpoint);
    }
}
