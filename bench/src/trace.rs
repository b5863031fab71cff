//! The traced run: spans around the benchmark's own SDK calls, joined with
//! the service's per-task timeline into one tree per sampled task.
//!
//! Recording happens in [`TracingApi`], a [`ServiceApi`] that forwards
//! every call to the real transport and notes when it started and ended.
//! The client code under it is the shipped `FuncXClient`, polling loop
//! included, so the poll count and the time between polls are the SDK's
//! own. Nothing in the product is switched on for a traced run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use funcx_sdk::api::{ServiceApi, TaskValue};
use funcx_service::SubmitRequest;
use funcx_types::task::TaskState;
use funcx_types::time::SharedClock;
use funcx_types::trace::TraceId;
use funcx_types::{EndpointId, FunctionId, FunctionOptions, PoolId, Result, RoutingPolicy, TaskId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Submit,
    Result,
}

/// One SDK→service call as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct ApiCall {
    pub kind: CallKind,
    /// The task polled, or the first task of the submitted batch (0 when
    /// the submit failed).
    pub task: u128,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls recorded by one client, in call order.
#[derive(Default)]
pub struct CallLog {
    calls: Mutex<Vec<ApiCall>>,
}

impl CallLog {
    pub fn take(&self) -> Vec<ApiCall> {
        std::mem::take(&mut self.calls.lock().expect("call log lock"))
    }
}

/// Forwards to `inner`; while `recording` is set, logs submit and result
/// calls with clock timestamps comparable to the service's timelines.
pub struct TracingApi {
    inner: Arc<dyn ServiceApi>,
    clock: SharedClock,
    recording: Arc<AtomicBool>,
    log: Arc<CallLog>,
}

impl TracingApi {
    pub fn new(
        inner: Arc<dyn ServiceApi>,
        clock: SharedClock,
        recording: Arc<AtomicBool>,
        log: Arc<CallLog>,
    ) -> Self {
        TracingApi { inner, clock, recording, log }
    }

    fn timed<T>(
        &self,
        kind: CallKind,
        call: impl FnOnce() -> Result<T>,
        task_of: impl FnOnce(&T) -> u128,
    ) -> Result<T> {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let start_ns = self.clock.now().as_nanos();
        let out = call();
        let end_ns = self.clock.now().as_nanos();
        let task = out.as_ref().map_or(0, task_of);
        self.log.calls.lock().expect("call log lock").push(ApiCall {
            kind,
            task,
            start_ns,
            end_ns,
        });
        out
    }
}

fn id_bits(task: TaskId) -> u128 {
    task.uuid().as_u128()
}

impl ServiceApi for TracingApi {
    fn register_function(&self, bearer: &str, source: &str, entry: &str) -> Result<FunctionId> {
        self.inner.register_function(bearer, source, entry)
    }

    fn register_function_with(
        &self,
        bearer: &str,
        source: &str,
        entry: &str,
        options: FunctionOptions,
    ) -> Result<FunctionId> {
        self.inner.register_function_with(bearer, source, entry, options)
    }

    fn register_endpoint(&self, bearer: &str, name: &str, public: bool) -> Result<EndpointId> {
        self.inner.register_endpoint(bearer, name, public)
    }

    fn create_pool(
        &self,
        bearer: &str,
        name: &str,
        members: Vec<EndpointId>,
        policy: RoutingPolicy,
        public: bool,
    ) -> Result<PoolId> {
        self.inner.create_pool(bearer, name, members, policy, public)
    }

    fn submit(&self, bearer: &str, request: SubmitRequest) -> Result<TaskId> {
        self.timed(CallKind::Submit, || self.inner.submit(bearer, request), |id| id_bits(*id))
    }

    fn submit_batch(&self, bearer: &str, requests: Vec<SubmitRequest>) -> Result<Vec<TaskId>> {
        self.timed(
            CallKind::Submit,
            || self.inner.submit_batch(bearer, requests),
            |ids| ids.first().map_or(0, |id| id_bits(*id)),
        )
    }

    fn status(&self, bearer: &str, task: TaskId) -> Result<TaskState> {
        self.inner.status(bearer, task)
    }

    fn result(&self, bearer: &str, task: TaskId) -> Result<Option<TaskValue>> {
        self.timed(CallKind::Result, || self.inner.result(bearer, task), |_| id_bits(task))
    }

    fn trace(&self, bearer: &str, trace_id: TraceId) -> Result<serde_json::Value> {
        self.inner.trace(bearer, trace_id)
    }

    fn slo(&self, bearer: &str) -> Result<serde_json::Value> {
        self.inner.slo(bearer)
    }

    fn function_stats(&self, bearer: &str) -> Result<serde_json::Value> {
        self.inner.function_stats(bearer)
    }
}

/// A half-open interval of clock nanoseconds.
pub type Interval = (u64, u64);

/// Time inside `parent` that none of `children` covers. Children are
/// clipped to the parent, and overlapping children count once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1.saturating_sub(parent.0)).saturating_sub(covered)
}

/// One node of a task's span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// The task id, doubling as the trace id.
    pub trace_id: u128,
    pub span_id: u32,
    pub parent_id: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

/// The stations of `GET /v1/tasks/<id>/timeline`, in clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    pub received: u64,
    pub queued_at_service: u64,
    pub endpoint_received: u64,
    pub execution_start: u64,
    pub execution_end: u64,
    pub result_stored: u64,
}

impl Timeline {
    /// Read the stations out of the route's JSON body; `None` unless the
    /// timeline is complete.
    pub fn from_json(body: &serde_json::Value) -> Option<Timeline> {
        let at = |name: &str| body[name].as_u64();
        Some(Timeline {
            received: at("received")?,
            queued_at_service: at("queued_at_service")?,
            endpoint_received: at("endpoint_received")?,
            execution_start: at("execution_start")?,
            execution_end: at("execution_end")?,
            result_stored: at("result_stored")?,
        })
    }

    pub fn ts_ns(&self) -> u64 {
        self.queued_at_service.saturating_sub(self.received)
    }

    /// Forwarder time, both directions.
    pub fn tf_ns(&self) -> u64 {
        self.endpoint_received.saturating_sub(self.queued_at_service)
            + self.result_stored.saturating_sub(self.execution_end)
    }

    pub fn te_ns(&self) -> u64 {
        self.execution_start.saturating_sub(self.endpoint_received)
    }

    pub fn tw_ns(&self) -> u64 {
        self.execution_end.saturating_sub(self.execution_start)
    }

    pub fn total_ns(&self) -> u64 {
        self.result_stored.saturating_sub(self.received)
    }
}

/// What the benchmark knows about one sampled task.
pub struct TaskTrace {
    pub task: u128,
    /// Start of the SDK submit call to the verified value in hand.
    pub client: Interval,
    pub submit_call: Option<Interval>,
    pub polls: Vec<Interval>,
    pub timeline: Option<Timeline>,
}

impl TaskTrace {
    /// The task's tree: a `task` root over the SDK calls and the five
    /// service/endpoint stations.
    pub fn spans(&self) -> Vec<Span> {
        let mut children: Vec<(&'static str, Interval)> = Vec::new();
        if let Some(call) = self.submit_call {
            children.push(("sdk.submit", call));
        }
        children.extend(self.polls.iter().map(|&p| ("sdk.poll", p)));
        if let Some(t) = &self.timeline {
            children.push(("service.ts", (t.received, t.queued_at_service)));
            children.push(("service.tf", (t.queued_at_service, t.endpoint_received)));
            children.push(("endpoint.te", (t.endpoint_received, t.execution_start)));
            children.push(("endpoint.tw", (t.execution_start, t.execution_end)));
            children.push(("service.tf", (t.execution_end, t.result_stored)));
        }
        let intervals: Vec<Interval> = children.iter().map(|&(_, iv)| iv).collect();
        let mut spans = vec![Span {
            trace_id: self.task,
            span_id: 0,
            parent_id: None,
            name: "task",
            start_ns: self.client.0,
            end_ns: self.client.1,
            self_ns: self_time(self.client, &intervals),
        }];
        spans.extend(children.into_iter().enumerate().map(|(i, (name, (start_ns, end_ns)))| {
            Span {
                trace_id: self.task,
                span_id: i as u32 + 1,
                parent_id: Some(0),
                name,
                start_ns,
                end_ns,
                // Leaves: all of their time is their own.
                self_ns: end_ns.saturating_sub(start_ns),
            }
        }));
        spans
    }

    /// Whether the service-side stations fit inside what the client saw.
    pub fn timeline_within_latency(&self) -> Option<bool> {
        let t = self.timeline?;
        Some(t.ts_ns() + t.tf_ns() + t.te_ns() + t.tw_ns() <= self.client.1 - self.client.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // 10..40 and 30..50 cover 10..50 once; 20..25 lies inside that.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50), (20, 25)]), 60);
        // Identical children count once.
        assert_eq!(self_time((0, 100), &[(10, 20), (10, 20)]), 90);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((100, 200), &[(50, 120), (190, 400), (0, 10)]), 70);
        assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
        // An inverted child is ignored.
        assert_eq!(self_time((0, 10), &[(8, 2)]), 10);
    }

    #[test]
    fn task_tree_hangs_calls_and_stations_under_one_root() {
        let trace = TaskTrace {
            task: 7,
            client: (1_000, 11_000),
            submit_call: Some((1_100, 3_000)),
            polls: vec![(3_500, 4_000), (9_000, 9_500)],
            timeline: Some(Timeline {
                received: 1_500,
                queued_at_service: 2_500,
                endpoint_received: 4_000,
                execution_start: 5_000,
                execution_end: 6_000,
                result_stored: 7_000,
            }),
        };
        let spans = trace.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[0].name, "task");
        assert!(spans[1..].iter().all(|s| s.parent_id == Some(0) && s.trace_id == 7));
        // Covered: 1100..3000 (submit, swallowing ts), 2500..7000 (stations
        // and the first poll), 9000..9500 (second poll).
        assert_eq!(spans[0].self_ns, 10_000 - (7_000 - 1_100) - 500);
        assert_eq!(trace.timeline_within_latency(), Some(true));
        let t = trace.timeline.unwrap();
        assert_eq!(t.ts_ns() + t.tf_ns() + t.te_ns() + t.tw_ns(), t.total_ns());
    }
}
