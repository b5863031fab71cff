//! The closed-loop load generator.
//!
//! Every workload is the same loop with different parameters: a client
//! submits a batch of `batch` tasks through the SDK, keeps up to `depth`
//! batches in flight, and collects the oldest batch's results in order
//! with the SDK's own `get_result`. Each value is compared with the one
//! the input implies; a mismatch, an error or a result later than
//! [`TASK_TIMEOUT`] after its batch was acknowledged is a failed task.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use funcx_lang::Value;
use funcx_sdk::{FmapSpec, FuncXClient, InProcApi, RestApi, ServiceApi};
use funcx_types::time::SharedClock;
use funcx_types::{EndpointId, FunctionId, FuncxError, TaskId};

use crate::payload;
use crate::stack::Stack;
use crate::trace::{CallLog, TracingApi};

/// A task whose value is not in hand this long after its batch was
/// acknowledged counts as failed.
pub const TASK_TIMEOUT: Duration = Duration::from_secs(10);

/// The SDK's result-poll interval in every workload.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `RestApi`: every SDK call is an HTTP request to `serve_rest`.
    Rest,
    /// `InProcApi`: SDK calls go straight to `FuncxService`.
    InProc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// `echo(s)` with a short seed-derived string.
    EchoSmall,
    /// `echo(s)` with an 8 KiB seed-derived string.
    EchoBlob,
    /// `noop_task()`.
    Noop,
}

impl Function {
    pub fn source(self) -> (&'static str, &'static str) {
        match self {
            Function::EchoSmall | Function::EchoBlob => ("def echo(s):\n    return s\n", "echo"),
            Function::Noop => ("def noop_task():\n    return None\n", "noop_task"),
        }
    }

    /// Arguments of task `index`, and the value it must return.
    pub fn invocation(self, seed: u64, index: u64) -> (Vec<Value>, Value) {
        let echo = |s: String| (vec![Value::from(s.as_str())], Value::from(s.as_str()));
        match self {
            Function::EchoSmall => echo(payload::echo_string(seed, index)),
            Function::EchoBlob => echo(payload::blob_string(seed, index)),
            Function::Noop => (vec![], Value::None),
        }
    }
}

/// One workload: who calls, through what, how much at a time.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    pub function: Function,
    pub clients: usize,
    /// Tasks per submit call (`run` when 1, `fmap` otherwise).
    pub batch: usize,
    /// Batches a client keeps in flight.
    pub depth: usize,
}

impl Workload {
    /// Most tasks one client ever has outstanding.
    pub fn max_in_flight_per_client(&self) -> usize {
        self.batch * self.depth
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rest_echo_seq",
        transport: Transport::Rest,
        function: Function::EchoSmall,
        clients: 1,
        batch: 1,
        depth: 1,
    },
    Workload {
        name: "rest_fmap_noop",
        transport: Transport::Rest,
        function: Function::Noop,
        clients: 2,
        batch: 128,
        depth: 1,
    },
    Workload {
        name: "fabric_noop_window",
        transport: Transport::InProc,
        function: Function::Noop,
        clients: 2,
        batch: 128,
        depth: 2,
    },
    Workload {
        name: "fabric_echo_8k",
        transport: Transport::InProc,
        function: Function::EchoBlob,
        clients: 2,
        batch: 8,
        depth: 2,
    },
];

pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One task as its client saw it. Times are nanoseconds of the stack's
/// clock, the same clock the service stamps timelines with.
#[derive(Debug, Clone, Copy)]
pub struct TaskSample {
    pub task: u128,
    /// Index into the client's `batches`.
    pub batch: u32,
    /// When the verified value (or the failure) was in the caller's hand.
    pub done_ns: u64,
    pub ok: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct BatchSample {
    pub first_task: u128,
    /// Just before the SDK submit call.
    pub submit_ns: u64,
    /// When the submit call returned the task ids.
    pub ack_ns: u64,
    /// When the last task of the batch was collected.
    pub done_ns: u64,
}

/// Everything one client thread observed.
#[derive(Default)]
pub struct ClientLog {
    pub tasks: Vec<TaskSample>,
    pub batches: Vec<BatchSample>,
    /// SDK calls that failed to open their HTTP connection.
    pub connect_errors: u64,
    /// First few error renderings, for the report.
    pub errors: Vec<String>,
}

impl ClientLog {
    fn note_error(&mut self, e: &FuncxError) {
        if matches!(e, FuncxError::Disconnected(msg) if msg.starts_with("http connect")) {
            self.connect_errors += 1;
        }
        if self.errors.len() < 5 {
            self.errors.push(e.to_string());
        }
    }
}

/// The SDK handle of one client, plus what its loop needs to know.
pub struct ClientSetup {
    pub client: FuncXClient,
    pub function_id: FunctionId,
    pub endpoint_id: EndpointId,
    pub clock: SharedClock,
    /// Calls recorded while tracing is on (empty for untraced runs).
    pub call_log: Arc<CallLog>,
}

/// Build one client of `workload` against `stack` and register the
/// workload's function through it. With `recording`, the transport is
/// wrapped so SDK calls are logged while the flag is set.
pub fn connect_client(
    stack: &Stack,
    workload: &Workload,
    recording: Option<Arc<AtomicBool>>,
) -> Result<ClientSetup, String> {
    let transport: Arc<dyn ServiceApi> = match workload.transport {
        Transport::Rest => Arc::new(RestApi::new(stack.rest_addr)),
        Transport::InProc => Arc::new(InProcApi::new(Arc::clone(&stack.service))),
    };
    let call_log = Arc::new(CallLog::default());
    let api: Arc<dyn ServiceApi> = match recording {
        Some(flag) => Arc::new(TracingApi::new(
            transport,
            Arc::clone(&stack.clock),
            flag,
            Arc::clone(&call_log),
        )),
        None => transport,
    };
    let client = FuncXClient::new(api, stack.token.clone()).with_poll_interval(POLL_INTERVAL);
    let (source, entry) = workload.function.source();
    let function_id = client.register_function(source, entry).map_err(|e| e.to_string())?;
    Ok(ClientSetup {
        client,
        function_id,
        endpoint_id: stack.endpoint_id,
        clock: Arc::clone(&stack.clock),
        call_log,
    })
}

struct InFlight {
    index: u32,
    ids: Vec<TaskId>,
    expected: Vec<Value>,
}

/// Run one client until `stop` is set, then collect what is in flight.
/// Client `client_index` of `workload.clients` takes task indices
/// `client_index, client_index + clients, ...`.
pub fn run_client(
    setup: &ClientSetup,
    workload: &Workload,
    seed: u64,
    client_index: usize,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut next_index = client_index as u64;
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let now = || setup.clock.now().as_nanos();
    loop {
        while in_flight.len() < workload.depth && !stop.load(Ordering::Acquire) {
            let (inputs, expected): (Vec<Vec<Value>>, Vec<Value>) = (0..workload.batch)
                .map(|_| {
                    let inv = workload.function.invocation(seed, next_index);
                    next_index += workload.clients as u64;
                    inv
                })
                .unzip();
            let index = log.batches.len() as u32;
            let submit_ns = now();
            let submitted = submit(setup, workload, inputs);
            let ack_ns = now();
            match submitted {
                Ok(ids) if ids.len() == workload.batch => {
                    log.batches.push(BatchSample {
                        first_task: ids[0].uuid().as_u128(),
                        submit_ns,
                        ack_ns,
                        done_ns: 0,
                    });
                    in_flight.push_back(InFlight { index, ids, expected });
                }
                other => {
                    // The whole batch failed at submit: count every task,
                    // and pause so a dead service is not hammered.
                    match &other {
                        Err(e) => log.note_error(e),
                        Ok(ids) => log.errors.push(format!("{} ids for a batch", ids.len())),
                    }
                    log.batches.push(BatchSample {
                        first_task: 0,
                        submit_ns,
                        ack_ns,
                        done_ns: ack_ns,
                    });
                    log.tasks.extend((0..workload.batch).map(|_| TaskSample {
                        task: 0,
                        batch: index,
                        done_ns: ack_ns,
                        ok: false,
                    }));
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let Some(batch) = in_flight.pop_front() else { break };
        collect(setup, batch, &mut log);
    }
    log
}

fn submit(
    setup: &ClientSetup,
    workload: &Workload,
    mut inputs: Vec<Vec<Value>>,
) -> funcx_types::Result<Vec<TaskId>> {
    if workload.batch == 1 {
        let args = inputs.pop().expect("one input per task");
        return setup
            .client
            .run(setup.function_id, setup.endpoint_id, args, vec![])
            .map(|id| vec![id]);
    }
    let spec = FmapSpec::by_size(workload.batch)?;
    setup.client.fmap(setup.function_id, inputs, setup.endpoint_id, spec)
}

/// Wait for each task of the batch in submission order, as the SDK's
/// `get_results` does, verifying every value.
fn collect(setup: &ClientSetup, batch: InFlight, log: &mut ClientLog) {
    let ack_ns = log.batches[batch.index as usize].ack_ns;
    let deadline_ns = ack_ns + TASK_TIMEOUT.as_nanos() as u64;
    let mut done_ns = ack_ns;
    for (id, expected) in batch.ids.iter().zip(&batch.expected) {
        let now_ns = setup.clock.now().as_nanos();
        let left = Duration::from_nanos(deadline_ns.saturating_sub(now_ns)).max(POLL_INTERVAL);
        let ok = match setup.client.get_result(*id, left) {
            Ok(value) if value == *expected => true,
            Ok(value) => {
                if log.errors.len() < 5 {
                    log.errors.push(format!("task {id}: wrong value {value}"));
                }
                false
            }
            Err(e) => {
                log.note_error(&e);
                false
            }
        };
        done_ns = setup.clock.now().as_nanos();
        log.tasks.push(TaskSample { task: id.uuid().as_u128(), batch: batch.index, done_ns, ok });
    }
    log.batches[batch.index as usize].done_ns = done_ns;
}

/// What happened between two instants of the stack's clock, over all
/// clients.
pub struct WindowStats {
    pub seconds: f64,
    /// Tasks whose collection finished inside the window.
    pub attempted: u64,
    pub failed: u64,
    /// Per verified task: submit call start to value in hand, ms.
    pub latency_ms: Vec<f64>,
    /// Per batch finished inside the window: submit call start to its last
    /// value in hand, ms.
    pub batch_roundtrip_ms: Vec<f64>,
}

impl WindowStats {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn tasks_per_s(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }
}

pub fn window_stats(logs: &[ClientLog], from_ns: u64, to_ns: u64) -> WindowStats {
    let inside = |t: u64| t >= from_ns && t < to_ns;
    let ms = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e6;
    let mut stats = WindowStats {
        seconds: (to_ns - from_ns) as f64 / 1e9,
        attempted: 0,
        failed: 0,
        latency_ms: Vec::new(),
        batch_roundtrip_ms: Vec::new(),
    };
    for log in logs {
        for t in log.tasks.iter().filter(|t| inside(t.done_ns)) {
            stats.attempted += 1;
            if t.ok {
                stats.latency_ms.push(ms(log.batches[t.batch as usize].submit_ns, t.done_ns));
            } else {
                stats.failed += 1;
            }
        }
        for b in log.batches.iter().filter(|b| b.first_task != 0 && inside(b.done_ns)) {
            stats.batch_roundtrip_ms.push(ms(b.submit_ns, b.done_ns));
        }
    }
    stats
}
