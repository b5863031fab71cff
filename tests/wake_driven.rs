//! Integration: no timer is on the task path.
//!
//! Both `poll_interval`s are set to 30 s, so a loop that still waited on
//! its tick for any step that moves a task or a result — or that slept
//! through a wake-up posted while it was busy — would stall a step of this
//! test for half a minute. Every step has a deadline far inside that.

use std::sync::Arc;
use std::time::{Duration, Instant};

use funcx_auth::{IdentityProvider, Scope};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_lang::Value;
use funcx_proto::channel::inproc_pair;
use funcx_registry::Sharing;
use funcx_serial::{Payload, Serializer};
use funcx_service::{FuncxService, ServiceConfig, SubmitRequest};
use funcx_types::task::TaskOutcome;
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::{FunctionId, TaskId};

const TICK: Duration = Duration::from_secs(30);
/// Per step; generous for a debug build on a busy box, a sixth of a tick.
const STEP: Duration = Duration::from_secs(5);
const STOP: Duration = Duration::from_millis(100);

fn run_stack(tcp: bool) {
    let clock: SharedClock = Arc::new(RealClock::wall());
    let service = FuncxService::new(
        Arc::clone(&clock),
        ServiceConfig {
            poll_interval: TICK,
            heartbeat_timeout: Duration::from_secs(600),
            ..ServiceConfig::default()
        },
    );
    let (_, token) = service.auth.login("waker", IdentityProvider::Institution, &[Scope::All]);
    let endpoint_id = service.register_endpoint(&token, "ep", "", false).unwrap();
    let (mut forwarder, agent_channel) = if tcp {
        let (forwarder, addr) = service.connect_endpoint_tcp(endpoint_id, "127.0.0.1:0").unwrap();
        (forwarder, funcx_proto::tcp::connect(addr).unwrap())
    } else {
        service.connect_endpoint(endpoint_id, Duration::ZERO).unwrap()
    };
    let config = EndpointConfig {
        workers_per_manager: 4,
        dispatch_overhead: Duration::ZERO,
        poll_interval: TICK,
        heartbeat_timeout: Duration::from_secs(600),
        ..EndpointConfig::default()
    };
    let mut agent = Agent::spawn(endpoint_id, config.clone(), Arc::clone(&clock), agent_channel);
    let (agent_side, manager_side) = inproc_pair();
    let mut manager =
        Manager::spawn(config, Arc::clone(&clock), Serializer::default(), manager_side, None);
    agent.attach_manager(agent_side);

    let register = |source: &str, entry: &str| {
        service.register_function(&token, entry, source, entry, None, Sharing::default()).unwrap()
    };
    let request = |function_id: FunctionId, args: Vec<Value>| SubmitRequest {
        function_id,
        target: endpoint_id.into(),
        args,
        kwargs: vec![],
        allow_memo: false,
    };
    let value_by = |task: TaskId, deadline: Instant| loop {
        match service.get_result(&token, task).unwrap() {
            Some(TaskOutcome::Success(body)) => {
                let (_, payload) = service.serializer().deserialize_packed(&body).unwrap();
                let Payload::Document(value) = payload else { panic!("not a document") };
                break value;
            }
            Some(TaskOutcome::Failure(why)) => panic!("task failed: {why}"),
            None => {
                assert!(Instant::now() < deadline, "a step of the task path waited on the tick");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };

    // One task alone: every hop is a wake-up of an idle, blocked loop.
    let echo = register("def echo(s):\n    return s\n", "echo");
    let deadline = Instant::now() + STEP;
    let task = service.submit(&token, request(echo, vec![Value::from("ping")])).unwrap();
    assert_eq!(value_by(task, deadline), Value::from("ping"));

    // A burst through a window of four: worker completions race the
    // manager's wait and manager `Results` race the agent's, a thousand
    // times over. One lost wake-up strands the tail until the tick.
    let noop = register("def noop_task():\n    return None\n", "noop_task");
    let deadline = Instant::now() + STEP;
    let tasks =
        service.submit_batch(&token, (0..1000).map(|_| request(noop, vec![])).collect()).unwrap();
    for task in tasks {
        assert_eq!(value_by(task, deadline), Value::None);
    }

    // Each loop is now parked in its idle wait; `stop` must end that wait.
    let timed = |name: &str, stop: &mut dyn FnMut()| {
        let start = Instant::now();
        stop();
        assert!(start.elapsed() < STOP, "{name} stop took {:?}", start.elapsed());
    };
    timed("forwarder", &mut || forwarder.stop());
    timed("manager", &mut || manager.stop());
    timed("agent", &mut || agent.stop());
}

#[test]
fn in_process_stack_runs_on_wake_ups_alone() {
    run_stack(false);
}

#[test]
fn tcp_stack_runs_on_wake_ups_alone() {
    run_stack(true);
}
