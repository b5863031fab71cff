//! Integration: the sandbox execution runtime end to end.
//!
//! A function registered with `runtime: sandbox` travels the whole fabric —
//! REST/SDK registration carries the negotiated runtime, the dispatch frame
//! ships it to the endpoint, the worker routes it through the sandbox VM,
//! and the result frame brings the cap-kill verdict back into the service's
//! counters. These tests prove the ISSUE acceptance criteria: caps kill
//! runaway tasks with cap-specific tracebacks, persistent sessions retain
//! state across invocations, capability-denied operations fail closed, and
//! warm-tier acquisition stats surface in the endpoint status report.

use std::sync::Arc;
use std::time::Duration;

use funcx::prelude::*;
use funcx_types::{Capability, EndpointStatsReport, FunctionOptions, Runtime, TaskLimits};

/// Traceback bodies cross the wire as JSON; under the offline stub harness
/// JSON serialization is unavailable, so failures still cross (with the
/// correct cap-kill label) but carry an empty traceback body. Guard
/// traceback-*content* assertions on this.
fn wire_json_available() -> bool {
    serde_json::to_vec(&serde_json::json!({})).is_ok()
}

fn sandbox_options() -> FunctionOptions {
    FunctionOptions { runtime: Runtime::Sandbox, ..FunctionOptions::default() }
}

/// Wait for a heartbeat's endpoint status report that satisfies `seen` — the
/// data behind /v1/endpoints/<id>/status.
fn await_report(bed: &TestBed, what: &str, seen: impl Fn(&EndpointStatsReport) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let record = bed.service.endpoints.get(bed.endpoint_id).unwrap();
        if record.last_report.as_ref().is_some_and(&seen) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "{what} never surfaced in the report");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sandbox_function_executes_end_to_end() {
    let mut bed = TestBedBuilder::new().build();
    let f = bed
        .client
        .register_function_with("def sq(x):\n    return x * x\n", "sq", sandbox_options())
        .unwrap();
    let task = bed.client.run(f, bed.endpoint_id, vec![Value::Int(7)], vec![]).unwrap();
    assert_eq!(bed.client.get_result(task, Duration::from_secs(30)).unwrap(), Value::Int(49));

    // The sandbox host — not the interpreter — executed it.
    let host = Arc::clone(bed.sandbox_host().expect("testbed deploys a sandbox host"));
    assert!(host.stats().execs >= 1, "sandbox host saw the execution");
    assert!(host.stats().cold_misses >= 1, "first program arrival is a cold acquire");

    // A second invocation of the same program acquires a recycled (warm /
    // predicted / clone) environment, not another cold compile.
    let task = bed.client.run(f, bed.endpoint_id, vec![Value::Int(9)], vec![]).unwrap();
    assert_eq!(bed.client.get_result(task, Duration::from_secs(30)).unwrap(), Value::Int(81));
    let stats = host.stats();
    assert!(
        stats.warm_hits + stats.predicted_hits + stats.clone_hits >= 1,
        "second acquisition is not cold: {stats:?}"
    );

    // The acquisition tiers ride the heartbeat into the endpoint status
    // report.
    await_report(&bed, "sandbox tiers", |report| {
        let non_cold =
            report.sandbox_warm_hits + report.sandbox_predicted_hits + report.sandbox_clone_hits;
        report.sandbox_cold_misses >= 1 && non_cold >= 1
    });
    bed.shutdown();
}

#[test]
fn fuel_cap_kills_runaway_task_with_specific_traceback() {
    let mut bed = TestBedBuilder::new().build();
    let f = bed
        .client
        .register_function_with(
            "def spin():\n    while True:\n        pass\n    return 0\n",
            "spin",
            FunctionOptions {
                limits: TaskLimits { max_fuel: Some(500), ..TaskLimits::default() },
                ..sandbox_options()
            },
        )
        .unwrap();
    let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
    let err = bed.client.get_result(task, Duration::from_secs(30)).unwrap_err();
    if wire_json_available() {
        let FuncxError::ExecutionFailed(msg) = err else { panic!("{err:?}") };
        assert!(msg.contains("SandboxFuelExceeded"), "cap-specific traceback: {msg}");
    }
    let host = bed.sandbox_host().unwrap();
    assert_eq!(host.stats().fuel_kills, 1, "the fuel meter killed it");
    // The cap-kill label crossed the result frame into the service counter.
    let metrics = bed.service.render_metrics();
    assert!(
        metrics.contains("funcx_sandbox_cap_kills_total{cap=\"fuel\"} 1"),
        "fuel cap kill missing from the scrape:\n{metrics}"
    );
    bed.shutdown();
}

#[test]
fn time_cap_kills_runaway_task() {
    let mut bed = TestBedBuilder::new().build();
    // `sleep` needs the clock capability; grant it so the kill is the time
    // meter's, not the capability policy's.
    let f = bed
        .client
        .register_function_with(
            "def nap():\n    sleep(10)\n    return 0\n",
            "nap",
            FunctionOptions {
                limits: TaskLimits { max_millis: Some(50), ..TaskLimits::default() },
                capabilities: vec![Capability::Clock],
                ..sandbox_options()
            },
        )
        .unwrap();
    let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
    let err = bed.client.get_result(task, Duration::from_secs(30)).unwrap_err();
    if wire_json_available() {
        let FuncxError::ExecutionFailed(msg) = err else { panic!("{err:?}") };
        assert!(msg.contains("TimeLimitExceeded"), "{msg}");
    }
    assert_eq!(bed.sandbox_host().unwrap().stats().time_kills, 1);
    bed.shutdown();
}

#[test]
fn persistent_session_retains_state_across_invocations() {
    let mut bed = TestBedBuilder::new().build();
    let f = bed
        .client
        .register_function_with(
            "def bump():\n    n = session_get('n', 0)\n    session_set('n', n + 1)\n    return session_get('n', 0)\n",
            "bump",
            FunctionOptions {
                capabilities: vec![Capability::Session],
                session: Some("counter".into()),
                ..sandbox_options()
            },
        )
        .unwrap();
    // Two invocations, two different tasks — the named session carries the
    // counter between them.
    let first = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
    assert_eq!(bed.client.get_result(first, Duration::from_secs(30)).unwrap(), Value::Int(1));
    let second = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
    assert_eq!(bed.client.get_result(second, Duration::from_secs(30)).unwrap(), Value::Int(2));
    assert_eq!(bed.sandbox_host().unwrap().session_count(), 1, "one named session lives on");
    bed.shutdown();
}

#[test]
fn capability_denied_operation_fails_closed() {
    let mut bed = TestBedBuilder::new().build();
    // No capability grants: `sleep` requires `clock`, so the sandbox must
    // refuse — deny-by-default, not silently no-op.
    let f = bed
        .client
        .register_function_with(
            "def sneak():\n    sleep(5)\n    return 'done'\n",
            "sneak",
            sandbox_options(),
        )
        .unwrap();
    let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
    let err = bed.client.get_result(task, Duration::from_secs(30)).unwrap_err();
    if wire_json_available() {
        let FuncxError::ExecutionFailed(msg) = err else { panic!("{err:?}") };
        assert!(msg.contains("CapabilityDenied"), "{msg}");
        assert!(msg.contains("clock"), "names the missing capability: {msg}");
    }
    assert_eq!(bed.sandbox_host().unwrap().stats().capability_denials, 1);
    // A denial is a cap kill like the other four: the per-endpoint total on
    // the heartbeat counts it, as the service's labelled counter does.
    await_report(&bed, "the capability denial", |report| report.sandbox_cap_kills == 1);
    // The identical body with the grant succeeds — the denial above was the
    // policy, not a broken builtin.
    let granted = bed
        .client
        .register_function_with(
            "def sneak():\n    sleep(5)\n    return 'done'\n",
            "sneak",
            FunctionOptions { capabilities: vec![Capability::Clock], ..sandbox_options() },
        )
        .unwrap();
    let task = bed.client.run(granted, bed.endpoint_id, vec![], vec![]).unwrap();
    assert_eq!(bed.client.get_result(task, Duration::from_secs(30)).unwrap(), Value::from("done"));
    bed.shutdown();
}

#[test]
fn sandbox_runtime_crosses_the_tcp_fabric() {
    // The distributed acceptance path: agent dials the forwarder over real
    // TCP, the client drives registration and submission over real HTTP,
    // and the sandbox verdicts (caps, sessions, tiers) survive both hops.
    // The TCP frame codec is JSON, so this test needs real serde_json.
    if !wire_json_available() {
        return;
    }
    use funcx_auth::{IdentityProvider, Scope};
    use funcx_endpoint::{Agent, EndpointConfig, Manager};
    use funcx_proto::channel::inproc_pair;
    use funcx_sandbox::SandboxHost;
    use funcx_sdk::RestApi;
    use funcx_serial::Serializer;
    use funcx_service::rest::serve_rest;
    use funcx_service::{FuncxService, ServiceConfig};
    use funcx_types::time::{RealClock, SharedClock};

    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let service = FuncxService::new(
        Arc::clone(&clock),
        ServiceConfig { heartbeat_timeout: Duration::from_secs(600), ..ServiceConfig::default() },
    );
    let (_, token) =
        service.auth.login("sandbox-user", IdentityProvider::Institution, &[Scope::All]);
    let http = serve_rest(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let endpoint_id = service.register_endpoint(&token, "sandbox-ep", "", false).unwrap();
    let (mut forwarder, agent_addr) =
        service.connect_endpoint_tcp(endpoint_id, "127.0.0.1:0").unwrap();

    let config = EndpointConfig {
        workers_per_manager: 2,
        dispatch_overhead: Duration::ZERO,
        heartbeat_period: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(600),
        ..EndpointConfig::default()
    };
    let agent_channel = funcx_proto::tcp::connect(agent_addr).unwrap();
    let mut agent = Agent::spawn(endpoint_id, config.clone(), Arc::clone(&clock), agent_channel);
    let host = SandboxHost::with_defaults(Arc::clone(&clock));
    agent.attach_sandbox(Arc::clone(&host));
    let (agent_side, manager_side) = inproc_pair();
    let mut manager = Manager::spawn_with_sandbox(
        config,
        Arc::clone(&clock),
        Serializer::default(),
        manager_side,
        None,
        Some(Arc::clone(&host)),
    );
    agent.attach_manager(agent_side);

    let client = FuncXClient::new(Arc::new(RestApi::new(http.local_addr())), token.clone());

    // Success, twice: the second acquisition is recycled, not cold.
    let sq = client
        .register_function_with("def sq(x):\n    return x * x\n", "sq", sandbox_options())
        .unwrap();
    for n in [5i64, 6] {
        let task = client.run(sq, endpoint_id, vec![Value::Int(n)], vec![]).unwrap();
        assert_eq!(client.get_result(task, Duration::from_secs(30)).unwrap(), Value::Int(n * n));
    }
    let stats = host.stats();
    assert!(
        stats.cold_misses >= 1 && stats.warm_hits + stats.predicted_hits + stats.clone_hits >= 1
    );

    // Fuel cap kill: cap-specific traceback crosses TCP + HTTP.
    let spin = client
        .register_function_with(
            "def spin():\n    while True:\n        pass\n    return 0\n",
            "spin",
            FunctionOptions {
                limits: TaskLimits { max_fuel: Some(500), ..TaskLimits::default() },
                ..sandbox_options()
            },
        )
        .unwrap();
    let task = client.run(spin, endpoint_id, vec![], vec![]).unwrap();
    let err = client.get_result(task, Duration::from_secs(30)).unwrap_err();
    let FuncxError::ExecutionFailed(msg) = err else { panic!("{err:?}") };
    assert!(msg.contains("SandboxFuelExceeded"), "{msg}");

    // Session persistence across two tasks, over the remote fabric.
    let bump = client
        .register_function_with(
            "def bump():\n    n = session_get('n', 0)\n    session_set('n', n + 1)\n    return session_get('n', 0)\n",
            "bump",
            FunctionOptions {
                capabilities: vec![Capability::Session],
                session: Some("tcp-counter".into()),
                ..sandbox_options()
            },
        )
        .unwrap();
    for expect in [1i64, 2] {
        let task = client.run(bump, endpoint_id, vec![], vec![]).unwrap();
        assert_eq!(client.get_result(task, Duration::from_secs(30)).unwrap(), Value::Int(expect));
    }

    // Capability denial fails closed.
    let sneak = client
        .register_function_with(
            "def sneak():\n    sleep(5)\n    return 0\n",
            "sneak",
            sandbox_options(),
        )
        .unwrap();
    let task = client.run(sneak, endpoint_id, vec![], vec![]).unwrap();
    let err = client.get_result(task, Duration::from_secs(30)).unwrap_err();
    let FuncxError::ExecutionFailed(msg) = err else { panic!("{err:?}") };
    assert!(msg.contains("CapabilityDenied"), "{msg}");

    // The warm-start tiers and session count appear in the HTTP status
    // surface once a heartbeat report lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = funcx_service::http::http_request(
            http.local_addr(),
            "GET",
            &format!("/v1/endpoints/{endpoint_id}/status"),
            Some(&token),
            b"",
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let status: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        if let Some(sandbox) = status.get("sandbox").filter(|s| !s.is_null()) {
            let tier = |k: &str| sandbox[k].as_u64().unwrap_or(0);
            if tier("cold") >= 1
                && tier("warm") + tier("predicted") + tier("clone") >= 1
                && tier("sessions") >= 1
            {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sandbox tiers never appeared in /v1/endpoints/<id>/status: {status}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    manager.stop();
    agent.stop();
    forwarder.stop();
}

// ---- one evaluator, two policies ------------------------------------------
//
// FxScript and the sandbox run the same tree-walker under different
// policies. The corpus below goes through both and must come out the same:
// values, language errors (message, line, traceback) and fuel consumed, which
// pins that both policies are charged at the same points of the walk.

mod parity {
    use std::collections::HashMap;

    use funcx_lang::ast::FunctionDef;
    use funcx_lang::{Interpreter, LangError, Limits, NoopHooks, Value};
    use funcx_sandbox::{run_program, CapKind, SandboxError, SandboxLimits};
    use funcx_types::time::ManualClock;
    use funcx_types::Capability;
    use funcx_workload::{synthetic, CaseStudy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Case {
        source: String,
        entry: &'static str,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    }

    fn case(source: &str, entry: &'static str, args: Vec<Value>) -> Case {
        Case { source: source.to_string(), entry, args, kwargs: vec![] }
    }

    /// What one policy made of a case: the value and the fuel it took, or
    /// the error and the cap (sandbox only) that raised it.
    type Verdict = Result<(Value, u64), (LangError, Option<CapKind>)>;

    fn classic(c: &Case, limits: &Limits) -> Verdict {
        let program = funcx_lang::parse(&c.source).unwrap();
        let mut interp = Interpreter::new(&NoopHooks, limits.clone());
        interp.load_program(&program).unwrap();
        match interp.call_function(c.entry, &c.args, &c.kwargs) {
            Ok(value) => Ok((value, limits.max_fuel - interp.fuel_remaining())),
            Err(e) => Err((e, None)),
        }
    }

    fn sandbox(c: &Case, limits: &Limits) -> Verdict {
        let program = funcx_lang::parse(&c.source).unwrap();
        let globals: HashMap<String, FunctionDef> =
            program.defs.iter().map(|d| (d.name.clone(), d.clone())).collect();
        let limits = SandboxLimits {
            max_fuel: limits.max_fuel,
            max_depth: limits.max_depth,
            max_value_bytes: limits.max_value_bytes,
            ..SandboxLimits::default()
        };
        run_program(
            &program,
            &globals,
            c.entry,
            &c.args,
            &c.kwargs,
            limits,
            // The case-study and synthetic kernels pad with sleep/stress.
            &[Capability::Clock],
            None,
            &NoopHooks,
            ManualClock::new(),
        )
        .map(|out| (out.value, out.fuel_used))
        .map_err(|SandboxError { kind, error }| (error, kind))
    }

    fn corpus() -> Vec<Case> {
        let mut rng = StdRng::seed_from_u64(15);
        let mut cases: Vec<Case> = CaseStudy::ALL
            .iter()
            .map(|k| case(k.source(), k.entry(), k.gen_args(&mut rng)))
            .collect();
        cases.extend([
            case(synthetic::NOOP_SRC, synthetic::NOOP_ENTRY, vec![]),
            case(synthetic::SLEEP_SRC, synthetic::SLEEP_ENTRY, synthetic::seconds_arg(0.25)),
            case(synthetic::STRESS_SRC, synthetic::STRESS_ENTRY, synthetic::seconds_arg(0.25)),
            case(synthetic::ECHO_SRC, synthetic::ECHO_ENTRY, synthetic::echo_args()),
            case(synthetic::MEMO_SRC, synthetic::MEMO_ENTRY, vec![Value::Int(21)]),
        ]);
        // The programs of `funcx_lang::interp`'s unit tests.
        for expr in [
            "2 + 3 * 4",
            "(2 + 3) * 4",
            "7 // 2",
            "7 % 3",
            "2 ** 10",
            "1 / 2",
            "False and 1 / 0",
            "True or 1 / 0",
        ] {
            cases.push(case(&format!("def f():\n    return {expr}\n"), "f", vec![]));
        }
        let sign = "def sign(x):\n    return 1 if x > 0 else (-1 if x < 0 else 0)\n";
        let defaults = "def f(a, b=10, c=20):\n    return a + b + c\n";
        let xs = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        cases.extend([
            case("def f():\n    x = 1\n    return x / 0\n", "f", vec![]),
            case(
                "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n",
                "fib",
                vec![Value::Int(15)],
            ),
            case("def f(n):\n    return f(n + 1)\n", "f", vec![Value::Int(0)]),
            case(defaults, "f", vec![Value::Int(1)]),
            Case {
                kwargs: vec![("c".into(), Value::Int(0))],
                ..case(defaults, "f", vec![Value::Int(1)])
            },
            Case {
                kwargs: vec![("a".into(), Value::Int(2))],
                ..case("def f(a):\n    return a\n", "f", vec![Value::Int(1)])
            },
            case("def f(a, b):\n    return a\n", "f", vec![Value::Int(1)]),
            case(
                "\
def f(n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            continue
        if i > 7:
            break
        total += i
    return total
",
                "f",
                vec![Value::Int(100)],
            ),
            case(
                "def f(n):\n    i = 0\n    while i < n:\n        i += 1\n    return i\n",
                "f",
                vec![Value::Int(17)],
            ),
            case(
                "def f():\n    t = 0\n    for i in range(1000000):\n        t += 1\n    return t\n",
                "f",
                vec![],
            ),
            case(
                "def f():\n    out = []\n    for i in range(5, 0, -2):\n        out.append(i)\n    return out\n",
                "f",
                vec![],
            ),
            case(
                "\
def f():
    d = {'a': 1}
    d['b'] = 2
    d['a'] += 10
    xs = [0, 0, 0]
    xs[1] = 5
    xs[2] = d['a']
    return [xs, d['b']]
",
                "f",
                vec![],
            ),
            case("def f(xs):\n    return xs[-1]\n", "f", vec![xs]),
            case(
                "\
def count_vowels(s):
    n = 0
    for c in s:
        if c in 'aeiou':
            n += 1
    return n
",
                "count_vowels",
                vec![Value::from("serverless")],
            ),
            case(
                "\
def outer(x):
    def helper(y):
        return y * 2
    return helper(x) + helper(1)
",
                "outer",
                vec![Value::Int(10)],
            ),
            case(sign, "sign", vec![Value::Int(5)]),
            case(sign, "sign", vec![Value::Int(-5)]),
            case(sign, "sign", vec![Value::Int(0)]),
            case(
                "def f():\n    print('starting')\n    sleep(0.25)\n    return 'ok'\n",
                "f",
                vec![],
            ),
            case(
                "\
def inner(x):
    return x / 0

def outer(x):
    return inner(x)
",
                "outer",
                vec![Value::Int(1)],
            ),
        ]);
        cases
    }

    #[test]
    fn both_policies_agree_on_values_errors_and_fuel() {
        let limits = Limits::default();
        let (mut values, mut errors) = (0, 0);
        for c in corpus() {
            let (a, b) = (classic(&c, &limits), sandbox(&c, &limits));
            match &a {
                Ok((_, fuel)) => {
                    assert!(*fuel > 0);
                    values += 1;
                }
                Err(_) => errors += 1,
            }
            // Equal values and fuel, or equal message, line and traceback
            // with no cap behind the sandbox's error.
            assert_eq!(a, b, "{}({:?}) in\n{}", c.entry, c.args, c.source);
        }
        assert!(values >= 30 && errors >= 5, "{values} values, {errors} errors");
    }

    /// Where a cap ends the run the two policies word the error differently
    /// (the sandbox names its cap), but they end it at the same step.
    #[test]
    fn both_policies_hit_their_caps_at_the_same_step() {
        let spin = case("def f():\n    while True:\n        pass\n    return 0\n", "f", vec![]);
        let grow = case(
            "\
def f():
    s = 'x'
    while True:
        s = s + s
    return s
",
            "f",
            vec![],
        );
        let fuel = Limits { max_fuel: 10_000, ..Limits::default() };
        let size = Limits { max_value_bytes: 1 << 16, ..Limits::default() };
        for (c, limits, kind, word) in
            [(spin, fuel, CapKind::Fuel, "fuel"), (grow, size, CapKind::Memory, "size limit")]
        {
            let (ea, _) = classic(&c, &limits).unwrap_err();
            let (eb, kb) = sandbox(&c, &limits).unwrap_err();
            assert_eq!(kb, Some(kind));
            assert!(ea.message.contains(word) && eb.message.contains(word), "{ea} / {eb}");
            assert_eq!((ea.line, &ea.stack), (eb.line, &eb.stack));
        }
    }
}
