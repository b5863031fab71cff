//! Integration: a three-instance clustered control plane over real TCP.
//!
//! Three `FuncxService` instances — each with its own WAL — gossip over
//! funcx-proto heartbeat frames, partition users with the consistent-hash
//! ring, and front their REST APIs with routing FrontDoors. The test
//! drives the ISSUE acceptance sequence: submissions landing at any
//! instance reach the partition owner; killing one instance moves its
//! partitions to survivors under a higher lease epoch (visible in
//! `/v1/cluster/status`); and every task acked before the kill completes
//! afterwards — zero loss.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use funcx_auth::{AuthService, IdentityProvider, Scope};
use funcx_cluster::{serve_front, ClusterConfig, ClusterNode, RouteMode};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_lang::Value;
use funcx_proto::channel::inproc_pair;
use funcx_proto::tcp::TcpServer;
use funcx_proto::MemberInfo;
use funcx_sdk::{FuncXClient, RestApi};
use funcx_serial::Serializer;
use funcx_service::http::{http_request, HttpServer};
use funcx_service::{FsyncPolicy, FuncxService, ServiceConfig};
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::{EndpointId, TaskId};

/// The local stub harness can't serialize proto frames or REST bodies;
/// the full-stack path only runs where real serde is linked (CI).
fn serde_is_stubbed() -> bool {
    serde_json::to_vec(&serde_json::json!({})).is_err()
}

fn unique_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-cluster-{tag}-{}-{nanos}", std::process::id()))
}

fn endpoint_config() -> EndpointConfig {
    EndpointConfig {
        workers_per_manager: 2,
        dispatch_overhead: Duration::ZERO,
        heartbeat_period: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(600),
        ..EndpointConfig::default()
    }
}

struct Instance {
    node: Arc<ClusterNode>,
    http: HttpServer,
    gossip_addr: std::net::SocketAddr,
}

/// Stand up `n` instances: shared auth plane, per-instance WAL, full
/// gossip mesh over real TCP, FrontDoors in `mode`.
fn spin_cluster(
    n: u64,
    clock: &SharedClock,
    auth: &Arc<AuthService>,
    mode: RouteMode,
) -> Vec<Instance> {
    let mut instances = Vec::new();
    for i in 1..=n {
        let wal_dir = unique_dir(&format!("wal-{i}"));
        let config = ServiceConfig {
            heartbeat_timeout: Duration::from_secs(600),
            retrieved_result_ttl: Duration::from_secs(86_400),
            wal_dir: Some(wal_dir.clone()),
            // Synchronous appends: an acked write is on disk before the
            // submit returns, so a kill can never lose it.
            wal_fsync: FsyncPolicy::Always,
            snapshot_every: 0,
            ..ServiceConfig::default()
        };
        let (service, _) =
            FuncxService::recover_shared(Arc::clone(clock), config, Arc::clone(auth)).unwrap();
        let gossip = TcpServer::bind("127.0.0.1:0").unwrap();
        let gossip_addr = gossip.local_addr();
        let info = MemberInfo {
            instance: i,
            rest_addr: String::new(), // filled in after the FrontDoor binds
            gossip_addr: gossip_addr.to_string(),
            wal_dir: wal_dir.display().to_string(),
            generation: 0,
        };
        let cluster_config = ClusterConfig {
            gossip_period: Duration::from_millis(10),
            // Virtual time runs 1000x wall here: frames land every ~10
            // virtual seconds, so 300 virtual seconds of silence (~300ms
            // wall) is decisively dead without flapping on scheduler
            // hiccups.
            member_timeout: Duration::from_secs(300),
            ..ClusterConfig::default()
        };
        let node = ClusterNode::new(service, cluster_config, info);
        let http = serve_front(Arc::clone(&node), "127.0.0.1:0", mode).unwrap();
        node.set_rest_addr(http.local_addr().to_string());
        node.serve_gossip(gossip);
        instances.push(Instance { node, http, gossip_addr });
    }
    // Full mesh: everyone dials everyone (send-side channels).
    for a in &instances {
        for b in &instances {
            if a.node.instance() != b.node.instance() {
                a.node.connect_peer(b.gossip_addr).unwrap();
            }
        }
    }
    for inst in &instances {
        inst.node.start();
    }
    instances
}

/// Wait until every instance sees `n` members, every partition is
/// leased, and all instances agree on every partition's leader — the
/// cluster's steady state.
fn await_convergence(instances: &[Instance], n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    'outer: loop {
        assert!(std::time::Instant::now() < deadline, "cluster never converged");
        std::thread::sleep(Duration::from_millis(10));
        let mut maps: Vec<Vec<(u64, u64)>> = Vec::new();
        for inst in instances {
            let status = inst.node.status_json();
            if status["members"].as_array().unwrap().len() != n {
                continue 'outer;
            }
            let leases = status["leases"].as_array().unwrap();
            if leases.len() != status["partitions"].as_u64().unwrap() as usize {
                continue 'outer;
            }
            maps.push(
                leases
                    .iter()
                    .map(|l| (l["partition"].as_u64().unwrap(), l["leader"].as_u64().unwrap()))
                    .collect(),
            );
        }
        if maps.iter().all(|m| *m == maps[0]) {
            return;
        }
    }
}

/// Log users until one lands on a partition led by `want`; returns the
/// bearer token.
fn user_owned_by(auth: &Arc<AuthService>, node: &Arc<ClusterNode>, want: u64, tag: &str) -> String {
    for k in 0..10_000 {
        let (_, token) =
            auth.login(&format!("{tag}-{k}"), IdentityProvider::Institution, &[Scope::All]);
        if node.owner_of_bearer(&token).map(|m| m.instance) == Some(want) {
            return token;
        }
    }
    panic!("no user hashed to instance {want} in 10k tries");
}

/// A live endpoint (agent + manager over real TCP) attached to `service`.
struct LiveEndpoint {
    forwarder: funcx_service::forwarder::Forwarder,
    agent: Agent,
    manager: Manager,
}

fn attach_endpoint(
    service: &Arc<FuncxService>,
    clock: &SharedClock,
    endpoint_id: EndpointId,
) -> LiveEndpoint {
    let (forwarder, agent_addr) = service.connect_endpoint_tcp(endpoint_id, "127.0.0.1:0").unwrap();
    let agent_channel = funcx_proto::tcp::connect(agent_addr).unwrap();
    let agent = Agent::spawn(endpoint_id, endpoint_config(), Arc::clone(clock), agent_channel);
    let (agent_side, manager_side) = inproc_pair();
    let manager = Manager::spawn(
        endpoint_config(),
        Arc::clone(clock),
        Serializer::default(),
        manager_side,
        None,
    );
    agent.attach_manager(agent_side);
    LiveEndpoint { forwarder, agent, manager }
}

impl LiveEndpoint {
    fn stop(mut self) {
        self.manager.stop();
        self.agent.stop();
        self.forwarder.stop();
    }
}

#[test]
fn three_instances_route_submissions_and_survive_a_kill() {
    if serde_is_stubbed() {
        return;
    }
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let auth = AuthService::new(Arc::clone(&clock));
    let instances = spin_cluster(3, &clock, &auth, RouteMode::Redirect);
    await_convergence(&instances, 3);

    // A user whose partition instance 3 leads (the kill victim), and a
    // control user led by instance 1.
    let victim_token = user_owned_by(&auth, &instances[0].node, 3, "victim");
    let control_token = user_owned_by(&auth, &instances[0].node, 1, "control");

    // Both clients talk to instance 1's FrontDoor only: the victim's
    // requests must route (redirect) to instance 3 transparently.
    let front1 = instances[0].http.local_addr();
    let victim = FuncXClient::new(Arc::new(RestApi::new(front1)), victim_token.clone());
    let control = FuncXClient::new(Arc::new(RestApi::new(front1)), control_token.clone());

    // Register + attach the victim user's endpoint at its owner.
    let owner = instances[0].node.owner_of_bearer(&victim_token).unwrap();
    assert_eq!(owner.instance, 3);
    let owner_service = Arc::clone(instances[2].node.service());
    let f = victim.register_function("def double(x):\n    return x * 2\n", "double").unwrap();
    let ep = victim.register_endpoint("victim-ep", false).unwrap();
    assert!(
        owner_service.endpoints.get(ep).is_ok(),
        "registration submitted at instance 1 must land on owner instance 3"
    );
    let live = attach_endpoint(&owner_service, &clock, ep);

    // Control user's world on instance 1.
    let control_service = Arc::clone(instances[0].node.service());
    let cf = control.register_function("def bump(x):\n    return x + 1\n", "bump").unwrap();
    let cep = control.register_endpoint("control-ep", false).unwrap();
    let control_live = attach_endpoint(&control_service, &clock, cep);

    // Phase 1: routed execution works end to end, through a non-owner door.
    let warm = victim.run(f, ep, vec![Value::Int(21)], vec![]).unwrap();
    assert_eq!(victim.get_result(warm, Duration::from_secs(30)).unwrap(), Value::Int(42));

    // Phase 2: ack a mix of completed and still-queued tasks, then kill.
    let completed: Vec<TaskId> =
        (0i64..6).map(|i| victim.run(f, ep, vec![Value::Int(i)], vec![]).unwrap()).collect();
    for (i, task) in completed.iter().enumerate() {
        assert_eq!(
            victim.get_result(*task, Duration::from_secs(30)).unwrap(),
            Value::Int(2 * i as i64)
        );
    }
    // Stop the victim's endpoint first so the next batch stays queued.
    live.stop();
    let queued: Vec<TaskId> =
        (100i64..106).map(|i| victim.run(f, ep, vec![Value::Int(i)], vec![]).unwrap()).collect();

    // Remember which partitions instance 3 led, then kill it: REST door,
    // gossip loops, everything. Its WAL directory remains — that is the
    // shipped log survivors recover from.
    let moved: Vec<u32> = {
        let status = instances[2].node.status_json();
        status["leases"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|l| l["leader"] == 3)
            .map(|l| l["partition"].as_u64().unwrap() as u32)
            .collect()
    };
    assert!(!moved.is_empty());
    instances[2].node.shutdown();

    // Survivors must notice the silence, fail the partitions over with a
    // fenced epoch, and expose it all in /v1/cluster/status over HTTP.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        assert!(std::time::Instant::now() < deadline, "failover never happened");
        std::thread::sleep(Duration::from_millis(20));
        let resp = http_request(front1, "GET", "/v1/cluster/status", None, b"").unwrap();
        assert_eq!(resp.status, 200);
        let status: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let leases = status["leases"].as_array().unwrap();
        let all_moved = moved.iter().all(|&p| {
            leases.iter().any(|l| {
                l["partition"].as_u64() == Some(p as u64)
                    && l["leader"] != 3
                    && l["epoch"].as_u64().is_some_and(|e| e >= 2)
            })
        });
        if all_moved {
            break status;
        }
    };
    assert!(
        status["failovers"].as_u64().unwrap() >= 1 || instances[1].node.failovers() >= 1,
        "a survivor must have recorded the takeover: {status}"
    );

    // Zero loss, part 1: results acked-and-completed before the kill are
    // still retrievable — through the same front door, now routed to the
    // new owner.
    for (i, task) in completed.iter().enumerate() {
        assert_eq!(
            victim.get_result(*task, Duration::from_secs(30)).unwrap(),
            Value::Int(2 * i as i64),
            "completed result lost in failover"
        );
    }

    // Zero loss, part 2: tasks acked-but-queued at the kill complete once
    // the endpoint agent reattaches at the new owner (its registration
    // was recovered from the shipped WAL too).
    let new_owner = instances[0].node.owner_of_bearer(&victim_token).unwrap();
    assert_ne!(new_owner.instance, 3);
    let new_owner_service = Arc::clone(instances[(new_owner.instance - 1) as usize].node.service());
    assert!(
        new_owner_service.endpoints.get(ep).is_ok(),
        "endpoint registration must survive failover via WAL shipping"
    );
    let relive = attach_endpoint(&new_owner_service, &clock, ep);
    for (i, task) in queued.iter().enumerate() {
        assert_eq!(
            victim.get_result(*task, Duration::from_secs(60)).unwrap(),
            Value::Int(2 * (100 + i as i64)),
            "acked task lost in failover"
        );
    }

    // The control user never noticed any of this.
    let ct = control.run(cf, cep, vec![Value::Int(7)], vec![]).unwrap();
    assert_eq!(control.get_result(ct, Duration::from_secs(30)).unwrap(), Value::Int(8));

    relive.stop();
    control_live.stop();
    for inst in &instances {
        inst.node.shutdown();
    }
}

#[test]
fn proxy_mode_relays_foreign_requests() {
    if serde_is_stubbed() {
        return;
    }
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let auth = AuthService::new(Arc::clone(&clock));
    let instances = spin_cluster(2, &clock, &auth, RouteMode::Proxy);
    await_convergence(&instances, 2);

    // A user owned by instance 2, talking only to instance 1's door: in
    // proxy mode the client sees plain 200s, never a redirect.
    let token = user_owned_by(&auth, &instances[0].node, 2, "proxied");
    let client =
        FuncXClient::new(Arc::new(RestApi::new(instances[0].http.local_addr())), token.clone());
    let f = client.register_function("def sq(x):\n    return x * x\n", "sq").unwrap();
    let ep = client.register_endpoint("prox-ep", false).unwrap();
    let owner_service = Arc::clone(instances[1].node.service());
    assert!(owner_service.endpoints.get(ep).is_ok(), "proxied registration must land on owner");
    let live = attach_endpoint(&owner_service, &clock, ep);
    let task = client.run(f, ep, vec![Value::Int(9)], vec![]).unwrap();
    assert_eq!(client.get_result(task, Duration::from_secs(30)).unwrap(), Value::Int(81));

    live.stop();
    for inst in &instances {
        inst.node.shutdown();
    }
}

#[test]
fn proxy_mode_answers_503_when_the_owner_dies_under_a_pooled_connection() {
    if serde_is_stubbed() {
        return;
    }
    let clock: SharedClock = Arc::new(RealClock::with_speedup(1000.0));
    let auth = AuthService::new(Arc::clone(&clock));
    let mut instances = spin_cluster(2, &clock, &auth, RouteMode::Proxy);
    await_convergence(&instances, 2);
    let token = user_owned_by(&auth, &instances[0].node, 2, "orphan");
    let door = instances[0].http.local_addr();

    // Proxied calls leave a kept-alive door→owner connection in the pool.
    for _ in 0..3 {
        let resp = http_request(door, "GET", "/v1/endpoints/status", Some(&token), b"").unwrap();
        assert_eq!(resp.status, 200);
    }

    // Kill the owner: REST listener and gossip. Until the door notices and
    // takes the partition over, its pooled connection is a dead socket.
    instances[1].http.stop();
    instances[1].node.shutdown();
    for (method, body) in [("POST", &br#"{"tasks": []}"#[..]), ("GET", b"")] {
        let path = if method == "POST" { "/v1/batch" } else { "/v1/endpoints/status" };
        let asked = std::time::Instant::now();
        let resp = http_request(door, method, path, Some(&token), body).unwrap();
        let still_foreign =
            instances[0].node.owner_of_bearer(&token).map(|m| m.instance) == Some(2);
        assert!(asked.elapsed() < Duration::from_secs(2), "{method} hung on the dead owner");
        if still_foreign {
            assert_eq!(resp.status, 503, "{method}: a dead owner is unavailable, not an error");
        }
    }

    instances[0].node.shutdown();
}
