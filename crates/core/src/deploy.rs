//! One-process deployments of the full fabric.
//!
//! A [`TestBed`] is the in-process equivalent of the paper's Figure 2:
//! the cloud service with its forwarders at the top, and one (or more)
//! endpoints — agent, managers, workers — at the bottom, all sharing one
//! virtual clock so second-scale workloads run in milliseconds of wall
//! time. The builder exposes the knobs the evaluation sweeps (workers per
//! node, batching, prefetch, WAN latency, container runtime profile) and
//! the handle exposes the failure-injection hooks behind Figures 7 and 8.

use std::sync::Arc;
use std::time::Duration;

use funcx_auth::{IdentityProvider, Scope};
use funcx_container::{ContainerRuntime, SystemProfile, WarmStartConfig, WarmStartEngine};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_proto::channel::inproc_pair;
use funcx_sandbox::SandboxHost;
use funcx_sdk::{FuncXClient, InProcApi};
use funcx_serial::Serializer;
use funcx_service::forwarder::Forwarder;
use funcx_service::{FuncxService, ServiceConfig};
use funcx_types::time::{RealClock, SharedClock, VirtualDuration};
use funcx_types::EndpointId;

/// Builder for [`TestBed`].
pub struct TestBedBuilder {
    speedup: f64,
    service_config: ServiceConfig,
    endpoint_config: EndpointConfig,
    managers: usize,
    wan_latency: VirtualDuration,
    container_system: Option<SystemProfile>,
    warm_start: WarmStartConfig,
    sandbox: bool,
    seed: u64,
}

impl TestBedBuilder {
    /// Defaults: 1000× virtual time, 1 manager × 4 workers, zero WAN
    /// latency, no container runtime, free service costs.
    pub fn new() -> Self {
        TestBedBuilder {
            speedup: 1000.0,
            service_config: ServiceConfig {
                heartbeat_timeout: Duration::from_secs(600),
                ..ServiceConfig::default()
            },
            endpoint_config: EndpointConfig {
                workers_per_manager: 4,
                dispatch_overhead: Duration::ZERO,
                heartbeat_period: Duration::from_secs(2),
                heartbeat_timeout: Duration::from_secs(600),
                ..EndpointConfig::default()
            },
            managers: 1,
            wan_latency: Duration::ZERO,
            container_system: None,
            warm_start: WarmStartConfig::default(),
            sandbox: true,
            seed: 42,
        }
    }

    /// Virtual-time speed-up factor.
    pub fn speedup(mut self, speedup: f64) -> Self {
        self.speedup = speedup;
        self
    }

    /// Number of statically-provisioned managers (compute nodes). Zero is
    /// valid for fully-elastic deployments driven by an
    /// [`ElasticFleet`](funcx_endpoint::ElasticFleet).
    pub fn managers(mut self, n: usize) -> Self {
        self.managers = n;
        self
    }

    /// Worker slots per manager.
    pub fn workers_per_manager(mut self, n: usize) -> Self {
        self.endpoint_config.workers_per_manager = n.max(1);
        self
    }

    /// Executor-side batching (§4.7).
    pub fn batching(mut self, on: bool) -> Self {
        self.endpoint_config.batching = on;
        self
    }

    /// Prefetch credit per manager (§4.7).
    pub fn prefetch(mut self, n: usize) -> Self {
        self.endpoint_config.prefetch = n;
        self
    }

    /// Per-task agent dispatch overhead in virtual time (calibrates agent
    /// throughput; zero for functional tests).
    pub fn dispatch_overhead(mut self, d: VirtualDuration) -> Self {
        self.endpoint_config.dispatch_overhead = d;
        self
    }

    /// One-way service↔endpoint propagation delay in virtual time.
    pub fn wan_latency(mut self, d: VirtualDuration) -> Self {
        self.wan_latency = d;
        self
    }

    /// Service-side request costs (auth/store — the Table 1 calibration).
    pub fn service_costs(mut self, auth: VirtualDuration, store: VirtualDuration) -> Self {
        self.service_config.auth_cost = auth;
        self.service_config.store_cost = store;
        self
    }

    /// Cap on serialized payload size through the service (§4.6); larger
    /// data must go out-of-band via a [`funcx_sdk::DataStage`].
    pub fn payload_limit(mut self, bytes: usize) -> Self {
        self.service_config.payload_limit = bytes;
        self
    }

    /// Enable the durable write-ahead log under `dir`: every accepted
    /// task, stored result, and queue mutation survives a service restart
    /// (rebuild with the same directory to recover). Off by default.
    pub fn wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.service_config.wal_dir = Some(dir.into());
        self
    }

    /// Fsync policy for the WAL (group commit by default); only meaningful
    /// together with [`TestBedBuilder::wal_dir`].
    pub fn wal_fsync(mut self, policy: funcx_service::FsyncPolicy) -> Self {
        self.service_config.wal_fsync = policy;
        self
    }

    /// Head-sample rate for the distributed tracer in `[0, 1]` (fraction of
    /// *healthy* traces retained at completion; flagged and slow-tail traces
    /// always survive). Default keeps everything.
    pub fn trace_head_sample(mut self, rate: f64) -> Self {
        self.service_config.trace_head_sample = rate;
        self
    }

    /// Slow-tail retention width for the tracer: the N slowest completed
    /// traces are kept regardless of the head-sample draw.
    pub fn trace_slowest_keep(mut self, n: usize) -> Self {
        self.service_config.trace_slowest_keep = n;
        self
    }

    /// Minimum level for `fx_log!` structured log lines (process-global).
    pub fn log_level(mut self, level: funcx_telemetry::LogLevel) -> Self {
        self.service_config.log_level = level;
        self
    }

    /// Replace the default service-level objectives evaluated by
    /// `GET /v1/slo` and exported as burn-rate gauges.
    pub fn slos(mut self, specs: Vec<funcx_service::slo::SloSpec>) -> Self {
        self.service_config.slos = specs;
        self
    }

    /// Attach a simulated container runtime (Table 2 cold-start model) and
    /// warm-start engine for the given system profile.
    pub fn containers(mut self, system: SystemProfile) -> Self {
        self.container_system = Some(system);
        self
    }

    /// Tune the warm-start engine (TTL, clone cost, capacities, pre-warm
    /// gate); only meaningful with [`TestBedBuilder::containers`].
    pub fn warm_start(mut self, config: WarmStartConfig) -> Self {
        self.warm_start = config;
        self
    }

    /// Enable/disable the sandbox runtime on the testbed endpoint
    /// (default on). Disabled, the endpoint advertises FxScript only and
    /// the service refuses sandbox functions at submit time.
    pub fn sandbox(mut self, on: bool) -> Self {
        self.sandbox = on;
        self
    }

    /// RNG seed for the container-runtime model.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stand everything up.
    pub fn build(self) -> TestBed {
        let clock: SharedClock = Arc::new(RealClock::with_speedup(self.speedup));
        let service = FuncxService::new(Arc::clone(&clock), self.service_config);
        let (_, token) =
            service.auth.login("testbed-user", IdentityProvider::Institution, &[Scope::All]);
        let client =
            FuncXClient::new(Arc::new(InProcApi::new(Arc::clone(&service))), token.clone());
        // Advertise what this deployment can actually execute: both
        // runtimes when the sandbox host is up, FxScript only otherwise
        // (the service then refuses sandbox functions at submit).
        let runtimes = if self.sandbox {
            Vec::new() // empty = advertise everything
        } else {
            vec![funcx_types::Runtime::FxScript]
        };
        let endpoint_id = service
            .register_endpoint_with(
                &token,
                "testbed-endpoint",
                "in-process fabric",
                false,
                runtimes,
            )
            .expect("registration on a fresh service cannot fail");

        let runtime = self
            .container_system
            .map(|system| ContainerRuntime::new(Arc::clone(&clock), system, self.seed));
        let warm_engine = runtime
            .as_ref()
            .map(|rt| WarmStartEngine::new(Arc::clone(&clock), Arc::clone(rt), self.warm_start));
        let sandbox = self.sandbox.then(|| SandboxHost::with_defaults(Arc::clone(&clock)));

        let (forwarder, agent_channel) = service
            .connect_endpoint(endpoint_id, self.wan_latency)
            .expect("endpoint just registered");
        let agent = Agent::spawn(
            endpoint_id,
            self.endpoint_config.clone(),
            Arc::clone(&clock),
            agent_channel,
        );
        if let Some(engine) = &warm_engine {
            agent.attach_warm_engine(Arc::clone(engine));
        }
        if let Some(host) = &sandbox {
            agent.attach_sandbox(Arc::clone(host));
        }
        let mut managers = Vec::with_capacity(self.managers);
        for _ in 0..self.managers {
            let (agent_side, manager_side) = inproc_pair();
            let manager = Manager::spawn_with_sandbox(
                self.endpoint_config.clone(),
                Arc::clone(&clock),
                Serializer::default(),
                manager_side,
                warm_engine.clone(),
                sandbox.clone(),
            );
            agent.attach_manager(agent_side);
            managers.push(manager);
        }

        TestBed {
            clock,
            service,
            client,
            token,
            endpoint_id,
            forwarder: Some(forwarder),
            agent: Some(agent),
            managers,
            endpoint_config: self.endpoint_config,
            runtime,
            warm_engine,
            sandbox,
            wan_latency: self.wan_latency,
            extra_endpoints: Vec::new(),
        }
    }
}

impl Default for TestBedBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A live single-endpoint deployment.
pub struct TestBed {
    /// The shared virtual clock.
    pub clock: SharedClock,
    /// The cloud service.
    pub service: Arc<FuncxService>,
    /// A ready-to-use client (in-proc transport, all scopes).
    pub client: FuncXClient,
    /// The client's bearer token (for building more clients).
    pub token: String,
    /// The deployed endpoint.
    pub endpoint_id: EndpointId,
    forwarder: Option<Forwarder>,
    agent: Option<Agent>,
    managers: Vec<Manager>,
    endpoint_config: EndpointConfig,
    runtime: Option<Arc<ContainerRuntime>>,
    warm_engine: Option<Arc<WarmStartEngine>>,
    sandbox: Option<Arc<SandboxHost>>,
    wan_latency: VirtualDuration,
    /// Additional endpoints created with [`TestBed::add_endpoint`]
    /// (federated deployments: Xtract/SSX target several endpoints).
    extra_endpoints: Vec<ExtraEndpoint>,
}

struct ExtraEndpoint {
    endpoint_id: EndpointId,
    _forwarder: Forwarder,
    agent: Agent,
    managers: Vec<Manager>,
}

impl TestBed {
    /// Deploy a second (third, …) endpoint — the federated scenario: one
    /// cloud service dispatching to many independently-owned resources.
    /// Returns its endpoint id.
    pub fn add_endpoint(
        &mut self,
        name: &str,
        managers: usize,
        workers_per_manager: usize,
        wan_latency: VirtualDuration,
    ) -> EndpointId {
        let endpoint_id = self
            .service
            .register_endpoint(&self.token, name, "extra testbed endpoint", false)
            .expect("testbed token has all scopes");
        let config = EndpointConfig {
            workers_per_manager: workers_per_manager.max(1),
            ..self.endpoint_config.clone()
        };
        let (forwarder, channel) = self
            .service
            .connect_endpoint(endpoint_id, wan_latency)
            .expect("endpoint just registered");
        let agent = Agent::spawn(endpoint_id, config.clone(), Arc::clone(&self.clock), channel);
        // Each extra endpoint gets its own sandbox host (per-node session
        // pools; sessions do not migrate between endpoints) when the
        // testbed runs with the sandbox enabled.
        let sandbox =
            self.sandbox.as_ref().map(|_| SandboxHost::with_defaults(Arc::clone(&self.clock)));
        if let Some(host) = &sandbox {
            agent.attach_sandbox(Arc::clone(host));
        }
        let mut mgrs = Vec::with_capacity(managers.max(1));
        for _ in 0..managers.max(1) {
            let (agent_side, manager_side) = inproc_pair();
            let manager = Manager::spawn_with_sandbox(
                config.clone(),
                Arc::clone(&self.clock),
                Serializer::default(),
                manager_side,
                self.warm_engine.clone(),
                sandbox.clone(),
            );
            agent.attach_manager(agent_side);
            mgrs.push(manager);
        }
        self.extra_endpoints.push(ExtraEndpoint {
            endpoint_id,
            _forwarder: forwarder,
            agent,
            managers: mgrs,
        });
        endpoint_id
    }
    /// Ids of endpoints created via [`TestBed::add_endpoint`].
    pub fn extra_endpoint_ids(&self) -> Vec<EndpointId> {
        self.extra_endpoints.iter().map(|e| e.endpoint_id).collect()
    }

    /// Abruptly kill an extra endpoint mid-run: its managers die first (so
    /// in-flight work never completes), then the agent severs its link and
    /// this call blocks until the service-side forwarder has noticed and
    /// run its loss handling (requeue + pool re-dispatch). The fabric-level
    /// failover scenario behind the pool routing tests.
    pub fn kill_endpoint(&mut self, endpoint_id: EndpointId) {
        let Some(pos) = self.extra_endpoints.iter().position(|e| e.endpoint_id == endpoint_id)
        else {
            panic!("kill_endpoint: {endpoint_id} is not an extra endpoint");
        };
        let mut extra = self.extra_endpoints.remove(pos);
        for m in &mut extra.managers {
            m.kill();
        }
        extra.agent.disconnect_forwarder();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while extra._forwarder.is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        extra.agent.stop();
    }

    /// The agent handle (stats, failure injection).
    pub fn agent(&self) -> &Agent {
        self.agent.as_ref().expect("agent lives until shutdown")
    }

    /// The container runtime, when built with [`TestBedBuilder::containers`].
    pub fn runtime(&self) -> Option<&Arc<ContainerRuntime>> {
        self.runtime.as_ref()
    }

    /// The warm-start engine, when containers are enabled.
    pub fn warm_engine(&self) -> Option<&Arc<WarmStartEngine>> {
        self.warm_engine.as_ref()
    }

    /// The primary endpoint's sandbox host, when the sandbox runtime is
    /// enabled (session inspection, pool stats).
    pub fn sandbox_host(&self) -> Option<&Arc<SandboxHost>> {
        self.sandbox.as_ref()
    }

    /// Number of live managers.
    pub fn manager_count(&self) -> usize {
        self.managers.iter().filter(|m| m.is_running()).count()
    }

    /// Kill manager `idx` abruptly (Figure 7 failure injection).
    pub fn kill_manager(&mut self, idx: usize) {
        if let Some(m) = self.managers.get_mut(idx) {
            m.kill();
        }
    }

    /// Attach one more manager (Figure 7 recovery, elasticity growth).
    pub fn add_manager(&mut self) {
        let (agent_side, manager_side) = inproc_pair();
        let manager = Manager::spawn_with_sandbox(
            self.endpoint_config.clone(),
            Arc::clone(&self.clock),
            Serializer::default(),
            manager_side,
            self.warm_engine.clone(),
            self.sandbox.clone(),
        );
        self.agent().attach_manager(agent_side);
        self.managers.push(manager);
    }

    /// Sever the endpoint's link to the service (Figure 8 failure).
    pub fn disconnect_endpoint(&mut self) {
        self.agent().disconnect_forwarder();
        // The service-side forwarder notices on its own; drop our handle
        // once its loop exits so a later reconnect gets a fresh forwarder.
        if let Some(fwd) = self.forwarder.take() {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while fwd.is_running() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Reconnect the endpoint after [`disconnect_endpoint`]
    /// (Figure 8 recovery: new forwarder, re-registration).
    pub fn reconnect_endpoint(&mut self) {
        let (forwarder, channel) = self
            .service
            .connect_endpoint(self.endpoint_id, self.wan_latency)
            .expect("endpoint still registered");
        self.agent().reconnect(channel);
        self.forwarder = Some(forwarder);
    }

    /// Orderly teardown (managers → agent → forwarder).
    pub fn shutdown(&mut self) {
        for extra in &mut self.extra_endpoints {
            for m in &mut extra.managers {
                m.stop();
            }
            extra.agent.stop();
        }
        self.extra_endpoints.clear();
        for m in &mut self.managers {
            m.stop();
        }
        if let Some(mut agent) = self.agent.take() {
            agent.stop();
        }
        if let Some(mut fwd) = self.forwarder.take() {
            fwd.stop();
        }
    }
}

impl Drop for TestBed {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_container::PoolConfig;
    use funcx_lang::Value;

    #[test]
    fn testbed_runs_a_function_end_to_end() {
        let mut bed = TestBedBuilder::new().managers(2).workers_per_manager(2).build();
        let f = bed.client.register_function("def add(a, b):\n    return a + b\n", "add").unwrap();
        let task = bed
            .client
            .run(f, bed.endpoint_id, vec![Value::Int(2), Value::Int(40)], vec![])
            .unwrap();
        let out = bed.client.get_result(task, Duration::from_secs(20)).unwrap();
        assert_eq!(out, Value::Int(42));
        assert_eq!(bed.manager_count(), 2);
        bed.shutdown();
    }

    #[test]
    fn testbed_with_containers_charges_cold_start() {
        let mut bed =
            TestBedBuilder::new().speedup(100_000.0).containers(SystemProfile::Ec2).build();
        // Register an image and a function bound to it.
        let img = bed
            .service
            .register_image(&bed.token, "test/img:1", SystemProfile::Ec2.native_tech(), vec![])
            .unwrap();
        let f = bed
            .service
            .register_function(
                &bed.token,
                "f",
                "def f():\n    return 'in-container'\n",
                "f",
                Some(img),
                funcx_registry::Sharing::default(),
            )
            .unwrap();
        let t0 = bed.clock.now();
        let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
        let out = bed.client.get_result(task, Duration::from_secs(30)).unwrap();
        assert_eq!(out, Value::from("in-container"));
        let elapsed = bed.clock.now().saturating_duration_since(t0);
        assert!(
            elapsed >= Duration::from_secs(1),
            "EC2 Docker cold start (≥1.1s) charged, got {elapsed:?}"
        );
        assert_eq!(bed.runtime().unwrap().cold_start_count(), 1);
        bed.shutdown();
    }

    /// The warm-start tier counters ride the heartbeat into the registry
    /// and out the `/v1/metrics` scrape. A single worker alternating
    /// between two images must release image A when it switches to B, so
    /// coming back to A is a warm-tier hit the service side can see.
    #[test]
    fn warm_tiers_flow_heartbeat_to_registry_and_scrape() {
        let mut bed = TestBedBuilder::new()
            .speedup(100_000.0)
            .workers_per_manager(1)
            .containers(SystemProfile::Ec2)
            // Huge TTL so the sped-up clock cannot expire pooled
            // instances between tasks; prewarming off for exact counts.
            .warm_start(WarmStartConfig {
                pool: PoolConfig {
                    max_prewarm_per_tick: 0,
                    ..PoolConfig::with_ttl(Duration::from_secs(1_000_000))
                },
                ..WarmStartConfig::default()
            })
            .build();
        let mut fns = Vec::new();
        for name in ["a", "b"] {
            let img = bed
                .service
                .register_image(
                    &bed.token,
                    &format!("test/{name}:1"),
                    SystemProfile::Ec2.native_tech(),
                    vec![],
                )
                .unwrap();
            let f = bed
                .service
                .register_function(
                    &bed.token,
                    name,
                    &format!("def {name}():\n    return '{name}'\n"),
                    name,
                    Some(img),
                    funcx_registry::Sharing::default(),
                )
                .unwrap();
            fns.push(f);
        }
        // a (cold), b (cold, releases a), a again (warm hit).
        for f in [fns[0], fns[1], fns[0]] {
            let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
            bed.client.get_result(task, Duration::from_secs(30)).unwrap();
        }
        let engine = bed.warm_engine().expect("containers imply a warm engine");
        let stats = engine.stats();
        assert_eq!(stats.cold_misses, 2, "each image cold-starts once: {stats:?}");
        assert!(stats.warm_hits >= 1, "returning to image a reuses it: {stats:?}");

        // The next heartbeat carries those counters to the registry.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let report = loop {
            let record = bed.service.endpoints.get(bed.endpoint_id).unwrap();
            match record.last_report {
                Some(r) if r.warm_acquires() >= 3 => break r,
                _ => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "warm tiers never reached the registry: {:?}",
                        record.last_report
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        assert_eq!(report.cold_misses, 2);
        assert!(report.warm_hits >= 1);

        // And the scrape surface renders them with tier labels.
        let scrape = bed.service.render_metrics();
        let ep = bed.endpoint_id.to_string();
        assert!(
            scrape.contains(&format!(
                "funcx_warm_acquires_total{{endpoint=\"{ep}\",tier=\"cold\"}} 2"
            )),
            "{scrape}"
        );
        assert!(
            scrape
                .contains(&format!("funcx_warm_acquires_total{{endpoint=\"{ep}\",tier=\"warm\"}}")),
            "{scrape}"
        );
        bed.shutdown();
    }

    #[test]
    fn kill_and_replace_manager() {
        let mut bed = TestBedBuilder::new().managers(1).workers_per_manager(1).build();
        assert_eq!(bed.manager_count(), 1);
        bed.kill_manager(0);
        assert_eq!(bed.manager_count(), 0);
        bed.add_manager();
        assert_eq!(bed.manager_count(), 1);
        // Still functional after replacement.
        let f = bed.client.register_function("def f():\n    return 1\n", "f").unwrap();
        let task = bed.client.run(f, bed.endpoint_id, vec![], vec![]).unwrap();
        assert_eq!(bed.client.get_result(task, Duration::from_secs(20)).unwrap(), Value::Int(1));
        bed.shutdown();
    }
}
