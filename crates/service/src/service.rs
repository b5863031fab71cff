//! The funcX service core.
//!
//! Owns the registries (RDS substitute), the task store and per-endpoint
//! queues (Redis substitute), the memoization cache, and task lifecycle
//! records. The REST layer and the in-proc SDK both call these methods; the
//! per-endpoint forwarders consume the queues.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use funcx_auth::{AuthService, Scope};
use funcx_lang::Value;
use funcx_registry::{EndpointRegistry, FunctionRegistry, PoolRecord, PoolRegistry, Sharing};
use funcx_router::{EndpointSnapshot, HealthSnapshot, HealthState, Router};
use funcx_serial::{pack_buffer, CodecTag, Payload, Serializer};
use funcx_store::{QueueDrainCounts, QueueKind, Store};
use funcx_telemetry::{fx_log, Counter, Histogram, MetricsRegistry};
use funcx_tracing::TraceStore;
use funcx_types::ids::Uuid;
use funcx_types::task::{TaskOutcome, TaskRecord, TaskSpec, TaskState};
use funcx_types::time::{SharedClock, VirtualDuration, VirtualInstant};
use funcx_types::trace::{SpanContext, TraceId};
use funcx_types::{
    ContainerImageId, EndpointId, FunctionId, FuncxError, PoolId, Result, RouteTarget,
    RoutingPolicy, TaskId, UserId,
};
use funcx_wal::{DurableEvent, Wal, WalConfig, WalInstruments, WalState};
use parking_lot::Mutex;

use crate::config::ServiceConfig;
use crate::durability::RecoveryReport;
use crate::memo::MemoCache;
use crate::slo::SloEngine;
use crate::stats::StatsHub;
use crate::tasks::TaskStore;

/// One task submission (the unit of the batch API).
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Function to run.
    pub function_id: FunctionId,
    /// Where to run it: a concrete endpoint (the paper's contract) or a
    /// pool the service routes across.
    pub target: RouteTarget,
    /// Positional arguments.
    pub args: Vec<Value>,
    /// Keyword arguments.
    pub kwargs: Vec<(String, Value)>,
    /// Allow a memoized result (§4.7: off unless the user asks).
    pub allow_memo: bool,
}

/// One pool member's live routing view, as returned by
/// [`FuncxService::pool_status`]: registry load snapshot, health tier, and
/// circuit/failure counters.
pub type PoolMemberStatus = (EndpointSnapshot, HealthState, HealthSnapshot);

/// Pre-resolved handles for the task hot path — one registry lookup at
/// construction instead of one per task.
pub(crate) struct Instruments {
    /// Tasks accepted by submit/batch (memo hits included).
    pub tasks_submitted: Counter,
    /// Tasks shipped to an endpoint by a forwarder.
    pub tasks_dispatched: Counter,
    /// Results written into the store (success or failure).
    pub results_stored: Counter,
    /// Results that were failures.
    pub tasks_failed: Counter,
    /// Tasks returned to the queue after an agent was lost.
    pub tasks_requeued: Counter,
    /// Records purged one TTL after their result was last retrieved.
    pub tasks_purged: Counter,
    /// End-to-end latency (`received` → `result_stored`), Figure 4's total.
    pub task_latency: Histogram,
    /// Pure execution time (`tw`).
    pub task_exec: Histogram,
    /// Pool-routed tasks, one counter per policy (`RoutingPolicy::ALL`
    /// order; label `policy=<wire name>`).
    pub tasks_routed: [Counter; 4],
    /// Tasks moved to a healthy pool sibling after their endpoint died.
    pub tasks_rerouted: Counter,
    /// Circuit-breaker trips (counted once per open edge, not per failure).
    pub circuits_opened: Counter,
    /// Task-queue pushes refused by a closed queue (the task is failed in
    /// place, never silently dropped).
    pub enqueues_refused: Counter,
    /// Tasks still queued when a deregistered endpoint's queue was torn
    /// down.
    pub dereg_dropped_tasks: Counter,
    /// WAL appends that returned an I/O error (state kept serving from
    /// memory).
    pub wal_append_errors: Counter,
    /// Executions by negotiated runtime and outcome, counted from result
    /// frames (`funcx_sandbox_execs_total{runtime,outcome}`; outer index
    /// follows `Runtime::ALL`, inner is success/failure).
    pub runtime_execs: [[Counter; 2]; 2],
    /// Sandbox cap kills by cap label, counted from the `cap_kill` field
    /// of result frames (`funcx_sandbox_cap_kills_total{cap}`; index
    /// follows [`CAP_LABELS`]).
    pub cap_kills: [Counter; 5],
}

/// Cap labels a result frame may carry in `cap_kill`, in counter order.
pub(crate) const CAP_LABELS: [&str; 5] = ["fuel", "memory", "time", "output", "capability"];

impl Instruments {
    fn new(registry: &MetricsRegistry) -> Instruments {
        Instruments {
            tasks_submitted: registry.counter("funcx_tasks_submitted_total", &[]),
            tasks_dispatched: registry.counter("funcx_tasks_dispatched_total", &[]),
            results_stored: registry.counter("funcx_results_stored_total", &[]),
            tasks_failed: registry.counter("funcx_tasks_failed_total", &[]),
            tasks_requeued: registry.counter("funcx_tasks_requeued_total", &[]),
            tasks_purged: registry.counter("funcx_tasks_purged_total", &[]),
            task_latency: registry.histogram("funcx_task_latency_seconds", &[]),
            task_exec: registry.histogram("funcx_task_exec_seconds", &[]),
            tasks_routed: RoutingPolicy::ALL
                .map(|p| registry.counter("funcx_tasks_routed_total", &[("policy", p.as_str())])),
            tasks_rerouted: registry.counter("funcx_tasks_rerouted_total", &[]),
            circuits_opened: registry.counter("funcx_circuits_opened_total", &[]),
            enqueues_refused: registry.counter("funcx_queue_refusals_total", &[("kind", "task")]),
            dereg_dropped_tasks: registry.counter("funcx_dereg_dropped_total", &[("kind", "task")]),
            wal_append_errors: registry.counter("funcx_wal_append_errors_total", &[]),
            runtime_execs: funcx_types::Runtime::ALL.map(|r| {
                ["success", "failure"].map(|outcome| {
                    registry.counter(
                        "funcx_sandbox_execs_total",
                        &[("runtime", r.as_str()), ("outcome", outcome)],
                    )
                })
            }),
            cap_kills: CAP_LABELS
                .map(|cap| registry.counter("funcx_sandbox_cap_kills_total", &[("cap", cap)])),
        }
    }
}

/// The cloud-hosted funcX service.
pub struct FuncxService {
    pub(crate) clock: SharedClock,
    pub(crate) config: ServiceConfig,
    /// Globus Auth substitute.
    pub auth: Arc<AuthService>,
    /// Function registry.
    pub functions: FunctionRegistry,
    /// Endpoint registry.
    pub endpoints: EndpointRegistry,
    /// Endpoint pool registry (named groups the router picks members from).
    pub pools: PoolRegistry,
    /// Health-aware pool router (policies, liveness, circuit breakers).
    pub router: Router,
    /// Redis substitute (per-endpoint task queues; also a scratch KV).
    pub store: Arc<Store>,
    /// Container image registry (§4.2: functions may name a container
    /// image carrying their dependencies).
    pub images: funcx_container::ImageRegistry,
    /// Memoization cache.
    pub memo: MemoCache,
    /// Metrics registry backing the `/v1/metrics` scrape surface.
    pub metrics: Arc<MetricsRegistry>,
    /// Distributed-trace span store behind `/v1/traces` (tail-sampled).
    pub tracer: Arc<TraceStore>,
    /// Windowed per-function / per-endpoint / per-user stats tables.
    pub stats: Arc<StatsHub>,
    /// The configured SLO objectives (evaluated against `stats` on demand).
    pub slo: SloEngine,
    /// Virtual instant the service came up (drives `funcx_uptime_seconds`).
    pub(crate) started_at: VirtualInstant,
    pub(crate) instruments: Instruments,
    pub(crate) serializer: Serializer,
    /// Durable write-ahead log, when `config.wal_dir` names one.
    pub(crate) wal: Option<Arc<Wal>>,
    /// Per-user admission control, when `config.rate_limit_per_user` asks
    /// for it.
    pub(crate) limiter: Option<crate::ratelimit::RateLimiter>,
    /// Task lifecycle records (the Redis task hashset of §4.1), sharded
    /// so pollers, submitters, and forwarders contend per-shard, never on
    /// one global lock.
    pub(crate) tasks: TaskStore,
    /// Retrievals whose purge TTL is running, oldest first:
    /// `(retrieved_at, task)`. [`FuncxService::get_result`] pushes here
    /// and purges the expired heads, so §4.1's "purged once retrieved" runs
    /// at the rate results are fetched, with no thread and no table scan.
    pub(crate) retrievals: Mutex<VecDeque<(VirtualInstant, TaskId)>>,
}

impl FuncxService {
    /// Stand up a service on the given clock, recovering durable state if
    /// `config.wal_dir` names a log. Panics if the WAL cannot be opened —
    /// use [`FuncxService::recover`] to handle that (and to inspect what
    /// recovery found).
    pub fn new(clock: SharedClock, config: ServiceConfig) -> Arc<Self> {
        Self::recover(clock, config).expect("failed to open the write-ahead log").0
    }

    /// Stand up a service, replaying any durable state found under
    /// `config.wal_dir` (snapshot + surviving log suffix), then re-queueing
    /// dispatched-but-unacked tasks for at-least-once redelivery. With
    /// `wal_dir: None` this is `new` with an empty report.
    pub fn recover(
        clock: SharedClock,
        config: ServiceConfig,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        Self::recover_with_auth(clock, config, None)
    }

    /// [`FuncxService::recover`], but sharing an existing [`AuthService`]
    /// instead of minting a fresh one. Cluster instances share one auth
    /// plane (the paper's Globus Auth is external to the service), so a
    /// bearer token minted at any instance validates at every instance.
    pub fn recover_shared(
        clock: SharedClock,
        config: ServiceConfig,
        auth: Arc<AuthService>,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        Self::recover_with_auth(clock, config, Some(auth))
    }

    fn recover_with_auth(
        clock: SharedClock,
        config: ServiceConfig,
        shared_auth: Option<Arc<AuthService>>,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        let started = std::time::Instant::now();
        let metrics = MetricsRegistry::new(Arc::clone(&clock));
        let tracer = Arc::new(TraceStore::new(Arc::clone(&clock), config.trace_config()));
        funcx_telemetry::log::set_level(config.log_level);
        let instruments = Instruments::new(&metrics);
        let wal = match &config.wal_dir {
            Some(dir) => {
                let wal_config = WalConfig {
                    fsync: config.wal_fsync,
                    snapshot_every: config.snapshot_every,
                    ..WalConfig::new(dir.clone())
                };
                let wal_instruments = WalInstruments {
                    appends: metrics.counter("funcx_wal_appends_total", &[]),
                    fsyncs: metrics.counter("funcx_wal_fsyncs_total", &[]),
                    bytes_written: metrics.counter("funcx_wal_bytes_written_total", &[]),
                    checkpoints: metrics.counter("funcx_wal_checkpoints_total", &[]),
                    checkpoint_seconds: metrics.histogram("funcx_wal_checkpoint_seconds", &[]),
                    checkpoint_bytes: metrics.gauge("funcx_wal_checkpoint_bytes", &[]),
                    live_log_bytes: metrics.gauge("funcx_wal_live_log_bytes", &[]),
                };
                Some(Wal::recover(wal_config, wal_instruments)?)
            }
            None => None,
        };
        let stats = StatsHub::new(
            Arc::clone(&clock),
            &config,
            metrics.counter("funcx_stats_keys_dropped_total", &[]),
        );
        let service = Arc::new(FuncxService {
            auth: shared_auth.unwrap_or_else(|| AuthService::new(Arc::clone(&clock))),
            functions: FunctionRegistry::new(),
            endpoints: EndpointRegistry::new(),
            pools: PoolRegistry::new(),
            router: Router::new(config.router_config()),
            store: Store::new(Arc::clone(&clock)),
            images: funcx_container::ImageRegistry::new(),
            memo: MemoCache::with_metrics(config.memo_capacity, &metrics),
            metrics,
            tracer,
            stats,
            slo: SloEngine::new(config.slos.clone()),
            started_at: clock.now(),
            instruments,
            serializer: Serializer::default(),
            wal: wal.as_ref().map(|(wal, _)| Arc::clone(wal)),
            limiter: config
                .rate_limit_per_user
                .map(|rl| crate::ratelimit::RateLimiter::new(Arc::clone(&clock), rl)),
            tasks: TaskStore::new(crate::tasks::DEFAULT_SHARDS),
            retrievals: Mutex::new(VecDeque::new()),
            config,
            clock,
        });

        let mut report = RecoveryReport::default();
        if let Some((wal, state)) = wal {
            let info = wal.recovery_info();
            report.snapshot_loaded = info.snapshot_loaded;
            report.events_replayed = info.replayed;
            report.events_skipped = info.skipped;
            report.truncated_bytes = info.truncated_bytes;

            // Pour the state `Wal::recover` rebuilt (the one replay of this
            // restart) into the live components, then put back in its queue
            // whatever that state says is still owed.
            service.restore_state(&state, &mut report);
            service.enqueue_owed(&state, &mut report);

            report.duration = started.elapsed();
            service
                .metrics
                .counter("funcx_recovery_replayed_total", &[])
                .add(report.events_replayed);
            service
                .metrics
                .histogram("funcx_recovery_duration_seconds", &[])
                .record(report.duration);
            fx_log!(
                Info,
                "service",
                "recovered",
                replayed = report.events_replayed,
                tasks = report.tasks_restored,
                redelivered = report.unacked_redelivered,
                requeued = report.waiting_requeued,
                orphans_failed = report.orphans_failed
            );
        }
        Ok((service, report))
    }

    /// Pour a [`WalState`]'s records into the live components; queues are
    /// [`FuncxService::enqueue_owed`]'s business.
    fn restore_state(&self, state: &WalState, report: &mut RecoveryReport) {
        for record in state.endpoints.values() {
            self.endpoints.restore(record.clone());
            report.endpoints_restored += 1;
        }
        for record in state.functions.values() {
            self.functions.restore(record.clone());
            report.functions_restored += 1;
        }
        for (&key, &(codec, ref body)) in &state.memo {
            // Unknown codec bytes (format drift) drop the cache entry — a
            // memo miss, never an error.
            if let Ok(tag) = CodecTag::from_byte(codec) {
                self.memo.insert(key, tag, body.clone());
                report.memo_entries_restored += 1;
            }
        }
        for record in state.tasks.values() {
            self.tasks.insert(record.spec.task_id, record.clone());
            report.tasks_restored += 1;
        }
        // Results retrieved before the restart keep their purge deadline.
        let mut retrievals = self.retrievals.lock();
        retrievals.extend(
            state
                .tasks
                .values()
                .filter(|r| r.state.is_terminal())
                .filter_map(|r| Some((r.retrieved_at?, r.spec.task_id))),
        );
        retrievals.make_contiguous().sort_unstable();
    }

    /// Adopt another instance's shipped WAL state — partition failover.
    ///
    /// Unlike [`FuncxService::recover`] (which restores this service's
    /// *own* log), absorption happens on a *running* service: every adopted
    /// record is re-logged into our own WAL — tasks in the order they are
    /// owed, so our log derives the same queue — and the adopted partition
    /// survives a subsequent crash of this instance too. What the adopted
    /// state still owes is enqueued behind our own backlog, its
    /// dispatched-but-unacked tasks first: the zero-acked-task-loss half
    /// of the failover contract.
    pub fn absorb_state(&self, state: &WalState) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.wal_enabled() {
            for record in state.endpoints.values() {
                self.log_event(&DurableEvent::EndpointRegistered {
                    record: Box::new(record.clone()),
                });
            }
            for record in state.functions.values() {
                self.log_event(&DurableEvent::FunctionRegistered {
                    record: Box::new(record.clone()),
                });
            }
            for record in state.tasks_in_order() {
                self.log_event(&DurableEvent::TaskCreated { record: Box::new(record.clone()) });
            }
        }
        self.restore_state(state, &mut report);
        self.enqueue_owed(state, &mut report);
        fx_log!(
            Info,
            "service",
            "absorbed",
            tasks = report.tasks_restored,
            redelivered = report.unacked_redelivered,
            requeued = report.waiting_requeued,
            orphans_failed = report.orphans_failed
        );
        report
    }

    /// Enqueue what `state` says is still owed — the one rule recovery and
    /// absorption share. A task queue is its endpoint's non-terminal tasks
    /// in arrival order ([`WalState::owed`]), so pushing them back in that
    /// order redelivers FIFO with the unacked dispatches (necessarily the
    /// oldest) at the head; those are flipped back to waiting with a
    /// `TaskRequeued`, exactly as an agent loss would. A task owed by an
    /// endpoint the log deregistered can never run — that is a submit that
    /// raced the deregistration and died before it could fail the task — so
    /// it is failed with that reason rather than parked.
    ///
    /// There is no crash window to repair here: nothing but the task
    /// record says where a task is, so a crash between any two appends
    /// leaves a state this same pass enqueues correctly.
    fn enqueue_owed(&self, state: &WalState, report: &mut RecoveryReport) {
        for record in state.owed() {
            let (task_id, endpoint_id) = (record.spec.task_id, record.spec.endpoint_id);
            if state.deregistered.contains(&endpoint_id) {
                self.fail_task(task_id, Self::deregistered_reason(endpoint_id));
                report.orphans_failed += 1;
                continue;
            }
            match record.state {
                TaskState::DispatchedToEndpoint => {
                    self.tasks.with_record_mut(task_id, |live| {
                        if live.state == TaskState::DispatchedToEndpoint {
                            live.transition(TaskState::WaitingForEndpoint);
                        }
                    });
                    self.log_event(&DurableEvent::TaskRequeued { task_id, endpoint_id });
                    report.unacked_redelivered += 1;
                }
                TaskState::WaitingForEndpoint => report.waiting_requeued += 1,
                _ => continue, // never logged by the service; nothing to deliver
            }
            if !self
                .store
                .queue(endpoint_id, QueueKind::Task)
                .push_back(Self::task_id_to_queue_bytes(task_id))
            {
                self.fail_refused_enqueue(task_id, endpoint_id);
                continue;
            }
            self.reopen_recovered_trace(task_id, record.spec.span, record.timeline.received);
        }
    }

    fn deregistered_reason(endpoint_id: EndpointId) -> String {
        format!("endpoint {endpoint_id} was deregistered before the task was dispatched")
    }

    /// Re-root the distributed trace of a task that survived a restart: the
    /// span store is process-local, so the recovered trace gets its root
    /// span back (from the original `received` stamp) plus a `recovery`
    /// flag — flagged traces always survive tail sampling, keeping every
    /// crash-recovery path observable.
    fn reopen_recovered_trace(
        &self,
        task_id: TaskId,
        span: SpanContext,
        received: Option<VirtualInstant>,
    ) {
        if !span.is_active() {
            return;
        }
        self.tracer.begin_at(
            &span,
            "task",
            received.unwrap_or(VirtualInstant::ZERO),
            vec![("task_id", task_id.to_string())],
        );
        self.tracer.flag(span.trace_id, "recovery");
        let at = self.clock.now();
        self.tracer.record(&span.child(), "recovery_replay", at, at, vec![]);
    }

    /// Append a lifecycle event to the WAL, if one is configured. Append
    /// failures are counted, never propagated: the state has already
    /// changed in memory, so the only honest response to a failing disk is
    /// to keep serving and let `funcx_wal_append_errors_total` climb.
    pub(crate) fn log_event(&self, event: &DurableEvent) {
        if let Some(wal) = &self.wal {
            if wal.append(event).is_err() {
                self.instruments.wal_append_errors.inc();
            }
        }
    }

    /// True when a WAL is configured (used to skip clone-for-logging work
    /// on the hot path when durability is off).
    pub(crate) fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// The service clock (components of a deployment share it).
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// The serialization facade.
    pub fn serializer(&self) -> &Serializer {
        &self.serializer
    }

    pub(crate) fn charge_auth(&self) {
        self.clock.sleep(self.config.auth_cost);
    }

    fn charge_store(&self) {
        self.clock.sleep(self.config.store_cost);
    }

    // ---- registration ----------------------------------------------------

    /// Register a container image (§4.2). `modules` lists the FxScript
    /// modules baked into the image beyond the always-present base runtime
    /// — the analogue of the Python dependencies a repo2docker build
    /// installs.
    pub fn register_image(
        &self,
        bearer: &str,
        name: &str,
        tech: funcx_container::ContainerTech,
        modules: Vec<String>,
    ) -> Result<ContainerImageId> {
        self.charge_auth();
        let _user = self.auth.authorize(bearer, Scope::RegisterFunction)?;
        self.charge_store();
        Ok(self.images.register(name, tech, modules))
    }

    /// Register a function (§3): validates the source *at registration*
    /// so dispatch never ships an unparsable body, and — when a container
    /// is named — checks that the image carries every module the function
    /// imports ("The function body must specify all imported modules").
    pub fn register_function(
        &self,
        bearer: &str,
        name: &str,
        source: &str,
        entry: &str,
        container: Option<ContainerImageId>,
        sharing: Sharing,
    ) -> Result<FunctionId> {
        self.register_function_with(
            bearer,
            name,
            source,
            entry,
            container,
            sharing,
            funcx_types::FunctionOptions::default(),
        )
    }

    /// Register a function with explicit execution options: the negotiated
    /// runtime, per-function resource caps, capability grants, and an
    /// optional persistent session name (sandbox runtime).
    #[allow(clippy::too_many_arguments)]
    pub fn register_function_with(
        &self,
        bearer: &str,
        name: &str,
        source: &str,
        entry: &str,
        container: Option<ContainerImageId>,
        sharing: Sharing,
        options: funcx_types::FunctionOptions,
    ) -> Result<FunctionId> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterFunction)?;
        // Sessions and capability grants are sandbox concepts; registering
        // them against the classic interpreter would silently do nothing,
        // so fail closed at registration instead.
        if options.runtime != funcx_types::Runtime::Sandbox
            && (options.session.is_some() || !options.capabilities.is_empty())
        {
            return Err(FuncxError::BadRequest(format!(
                "sessions and capabilities require the sandbox runtime, not '{}'",
                options.runtime
            )));
        }
        let program = funcx_lang::parse(source)
            .map_err(|e| FuncxError::BadRequest(format!("function body invalid: {e}")))?;
        if program.find_def(entry).is_none() {
            return Err(FuncxError::BadRequest(format!(
                "source does not define function '{entry}'"
            )));
        }
        if let Some(image_id) = container {
            let image = self.images.get(image_id).ok_or_else(|| {
                FuncxError::BadRequest(format!("container image {image_id} is not registered"))
            })?;
            // Base modules ship in every worker environment (§4.2); images
            // only need to carry anything beyond that set.
            let extra: Vec<String> = program
                .imports
                .iter()
                .filter(|m| !funcx_lang::interp::base_modules().contains(&m.as_str()))
                .cloned()
                .collect();
            if !image.supports_imports(&extra) {
                let missing: Vec<&str> = extra
                    .iter()
                    .filter(|m| !image.modules.iter().any(|have| have == *m))
                    .map(String::as_str)
                    .collect();
                return Err(FuncxError::BadRequest(format!(
                    "image '{}' lacks module(s) required by the function: {}",
                    image.name,
                    missing.join(", ")
                )));
            }
        }
        self.charge_store();
        let function_id = self.functions.register_with(
            user,
            name,
            source,
            entry,
            container,
            sharing,
            options,
            self.clock.now(),
        );
        if self.wal_enabled() {
            if let Ok(record) = self.functions.get(function_id) {
                self.log_event(&DurableEvent::FunctionRegistered { record: Box::new(record) });
            }
        }
        Ok(function_id)
    }

    /// Update a function the caller owns.
    pub fn update_function(
        &self,
        bearer: &str,
        function_id: FunctionId,
        source: Option<&str>,
        entry: Option<&str>,
    ) -> Result<u32> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterFunction)?;
        if let Some(src) = source {
            let entry_name = match entry {
                Some(e) => e.to_string(),
                None => self.functions.get(function_id)?.entry,
            };
            funcx_lang::validate_function(src, &entry_name)
                .map_err(|e| FuncxError::BadRequest(format!("function body invalid: {e}")))?;
        }
        self.charge_store();
        let version = self.functions.update(function_id, user, source, entry, None, None)?;
        if self.wal_enabled() {
            if let Ok(record) = self.functions.get(function_id) {
                // Re-logged wholesale: replay replaces the old registration.
                self.log_event(&DurableEvent::FunctionRegistered { record: Box::new(record) });
            }
        }
        Ok(version)
    }

    /// Register an endpoint (§3) advertising every runtime.
    pub fn register_endpoint(
        &self,
        bearer: &str,
        name: &str,
        description: &str,
        public: bool,
    ) -> Result<EndpointId> {
        self.register_endpoint_with(bearer, name, description, public, Vec::new())
    }

    /// Register an endpoint advertising an explicit runtime set; an empty
    /// set means "advertise everything" (the classic default). The service
    /// refuses at submit time to route a function to an endpoint that does
    /// not advertise its runtime.
    pub fn register_endpoint_with(
        &self,
        bearer: &str,
        name: &str,
        description: &str,
        public: bool,
        runtimes: Vec<funcx_types::Runtime>,
    ) -> Result<EndpointId> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterEndpoint)?;
        self.charge_store();
        let endpoint_id = if runtimes.is_empty() {
            self.endpoints.register(user, name, description, public, self.clock.now())
        } else {
            self.endpoints.register_with(
                user,
                name,
                description,
                public,
                runtimes,
                self.clock.now(),
            )
        };
        if self.wal_enabled() {
            if let Ok(record) = self.endpoints.get(endpoint_id) {
                self.log_event(&DurableEvent::EndpointRegistered { record: Box::new(record) });
            }
        }
        Ok(endpoint_id)
    }

    /// Deregister an endpoint the caller owns: fail whatever tasks were
    /// still queued for it (they can never run there now), tear down and
    /// close its queue, and remove the registry record. The WAL records the
    /// deregistration, so a recovered service fails whatever a racing
    /// submit still left owed there instead of queueing it again. Returns
    /// what the teardown found still buffered.
    pub fn deregister_endpoint(
        &self,
        bearer: &str,
        endpoint_id: EndpointId,
    ) -> Result<QueueDrainCounts> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterEndpoint)?;
        let record = self.endpoints.get(endpoint_id)?;
        if record.owner != user {
            return Err(FuncxError::Forbidden(format!(
                "user {user} does not own endpoint {endpoint_id}"
            )));
        }
        self.charge_store();
        // Fail the queued backlog first so every stranded task carries a
        // reason instead of waiting forever on a queue about to vanish.
        let backlog: Vec<TaskId> = self
            .store
            .queue(endpoint_id, QueueKind::Task)
            .drain(usize::MAX)
            .iter()
            .filter_map(|raw| Self::queue_bytes_to_task_id(raw))
            .collect();
        let failed = backlog.len();
        for task_id in backlog {
            self.fail_task(task_id, Self::deregistered_reason(endpoint_id));
        }
        let mut counts = self.store.remove_endpoint_queues(endpoint_id);
        counts.tasks_dropped += failed;
        self.instruments.dereg_dropped_tasks.add(counts.tasks_dropped as u64);
        self.endpoints.deregister(endpoint_id)?;
        self.log_event(&DurableEvent::EndpointDeregistered { endpoint_id });
        fx_log!(
            Info,
            "service",
            "endpoint deregistered",
            endpoint_id = endpoint_id,
            tasks_dropped = counts.tasks_dropped
        );
        Ok(counts)
    }

    // ---- submission -------------------------------------------------------

    /// Submit one task. Figure 3 steps 1–3: authenticate, store the record,
    /// append to the endpoint's task queue.
    pub fn submit(&self, bearer: &str, request: SubmitRequest) -> Result<TaskId> {
        // `received` is stamped before authentication: Figure 4's `ts`
        // component explicitly includes the auth work ("Most funcX overhead
        // is captured in ts as a result of authentication").
        let received = self.clock.now();
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RunFunction)?;
        let authed = self.clock.now();
        let mut ids = self.submit_authorized(user, vec![request], received, authed)?;
        Ok(ids.pop().expect("one request, one id"))
    }

    /// Submit many tasks under one authentication — the server side of the
    /// user-driven `map`/batch optimization (§4.7): "creating fewer, larger
    /// requests" amortizes the per-request auth cost.
    pub fn submit_batch(&self, bearer: &str, requests: Vec<SubmitRequest>) -> Result<Vec<TaskId>> {
        let received = self.clock.now();
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RunFunction)?;
        let authed = self.clock.now();
        self.submit_authorized(user, requests, received, authed)
    }

    fn submit_authorized(
        &self,
        user: UserId,
        requests: Vec<SubmitRequest>,
        received: VirtualInstant,
        authed: VirtualInstant,
    ) -> Result<Vec<TaskId>> {
        let mut ids = Vec::with_capacity(requests.len());
        for request in requests {
            ids.push(self.submit_one(user, request, received, authed)?);
        }
        Ok(ids)
    }

    fn submit_one(
        &self,
        user: UserId,
        request: SubmitRequest,
        received: VirtualInstant,
        authed: VirtualInstant,
    ) -> Result<TaskId> {
        let function = self.functions.get(request.function_id)?;
        if !function.may_invoke(user, |groups| self.auth.in_any_group(user, groups)) {
            return Err(FuncxError::Forbidden(format!(
                "function {} is not shared with user {user}",
                request.function_id
            )));
        }
        // Mint the trace before anything task-shaped happens: the trace id
        // IS the task uuid, so the packed-buffer routing header carries
        // trace identity across every hop of the fabric for free. All spans
        // are buffered; the keep/drop decision is tail-based, at complete().
        let task_id = TaskId::random();
        let trace_id = TraceId(task_id.uuid().as_u128());
        let root = SpanContext::root(trace_id, self.tracer.head_sampled(trace_id));
        let service_ctx = root.child();
        self.tracer.begin_at(
            &root,
            "task",
            received,
            vec![
                ("task_id", task_id.to_string()),
                ("function_id", request.function_id.to_string()),
            ],
        );
        // The auth interval is shared by every element of a batch — the
        // span tree makes the §4.7 batch amortization visible.
        self.tracer.record(&service_ctx.child(), "auth", received, authed, vec![]);
        match self.submit_resolved(user, request, &function, task_id, root, service_ctx, received) {
            Ok(task_id) => Ok(task_id),
            Err(e) => {
                let now = self.clock.now();
                self.tracer.record(
                    &service_ctx,
                    "service",
                    received,
                    now,
                    vec![("error", e.to_string())],
                );
                self.tracer.flag(trace_id, "error");
                self.tracer.complete(trace_id, now);
                Err(e)
            }
        }
    }

    /// The post-mint half of one submission: route, serialize, memo-check,
    /// persist, enqueue — each a child span under this task's `service`
    /// span.
    #[allow(clippy::too_many_arguments)]
    fn submit_resolved(
        &self,
        user: UserId,
        request: SubmitRequest,
        function: &funcx_registry::FunctionRecord,
        task_id: TaskId,
        root: SpanContext,
        service_ctx: SpanContext,
        received: VirtualInstant,
    ) -> Result<TaskId> {
        // Resolve the target to a concrete endpoint. A pinned endpoint is
        // checked against its own sharing policy; a pool is checked against
        // the *pool's* sharing (its owner vetted the members at creation),
        // then the router picks a live member.
        let route_start = self.clock.now();
        let (endpoint_id, pool, policy) = match request.target {
            RouteTarget::Endpoint(endpoint_id) => {
                let endpoint = self.endpoints.get(endpoint_id)?;
                if !endpoint.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
                    return Err(FuncxError::Forbidden(format!(
                        "endpoint {endpoint_id} is not shared with user {user}"
                    )));
                }
                // Runtime negotiation: refuse here, at submit, rather than
                // dispatching a task the endpoint can never execute.
                if !endpoint.supports(function.options.runtime) {
                    return Err(FuncxError::BadRequest(format!(
                        "endpoint {endpoint_id} does not support runtime '{}' \
                         (advertises: {})",
                        function.options.runtime,
                        endpoint.runtimes.iter().map(|r| r.as_str()).collect::<Vec<_>>().join(", ")
                    )));
                }
                (endpoint_id, None, "pinned")
            }
            RouteTarget::Pool(pool_id) => {
                let pool = self.pools.get(pool_id)?;
                if !pool.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
                    return Err(FuncxError::Forbidden(format!(
                        "pool {pool_id} is not shared with user {user}"
                    )));
                }
                let endpoint_id = self.route_in_pool(&pool, request.function_id)?;
                (endpoint_id, Some(pool_id), pool.policy.as_str())
            }
        };
        self.tracer.record(
            &service_ctx.child(),
            "route",
            route_start,
            self.clock.now(),
            vec![
                ("endpoint_id", endpoint_id.to_string()),
                ("pool", pool.map_or_else(|| "none".to_string(), |p| p.to_string())),
                ("policy", policy.to_string()),
            ],
        );

        // Serialize the input document once; the same bytes feed the memo
        // key and (packed with the task's routing tag) the dispatch payload.
        let serialize_start = self.clock.now();
        let doc = Value::Dict(vec![
            ("args".into(), Value::List(request.args)),
            ("kwargs".into(), Value::Dict(request.kwargs)),
        ]);
        let (codec, doc_body) = self.serializer.serialize(&Payload::Document(doc))?;
        if doc_body.len() > self.config.payload_limit {
            return Err(FuncxError::PayloadTooLarge {
                size: doc_body.len(),
                limit: self.config.payload_limit,
            });
        }
        self.tracer.record(
            &service_ctx.child(),
            "serialize",
            serialize_start,
            self.clock.now(),
            vec![("bytes", doc_body.len().to_string())],
        );

        let payload = pack_buffer(task_id.uuid(), codec, &doc_body);
        let spec = TaskSpec {
            task_id,
            function_id: request.function_id,
            endpoint_id,
            user_id: user,
            payload,
            container: function.container,
            allow_memo: request.allow_memo,
            pool,
            span: root,
            runtime: function.options.runtime,
        };
        let mut record = TaskRecord::new(spec, received);
        self.instruments.tasks_submitted.inc();
        self.stats.on_submit(record.spec.function_id, endpoint_id, user);

        // Memoization short-circuit (§4.7): a hit never leaves the service.
        // The cache stores unpacked bodies; `get_packed` repacks with THIS
        // task's uuid, so the routing header never names the originating task.
        if request.allow_memo {
            let memo_start = self.clock.now();
            let key = MemoCache::key(&function.source, &doc_body);
            let cached = self.memo.get_packed(key, task_id);
            self.tracer.record(
                &service_ctx.child(),
                "memo",
                memo_start,
                self.clock.now(),
                vec![("hit", cached.is_some().to_string())],
            );
            if let Some(cached) = cached {
                self.charge_store();
                record.transition(TaskState::WaitingForEndpoint);
                record.transition(TaskState::DispatchedToEndpoint);
                record.transition(TaskState::WaitingForLaunch);
                record.transition(TaskState::Running);
                record.transition(TaskState::Success);
                record.outcome = Some(TaskOutcome::Success(cached));
                let now = self.clock.now();
                record.timeline.queued_at_service = Some(now);
                record.timeline.result_stored = Some(now);
                if let Some(total) = record.timeline.total() {
                    self.instruments.task_latency.record(total);
                }
                self.stats.on_memo_hit(
                    record.spec.function_id,
                    endpoint_id,
                    user,
                    &record.timeline,
                );
                if self.wal_enabled() {
                    // Logged terminal: recovery serves the cached result.
                    let wal_start = self.clock.now();
                    self.log_event(&DurableEvent::TaskCreated { record: Box::new(record.clone()) });
                    self.record_wal_span(&service_ctx, wal_start, "task_created");
                }
                self.tasks.insert(task_id, record);
                let done = self.clock.now();
                self.tracer.record(
                    &service_ctx,
                    "service",
                    received,
                    done,
                    vec![("memo", "hit".to_string())],
                );
                self.tracer.complete(root.trace_id, done);
                return Ok(task_id);
            }
        }

        self.charge_store();
        record.transition(TaskState::WaitingForEndpoint);
        let queued = self.clock.now();
        record.timeline.queued_at_service = Some(queued);
        // The record is the task's place in line: logged waiting, it is in
        // the queue any recovery derives, whether or not the push below
        // happened before a crash.
        if self.wal_enabled() {
            let wal_start = self.clock.now();
            self.log_event(&DurableEvent::TaskCreated { record: Box::new(record.clone()) });
            self.record_wal_span(&service_ctx, wal_start, "task_created");
        }
        self.tasks.insert(task_id, record);
        // `ts` proper: the service span ends when the task hits its queue.
        self.tracer.record(&service_ctx, "service", received, queued, vec![]);
        let accepted = self
            .store
            .queue(endpoint_id, QueueKind::Task)
            .push_back(Bytes::copy_from_slice(&task_id.uuid().as_u128().to_be_bytes()));
        if !accepted {
            // The queue closed under us (endpoint deregistration racing the
            // submit). Failing the task keeps the outcome visible through
            // get_result instead of leaving it waiting forever.
            self.fail_refused_enqueue(task_id, endpoint_id);
        }
        Ok(task_id)
    }

    /// Child span for one WAL append under `parent`, tagged with the fsync
    /// class group commit analysis needs.
    fn record_wal_span(&self, parent: &SpanContext, start: VirtualInstant, event: &'static str) {
        self.tracer.record(
            &parent.child(),
            "wal_append",
            start,
            self.clock.now(),
            vec![
                ("event", event.to_string()),
                ("fsync", self.config.wal_fsync.label().to_string()),
            ],
        );
    }

    /// A task queue refused a push (closed by deregistration): fail the
    /// task in place with a traceback-style error rather than dropping it.
    pub(crate) fn fail_refused_enqueue(&self, task_id: TaskId, endpoint_id: EndpointId) {
        self.instruments.enqueues_refused.inc();
        self.fail_task(
            task_id,
            format!(
                "Traceback (most recent call last):\n  funcx.service: enqueue to endpoint \
                 {endpoint_id} refused (queue closed)\nTaskRefused: task was never delivered"
            ),
        );
    }

    /// Drive a non-terminal task to `Failed` with `error`, logging the
    /// terminal event. No-op if the task is already terminal or unknown.
    pub(crate) fn fail_task(&self, task_id: TaskId, error: String) {
        let applied = self
            .tasks
            .with_record_mut(task_id, |record| {
                if !record.state.can_transition_to(TaskState::Failed) {
                    return None; // terminal already, or never left Received
                }
                record.transition(TaskState::Failed);
                record.outcome = Some(TaskOutcome::Failure(error.clone()));
                Some((
                    record.spec.function_id,
                    record.spec.endpoint_id,
                    record.spec.user_id,
                    record.timeline,
                ))
            })
            .flatten();
        if let Some((function_id, endpoint_id, user_id, timeline)) = applied {
            self.stats.on_result(function_id, endpoint_id, user_id, &timeline, false);
            self.log_event(&DurableEvent::TaskFailed { task_id, error: error.clone() });
            self.instruments.tasks_failed.inc();
            fx_log!(Warn, "service", "task failed", task_id = task_id, error = error);
            // Error traces always survive tail sampling.
            let trace_id = TraceId(task_id.uuid().as_u128());
            self.tracer.flag(trace_id, "error");
            self.tracer.complete(trace_id, self.clock.now());
        }
    }

    /// Batch submission with per-element failure semantics: one bad element
    /// (unknown function, unshared endpoint, oversized payload, dead pool)
    /// yields an error entry at its index instead of rejecting the whole
    /// batch. Only authentication failures reject outright — without an
    /// identity nothing can be accepted.
    pub fn submit_batch_partial(
        &self,
        bearer: &str,
        requests: Vec<SubmitRequest>,
    ) -> Result<Vec<Result<TaskId>>> {
        let received = self.clock.now();
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RunFunction)?;
        let authed = self.clock.now();
        Ok(requests
            .into_iter()
            .map(|request| self.submit_one(user, request, received, authed))
            .collect())
    }

    // ---- pools & routing ---------------------------------------------------

    /// Create an endpoint pool. Every member must exist and be usable by
    /// the creator — the pool's sharing policy then speaks for its members.
    pub fn create_pool(
        &self,
        bearer: &str,
        name: &str,
        description: &str,
        members: Vec<EndpointId>,
        policy: RoutingPolicy,
        public: bool,
    ) -> Result<PoolId> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterEndpoint)?;
        for &member in &members {
            let endpoint = self.endpoints.get(member)?;
            if !endpoint.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
                return Err(FuncxError::Forbidden(format!(
                    "endpoint {member} is not shared with user {user}"
                )));
            }
        }
        self.charge_store();
        let pool_id = self.pools.create(
            user,
            name,
            description,
            members,
            policy,
            public,
            self.clock.now(),
        )?;
        fx_log!(Info, "service", "pool created", pool_id = pool_id, name = name);
        Ok(pool_id)
    }

    /// Update a pool's members and/or policy (owner only). New members are
    /// vetted exactly like at creation.
    pub fn update_pool(
        &self,
        bearer: &str,
        pool_id: PoolId,
        members: Option<Vec<EndpointId>>,
        policy: Option<RoutingPolicy>,
    ) -> Result<()> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterEndpoint)?;
        self.charge_store();
        if let Some(members) = members {
            for &member in &members {
                let endpoint = self.endpoints.get(member)?;
                if !endpoint.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
                    return Err(FuncxError::Forbidden(format!(
                        "endpoint {member} is not shared with user {user}"
                    )));
                }
            }
            self.pools.set_members(pool_id, user, members)?;
        }
        if let Some(policy) = policy {
            self.pools.set_policy(pool_id, user, policy)?;
        }
        Ok(())
    }

    /// Delete a pool (owner only). Tasks already routed keep their endpoint.
    pub fn delete_pool(&self, bearer: &str, pool_id: PoolId) -> Result<()> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::RegisterEndpoint)?;
        self.charge_store();
        self.pools.delete(pool_id, user)?;
        self.router.forget_pool(pool_id);
        fx_log!(Info, "service", "pool deleted", pool_id = pool_id);
        Ok(())
    }

    /// Pools the caller may target.
    pub fn list_pools(&self, bearer: &str) -> Result<Vec<PoolRecord>> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        Ok(self.pools.visible_to(user, |groups| self.auth.in_any_group(user, groups)))
    }

    /// A pool's record plus each member's live routing view: load snapshot,
    /// health tier, and circuit state. Backs `GET /v1/pools/<id>/status`.
    pub fn pool_status(
        &self,
        bearer: &str,
        pool_id: PoolId,
    ) -> Result<(PoolRecord, Vec<PoolMemberStatus>)> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        let pool = self.pools.get(pool_id)?;
        if !pool.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
            return Err(FuncxError::Forbidden(format!(
                "pool {pool_id} is not shared with user {user}"
            )));
        }
        let now = self.clock.now();
        let members = pool
            .members
            .iter()
            .filter_map(|&ep| self.endpoint_snapshot(ep, now))
            .map(|snap| {
                let state = self.router.classify(&snap, now);
                let health = self.router.health().snapshot(snap.endpoint_id, now);
                (snap, state, health)
            })
            .collect();
        Ok((pool, members))
    }

    /// Virtual age of an endpoint's last stats report (`None` before the
    /// first). The router's staleness gate and the REST `report_age_ms`
    /// field both read this.
    pub fn report_age(&self, record: &funcx_registry::EndpointRecord) -> Option<VirtualDuration> {
        record.last_heartbeat.map(|at| self.clock.now().saturating_duration_since(at))
    }

    /// The router's view of one endpoint right now: registry status, report
    /// age, and load (heartbeat report plus the service-side queue depth,
    /// which updates synchronously with every submit).
    fn endpoint_snapshot(
        &self,
        endpoint_id: EndpointId,
        now: VirtualInstant,
    ) -> Option<EndpointSnapshot> {
        let record = self.endpoints.get(endpoint_id).ok()?;
        let report = record.last_report.unwrap_or_default();
        Some(EndpointSnapshot {
            endpoint_id,
            online: record.status == funcx_registry::EndpointStatus::Online,
            ever_connected: record.generation > 0,
            report_age: record.last_heartbeat.map(|at| now.saturating_duration_since(at)),
            queued: self.store.queue_len(endpoint_id, QueueKind::Task),
            pending: report.pending as usize,
            outstanding: report.outstanding as usize,
            idle_slots: report.idle_slots as usize,
        })
    }

    /// Pick a live member of `pool` for one task, bumping the per-policy
    /// route counter.
    fn route_in_pool(&self, pool: &PoolRecord, function_id: FunctionId) -> Result<EndpointId> {
        let now = self.clock.now();
        // Runtime negotiation: only members advertising the function's
        // runtime are candidates, so a mixed pool routes sandbox functions
        // around interpreter-only endpoints instead of stranding them.
        let runtime = self
            .functions
            .get(function_id)
            .map(|f| f.options.runtime)
            .unwrap_or(funcx_types::Runtime::FxScript);
        let mut snapshots: Vec<EndpointSnapshot> = pool
            .members
            .iter()
            .filter(|&&ep| self.endpoints.get(ep).map(|r| r.supports(runtime)).unwrap_or(false))
            .filter_map(|&ep| self.endpoint_snapshot(ep, now))
            .collect();
        let chosen = self
            .router
            .route(pool.pool_id, pool.policy, function_id, &mut snapshots, now)
            .ok_or_else(|| {
                FuncxError::NoHealthyEndpoint(format!(
                    "pool {} has no routable member supporting runtime '{runtime}'",
                    pool.pool_id
                ))
            })?;
        self.instruments.tasks_routed[pool.policy.index()].inc();
        Ok(chosen)
    }

    /// Failover on endpoint loss: mark the endpoint offline, trip its
    /// circuit, then move its work — the forwarder's outstanding tasks plus
    /// the queue backlog, in FIFO order — either to a healthy pool sibling
    /// (pool-routed tasks) or back onto the dead endpoint's queue for
    /// redelivery on reconnect (pinned tasks, §4.1). Returns
    /// `(requeued, rerouted)`.
    pub(crate) fn handle_endpoint_loss(
        &self,
        endpoint_id: EndpointId,
        outstanding: Vec<TaskId>,
    ) -> (usize, usize) {
        let now = self.clock.now();
        let _ = self.endpoints.mark_offline(endpoint_id);
        if self.router.health().trip(endpoint_id, now) {
            self.instruments.circuits_opened.inc();
            fx_log!(Warn, "service", "circuit opened", endpoint_id = endpoint_id);
        }

        // Everything this endpoint still owed, in FIFO order: dispatched
        // work first (it was sent earliest), then the undispatched backlog.
        let queue = self.store.queue(endpoint_id, QueueKind::Task);
        let mut tasks = outstanding;
        for raw in queue.drain(usize::MAX) {
            if let Some(task_id) = Self::queue_bytes_to_task_id(&raw) {
                tasks.push(task_id);
            }
        }

        let (mut requeued, mut rerouted) = (0, 0);
        for task_id in tasks {
            // Per-task write section: skip finished work, return the rest
            // to WaitingForEndpoint, and learn its pool (if any).
            let Some((original, function_id, pool_id, span)) = self
                .tasks
                .with_record_mut(task_id, |record| {
                    if record.state.is_terminal() {
                        return None;
                    }
                    if record.state == TaskState::DispatchedToEndpoint {
                        record.transition(TaskState::WaitingForEndpoint);
                    }
                    Some((
                        record.spec.endpoint_id,
                        record.spec.function_id,
                        record.spec.pool,
                        record.spec.span,
                    ))
                })
                .flatten()
            else {
                continue;
            };
            // A failover trace always survives tail sampling.
            if span.is_active() {
                self.tracer.flag(span.trace_id, "failover");
            }

            // Pool-routed tasks try a healthy sibling; everything else (and
            // pools with no live member) waits for the original endpoint.
            let rehomed = pool_id
                .and_then(|pid| self.pools.get(pid).ok())
                .and_then(|pool| self.route_in_pool(&pool, function_id).ok())
                .filter(|&new_ep| new_ep != original);
            match rehomed {
                Some(new_ep) => {
                    self.tasks.with_record_mut(task_id, |record| {
                        record.spec.endpoint_id = new_ep;
                    });
                    self.log_event(&DurableEvent::TaskRequeued { task_id, endpoint_id: new_ep });
                    if !self
                        .store
                        .queue(new_ep, QueueKind::Task)
                        .push_back(Self::task_id_to_queue_bytes(task_id))
                    {
                        self.fail_refused_enqueue(task_id, new_ep);
                        continue;
                    }
                    self.instruments.tasks_rerouted.inc();
                    fx_log!(
                        Warn,
                        "service",
                        "task rerouted after endpoint loss",
                        task_id = task_id,
                        from = endpoint_id,
                        to = new_ep
                    );
                    if span.is_active() {
                        let at = self.clock.now();
                        self.tracer.record(
                            &span.child(),
                            "reroute",
                            at,
                            at,
                            vec![("from", endpoint_id.to_string()), ("to", new_ep.to_string())],
                        );
                    }
                    rerouted += 1;
                }
                None => {
                    self.log_event(&DurableEvent::TaskRequeued { task_id, endpoint_id: original });
                    if !queue.push_back(Self::task_id_to_queue_bytes(task_id)) {
                        self.fail_refused_enqueue(task_id, original);
                        continue;
                    }
                    if span.is_active() {
                        let at = self.clock.now();
                        self.tracer.record(
                            &span.child(),
                            "requeue",
                            at,
                            at,
                            vec![("endpoint_id", original.to_string())],
                        );
                    }
                    requeued += 1;
                }
            }
        }
        (requeued, rerouted)
    }

    // ---- monitoring / results ----------------------------------------------

    /// Current lifecycle state of a task (owner only).
    pub fn status(&self, bearer: &str, task_id: TaskId) -> Result<TaskState> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        let (owner, state) = self
            .tasks
            .read_record(task_id, |r| (r.spec.user_id, r.state))
            .ok_or_else(|| FuncxError::TaskNotFound(task_id.to_string()))?;
        if owner != user {
            return Err(FuncxError::Forbidden("not the submitting user".into()));
        }
        Ok(state)
    }

    /// Fetch a task's outcome once terminal; `Ok(None)` while still in
    /// flight. Figure 3 step 6. A successful retrieval (re-)arms the
    /// record's purge TTL — un-retrieved results are never purged.
    pub fn get_result(&self, bearer: &str, task_id: TaskId) -> Result<Option<TaskOutcome>> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        self.charge_store();
        let now = self.clock.now();
        let outcome = self
            .tasks
            .with_record_mut(task_id, |record| {
                if record.spec.user_id != user {
                    return Err(FuncxError::Forbidden("not the submitting user".into()));
                }
                if record.outcome.is_some() {
                    record.retrieved_at = Some(now);
                }
                Ok(record.outcome.clone())
            })
            .ok_or_else(|| FuncxError::TaskNotFound(task_id.to_string()))?;
        if matches!(outcome, Ok(Some(_))) {
            // Durable retrieval stamp: arms the purge TTL across restarts.
            self.log_event(&DurableEvent::ResultRetrieved { task_id, at_nanos: now.as_nanos() });
            self.retrievals.lock().push_back((now, task_id));
            self.purge_expired(now);
        }
        outcome
    }

    /// Purge at most two records whose retrieval TTL has run out — two per
    /// retrieval pushed, so the queue drains faster than it fills and no
    /// caller pays for a backlog. A stamp a later retrieval has replaced
    /// (the TTL was re-armed) or whose record is already gone pops as a
    /// no-op.
    fn purge_expired(&self, now: VirtualInstant) {
        let ttl = self.config.retrieved_result_ttl;
        for _ in 0..2 {
            let (stamp, task_id) = {
                let mut retrievals = self.retrievals.lock();
                match retrievals.front() {
                    Some(&(at, _)) if now.saturating_duration_since(at) >= ttl => {
                        retrievals.pop_front().expect("front was just seen")
                    }
                    _ => return,
                }
            };
            let purged = self
                .tasks
                .remove_if(task_id, |r| r.state.is_terminal() && r.retrieved_at == Some(stamp));
            if purged {
                self.log_event(&DurableEvent::TaskPurged { task_id });
                self.instruments.tasks_purged.inc();
            }
        }
    }

    /// Full record (timeline instrumentation for the Figure 4 breakdown).
    pub fn task_record(&self, task_id: TaskId) -> Result<TaskRecord> {
        self.tasks.get_cloned(task_id).ok_or_else(|| FuncxError::TaskNotFound(task_id.to_string()))
    }

    /// Authorized timeline view of a task (owner only) — the record behind
    /// `GET /v1/tasks/<id>/timeline`.
    pub fn timeline(&self, bearer: &str, task_id: TaskId) -> Result<TaskRecord> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        let record = self
            .tasks
            .get_cloned(task_id)
            .ok_or_else(|| FuncxError::TaskNotFound(task_id.to_string()))?;
        if record.spec.user_id != user {
            return Err(FuncxError::Forbidden("not the submitting user".into()));
        }
        Ok(record)
    }

    /// One endpoint's health: registry record plus the latest agent-side
    /// stats report (callers must be allowed to target the endpoint).
    pub fn endpoint_status(
        &self,
        bearer: &str,
        endpoint_id: EndpointId,
    ) -> Result<funcx_registry::EndpointRecord> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        let record = self.endpoints.get(endpoint_id)?;
        if !record.may_use(user, |groups| self.auth.in_any_group(user, groups)) {
            return Err(FuncxError::Forbidden(format!(
                "endpoint {endpoint_id} is not shared with user {user}"
            )));
        }
        Ok(record)
    }

    /// Health of every endpoint the caller may target, sorted by id — the
    /// "single pane of glass" fleet view.
    pub fn fleet_status(&self, bearer: &str) -> Result<Vec<funcx_registry::EndpointRecord>> {
        self.charge_auth();
        let user = self.auth.authorize(bearer, Scope::ViewTask)?;
        let mut records: Vec<_> = self
            .endpoints
            .ids()
            .into_iter()
            .filter_map(|id| self.endpoints.get(id).ok())
            .filter(|r| r.may_use(user, |groups| self.auth.in_any_group(user, groups)))
            .collect();
        records.sort_by_key(|r| r.endpoint_id);
        Ok(records)
    }

    /// Render the Prometheus text scrape. Point-in-time gauges (queue
    /// depths, live tasks, online endpoints) are refreshed here, at scrape
    /// time, so they can never go stale between events.
    pub fn render_metrics(&self) -> String {
        self.metrics.gauge("funcx_tasks_live", &[]).set(self.task_count() as u64);
        self.metrics.gauge("funcx_endpoints_online", &[]).set(self.endpoints.online_count() as u64);
        for (endpoint, kind, depth) in self.store.queue_depths() {
            let ep = endpoint.to_string();
            self.metrics
                .gauge("funcx_queue_depth", &[("endpoint", ep.as_str()), ("kind", kind.label())])
                .set(depth as u64);
        }
        self.metrics.gauge("funcx_traces_active", &[]).set(self.tracer.active_len() as u64);
        self.metrics.gauge("funcx_traces_retained", &[]).set(self.tracer.retained_len() as u64);
        self.metrics.gauge("funcx_trace_spans_recorded", &[]).set(self.tracer.spans_recorded());
        self.metrics.gauge("funcx_trace_spans_dropped", &[]).set(self.tracer.spans_dropped());
        self.metrics.gauge("funcx_traces_sampled_out", &[]).set(self.tracer.traces_sampled_out());
        self.metrics.gauge("funcx_build_info", &[("version", env!("CARGO_PKG_VERSION"))]).set(1);
        // Warm-start tier counters from the latest heartbeat report of
        // each endpoint (absent until the first report lands).
        for id in self.endpoints.ids() {
            let Ok(record) = self.endpoints.get(id) else { continue };
            let Some(report) = record.last_report else { continue };
            let ep = id.to_string();
            for (tier, value) in [
                ("warm", report.warm_hits),
                ("predicted", report.predicted_hits),
                ("clone", report.clone_hits),
                ("cold", report.cold_misses),
            ] {
                self.metrics
                    .gauge(
                        "funcx_warm_acquires_total",
                        &[("endpoint", ep.as_str()), ("tier", tier)],
                    )
                    .set(value);
            }
            self.metrics
                .gauge("funcx_warm_pool_evictions_total", &[("endpoint", ep.as_str())])
                .set(report.warm_evictions);
            self.metrics
                .gauge("funcx_prewarm_minted_total", &[("endpoint", ep.as_str())])
                .set(report.prewarm_minted);
            // Sandbox session-pool tiers, live sessions, and cap kills from
            // the same heartbeat report.
            for (tier, value) in [
                ("warm", report.sandbox_warm_hits),
                ("predicted", report.sandbox_predicted_hits),
                ("clone", report.sandbox_clone_hits),
                ("cold", report.sandbox_cold_misses),
            ] {
                self.metrics
                    .gauge(
                        "funcx_sandbox_acquires_total",
                        &[("endpoint", ep.as_str()), ("tier", tier)],
                    )
                    .set(value);
            }
            self.metrics
                .gauge("funcx_sandbox_sessions", &[("endpoint", ep.as_str())])
                .set(report.sandbox_sessions);
            self.metrics
                .gauge("funcx_sandbox_endpoint_cap_kills_total", &[("endpoint", ep.as_str())])
                .set(report.sandbox_cap_kills);
        }
        self.metrics
            .float_gauge("funcx_uptime_seconds", &[])
            .set(self.clock.now().saturating_duration_since(self.started_at).as_secs_f64());
        for objective in self.slo.report(&self.stats) {
            let function =
                objective.function.map(|f| f.to_string()).unwrap_or_else(|| "all".to_string());
            let labels = [("slo", objective.name.as_str()), ("function", function.as_str())];
            self.metrics.float_gauge("funcx_slo_burn_rate", &labels).set(objective.burn_fast);
            self.metrics
                .float_gauge("funcx_slo_budget_remaining", &labels)
                .set(objective.budget_remaining);
        }
        self.metrics.render_prometheus()
    }

    /// Purge records whose results were *retrieved* more than the
    /// configured TTL ago (§4.1 purges results "once they have been
    /// retrieved"), all at once. A running service does this a couple of
    /// records at a time from [`FuncxService::get_result`]; this sweep is
    /// for an operator (or a test) that wants the table trimmed *now*. A
    /// terminal record the user never fetched is kept — purging it would
    /// silently destroy a result nobody has seen. Proceeds shard-by-shard;
    /// the table is never frozen whole. Returns reclaimed count.
    pub fn purge_retrieved(&self) -> usize {
        let now = self.clock.now();
        let ttl = self.config.retrieved_result_ttl;
        let mut purged: Vec<TaskId> = Vec::new();
        let count = self.tasks.retain(|id, r| {
            let dead = r.state.is_terminal()
                && r.retrieved_at.map(|t| now.saturating_duration_since(t) >= ttl).unwrap_or(false);
            if dead {
                purged.push(*id);
            }
            !dead
        });
        // Log outside the shard locks the retain pass held.
        for task_id in purged {
            self.log_event(&DurableEvent::TaskPurged { task_id });
        }
        self.instruments.tasks_purged.add(count as u64);
        count
    }

    /// Number of live task records (summed shard-by-shard).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    // ---- internal: used by the forwarder ------------------------------------

    pub(crate) fn queue_bytes_to_task_id(bytes: &[u8]) -> Option<TaskId> {
        let raw: [u8; 16] = bytes.try_into().ok()?;
        Some(TaskId(Uuid::from_u128(u128::from_be_bytes(raw))))
    }

    pub(crate) fn task_id_to_queue_bytes(task_id: TaskId) -> Bytes {
        Bytes::copy_from_slice(&task_id.uuid().as_u128().to_be_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_auth::IdentityProvider;
    use funcx_types::time::{Clock, ManualClock};

    fn service() -> (Arc<FuncxService>, String, EndpointId, FunctionId) {
        let svc = FuncxService::new(ManualClock::new(), ServiceConfig::default());
        let (_, token) = svc.auth.login("alice", IdentityProvider::Institution, &[Scope::All]);
        let ep = svc.register_endpoint(&token, "test-ep", "", false).unwrap();
        let f = svc
            .register_function(
                &token,
                "double",
                "def double(x):\n    return x * 2\n",
                "double",
                None,
                Sharing::default(),
            )
            .unwrap();
        (svc, token, ep, f)
    }

    fn request(f: FunctionId, ep: EndpointId) -> SubmitRequest {
        SubmitRequest {
            function_id: f,
            target: ep.into(),
            args: vec![Value::Int(21)],
            kwargs: vec![],
            allow_memo: false,
        }
    }

    #[test]
    fn registration_validates_source() {
        let (svc, token, _, _) = service();
        let bad = svc.register_function(
            &token,
            "broken",
            "def broken(:\n    return\n",
            "broken",
            None,
            Sharing::default(),
        );
        assert!(matches!(bad, Err(FuncxError::BadRequest(_))));
        let wrong_entry = svc.register_function(
            &token,
            "f",
            "def f():\n    return 1\n",
            "not_f",
            None,
            Sharing::default(),
        );
        assert!(wrong_entry.is_err());
    }

    #[test]
    fn submit_queues_task_for_endpoint() {
        let (svc, token, ep, f) = service();
        let task = svc.submit(&token, request(f, ep)).unwrap();
        assert_eq!(svc.status(&token, task).unwrap(), TaskState::WaitingForEndpoint);
        assert_eq!(svc.store.queue_len(ep, QueueKind::Task), 1);
        assert_eq!(svc.get_result(&token, task).unwrap(), None);
        // Queue item decodes back to the task id.
        let bytes = svc.store.queue(ep, QueueKind::Task).try_pop().unwrap();
        assert_eq!(FuncxService::queue_bytes_to_task_id(&bytes), Some(task));
    }

    #[test]
    fn submit_requires_run_scope_and_sharing() {
        let (svc, _token, ep, f) = service();
        let (_, weak) = svc.auth.login("bob", IdentityProvider::Google, &[Scope::ViewTask]);
        assert!(matches!(svc.submit(&weak, request(f, ep)), Err(FuncxError::Forbidden(_))));
        let (_, other) = svc.auth.login("carol", IdentityProvider::Google, &[Scope::All]);
        // carol has the scope but the function is private to alice.
        assert!(matches!(svc.submit(&other, request(f, ep)), Err(FuncxError::Forbidden(_))));
    }

    #[test]
    fn payload_limit_enforced() {
        let clock = ManualClock::new();
        let svc = FuncxService::new(
            clock,
            ServiceConfig { payload_limit: 64, ..ServiceConfig::default() },
        );
        let (_, token) = svc.auth.login("a", IdentityProvider::Google, &[Scope::All]);
        let ep = svc.register_endpoint(&token, "ep", "", false).unwrap();
        let f = svc
            .register_function(
                &token,
                "f",
                "def f(x):\n    return x\n",
                "f",
                None,
                Sharing::default(),
            )
            .unwrap();
        let big = SubmitRequest {
            function_id: f,
            target: ep.into(),
            args: vec![Value::Str("z".repeat(1000))],
            kwargs: vec![],
            allow_memo: false,
        };
        assert!(matches!(svc.submit(&token, big), Err(FuncxError::PayloadTooLarge { .. })));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (svc, token, ep, f) = service();
        assert!(svc.submit(&token, request(FunctionId::from_u128(404), ep)).is_err());
        assert!(svc.submit(&token, request(f, EndpointId::from_u128(404))).is_err());
        assert!(svc.status(&token, TaskId::from_u128(404)).is_err());
    }

    /// Prime the memo cache for `f(21)` with the encoded document `42`,
    /// returning the (codec, body) that was cached.
    fn prime_memo(svc: &FuncxService, f: FunctionId) -> (funcx_serial::CodecTag, Vec<u8>) {
        let function = svc.functions.get(f).unwrap();
        let doc = Value::Dict(vec![
            ("args".into(), Value::List(vec![Value::Int(21)])),
            ("kwargs".into(), Value::Dict(vec![])),
        ]);
        let (_, doc_body) = svc.serializer.serialize(&Payload::Document(doc)).unwrap();
        let key = MemoCache::key(&function.source, &doc_body);
        let (codec, result_body) =
            svc.serializer.serialize(&Payload::Document(Value::Int(42))).unwrap();
        svc.memo.insert(key, codec, result_body.clone());
        (codec, result_body)
    }

    #[test]
    fn memo_hit_completes_without_touching_queue() {
        let (svc, token, ep, f) = service();
        // Prime the cache by hand (end-to-end priming is integration-tested
        // with a live endpoint).
        let (codec, result_body) = prime_memo(&svc, f);

        let mut req = request(f, ep);
        req.allow_memo = true;
        let task = svc.submit(&token, req).unwrap();
        assert_eq!(svc.status(&token, task).unwrap(), TaskState::Success);
        let Some(TaskOutcome::Success(packed)) = svc.get_result(&token, task).unwrap() else {
            panic!("expected a successful cached outcome");
        };
        let view = funcx_serial::unpack_buffer(&packed).unwrap();
        assert_eq!(view.codec, codec);
        assert_eq!(view.body, &result_body[..]);
        assert_eq!(svc.store.queue_len(ep, QueueKind::Task), 0, "no dispatch on a hit");
    }

    #[test]
    fn memo_hit_result_carries_hitting_tasks_routing_header() {
        let (svc, token, ep, f) = service();
        let _ = prime_memo(&svc, f);

        // Two distinct tasks hit the same cache entry; each must receive
        // bytes whose pack header names *itself*, not whichever task
        // populated the cache.
        for _ in 0..2 {
            let mut req = request(f, ep);
            req.allow_memo = true;
            let task = svc.submit(&token, req).unwrap();
            let Some(TaskOutcome::Success(packed)) = svc.get_result(&token, task).unwrap() else {
                panic!("expected a cached outcome");
            };
            let view = funcx_serial::unpack_buffer(&packed).unwrap();
            assert_eq!(
                view.routing,
                task.uuid(),
                "memo hit must be repacked with the hitting task's uuid"
            );
        }
    }

    #[test]
    fn memo_disabled_by_default() {
        let (svc, token, ep, f) = service();
        let _ = prime_memo(&svc, f);
        let task = svc.submit(&token, request(f, ep)).unwrap();
        assert_eq!(svc.status(&token, task).unwrap(), TaskState::WaitingForEndpoint);
    }

    #[test]
    fn batch_submit_amortizes_auth() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let clock = ManualClock::new();
        let svc = FuncxService::new(
            Arc::clone(&clock) as SharedClock,
            ServiceConfig {
                auth_cost: std::time::Duration::from_millis(10),
                ..ServiceConfig::default()
            },
        );

        // Every authenticated call sleeps on the ManualClock, so a pumper
        // thread advances virtual time continuously; virtual elapsed time
        // is then the measurement.
        let stop = Arc::new(AtomicBool::new(false));
        let pumper = {
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    clock.advance(std::time::Duration::from_millis(5));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        };

        let (_, token) = svc.auth.login("a", IdentityProvider::Google, &[Scope::All]);
        let ep = svc.register_endpoint(&token, "ep", "", false).unwrap();
        let f = svc
            .register_function(
                &token,
                "f",
                "def f():\n    return 0\n",
                "f",
                None,
                Sharing::default(),
            )
            .unwrap();
        let request = move || SubmitRequest {
            function_id: f,
            target: ep.into(),
            args: vec![],
            kwargs: vec![],
            allow_memo: false,
        };

        // One batched request: a single auth charge for 50 tasks.
        let t0 = clock.now();
        let ids = svc.submit_batch(&token, (0..50).map(|_| request()).collect()).unwrap();
        let batch_virtual = clock.now().saturating_duration_since(t0);
        assert_eq!(ids.len(), 50);
        assert_eq!(svc.store.queue_len(ep, QueueKind::Task), 50);

        // 50 individual requests: 50 auth charges.
        let t1 = clock.now();
        for _ in 0..50 {
            svc.submit(&token, request()).unwrap();
        }
        let single_virtual = clock.now().saturating_duration_since(t1);

        stop.store(true, Ordering::Release);
        pumper.join().unwrap();
        assert!(
            single_virtual > batch_virtual * 3,
            "singles must burn far more virtual time: {single_virtual:?} vs {batch_virtual:?}"
        );
    }

    /// Drive a submitted task's record to Success directly (no endpoint).
    fn fabricate_success(svc: &FuncxService, task: TaskId, now: funcx_types::time::VirtualInstant) {
        svc.tasks
            .with_record_mut(task, |r| {
                r.transition(TaskState::DispatchedToEndpoint);
                r.transition(TaskState::WaitingForLaunch);
                r.transition(TaskState::Running);
                r.transition(TaskState::Success);
                r.outcome = Some(TaskOutcome::Success(vec![]));
                r.timeline.result_stored = Some(now);
            })
            .expect("task exists");
    }

    #[test]
    fn purge_reclaims_only_retrieved_terminal_tasks() {
        let clock = ManualClock::new();
        let svc = FuncxService::new(
            Arc::clone(&clock) as SharedClock,
            ServiceConfig {
                retrieved_result_ttl: std::time::Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        );
        let (_, token) = svc.auth.login("a", IdentityProvider::Google, &[Scope::All]);
        let ep = svc.register_endpoint(&token, "ep", "", false).unwrap();
        let f = svc
            .register_function(
                &token,
                "f",
                "def f():\n    return 0\n",
                "f",
                None,
                Sharing::default(),
            )
            .unwrap();
        let pending = svc.submit(&token, request(f, ep)).unwrap();
        let done = svc.submit(&token, request(f, ep)).unwrap();
        fabricate_success(&svc, done, clock.now());
        // The client fetches the result — this is what arms the purge TTL.
        assert!(svc.get_result(&token, done).unwrap().is_some());
        clock.advance(std::time::Duration::from_secs(61));
        assert_eq!(svc.purge_retrieved(), 1);
        assert!(svc.task_record(pending).is_ok(), "pending tasks survive purge");
        assert!(svc.task_record(done).is_err());
    }

    #[test]
    fn unretrieved_results_survive_purge_until_fetched() {
        let clock = ManualClock::new();
        let svc = FuncxService::new(
            Arc::clone(&clock) as SharedClock,
            ServiceConfig {
                retrieved_result_ttl: std::time::Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        );
        let (_, token) = svc.auth.login("a", IdentityProvider::Google, &[Scope::All]);
        let ep = svc.register_endpoint(&token, "ep", "", false).unwrap();
        let f = svc
            .register_function(
                &token,
                "f",
                "def f():\n    return 0\n",
                "f",
                None,
                Sharing::default(),
            )
            .unwrap();
        let fetched = svc.submit(&token, request(f, ep)).unwrap();
        let unfetched = svc.submit(&token, request(f, ep)).unwrap();
        fabricate_success(&svc, fetched, clock.now());
        fabricate_success(&svc, unfetched, clock.now());
        assert!(svc.get_result(&token, fetched).unwrap().is_some());
        // Both are terminal with results stored; far more than the TTL
        // elapses, but only the retrieved one may be purged.
        clock.advance(std::time::Duration::from_secs(3600));
        assert_eq!(svc.purge_retrieved(), 1);
        assert!(svc.task_record(fetched).is_err(), "retrieved result purged");
        let outcome = svc
            .get_result(&token, unfetched)
            .expect("never-retrieved result must not be destroyed");
        assert!(outcome.is_some(), "result still available to its first reader");
        // That first retrieval armed the TTL: now the purge may take it.
        clock.advance(std::time::Duration::from_secs(61));
        assert_eq!(svc.purge_retrieved(), 1);
        assert!(svc.task_record(unfetched).is_err());
    }

    /// A service on `clock` with a 60 s retrieval TTL (journaling into
    /// `wal_dir` if given), a logged-in user, an endpoint and a function.
    fn purge_bed(
        clock: &Arc<ManualClock>,
        wal_dir: Option<&std::path::Path>,
    ) -> (Arc<FuncxService>, String) {
        let svc = FuncxService::new(
            Arc::clone(clock) as SharedClock,
            ServiceConfig {
                retrieved_result_ttl: std::time::Duration::from_secs(60),
                wal_dir: wal_dir.map(|d| d.to_path_buf()),
                snapshot_every: 16,
                ..ServiceConfig::default()
            },
        );
        let (_, token) = svc.auth.login("a", IdentityProvider::Google, &[Scope::All]);
        (svc, token)
    }

    fn purge_bed_targets(svc: &FuncxService, token: &str) -> (EndpointId, FunctionId) {
        let ep = svc.register_endpoint(token, "ep", "", false).unwrap();
        let f = svc
            .register_function(
                token,
                "f",
                "def f():\n    return 0\n",
                "f",
                None,
                Sharing::default(),
            )
            .unwrap();
        (ep, f)
    }

    /// Submit a task and store a successful result for it, in memory and
    /// (as the forwarder would) in the journal.
    fn submit_completed(svc: &FuncxService, token: &str, f: FunctionId, ep: EndpointId) -> TaskId {
        let task = svc.submit(token, request(f, ep)).unwrap();
        fabricate_success(svc, task, svc.clock.now());
        svc.log_event(&DurableEvent::ResultStored {
            task_id: task,
            outcome: TaskOutcome::Success(vec![]),
            timeline: Default::default(),
        });
        task
    }

    fn unique_wal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("funcx-service-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retrieval_keeps_the_task_table_at_one_ttl_of_submissions() {
        let clock = ManualClock::new();
        let (svc, token) = purge_bed(&clock, None);
        let (ep, f) = purge_bed_targets(&svc, &token);
        // Finished, never fetched: no amount of other traffic may purge it.
        let unfetched = submit_completed(&svc, &token, f, ep);
        // One task a second, each fetched as soon as it is done.
        for second in 0..300u64 {
            let task = submit_completed(&svc, &token, f, ep);
            assert!(svc.get_result(&token, task).unwrap().is_some());
            clock.advance(std::time::Duration::from_secs(1));
            // Results fetched in the last 60 s, and the one nobody fetched.
            assert!(svc.task_count() <= 60 + 1, "second {second}: {} records", svc.task_count());
        }
        assert_eq!(svc.task_count(), 60 + 1, "steady state: one TTL of submissions");
        assert_eq!(svc.instruments.tasks_purged.get(), 300 - 60);
        assert!(svc.render_metrics().contains("funcx_tasks_purged_total 240"));
        assert!(svc.get_result(&token, unfetched).unwrap().is_some(), "first reader still served");
    }

    #[test]
    fn a_later_retrieval_rearms_the_purge_ttl() {
        let clock = ManualClock::new();
        let (svc, token) = purge_bed(&clock, None);
        let (ep, f) = purge_bed_targets(&svc, &token);
        let secs = std::time::Duration::from_secs;
        let twice = submit_completed(&svc, &token, f, ep);
        // Fetching this one is what drives the purge at chosen instants (it
        // re-arms itself every time, so it never goes).
        let driver = submit_completed(&svc, &token, f, ep);

        assert!(svc.get_result(&token, twice).unwrap().is_some()); // t = 0
        clock.advance(secs(50));
        assert!(svc.get_result(&token, twice).unwrap().is_some()); // t = 50
        clock.advance(secs(20));
        // t = 70: the first stamp is 70 s old, but it is no longer the
        // record's stamp.
        assert!(svc.get_result(&token, driver).unwrap().is_some());
        assert!(svc.task_record(twice).is_ok(), "purged 20 s after its last retrieval");
        clock.advance(secs(39));
        assert!(svc.get_result(&token, driver).unwrap().is_some()); // t = 109
        assert!(svc.task_record(twice).is_ok(), "purged 59 s after its last retrieval");
        clock.advance(secs(1));
        assert!(svc.get_result(&token, driver).unwrap().is_some()); // t = 110
        assert!(svc.task_record(twice).is_err(), "one TTL after the last retrieval it goes");
        assert!(svc.task_record(driver).is_ok());
        assert_eq!(svc.instruments.tasks_purged.get(), 1);
    }

    #[test]
    fn a_restart_neither_loses_nor_resurrects_a_purge() {
        let dir = unique_wal_dir("purge-restart");
        let clock = ManualClock::new();
        let secs = std::time::Duration::from_secs;
        let (svc, token) = purge_bed(&clock, Some(&dir));
        let (ep, f) = purge_bed_targets(&svc, &token);
        let early = submit_completed(&svc, &token, f, ep);
        let late = submit_completed(&svc, &token, f, ep);
        let driver = submit_completed(&svc, &token, f, ep);
        assert!(svc.get_result(&token, early).unwrap().is_some()); // t = 0
        clock.advance(secs(30));
        assert!(svc.get_result(&token, late).unwrap().is_some()); // t = 30
        clock.advance(secs(10));
        drop(svc);

        // Restart at t = 40: both deadlines are still ahead and must still
        // be running afterwards.
        let (svc, token) = purge_bed(&clock, Some(&dir));
        assert_eq!(svc.wal.as_ref().unwrap().folds(), 1, "a restart replays the log once");
        assert_eq!(svc.task_count(), 3);
        clock.advance(secs(21));
        assert!(svc.get_result(&token, driver).unwrap().is_some()); // t = 61
        assert!(svc.task_record(early).is_err(), "deadline armed before the restart was lost");
        assert!(svc.task_record(late).is_ok());
        drop(svc);

        // Restart at t = 61: the purge is durable, the other deadline runs.
        let (svc, token) = purge_bed(&clock, Some(&dir));
        assert!(svc.task_record(early).is_err(), "a purged record came back");
        assert!(svc.task_record(late).is_ok());
        clock.advance(secs(29));
        assert!(svc.get_result(&token, driver).unwrap().is_some()); // t = 90
        assert!(svc.task_record(late).is_err());
        assert_eq!(svc.task_count(), 1);

        // Enough journal traffic for a background checkpoint (every 16
        // appends here), and its numbers on the scrape.
        for _ in 0..16 {
            assert!(svc.get_result(&token, driver).unwrap().is_some());
        }
        svc.wal.as_ref().unwrap().wait_for_checkpoint().unwrap();
        let scrape = svc.render_metrics();
        for name in [
            "funcx_wal_checkpoints_total",
            "funcx_wal_checkpoint_seconds_count",
            "funcx_wal_checkpoint_bytes",
            "funcx_wal_live_log_bytes",
            "funcx_tasks_purged_total 1",
        ] {
            assert!(scrape.contains(name), "scrape is missing {name}:\n{scrape}");
        }
        assert!(!scrape.contains("funcx_wal_checkpoints_total 0"), "a checkpoint was installed");
        drop(svc);
        let (svc, _) = purge_bed(&clock, Some(&dir));
        assert_eq!(svc.task_count(), 1, "checkpoint + tail reopen to the same table");
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Register a sandbox-runtime function under `token`.
    fn register_sandbox_fn(svc: &FuncxService, token: &str) -> FunctionId {
        svc.register_function_with(
            token,
            "sb",
            "def sb(x):\n    return x + 1\n",
            "sb",
            None,
            Sharing::default(),
            funcx_types::FunctionOptions {
                runtime: funcx_types::Runtime::Sandbox,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn sandbox_submit_to_interpreter_only_endpoint_is_a_clean_bad_request() {
        let (svc, token, _, _) = service();
        let fx_only = svc
            .register_endpoint_with(
                &token,
                "fx-only",
                "",
                false,
                vec![funcx_types::Runtime::FxScript],
            )
            .unwrap();
        let f = register_sandbox_fn(&svc, &token);
        match svc.submit(&token, request(f, fx_only)) {
            Err(FuncxError::BadRequest(msg)) => {
                assert!(msg.contains("does not support runtime 'sandbox'"), "{msg}");
                assert!(msg.contains("fxscript"), "advertised set named in error: {msg}");
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Nothing was queued for the refusing endpoint.
        assert_eq!(svc.store.queue_len(fx_only, QueueKind::Task), 0);
        // The same function submits fine to an endpoint advertising sandbox.
        let full = svc.register_endpoint(&token, "full", "", false).unwrap();
        assert!(svc.submit(&token, request(f, full)).is_ok());
    }

    #[test]
    fn pool_routes_sandbox_functions_around_interpreter_only_members() {
        let (svc, token, _, _) = service();
        let fx_only = svc
            .register_endpoint_with(
                &token,
                "fx-only",
                "",
                false,
                vec![funcx_types::Runtime::FxScript],
            )
            .unwrap();
        let full = svc.register_endpoint(&token, "full", "", false).unwrap();
        svc.endpoints.mark_online(fx_only).unwrap();
        svc.endpoints.mark_online(full).unwrap();
        let pool = svc
            .create_pool(&token, "mixed", "", vec![fx_only, full], RoutingPolicy::RoundRobin, false)
            .unwrap();
        let f = register_sandbox_fn(&svc, &token);
        let record = svc.pools.get(pool).unwrap();
        // Round-robin over the pool would alternate members; the runtime
        // filter must pin every sandbox route to the supporting one.
        for _ in 0..6 {
            assert_eq!(svc.route_in_pool(&record, f).unwrap(), full);
        }
        // An fxscript function still sees both members.
        let classic = svc
            .register_function(
                &token,
                "c",
                "def c():\n    return 0\n",
                "c",
                None,
                Sharing::default(),
            )
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            seen.insert(svc.route_in_pool(&record, classic).unwrap());
        }
        assert_eq!(seen.len(), 2, "fxscript routing uses the whole pool");
    }

    #[test]
    fn pool_with_no_sandbox_member_fails_with_no_healthy_endpoint() {
        let (svc, token, _, _) = service();
        let fx_only = svc
            .register_endpoint_with(
                &token,
                "fx-only",
                "",
                false,
                vec![funcx_types::Runtime::FxScript],
            )
            .unwrap();
        svc.endpoints.mark_online(fx_only).unwrap();
        let pool = svc
            .create_pool(&token, "fx-pool", "", vec![fx_only], RoutingPolicy::RoundRobin, false)
            .unwrap();
        let f = register_sandbox_fn(&svc, &token);
        let record = svc.pools.get(pool).unwrap();
        match svc.route_in_pool(&record, f) {
            Err(FuncxError::NoHealthyEndpoint(msg)) => {
                assert!(msg.contains("runtime 'sandbox'"), "{msg}");
            }
            other => panic!("expected NoHealthyEndpoint, got {other:?}"),
        }
    }

    #[test]
    fn sessions_and_capabilities_require_the_sandbox_runtime() {
        let (svc, token, _, _) = service();
        let bad_session = svc.register_function_with(
            &token,
            "s",
            "def s():\n    return 1\n",
            "s",
            None,
            Sharing::default(),
            funcx_types::FunctionOptions { session: Some("state".into()), ..Default::default() },
        );
        assert!(matches!(bad_session, Err(FuncxError::BadRequest(_))));
        let bad_caps = svc.register_function_with(
            &token,
            "s",
            "def s():\n    return 1\n",
            "s",
            None,
            Sharing::default(),
            funcx_types::FunctionOptions {
                capabilities: vec![funcx_types::Capability::Clock],
                ..Default::default()
            },
        );
        assert!(matches!(bad_caps, Err(FuncxError::BadRequest(_))));
        // The same options are accepted under the sandbox runtime.
        let ok = svc.register_function_with(
            &token,
            "s",
            "def s():\n    return 1\n",
            "s",
            None,
            Sharing::default(),
            funcx_types::FunctionOptions {
                runtime: funcx_types::Runtime::Sandbox,
                capabilities: vec![funcx_types::Capability::Session],
                session: Some("state".into()),
                ..Default::default()
            },
        );
        assert!(ok.is_ok());
        // Endpoint registrations normalize an empty runtime set to the
        // classic default rather than advertising nothing.
        let ep = svc.register_endpoint_with(&token, "norm", "", false, Vec::new()).unwrap();
        let record = svc.endpoints.get(ep).unwrap();
        for rt in funcx_types::Runtime::ALL {
            assert!(record.supports(rt), "empty set advertises everything ({rt})");
        }
    }
}
