//! Transport abstraction: the SDK's view of the service.

use std::net::SocketAddr;
use std::sync::Arc;

use funcx_lang::Value;
use funcx_registry::Sharing;
use funcx_service::http::HttpClient;
use funcx_service::service::SubmitRequest;
use funcx_service::FuncxService;
use funcx_types::task::TaskState;
use funcx_types::trace::TraceId;
use funcx_types::{
    EndpointId, FunctionId, FuncxError, PoolId, Result, RouteTarget, RoutingPolicy, TaskId,
};

/// Terminal task value as the SDK sees it: the output document, or the
/// remote error rendering.
pub type TaskValue = std::result::Result<Value, String>;

/// What the client needs from the service, transport-agnostic.
pub trait ServiceApi: Send + Sync {
    /// Register a function.
    fn register_function(&self, bearer: &str, source: &str, entry: &str) -> Result<FunctionId>;
    /// Register a function with explicit execution options (runtime,
    /// caps, capability grants, persistent session). Defaults to the
    /// plain registration when the options are all defaults, and errors
    /// on transports that predate runtime negotiation.
    fn register_function_with(
        &self,
        bearer: &str,
        source: &str,
        entry: &str,
        options: funcx_types::FunctionOptions,
    ) -> Result<FunctionId> {
        if options == funcx_types::FunctionOptions::default() {
            return self.register_function(bearer, source, entry);
        }
        Err(FuncxError::BadRequest(
            "this transport does not support function execution options".into(),
        ))
    }
    /// Register an endpoint.
    fn register_endpoint(&self, bearer: &str, name: &str, public: bool) -> Result<EndpointId>;
    /// Create an endpoint pool; its id is submittable wherever an
    /// endpoint id is.
    fn create_pool(
        &self,
        bearer: &str,
        name: &str,
        members: Vec<EndpointId>,
        policy: RoutingPolicy,
        public: bool,
    ) -> Result<PoolId>;
    /// Submit one task.
    fn submit(&self, bearer: &str, request: SubmitRequest) -> Result<TaskId>;
    /// Submit many tasks in one request.
    fn submit_batch(&self, bearer: &str, requests: Vec<SubmitRequest>) -> Result<Vec<TaskId>>;
    /// Task state.
    fn status(&self, bearer: &str, task: TaskId) -> Result<TaskState>;
    /// Task outcome once terminal (`None` while in flight).
    fn result(&self, bearer: &str, task: TaskId) -> Result<Option<TaskValue>>;
    /// Span tree of a retained trace (`GET /v1/traces/<id>`). A task's
    /// trace id is its uuid, so [`trace_of_task`] maps between the two.
    fn trace(&self, bearer: &str, trace_id: TraceId) -> Result<serde_json::Value>;
    /// Every declared objective's burn rate and budget (`GET /v1/slo`).
    fn slo(&self, bearer: &str) -> Result<serde_json::Value>;
    /// Windowed per-function aggregates (`GET /v1/stats/functions`).
    fn function_stats(&self, bearer: &str) -> Result<serde_json::Value>;
}

/// The trace id the service mints for a task: its uuid bits verbatim.
pub fn trace_of_task(task: TaskId) -> TraceId {
    TraceId(task.uuid().as_u128())
}

// ---------------------------------------------------------------------------

/// Direct in-process calls (client and service share the process).
pub struct InProcApi {
    service: Arc<FuncxService>,
}

impl InProcApi {
    /// Wrap a service handle.
    pub fn new(service: Arc<FuncxService>) -> Self {
        InProcApi { service }
    }
}

impl ServiceApi for InProcApi {
    fn register_function(&self, bearer: &str, source: &str, entry: &str) -> Result<FunctionId> {
        self.service.register_function(bearer, entry, source, entry, None, Sharing::default())
    }

    fn register_function_with(
        &self,
        bearer: &str,
        source: &str,
        entry: &str,
        options: funcx_types::FunctionOptions,
    ) -> Result<FunctionId> {
        self.service.register_function_with(
            bearer,
            entry,
            source,
            entry,
            None,
            Sharing::default(),
            options,
        )
    }

    fn register_endpoint(&self, bearer: &str, name: &str, public: bool) -> Result<EndpointId> {
        self.service.register_endpoint(bearer, name, "", public)
    }

    fn create_pool(
        &self,
        bearer: &str,
        name: &str,
        members: Vec<EndpointId>,
        policy: RoutingPolicy,
        public: bool,
    ) -> Result<PoolId> {
        self.service.create_pool(bearer, name, "", members, policy, public)
    }

    fn submit(&self, bearer: &str, request: SubmitRequest) -> Result<TaskId> {
        self.service.submit(bearer, request)
    }

    fn submit_batch(&self, bearer: &str, requests: Vec<SubmitRequest>) -> Result<Vec<TaskId>> {
        self.service.submit_batch(bearer, requests)
    }

    fn status(&self, bearer: &str, task: TaskId) -> Result<TaskState> {
        self.service.status(bearer, task)
    }

    fn result(&self, bearer: &str, task: TaskId) -> Result<Option<TaskValue>> {
        match self.service.get_result(bearer, task)? {
            None => Ok(None),
            Some(funcx_types::task::TaskOutcome::Success(body)) => {
                match self.service.serializer().deserialize_packed(&body) {
                    Ok((_, funcx_serial::Payload::Document(v))) => Ok(Some(Ok(v))),
                    Ok(_) => Err(FuncxError::Internal("result body was not a document".into())),
                    Err(e) => Err(e),
                }
            }
            Some(funcx_types::task::TaskOutcome::Failure(msg)) => Ok(Some(Err(msg))),
        }
    }

    fn trace(&self, _bearer: &str, trace_id: TraceId) -> Result<serde_json::Value> {
        self.service
            .tracer
            .tree_json(trace_id)
            .ok_or_else(|| FuncxError::TaskNotFound(format!("trace {trace_id}")))
    }

    fn slo(&self, bearer: &str) -> Result<serde_json::Value> {
        self.service.slo_json(bearer)
    }

    fn function_stats(&self, bearer: &str) -> Result<serde_json::Value> {
        self.service.stats_functions_json(bearer)
    }
}

// ---------------------------------------------------------------------------

/// Client-side resilience tunables for [`RestApi`]: how many times a
/// throttled or unavailable request is retried, how long the client backs
/// off between tries, and how many `307 Temporary Redirect` hops it will
/// follow to reach a partition's owning instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per logical request (the first attempt plus retries of
    /// 429/503 answers). `1` disables retrying entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub base_backoff: std::time::Duration,
    /// Ceiling on any single sleep — applied to the exponential schedule
    /// *and* to `Retry-After` hints, so a hostile or miscounting server
    /// cannot park the client for minutes.
    pub max_backoff: std::time::Duration,
    /// `307` hops followed before declaring a redirect loop.
    pub max_redirects: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_millis(50),
            max_backoff: std::time::Duration::from_secs(2),
            max_redirects: 5,
        }
    }
}

/// Real HTTP against a served REST API. Every call from one `RestApi`
/// reuses its kept-alive connection; a redirect's owner gets a second
/// pooled connection, keyed by its address.
pub struct RestApi {
    addr: SocketAddr,
    policy: RetryPolicy,
    http: HttpClient,
}

impl RestApi {
    /// Point at a server (from `funcx_service::rest::serve_rest`) with the
    /// default [`RetryPolicy`].
    pub fn new(addr: SocketAddr) -> Self {
        RestApi::with_policy(addr, RetryPolicy::default())
    }

    /// Point at a server with explicit resilience tunables.
    pub fn with_policy(addr: SocketAddr, policy: RetryPolicy) -> Self {
        RestApi { addr, policy, http: HttpClient::new() }
    }

    /// Split a `Location` value into `(addr, path)`. Accepts the absolute
    /// `http://host:port/path` form a clustered FrontDoor emits and the
    /// bare `/path` form (same host).
    fn parse_location(&self, location: &str) -> Result<(SocketAddr, String)> {
        if let Some(rest) = location.strip_prefix("http://") {
            let (host, path) = match rest.find('/') {
                Some(i) => (&rest[..i], rest[i..].to_string()),
                None => (rest, "/".to_string()),
            };
            let addr = host.parse::<SocketAddr>().map_err(|_| {
                FuncxError::ProtocolViolation(format!("unroutable Location {location:?}"))
            })?;
            return Ok((addr, path));
        }
        if location.starts_with('/') {
            return Ok((self.addr, location.to_string()));
        }
        Err(FuncxError::ProtocolViolation(format!("unsupported Location {location:?}")))
    }

    fn call(
        &self,
        method: &str,
        path: &str,
        bearer: &str,
        body: serde_json::Value,
    ) -> Result<serde_json::Value> {
        let raw = if body.is_null() { Vec::new() } else { serde_json::to_vec(&body).unwrap() };
        let mut addr = self.addr;
        let mut path = path.to_string();
        let mut redirects = 0u32;
        let mut attempt = 1u32;
        let mut backoff = self.policy.base_backoff;
        let resp = loop {
            let resp = self.http.request(addr, method, &path, Some(bearer), &raw)?;
            match resp.status {
                // A clustered FrontDoor answers 307 when another instance
                // owns this user's partition: re-issue the identical
                // request against the owner. A redirect is routing, not a
                // failure — it consumes no retry attempt.
                307 => {
                    redirects += 1;
                    if redirects > self.policy.max_redirects {
                        return Err(FuncxError::ProtocolViolation(format!(
                            "redirect loop: {redirects} hops without an owner"
                        )));
                    }
                    let location = resp.header("Location").ok_or_else(|| {
                        FuncxError::ProtocolViolation("307 without a Location header".into())
                    })?;
                    (addr, path) = self.parse_location(location)?;
                }
                // Throttled or momentarily unavailable: back off and
                // retry, honoring the server's `Retry-After` hint when it
                // gives one (capped, so a long hint cannot stall us).
                429 | 503 if attempt < self.policy.max_attempts => {
                    attempt += 1;
                    let hinted = resp
                        .header("Retry-After")
                        .and_then(|s| s.trim().parse::<u64>().ok())
                        .map(std::time::Duration::from_secs);
                    std::thread::sleep(hinted.unwrap_or(backoff).min(self.policy.max_backoff));
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
                _ => break resp,
            }
        };
        let parsed: serde_json::Value = serde_json::from_slice(&resp.body)
            .map_err(|e| FuncxError::ProtocolViolation(format!("bad JSON from service: {e}")))?;
        if resp.status != 200 {
            let code = parsed["error"].as_str().unwrap_or("internal");
            let msg = parsed["message"].as_str().unwrap_or("").to_string();
            return Err(match code {
                "unauthenticated" => FuncxError::Unauthenticated(msg),
                "forbidden" => FuncxError::Forbidden(msg),
                "function_not_found" => FuncxError::FunctionNotFound(msg),
                "endpoint_not_found" => FuncxError::EndpointNotFound(msg),
                "pool_not_found" => FuncxError::PoolNotFound(msg),
                "no_healthy_endpoint" => FuncxError::NoHealthyEndpoint(msg),
                "task_not_found" => FuncxError::TaskNotFound(msg),
                "bad_request" => FuncxError::BadRequest(msg),
                "rate_limited" => FuncxError::RateLimited {
                    retry_after_secs: resp
                        .header("Retry-After")
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(1),
                },
                _ => FuncxError::Internal(format!("{code}: {msg}")),
            });
        }
        Ok(parsed)
    }

    fn submit_body(request: &SubmitRequest) -> serde_json::Value {
        // Args and kwargs go over the wire in `Value::to_json`'s
        // externally-tagged shape — the same encoding the service's serde
        // derive expects on the parse side.
        let args: Vec<serde_json::Value> = request.args.iter().map(Value::to_json).collect();
        let kwargs: Vec<serde_json::Value> = request
            .kwargs
            .iter()
            .map(|(k, v)| {
                serde_json::Value::Array(vec![serde_json::Value::String(k.clone()), v.to_json()])
            })
            .collect();
        match request.target {
            RouteTarget::Endpoint(ep) => serde_json::json!({
                "function_id": request.function_id.to_string(),
                "endpoint_id": ep.to_string(),
                "args": args,
                "kwargs": kwargs,
                "allow_memo": request.allow_memo,
            }),
            RouteTarget::Pool(pool) => serde_json::json!({
                "function_id": request.function_id.to_string(),
                "pool": pool.to_string(),
                "args": args,
                "kwargs": kwargs,
                "allow_memo": request.allow_memo,
            }),
        }
    }
}

impl ServiceApi for RestApi {
    fn register_function(&self, bearer: &str, source: &str, entry: &str) -> Result<FunctionId> {
        let out = self.call(
            "POST",
            "/v1/functions",
            bearer,
            serde_json::json!({ "name": entry, "source": source, "entry": entry }),
        )?;
        out["function_id"]
            .as_str()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing function_id".into()))?
            .parse()
    }

    fn register_function_with(
        &self,
        bearer: &str,
        source: &str,
        entry: &str,
        options: funcx_types::FunctionOptions,
    ) -> Result<FunctionId> {
        let capabilities: Vec<&str> = options.capabilities.iter().map(|c| c.as_str()).collect();
        let out = self.call(
            "POST",
            "/v1/functions",
            bearer,
            serde_json::json!({
                "name": entry,
                "source": source,
                "entry": entry,
                "runtime": options.runtime.as_str(),
                "limits": {
                    "max_fuel": options.limits.max_fuel,
                    "max_depth": options.limits.max_depth,
                    "max_value_bytes": options.limits.max_value_bytes,
                    "max_memory_bytes": options.limits.max_memory_bytes,
                    "max_millis": options.limits.max_millis,
                    "max_output_bytes": options.limits.max_output_bytes,
                },
                "capabilities": capabilities,
                "session": options.session,
            }),
        )?;
        out["function_id"]
            .as_str()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing function_id".into()))?
            .parse()
    }

    fn register_endpoint(&self, bearer: &str, name: &str, public: bool) -> Result<EndpointId> {
        let out = self.call(
            "POST",
            "/v1/endpoints",
            bearer,
            serde_json::json!({ "name": name, "public": public }),
        )?;
        out["endpoint_id"]
            .as_str()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing endpoint_id".into()))?
            .parse()
    }

    fn create_pool(
        &self,
        bearer: &str,
        name: &str,
        members: Vec<EndpointId>,
        policy: RoutingPolicy,
        public: bool,
    ) -> Result<PoolId> {
        let out = self.call(
            "POST",
            "/v1/pools",
            bearer,
            serde_json::json!({
                "name": name,
                "members": members.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                "policy": policy.as_str(),
                "public": public,
            }),
        )?;
        out["pool_id"]
            .as_str()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing pool_id".into()))?
            .parse()
    }

    fn submit(&self, bearer: &str, request: SubmitRequest) -> Result<TaskId> {
        let out = self.call("POST", "/v1/submit", bearer, Self::submit_body(&request))?;
        out["task_id"]
            .as_str()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing task_id".into()))?
            .parse()
    }

    fn submit_batch(&self, bearer: &str, requests: Vec<SubmitRequest>) -> Result<Vec<TaskId>> {
        let tasks: Vec<serde_json::Value> = requests.iter().map(Self::submit_body).collect();
        let out = self.call("POST", "/v1/batch", bearer, serde_json::json!({ "tasks": tasks }))?;
        out["task_ids"]
            .as_array()
            .ok_or_else(|| FuncxError::ProtocolViolation("missing task_ids".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| FuncxError::ProtocolViolation("non-string task id".into()))?
                    .parse()
            })
            .collect()
    }

    fn status(&self, bearer: &str, task: TaskId) -> Result<TaskState> {
        let out =
            self.call("GET", &format!("/v1/tasks/{task}/status"), bearer, serde_json::Value::Null)?;
        // `TaskState::parse` accepts both the snake_case wire form and the
        // legacy CamelCase one, so the SDK can talk to either service build.
        match out["status"].as_str() {
            Some(name) => TaskState::parse(name)
                .ok_or_else(|| FuncxError::ProtocolViolation(format!("bad status {name:?}"))),
            None => Err(FuncxError::ProtocolViolation("missing status field".into())),
        }
    }

    fn result(&self, bearer: &str, task: TaskId) -> Result<Option<TaskValue>> {
        let out =
            self.call("GET", &format!("/v1/tasks/{task}/result"), bearer, serde_json::Value::Null)?;
        if out["pending"] == serde_json::Value::Bool(true) {
            return Ok(None);
        }
        if out["success"] == serde_json::Value::Bool(true) {
            let v: Value = serde_json::from_value(out["result"].clone())
                .map_err(|e| FuncxError::ProtocolViolation(format!("bad result value: {e}")))?;
            Ok(Some(Ok(v)))
        } else {
            Ok(Some(Err(out["error"].as_str().unwrap_or("unknown failure").to_string())))
        }
    }

    fn trace(&self, bearer: &str, trace_id: TraceId) -> Result<serde_json::Value> {
        self.call("GET", &format!("/v1/traces/{trace_id}"), bearer, serde_json::Value::Null)
    }

    fn slo(&self, bearer: &str) -> Result<serde_json::Value> {
        self.call("GET", "/v1/slo", bearer, serde_json::Value::Null)
    }

    fn function_stats(&self, bearer: &str) -> Result<serde_json::Value> {
        self.call("GET", "/v1/stats/functions", bearer, serde_json::Value::Null)
    }
}
