//! Service tunables.

use std::path::PathBuf;
use std::time::Duration;

use funcx_types::time::VirtualDuration;
use funcx_wal::FsyncPolicy;

/// Configuration of the cloud service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum serialized payload size accepted through the service (§4.6:
    /// "for performance and cost reasons we limit the size of data that can
    /// be passed through the funcX service"; larger data goes out-of-band
    /// via Globus).
    pub payload_limit: usize,
    /// Virtual-time cost of authenticating + authorizing one request.
    /// Figure 4 attributes most of the service-side latency `ts` to
    /// authentication; this models the Globus Auth token introspection the
    /// Rust build is otherwise too fast to exhibit.
    pub auth_cost: VirtualDuration,
    /// Virtual-time cost of one Redis/RDS round trip inside the service.
    pub store_cost: VirtualDuration,
    /// TTL applied to a result once the client has retrieved it ("we
    /// periodically purge results from the Redis store once they have been
    /// retrieved", §4.1).
    pub retrieved_result_ttl: VirtualDuration,
    /// Forwarder heartbeat period (virtual).
    pub heartbeat_period: VirtualDuration,
    /// Forwarder declares the agent lost after this silence (virtual).
    pub heartbeat_timeout: VirtualDuration,
    /// Housekeeping tick of the forwarder loop (wall clock): how often an
    /// idle forwarder emits its heartbeat and checks the agent's liveness.
    /// Dispatches and results never wait for it — the loop blocks on its
    /// `Wake`.
    pub poll_interval: Duration,
    /// Maximum tasks one forwarder pass drains from the queue (dispatch
    /// batching toward the endpoint).
    pub forwarder_batch: usize,
    /// Maximum entries in the memoization cache.
    pub memo_capacity: usize,
    /// Router liveness: a stats report older than this (virtual) marks the
    /// endpoint dead for pool routing even while its connection is up.
    pub router_max_report_age: VirtualDuration,
    /// Router circuit breaker: consecutive failures that open an endpoint's
    /// circuit.
    pub router_failure_threshold: u32,
    /// Router circuit breaker: how long an open circuit excludes the
    /// endpoint from pool routing (virtual).
    pub router_cooldown: VirtualDuration,
    /// Directory for the durable write-ahead log. `None` (the default)
    /// disables durability entirely: no file is ever created and the
    /// service behaves exactly as before the WAL existed.
    pub wal_dir: Option<PathBuf>,
    /// When WAL appends are fsynced (group commit by default). Ignored
    /// unless `wal_dir` is set.
    pub wal_fsync: FsyncPolicy,
    /// Checkpoint + compact the WAL once N appends have passed and the log
    /// has outgrown the last checkpoint (`0` disables automatic
    /// checkpoints). Ignored unless `wal_dir` is set.
    pub snapshot_every: u64,
    /// Head-sample rate for distributed traces in `[0, 1]`: the fraction of
    /// *healthy* traces retained at completion. Error/failover/recovery
    /// traces and the slowest tail are always kept (tail-based sampling).
    pub trace_head_sample: f64,
    /// Completed traces retained for `/v1/traces` queries (oldest evicted).
    pub trace_store_capacity: usize,
    /// Spans buffered per trace; beyond this, spans are dropped and counted.
    pub trace_max_spans: usize,
    /// The N slowest traces are retained even when their head-sample draw
    /// failed — the p99 tail Figure 4's latency analysis cares about.
    pub trace_slowest_keep: usize,
    /// Minimum level emitted by the structured `fx_log!` macro.
    pub log_level: funcx_telemetry::LogLevel,
    /// Frame duration of the windowed stats rings (per-function /
    /// per-endpoint / per-user tables). Windows are quantized to this.
    pub stats_frame: VirtualDuration,
    /// Frames per ring; `stats_frame × stats_frames` is the longest
    /// trailing window the stats tables can answer (must cover the SLO
    /// engine's slow window).
    pub stats_frames: usize,
    /// Maximum entries per stats table (functions, endpoints, users each).
    /// Beyond this, new keys fold into the service-wide aggregate only.
    pub stats_max_keys: usize,
    /// Declared service-level objectives, evaluated by `GET /v1/slo` and
    /// exported as `funcx_slo_*` gauges.
    pub slos: Vec<crate::slo::SloSpec>,
    /// Per-user admission control at the REST gateway. `None` (the
    /// default) admits everything; `Some` enforces a token bucket per
    /// authenticated user, answering 429 + `Retry-After` when exhausted.
    pub rate_limit_per_user: Option<crate::ratelimit::RateLimitConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            payload_limit: 512 << 10,
            auth_cost: Duration::ZERO,
            store_cost: Duration::ZERO,
            retrieved_result_ttl: Duration::from_secs(600),
            heartbeat_period: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(120),
            poll_interval: Duration::from_millis(1),
            forwarder_batch: 1024,
            memo_capacity: 100_000,
            router_max_report_age: Duration::from_secs(30),
            router_failure_threshold: 3,
            router_cooldown: Duration::from_secs(60),
            wal_dir: None,
            wal_fsync: FsyncPolicy::default(),
            snapshot_every: 4096,
            trace_head_sample: 1.0,
            trace_store_capacity: 512,
            trace_max_spans: 256,
            trace_slowest_keep: 16,
            log_level: funcx_telemetry::LogLevel::Warn,
            stats_frame: Duration::from_secs(30),
            stats_frames: 128,
            stats_max_keys: 4096,
            slos: crate::slo::default_slos(),
            rate_limit_per_user: None,
        }
    }
}

impl ServiceConfig {
    /// The router tunables as a [`funcx_router::RouterConfig`].
    pub fn router_config(&self) -> funcx_router::RouterConfig {
        funcx_router::RouterConfig {
            max_report_age: self.router_max_report_age,
            failure_threshold: self.router_failure_threshold,
            cooldown: self.router_cooldown,
        }
    }

    /// The tracing tunables as a [`funcx_tracing::TraceConfig`].
    pub fn trace_config(&self) -> funcx_tracing::TraceConfig {
        funcx_tracing::TraceConfig {
            capacity: self.trace_store_capacity,
            max_spans_per_trace: self.trace_max_spans,
            slowest_keep: self.trace_slowest_keep,
            head_sample: self.trace_head_sample,
        }
    }
}

impl ServiceConfig {
    /// Latency-calibrated profile for the Table 1 / Figure 4 experiments:
    /// `ts` dominated by authentication, small store cost.
    pub fn latency_calibrated() -> Self {
        ServiceConfig {
            auth_cost: Duration::from_millis(35),
            store_cost: Duration::from_millis(3),
            ..ServiceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_free_and_permissive() {
        let c = ServiceConfig::default();
        assert_eq!(c.auth_cost, Duration::ZERO);
        assert!(c.payload_limit >= 64 << 10);
        assert!(c.wal_dir.is_none(), "durability is opt-in");
        assert!(
            matches!(c.wal_fsync, FsyncPolicy::Batched { .. }),
            "group commit is the default when the WAL is enabled"
        );
        assert_eq!(c.trace_head_sample, 1.0, "keep every trace out of the box");
        assert!(c.trace_store_capacity > 0);
        assert!(c.trace_slowest_keep > 0, "the slow tail must survive sampling");
        assert!(c.rate_limit_per_user.is_none(), "admission control is opt-in");
    }

    #[test]
    fn trace_config_mirrors_tunables() {
        let c = ServiceConfig { trace_head_sample: 0.01, ..ServiceConfig::default() };
        let t = c.trace_config();
        assert_eq!(t.head_sample, 0.01);
        assert_eq!(t.capacity, c.trace_store_capacity);
        assert_eq!(t.max_spans_per_trace, c.trace_max_spans);
        assert_eq!(t.slowest_keep, c.trace_slowest_keep);
    }

    #[test]
    fn stats_ring_covers_the_slow_slo_window() {
        let c = ServiceConfig::default();
        let coverage = c.stats_frame * c.stats_frames as u32;
        assert!(!c.slos.is_empty(), "objectives ship by default");
        for slo in &c.slos {
            assert!(coverage >= slo.slow_window, "ring too short for '{}'", slo.name);
        }
        assert!(c.stats_max_keys >= 1024, "tables must hold a realistic tenant count");
    }

    #[test]
    fn calibrated_profile_charges_auth() {
        let c = ServiceConfig::latency_calibrated();
        assert!(c.auth_cost > Duration::from_millis(10));
        assert!(c.auth_cost > c.store_cost);
    }
}
