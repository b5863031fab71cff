//! Unified observability for funcX-rs.
//!
//! The paper's headline results are observability artifacts: Figure 4
//! decomposes per-task latency into web-service/forwarder/endpoint/execution
//! components, and operating a federated fleet (the follow-up journal paper
//! runs 130+ endpoints) leans on heartbeat/status reporting. This crate is
//! the instrumentation substrate behind both:
//!
//! * [`MetricsRegistry`] — named, label-tagged counters, gauges, and
//!   log-bucketed latency histograms. Handles are `Arc`-backed atomics:
//!   registration takes a lock once, the hot path is a single atomic op.
//!   [`MetricsRegistry::render_prometheus`] renders the whole registry in
//!   the Prometheus text exposition format with no external dependencies.
//! * [`WindowedHistogram`] / [`WindowedCounter`] — the same lock-free
//!   recording discipline over a ring of time-bucketed frames, mergeable
//!   across arbitrary trailing windows (1 m / 5 m / 1 h), so "what does
//!   latency look like *now*" is answerable without restarting counters.
//! * [`TieredPool`] — the §4.7 warm pool (idle LIFO + TTL reap + capacity
//!   eviction + snapshot clones + pre-warming from a [`WindowedCounter`]
//!   arrival rate), generic over key and value; the container warm-start
//!   engine and the sandbox host are its two instantiations.
//! * [`fx_log!`] — leveled, key=value structured log lines with a global
//!   atomic level filter and automatic `trace_id`/`span_id` attachment
//!   when the calling thread is inside a span scope ([`log::enter_span`]).
//!
//! Everything is keyed by `&'static str` metric names plus owned label
//! values, mirroring the Prometheus data model.

pub mod log;
pub mod pool;
pub mod registry;
pub mod window;

pub use log::{LogLevel, SpanScope};
pub use pool::{PoolConfig, PoolStats, Tier, TierModel, TieredPool};
pub use registry::{Counter, FloatGauge, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use window::{WindowSnapshot, WindowedCounter, WindowedHistogram};
