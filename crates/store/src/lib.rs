//! funcX-rs's stand-in for AWS ElastiCache Redis (§4.1).
//!
//! The funcX service keeps three kinds of state in Redis:
//!
//! 1. a **hashset** of serialized function bodies and task records,
//! 2. a per-endpoint **task queue** holding task ids awaiting dispatch, and
//! 3. a per-endpoint **result queue** holding results awaiting retrieval.
//!
//! This crate provides the first two (results are served from the task
//! record, so no result queue is kept) as an in-process, thread-safe store
//! with the same operational semantics the service code relies on:
//! hash get/set/delete, TTL expiry (the service "periodically purge[s]
//! results from the Redis store once they have been retrieved"), blocking
//! queue pops for the forwarder's dispatch loop, and front-requeueing for
//! at-least-once redelivery.

pub mod kv;
pub mod queue;
pub mod store;

pub use kv::KvStore;
pub use queue::BlockingQueue;
pub use store::{QueueDrainCounts, QueueKind, Store};
