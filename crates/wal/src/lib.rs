//! funcx-wal: durable write-ahead log, snapshots, and crash recovery for
//! the funcX service substrate.
//!
//! The paper's hosted service survives host restarts because its state
//! lives in AWS ElastiCache (task store, queues) and RDS (registry) —
//! §4.1. This crate supplies the equivalent durability for our in-process
//! substitutes: every state change the at-least-once contract depends on
//! is appended as a [`DurableEvent`] to a segmented, CRC-framed log
//! ([`Wal`]), group-committed to disk, folded into a [`WalState`]
//! checkpoint by a background thread, and replayed on restart — including
//! re-queueing tasks that were dispatched but never acknowledged.
//!
//! Module map:
//! * [`frame`] — `[len][crc32][payload]` record framing + torn-tail scan.
//! * [`codec`] — hand-rolled binary encode/decode for payloads.
//! * [`event`] — the [`DurableEvent`] model of what must survive.
//! * `retired` — decode-only shapes of record kinds no longer written.
//! * [`state`] — [`WalState`], the materialized view / replay target.
//! * [`snapshot`] — checkpoint format: a whole state as bounded frames.
//! * `recover` — (checkpoint, segments) → state, and its write-back.
//! * [`log`] — the [`Wal`]: segments, group commit, background checkpoints.
//! * [`ship`] — segment shipping: followers tail a leader's log.

pub mod codec;
pub mod event;
pub mod frame;
pub mod log;
mod recover;
mod retired;
pub mod ship;
pub mod snapshot;
pub mod state;

pub use event::DurableEvent;
pub use log::{AppendInfo, FsyncPolicy, RecoveryInfo, Wal, WalConfig, WalInstruments};
pub use ship::{Follower, SegmentShipper, Shipment};
pub use state::WalState;

/// Test fodder shared with `tests/`: the records the service really writes.
#[cfg(test)]
pub(crate) mod fodder {
    use crate::DurableEvent;
    include!("../tests/fixtures/lifecycle_events.rs");
}
