//! Durability wiring: the service side of `funcx-wal`.
//!
//! [`RecoveryReport`] is what [`crate::service::FuncxService::recover`]
//! (and `absorb_state`) found and rebuilt, for operators and tests. The
//! service appends lifecycle records itself (`log_event`); queues are not
//! journaled, they are re-derived from the restored task records.

/// What one [`crate::service::FuncxService::recover`] pass rebuilt.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// A snapshot file seeded the replay.
    pub snapshot_loaded: bool,
    /// Log records replayed on top of the snapshot (or empty state).
    pub events_replayed: u64,
    /// Records skipped because they no longer parse (format drift).
    pub events_skipped: u64,
    /// Bytes truncated from a torn log tail.
    pub truncated_bytes: u64,
    /// Task records restored into the task store.
    pub tasks_restored: usize,
    /// Endpoint registrations restored (all start `Offline`).
    pub endpoints_restored: usize,
    /// Function registrations restored.
    pub functions_restored: usize,
    /// Memoized results restored.
    pub memo_entries_restored: usize,
    /// Dispatched-but-unacked tasks flipped back to waiting and put at the
    /// head of their task queue, in arrival order, for at-least-once
    /// redelivery.
    pub unacked_redelivered: usize,
    /// `WaitingForEndpoint` tasks put back in their task queue behind them.
    pub waiting_requeued: usize,
    /// Tasks still owed by an endpoint the log deregistered: failed with
    /// that reason instead of parked in a queue nobody will drain.
    pub orphans_failed: usize,
    /// Wall-clock time the whole recovery pass took.
    pub duration: std::time::Duration,
}

impl RecoveryReport {
    /// Total task-shaped work the recovery put back in flight.
    pub fn redelivered(&self) -> usize {
        self.unacked_redelivered + self.waiting_requeued
    }
}
