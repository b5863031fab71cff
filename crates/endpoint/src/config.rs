//! Endpoint tunables.
//!
//! These knobs are exactly the dimensions the paper's evaluation sweeps:
//! executor-side batching on/off (§5.5.2), prefetch count (§5.5.5, Figure
//! 11), workers per node (§5.2), and heartbeat periods (§5.4).

use std::time::Duration;

use funcx_types::time::VirtualDuration;

/// Configuration for an endpoint deployment (agent + managers + workers).
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Worker slots per manager (containers per node: 64 on Theta, 256 on
    /// Cori in the paper's runs).
    pub workers_per_manager: usize,
    /// Executor-side batching (§4.7): when true a manager requests as many
    /// tasks as it has idle workers; when false it requests one at a time.
    pub batching: bool,
    /// Prefetch credit (§4.7): tasks a manager will buffer beyond its idle
    /// workers. 0 disables prefetching.
    pub prefetch: usize,
    /// How often components emit heartbeats (virtual time).
    pub heartbeat_period: VirtualDuration,
    /// Silence after which a peer is declared lost (virtual time).
    pub heartbeat_timeout: VirtualDuration,
    /// Housekeeping tick of the agent and manager loops (wall clock): how
    /// often an idle loop emits heartbeats, runs its watchdog and pool
    /// maintenance, and notices a `ManualClock` advance. Tasks and results
    /// never wait for it — the loops block on their `Wake`.
    pub poll_interval: Duration,
    /// Per-task dispatch overhead charged at the agent (virtual time).
    /// Calibrated so a single agent saturates at the paper's measured
    /// 1 694 tasks/s on Theta (§5.2.3) — this models the Python agent's
    /// per-task serialization + socket work, which the Rust implementation
    /// would otherwise be too fast to exhibit.
    pub dispatch_overhead: VirtualDuration,
    /// FxScript sandbox limits applied by workers.
    pub limits: funcx_lang::Limits,
    /// Stack size for worker execution threads (interpreters recurse).
    pub worker_stack_bytes: usize,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            workers_per_manager: 4,
            batching: true,
            prefetch: 0,
            heartbeat_period: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(1),
            dispatch_overhead: Duration::from_micros(590),
            limits: funcx_lang::Limits::default(),
            worker_stack_bytes: 8 << 20,
        }
    }
}

impl EndpointConfig {
    /// Config mirroring the paper's Theta runs (64 containers/node).
    pub fn theta() -> Self {
        EndpointConfig { workers_per_manager: 64, ..EndpointConfig::default() }
    }

    /// Maximum tasks a manager may hold at once under this config.
    pub fn manager_credit(&self) -> usize {
        if self.batching {
            self.workers_per_manager + self.prefetch
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_reflects_batching_and_prefetch() {
        let mut c = EndpointConfig { workers_per_manager: 64, ..EndpointConfig::default() };
        assert_eq!(c.manager_credit(), 64);
        c.prefetch = 64;
        assert_eq!(c.manager_credit(), 128);
        c.batching = false;
        assert_eq!(c.manager_credit(), 1);
    }

    #[test]
    fn theta_preset() {
        assert_eq!(EndpointConfig::theta().workers_per_manager, 64);
    }
}
