//! The combined store handle the funcX service holds: one hash space plus
//! a named task queue per endpoint (§4.1: "each registered endpoint is
//! allocated a unique Redis task queue and result queue" — results here
//! live in the task record, where clients poll for them, so only the task
//! queue exists).
//!
//! Nothing here is durable and nothing here is journaled: after a restart
//! the service re-derives each queue from the task records its write-ahead
//! log restored, so a queue operation is one lock and no I/O.

use std::collections::HashMap;
use std::sync::Arc;

use funcx_types::time::SharedClock;
use funcx_types::EndpointId;
use parking_lot::Mutex;

use crate::kv::KvStore;
use crate::queue::BlockingQueue;

/// Which per-endpoint queue. One kind is left; it stays an argument so call
/// sites and the `funcx_queue_depth{kind=…}` label read as they always did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Tasks awaiting dispatch to the endpoint.
    Task,
}

impl QueueKind {
    /// Stable lowercase label (metric label values).
    pub fn label(&self) -> &'static str {
        match self {
            QueueKind::Task => "task",
        }
    }
}

/// What `remove_endpoint_queues` found still buffered when it tore the
/// queue down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDrainCounts {
    /// Tasks that were queued but never dispatched.
    pub tasks_dropped: usize,
}

/// The service's Redis-shaped store.
pub struct Store {
    /// Hash space (task records, function bodies, memo cache).
    pub kv: Arc<KvStore>,
    queues: Mutex<HashMap<(EndpointId, QueueKind), Arc<BlockingQueue>>>,
}

impl Store {
    /// New store on the given clock.
    pub fn new(clock: SharedClock) -> Arc<Self> {
        Arc::new(Store { kv: KvStore::new(clock), queues: Mutex::new(HashMap::new()) })
    }

    /// Get (creating on first use) an endpoint's queue. Queue allocation
    /// happens at endpoint registration in the paper; lazy creation gives
    /// the same observable behaviour.
    pub fn queue(&self, endpoint: EndpointId, kind: QueueKind) -> Arc<BlockingQueue> {
        self.queues.lock().entry((endpoint, kind)).or_insert_with(BlockingQueue::new).clone()
    }

    /// Depth of a queue without creating it.
    pub fn queue_len(&self, endpoint: EndpointId, kind: QueueKind) -> usize {
        self.queues.lock().get(&(endpoint, kind)).map(|q| q.len()).unwrap_or(0)
    }

    /// Close and drop an endpoint's queue (endpoint deregistration).
    /// Returns how many items it still held — undelivered work the caller
    /// must account for (fail the tasks).
    pub fn remove_endpoint_queues(&self, endpoint: EndpointId) -> QueueDrainCounts {
        let mut counts = QueueDrainCounts::default();
        if let Some(q) = self.queues.lock().remove(&(endpoint, QueueKind::Task)) {
            counts.tasks_dropped = q.len();
            q.close();
        }
        counts
    }

    /// Number of queues currently allocated (observability).
    pub fn queue_count(&self) -> usize {
        self.queues.lock().len()
    }

    /// Depth of every allocated queue — the scrape surface behind the
    /// `funcx_queue_depth` gauges. Sorted for stable output.
    pub fn queue_depths(&self) -> Vec<(EndpointId, QueueKind, usize)> {
        let mut out: Vec<(EndpointId, QueueKind, usize)> =
            self.queues.lock().iter().map(|(&(ep, kind), q)| (ep, kind, q.len())).collect();
        out.sort_by_key(|&(ep, ..)| ep);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use funcx_types::time::ManualClock;
    use std::time::Duration;

    #[test]
    fn queues_are_per_endpoint_and_kind() {
        let store = Store::new(ManualClock::new());
        let ep1 = EndpointId::from_u128(1);
        let ep2 = EndpointId::from_u128(2);
        store.queue(ep1, QueueKind::Task).push_back(Bytes::from_static(b"t"));
        assert_eq!(store.queue_len(ep1, QueueKind::Task), 1);
        assert_eq!(store.queue_len(ep2, QueueKind::Task), 0);
        // Same handle on re-fetch.
        assert_eq!(store.queue(ep1, QueueKind::Task).len(), 1);
        assert_eq!(store.queue_count(), 1); // only ep1's task queue was materialized
    }

    #[test]
    fn remove_endpoint_closes_queues() {
        let store = Store::new(ManualClock::new());
        let ep = EndpointId::from_u128(1);
        let q = store.queue(ep, QueueKind::Task);
        store.remove_endpoint_queues(ep);
        assert!(q.is_closed());
        assert!(!q.push_back(Bytes::from_static(b"x")));
        // A fresh queue is allocated if the endpoint re-registers.
        let q2 = store.queue(ep, QueueKind::Task);
        assert!(q2.push_back(Bytes::from_static(b"x")));
    }

    #[test]
    fn queue_depths_snapshot_is_sorted_and_complete() {
        let store = Store::new(ManualClock::new());
        let ep1 = EndpointId::from_u128(1);
        let ep2 = EndpointId::from_u128(2);
        store.queue(ep2, QueueKind::Task).push_back(Bytes::from_static(b"r"));
        store.queue(ep1, QueueKind::Task).push_back(Bytes::from_static(b"a"));
        store.queue(ep1, QueueKind::Task).push_back(Bytes::from_static(b"b"));
        assert_eq!(
            store.queue_depths(),
            vec![(ep1, QueueKind::Task, 2), (ep2, QueueKind::Task, 1)]
        );
        assert_eq!(QueueKind::Task.label(), "task");
    }

    #[test]
    fn remove_endpoint_queues_counts_what_was_left() {
        let store = Store::new(ManualClock::new());
        let ep = EndpointId::from_u128(7);
        store.queue(ep, QueueKind::Task).push_back(Bytes::from_static(b"t1"));
        store.queue(ep, QueueKind::Task).push_back(Bytes::from_static(b"t2"));
        assert_eq!(store.remove_endpoint_queues(ep), QueueDrainCounts { tasks_dropped: 2 });
        // Removing an endpoint with no queue reports zero.
        assert_eq!(store.remove_endpoint_queues(EndpointId::from_u128(8)).tasks_dropped, 0);
    }

    #[test]
    fn kv_and_queues_share_clock() {
        let clock = ManualClock::new();
        let store = Store::new(clock.clone());
        store.kv.hset_with_ttl("r", "x", Bytes::new(), Some(Duration::from_secs(1)));
        clock.advance(Duration::from_secs(2));
        assert!(store.kv.hget("r", "x").is_none());
    }
}
