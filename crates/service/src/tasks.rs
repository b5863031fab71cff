//! Sharded task store — the Redis task hashset of §4.1, built to survive
//! concurrent submit/poll/dispatch load.
//!
//! The TPDS follow-up to the paper reports that production hardening was
//! dominated by task-state storage under concurrency. A single
//! `RwLock<HashMap>` makes every status poll contend with every dispatch
//! and result write; worse, any code path that does real work (serializing
//! function bodies, deserializing tracebacks, hashing memo keys) while
//! holding the write lock starves all pollers for the duration.
//!
//! [`TaskStore`] splits the table into N shards keyed by the task id's
//! uuid (task ids are random, so the low bits are uniformly distributed).
//! Two pollers or a poller and a writer only collide when their tasks land
//! in the same shard, and whole-table operations (purge, census) proceed
//! shard-by-shard, freezing 1/N of the table at a time instead of all of
//! it.
//!
//! Lock-hold hygiene contract (see DESIGN.md "Concurrency & locking"):
//! closures passed to [`TaskStore::with_record_mut`] /
//! [`TaskStore::read_record`] / [`TaskStore::retain`] run under a shard
//! lock and must only read or mutate the record — never serialize,
//! deserialize, hash payloads, authenticate, or take another lock.

use std::collections::HashMap;

use funcx_types::task::TaskRecord;
use funcx_types::TaskId;
use parking_lot::RwLock;

/// Shard count of the service's task table: many, so status polls and
/// result writes touch disjoint locks.
pub const DEFAULT_SHARDS: usize = 64;

/// N independent `RwLock<HashMap<TaskId, TaskRecord>>` shards.
pub struct TaskStore {
    shards: Vec<RwLock<HashMap<TaskId, TaskRecord>>>,
    /// `shards.len() - 1`; the count is forced to a power of two so shard
    /// selection is a mask, not a modulo.
    mask: usize,
}

impl TaskStore {
    /// New store with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        TaskStore { shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(), mask: n - 1 }
    }

    fn shard(&self, task_id: TaskId) -> &RwLock<HashMap<TaskId, TaskRecord>> {
        &self.shards[(task_id.uuid().as_u128() as usize) & self.mask]
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Insert (or replace) a record.
    pub fn insert(&self, task_id: TaskId, record: TaskRecord) {
        self.shard(task_id).write().insert(task_id, record);
    }

    /// Clone a record out of its shard.
    pub fn get_cloned(&self, task_id: TaskId) -> Option<TaskRecord> {
        self.shard(task_id).read().get(&task_id).cloned()
    }

    /// Run `f` over the record under the shard's *read* lock — for cheap
    /// projections (state, owner) that don't warrant a full clone.
    pub fn read_record<T>(&self, task_id: TaskId, f: impl FnOnce(&TaskRecord) -> T) -> Option<T> {
        self.shard(task_id).read().get(&task_id).map(f)
    }

    /// Run `f` over the record under the shard's *write* lock — a per-task
    /// write section. `None` if the task is unknown.
    pub fn with_record_mut<T>(
        &self,
        task_id: TaskId,
        f: impl FnOnce(&mut TaskRecord) -> T,
    ) -> Option<T> {
        self.shard(task_id).write().get_mut(&task_id).map(f)
    }

    /// Remove a record, returning it.
    pub fn remove(&self, task_id: TaskId) -> Option<TaskRecord> {
        self.shard(task_id).write().remove(&task_id)
    }

    /// Remove a record if `doomed` says so, deciding and removing under one
    /// write section. True if it was removed.
    pub fn remove_if(&self, task_id: TaskId, doomed: impl FnOnce(&TaskRecord) -> bool) -> bool {
        let mut shard = self.shard(task_id).write();
        let remove = shard.get(&task_id).is_some_and(doomed);
        if remove {
            shard.remove(&task_id);
        }
        remove
    }

    /// Keep only records for which `keep` returns true, one shard at a
    /// time (the whole table is never frozen at once). Returns how many
    /// records were dropped.
    pub fn retain(&self, mut keep: impl FnMut(&TaskId, &mut TaskRecord) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let before = guard.len();
            guard.retain(|id, record| keep(id, record));
            dropped += before - guard.len();
        }
        dropped
    }

    /// Total live records, summed shard-by-shard under read locks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Visit every record shard-by-shard under read locks (census paths:
    /// metrics, debugging). `f` must follow the same hygiene contract as
    /// the other closures.
    pub fn for_each(&self, mut f: impl FnMut(&TaskId, &TaskRecord)) {
        for shard in &self.shards {
            let guard = shard.read();
            for (id, record) in guard.iter() {
                f(id, record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::ids::Uuid;
    use funcx_types::task::{TaskSpec, TaskState};
    use funcx_types::time::VirtualInstant;
    use funcx_types::{EndpointId, FunctionId, UserId};

    fn record(id: TaskId) -> TaskRecord {
        TaskRecord::new(
            TaskSpec {
                task_id: id,
                function_id: FunctionId::from_u128(1),
                endpoint_id: EndpointId::from_u128(2),
                pool: None,
                user_id: UserId::from_u128(3),
                payload: vec![],
                container: None,
                allow_memo: false,
                span: Default::default(),
                runtime: Default::default(),
            },
            VirtualInstant::ZERO,
        )
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(TaskStore::new(0).shard_count(), 1);
        assert_eq!(TaskStore::new(1).shard_count(), 1);
        assert_eq!(TaskStore::new(5).shard_count(), 8);
        assert_eq!(TaskStore::new(64).shard_count(), 64);
    }

    #[test]
    fn insert_get_mutate_remove_roundtrip() {
        let store = TaskStore::new(8);
        let id = TaskId(Uuid::random());
        assert!(store.get_cloned(id).is_none());
        store.insert(id, record(id));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.read_record(id, |r| r.state), Some(TaskState::Received));
        store.with_record_mut(id, |r| r.transition(TaskState::WaitingForEndpoint));
        assert_eq!(store.get_cloned(id).unwrap().state, TaskState::WaitingForEndpoint);
        assert!(store.remove(id).is_some());
        assert!(store.is_empty());
    }

    #[test]
    fn unknown_ids_yield_none_not_panic() {
        let store = TaskStore::new(4);
        let id = TaskId::from_u128(404);
        assert!(store.read_record(id, |r| r.state).is_none());
        assert!(store.with_record_mut(id, |r| r.state).is_none());
        assert!(store.remove(id).is_none());
    }

    #[test]
    fn records_spread_across_shards_and_census_sees_all() {
        let store = TaskStore::new(16);
        let ids: Vec<TaskId> = (0..256).map(|_| TaskId(Uuid::random())).collect();
        for &id in &ids {
            store.insert(id, record(id));
        }
        assert_eq!(store.len(), 256);
        let mut seen = 0;
        store.for_each(|_, _| seen += 1);
        assert_eq!(seen, 256);
        // With 256 random ids over 16 shards, the probability that any
        // single shard holds everything is astronomically small; assert
        // the spread actually happened.
        let mut non_empty = 0;
        for i in 0..store.shard_count() {
            let mut any = false;
            store.for_each(|id, _| {
                if (id.uuid().as_u128() as usize) & store.mask == i {
                    any = true;
                }
            });
            if any {
                non_empty += 1;
            }
        }
        assert!(non_empty > 1, "all records landed in one shard");
    }

    #[test]
    fn retain_reports_dropped_count() {
        let store = TaskStore::new(8);
        let ids: Vec<TaskId> = (0..32).map(|_| TaskId(Uuid::random())).collect();
        for &id in &ids {
            store.insert(id, record(id));
        }
        let keep = ids[0];
        let dropped = store.retain(|id, _| *id == keep);
        assert_eq!(dropped, 31);
        assert_eq!(store.len(), 1);
        assert!(store.get_cloned(keep).is_some());
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_records() {
        use std::sync::Arc;
        let store = Arc::new(TaskStore::new(16));
        let ids: Arc<Vec<TaskId>> = Arc::new((0..64).map(|_| TaskId(Uuid::random())).collect());
        for &id in ids.iter() {
            store.insert(id, record(id));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let ids = Arc::clone(&ids);
                s.spawn(move || {
                    for _ in 0..200 {
                        for &id in ids.iter() {
                            let _ = store.read_record(id, |r| r.state);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let store = Arc::clone(&store);
                let ids = Arc::clone(&ids);
                s.spawn(move || {
                    for _ in 0..200 {
                        for &id in ids.iter() {
                            store.with_record_mut(id, |r| r.delivery_count += 1);
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 64);
        store.for_each(|_, r| assert_eq!(r.delivery_count, 400));
    }
}
