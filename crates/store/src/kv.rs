//! Hash/KV storage with virtual-time TTLs.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use funcx_types::time::{SharedClock, VirtualDuration, VirtualInstant};
use parking_lot::RwLock;

struct Entry {
    value: Bytes,
    /// Absolute virtual expiry, `None` = persistent.
    expires_at: Option<VirtualInstant>,
}

/// A named two-level hash store (`hset key field value`) with optional TTL,
/// modelled on the Redis hashset funcX keeps task and function records in.
pub struct KvStore {
    clock: SharedClock,
    hashes: RwLock<HashMap<String, HashMap<String, Entry>>>,
}

impl KvStore {
    /// New store reading expiry times from `clock`.
    pub fn new(clock: SharedClock) -> Arc<Self> {
        Arc::new(KvStore { clock, hashes: RwLock::new(HashMap::new()) })
    }

    fn now(&self) -> VirtualInstant {
        self.clock.now()
    }

    /// `HSET key field value` without expiry.
    pub fn hset(&self, key: &str, field: &str, value: Bytes) {
        self.hset_with_ttl(key, field, value, None);
    }

    /// `HSET` with optional TTL (funcX purges retrieved results; TTL is the
    /// mechanism).
    pub fn hset_with_ttl(
        &self,
        key: &str,
        field: &str,
        value: Bytes,
        ttl: Option<VirtualDuration>,
    ) {
        let expires_at = ttl.map(|d| self.now() + d);
        self.hashes
            .write()
            .entry(key.to_string())
            .or_default()
            .insert(field.to_string(), Entry { value, expires_at });
    }

    /// `HGET key field`, honouring expiry lazily.
    pub fn hget(&self, key: &str, field: &str) -> Option<Bytes> {
        let guard = self.hashes.read();
        let entry = guard.get(key)?.get(field)?;
        if let Some(at) = entry.expires_at {
            if self.now() >= at {
                return None;
            }
        }
        Some(entry.value.clone())
    }

    /// `HDEL key field` — true if the field existed (and was unexpired).
    pub fn hdel(&self, key: &str, field: &str) -> bool {
        let mut guard = self.hashes.write();
        let Some(hash) = guard.get_mut(key) else {
            return false;
        };
        let existed = match hash.remove(field) {
            Some(entry) => entry.expires_at.map(|at| self.now() < at).unwrap_or(true),
            None => false,
        };
        if hash.is_empty() {
            guard.remove(key);
        }
        existed
    }

    /// Number of live fields under `key`.
    pub fn hlen(&self, key: &str) -> usize {
        let now = self.now();
        self.hashes
            .read()
            .get(key)
            .map(|h| h.values().filter(|e| e.expires_at.map(|at| now < at).unwrap_or(true)).count())
            .unwrap_or(0)
    }

    /// Live field names under `key` (sorted, for deterministic iteration).
    pub fn hkeys(&self, key: &str) -> Vec<String> {
        let now = self.now();
        let mut out: Vec<String> = self
            .hashes
            .read()
            .get(key)
            .map(|h| {
                h.iter()
                    .filter(|(_, e)| e.expires_at.map(|at| now < at).unwrap_or(true))
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Set a TTL on an existing field; false if the field is absent.
    ///
    /// A field whose TTL has already lapsed (but which no sweep has
    /// physically removed yet) counts as absent: retargeting it here would
    /// resurrect data every other operation already reports as gone.
    pub fn expire(&self, key: &str, field: &str, ttl: VirtualDuration) -> bool {
        let now = self.now();
        let mut guard = self.hashes.write();
        let Some(hash) = guard.get_mut(key) else {
            return false;
        };
        match hash.get_mut(field) {
            Some(e) if e.expires_at.map(|at| now < at).unwrap_or(true) => {
                e.expires_at = Some(now + ttl);
                true
            }
            Some(_) => {
                // Logically expired: reclaim it now instead of re-arming it.
                hash.remove(field);
                if hash.is_empty() {
                    guard.remove(key);
                }
                false
            }
            None => false,
        }
    }

    /// Physically remove expired entries (the periodic purge); returns how
    /// many entries were reclaimed.
    pub fn sweep(&self) -> usize {
        let now = self.now();
        let mut reclaimed = 0;
        let mut guard = self.hashes.write();
        guard.retain(|_, hash| {
            hash.retain(|_, e| {
                let live = e.expires_at.map(|at| now < at).unwrap_or(true);
                if !live {
                    reclaimed += 1;
                }
                live
            });
            !hash.is_empty()
        });
        reclaimed
    }

    /// Total live entries across all hashes (observability).
    pub fn total_entries(&self) -> usize {
        let now = self.now();
        self.hashes
            .read()
            .values()
            .map(|h| h.values().filter(|e| e.expires_at.map(|at| now < at).unwrap_or(true)).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::time::ManualClock;
    use std::time::Duration;

    fn store() -> (Arc<ManualClock>, Arc<KvStore>) {
        let clock = ManualClock::new();
        let kv = KvStore::new(clock.clone());
        (clock, kv)
    }

    #[test]
    fn hset_hget_hdel() {
        let (_, kv) = store();
        kv.hset("tasks", "t1", Bytes::from_static(b"payload"));
        assert_eq!(kv.hget("tasks", "t1").unwrap(), Bytes::from_static(b"payload"));
        assert_eq!(kv.hlen("tasks"), 1);
        assert!(kv.hdel("tasks", "t1"));
        assert!(!kv.hdel("tasks", "t1"));
        assert_eq!(kv.hget("tasks", "t1"), None);
        assert_eq!(kv.hlen("tasks"), 0);
    }

    #[test]
    fn overwrite_replaces() {
        let (_, kv) = store();
        kv.hset("h", "f", Bytes::from_static(b"a"));
        kv.hset("h", "f", Bytes::from_static(b"b"));
        assert_eq!(kv.hget("h", "f").unwrap(), Bytes::from_static(b"b"));
        assert_eq!(kv.hlen("h"), 1);
    }

    #[test]
    fn ttl_expires_with_virtual_time() {
        let (clock, kv) = store();
        kv.hset_with_ttl("r", "t1", Bytes::from_static(b"x"), Some(Duration::from_secs(60)));
        assert!(kv.hget("r", "t1").is_some());
        clock.advance(Duration::from_secs(59));
        assert!(kv.hget("r", "t1").is_some());
        clock.advance(Duration::from_secs(2));
        assert!(kv.hget("r", "t1").is_none());
        assert_eq!(kv.hlen("r"), 0);
    }

    #[test]
    fn expire_retargets_existing_field() {
        let (clock, kv) = store();
        kv.hset("r", "t1", Bytes::from_static(b"x"));
        assert!(kv.expire("r", "t1", Duration::from_secs(10)));
        assert!(!kv.expire("r", "missing", Duration::from_secs(10)));
        clock.advance(Duration::from_secs(11));
        assert!(kv.hget("r", "t1").is_none());
    }

    #[test]
    fn expire_does_not_resurrect_lazily_expired_fields() {
        let (clock, kv) = store();
        kv.hset_with_ttl("r", "t1", Bytes::from_static(b"x"), Some(Duration::from_secs(5)));
        clock.advance(Duration::from_secs(6));
        // The field is logically gone (no sweep has run yet); re-arming its
        // TTL must not bring it back to life.
        assert!(!kv.expire("r", "t1", Duration::from_secs(100)));
        assert!(kv.hget("r", "t1").is_none());
        assert_eq!(kv.hlen("r"), 0);
        // And the entry was physically reclaimed, not left for sweep.
        assert_eq!(kv.sweep(), 0);
        // A live field still retargets normally.
        kv.hset_with_ttl("r", "t2", Bytes::from_static(b"y"), Some(Duration::from_secs(5)));
        assert!(kv.expire("r", "t2", Duration::from_secs(100)));
        clock.advance(Duration::from_secs(50));
        assert!(kv.hget("r", "t2").is_some());
    }

    #[test]
    fn sweep_reclaims_only_expired() {
        let (clock, kv) = store();
        kv.hset_with_ttl("r", "dead", Bytes::from_static(b"x"), Some(Duration::from_secs(1)));
        kv.hset("r", "alive", Bytes::from_static(b"y"));
        clock.advance(Duration::from_secs(2));
        assert_eq!(kv.sweep(), 1);
        assert_eq!(kv.total_entries(), 1);
        assert!(kv.hget("r", "alive").is_some());
    }

    #[test]
    fn hkeys_sorted_and_live_only() {
        let (clock, kv) = store();
        kv.hset("h", "b", Bytes::new());
        kv.hset("h", "a", Bytes::new());
        kv.hset_with_ttl("h", "zz", Bytes::new(), Some(Duration::from_secs(1)));
        clock.advance(Duration::from_secs(2));
        assert_eq!(kv.hkeys("h"), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn concurrent_writers_do_not_lose_entries() {
        let (_, kv) = store();
        std::thread::scope(|s| {
            for t in 0..8 {
                let kv = kv.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        kv.hset("h", &format!("{t}-{i}"), Bytes::from_static(b"v"));
                    }
                });
            }
        });
        assert_eq!(kv.hlen("h"), 800);
    }
}
