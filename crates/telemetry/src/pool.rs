//! The tiered warm pool (§4.7): one implementation of "keep it warm for a
//! few minutes after use", shared by the container warm-start engine and
//! the sandbox host.
//!
//! Per key the pool holds idle values, at most one *snapshot* (the template
//! clones are minted from) and an arrival counter. A
//! [`resolve`](TieredPool::resolve) is served by the first tier that can:
//!
//! 1. **Warm / predicted** — the most recently idled value for the key (LIFO:
//!    the hottest is reused, the stalest ages out), tier `warm` if a caller
//!    released it and `predicted` if the pre-warmer minted it.
//! 2. **Clone** — minted from the key's snapshot.
//! 3. **Cold** — made from nothing; a successful cold start may leave a
//!    snapshot behind for tier 2.
//!
//! [`maintain`](TieredPool::maintain) reaps idle values older than the TTL
//! and then pre-mints toward `ceil(arrival_rate × ttl)` per key — the
//! arrivals an idle value can expect to see before the TTL reaps it — inside
//! the per-key, global and per-pass bounds. What a value *is*, what each tier
//! costs and whether cold starts leave snapshots is the caller's
//! [`TierModel`]; with a model that never leaves one, the pool is the paper's
//! plain TTL cache.
//!
//! Two decisions are the pool's own. Everything, the counters included, sits
//! behind **one** mutex, and a cold start runs *under* it: two callers racing
//! on a fresh key cannot both go cold, so there is exactly one cold start and
//! one snapshot per key (a cold start here is a modelled cost in virtual time
//! or a parse, not seconds of wall time). And every choice among keys is made
//! in key order — the pre-warm pass walks keys ascending, global eviction
//! breaks an `idle_since` tie toward the smaller key — so one schedule gives
//! one transcript.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use funcx_types::time::{SharedClock, VirtualInstant};
use parking_lot::Mutex;

use crate::window::WindowedCounter;

/// Frames in a key's arrival ring; with [`PoolConfig::rate_window`] split
/// into six frames the ring covers twice the window.
const ARRIVAL_FRAMES: usize = 12;

/// Bounds of a [`TieredPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Idle values older than this are reaped (the paper's 5-10 minutes).
    pub ttl: Duration,
    /// Idle values one key may hold; a release past it evicts the stalest.
    pub per_key_capacity: usize,
    /// Idle values across all keys; overflow evicts the globally stalest.
    pub global_capacity: usize,
    /// Trailing window the arrival-rate estimate is computed over.
    pub rate_window: Duration,
    /// Values one `maintain` pass may mint (zero: never pre-warm).
    pub max_prewarm_per_tick: usize,
}

impl PoolConfig {
    /// The shared defaults around an explicit TTL.
    pub const fn with_ttl(ttl: Duration) -> PoolConfig {
        PoolConfig {
            ttl,
            per_key_capacity: 8,
            global_capacity: 64,
            rate_window: Duration::from_secs(60),
            max_prewarm_per_tick: 4,
        }
    }
}

/// Which tier served a resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Idle value released by a caller.
    Warm,
    /// Idle value the pre-warmer minted ahead of demand.
    Predicted,
    /// Minted from the key's snapshot on a pool miss.
    Clone,
    /// Made from nothing (no snapshot existed yet).
    Cold,
}

impl Tier {
    /// Stable label for metrics and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Warm => "warm",
            Tier::Predicted => "predicted",
            Tier::Clone => "clone",
            Tier::Cold => "cold",
        }
    }
}

/// The pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Resolves served by a caller-released idle value.
    pub warm_hits: u64,
    /// Resolves served by a pre-minted value.
    pub predicted_hits: u64,
    /// Resolves served by a fresh clone of the key's snapshot.
    pub clone_hits: u64,
    /// Resolves that paid (or attempted) a cold start.
    pub cold_misses: u64,
    /// Values the pre-warmer minted.
    pub prewarm_minted: u64,
    /// Idle values evicted by the per-key or global capacity.
    pub evictions: u64,
    /// Idle values reaped after their TTL lapsed.
    pub reaped: u64,
    /// Snapshots captured (one per key cold-started successfully).
    pub snapshots: u64,
    /// Virtual time spent minting pre-warm values (background work, never
    /// charged to a caller).
    pub prewarm_cost_nanos: u64,
}

impl PoolStats {
    /// Total resolves across all four tiers.
    pub fn acquires(&self) -> u64 {
        self.warm_hits + self.predicted_hits + self.clone_hits + self.cold_misses
    }

    /// Fraction of resolves served from an idle value (warm + predicted).
    pub fn warm_tier_rate(&self) -> f64 {
        let total = self.acquires();
        if total == 0 {
            0.0
        } else {
            (self.warm_hits + self.predicted_hits) as f64 / total as f64
        }
    }
}

/// What the pool's values are made of and what each tier costs; built by
/// the caller for one [`resolve`](TieredPool::resolve) or
/// [`maintain`](TieredPool::maintain). Costs are virtual durations the pool
/// reports and never sleeps.
pub trait TierModel<K, V> {
    /// Why a cold start can fail.
    type Error;

    /// Cost of handing out an idle value.
    fn warm_cost(&self) -> Duration;

    /// Mint a value from the key's snapshot and price it.
    fn mint(&mut self, key: K, snapshot: &V) -> (V, Duration);

    /// Make a value from nothing and price it.
    fn cold_start(&mut self, key: K) -> Result<(V, Duration), Self::Error>;

    /// The snapshot a successful cold start leaves behind, if this model
    /// keeps snapshots at all.
    fn snapshot(&mut self, value: &V) -> Option<V>;
}

/// Who put an idle value in the pool — decides its hit tier.
#[derive(Clone, Copy)]
enum Provenance {
    Released,
    Preminted,
}

struct Idle<V> {
    value: V,
    idle_since: VirtualInstant,
    provenance: Provenance,
}

struct Slot<V> {
    /// Time-ordered: stalest at the front, hottest popped from the back.
    idle: VecDeque<Idle<V>>,
    /// Never handed out, only minted from.
    snapshot: Option<V>,
    /// Feeds the rate estimate; dropped once its whole ring reads zero.
    arrivals: Option<WindowedCounter>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot { idle: VecDeque::new(), snapshot: None, arrivals: None }
    }
}

struct Inner<K, V> {
    slots: BTreeMap<K, Slot<V>>,
    /// Idle values across all slots (kept in sync with them).
    idle_total: usize,
    stats: PoolStats,
}

/// See the module docs.
pub struct TieredPool<K, V> {
    clock: SharedClock,
    config: PoolConfig,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Ord + Copy, V> TieredPool<K, V> {
    /// An empty pool.
    pub fn new(clock: SharedClock, config: PoolConfig) -> Self {
        let inner = Inner { slots: BTreeMap::new(), idle_total: 0, stats: PoolStats::default() };
        TieredPool { clock, config, inner: Mutex::new(inner) }
    }

    fn arrival_frame(&self) -> Duration {
        (self.config.rate_window / 6).max(Duration::from_secs(1))
    }

    fn is_live(&self, entry: &Idle<V>, now: VirtualInstant) -> bool {
        now.saturating_duration_since(entry.idle_since) < self.config.ttl
    }

    /// Drop a queue's TTL-expired entries; returns how many went.
    fn prune_queue(&self, queue: &mut VecDeque<Idle<V>>, now: VirtualInstant) -> usize {
        let before = queue.len();
        queue.retain(|e| self.is_live(e, now));
        before - queue.len()
    }

    /// Record one arrival for `key`. Callers note arrivals on task receipt,
    /// not on resolve, so queueing delay between the two cannot double-count
    /// or starve the rate estimate.
    pub fn note_arrival(&self, key: K) {
        let mut inner = self.inner.lock();
        let slot = inner.slots.entry(key).or_default();
        let counter = slot.arrivals.get_or_insert_with(|| {
            WindowedCounter::new(Arc::clone(&self.clock), self.arrival_frame(), ARRIVAL_FRAMES)
        });
        counter.inc();
    }

    /// Serve `key` from the first tier that can (see the module docs) and
    /// return the value, the tier and the virtual cost the caller owes.
    /// Never sleeps.
    pub fn resolve<M: TierModel<K, V>>(
        &self,
        key: K,
        model: &mut M,
    ) -> Result<(V, Tier, Duration), M::Error> {
        let now = self.clock.now();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let slot = inner.slots.entry(key).or_default();

        let reaped = self.prune_queue(&mut slot.idle, now);
        inner.idle_total -= reaped;
        inner.stats.reaped += reaped as u64;
        if let Some(entry) = slot.idle.pop_back() {
            inner.idle_total -= 1;
            let tier = match entry.provenance {
                Provenance::Released => {
                    inner.stats.warm_hits += 1;
                    Tier::Warm
                }
                Provenance::Preminted => {
                    inner.stats.predicted_hits += 1;
                    Tier::Predicted
                }
            };
            return Ok((entry.value, tier, model.warm_cost()));
        }

        if let Some(snapshot) = &slot.snapshot {
            inner.stats.clone_hits += 1;
            let (value, cost) = model.mint(key, snapshot);
            return Ok((value, Tier::Clone, cost));
        }

        inner.stats.cold_misses += 1;
        let (value, cost) = model.cold_start(key)?;
        slot.snapshot = model.snapshot(&value);
        inner.stats.snapshots += u64::from(slot.snapshot.is_some());
        Ok((value, Tier::Cold, cost))
    }

    /// Give a value back; it idles (tier `warm` on its next hit) until the
    /// TTL or a capacity bound takes it. Overflow evicts stalest-first:
    /// within the key past the per-key bound, across all keys past the
    /// global one.
    pub fn release(&self, key: K, value: V) {
        let idle = Idle { value, idle_since: self.clock.now(), provenance: Provenance::Released };
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.slots.entry(key).or_default().idle.push_back(idle);
        inner.idle_total += 1;
        inner.stats.evictions += Self::enforce_capacity(inner, key, &self.config);
    }

    /// Evict down to the per-key bound for `key` and the global bound across
    /// every key; returns the number evicted.
    fn enforce_capacity(inner: &mut Inner<K, V>, key: K, config: &PoolConfig) -> u64 {
        let mut evicted = 0;
        if let Some(slot) = inner.slots.get_mut(&key) {
            while slot.idle.len() > config.per_key_capacity {
                slot.idle.pop_front();
                inner.idle_total -= 1;
                evicted += 1;
            }
        }
        while inner.idle_total > config.global_capacity {
            // Globally stalest = oldest front entry across the queues;
            // `min_by_key` keeps the first of equals and the walk is in key
            // order, so a tie goes to the smaller key.
            let victim = inner
                .slots
                .values_mut()
                .filter(|slot| !slot.idle.is_empty())
                .min_by_key(|slot| slot.idle[0].idle_since)
                .expect("idle_total counts the queues' entries");
            victim.idle.pop_front();
            inner.idle_total -= 1;
            evicted += 1;
        }
        evicted
    }

    /// Periodic maintenance: reap TTL-expired values everywhere, forget
    /// arrival counters whose whole ring has gone silent (their target is
    /// zero either way), then pre-mint toward each key's target
    /// `ceil(arrival_rate × ttl)` for keys that have a snapshot, visiting
    /// keys in ascending order until the per-key, global or per-pass bound
    /// stops it. Minting cost is accounted in the stats, never charged to the
    /// caller. Returns values minted.
    pub fn maintain<M: TierModel<K, V>>(&self, model: &mut M) -> usize {
        let now = self.clock.now();
        let ring = self.arrival_frame() * ARRIVAL_FRAMES as u32;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;

        let mut reaped = 0;
        for slot in inner.slots.values_mut() {
            reaped += self.prune_queue(&mut slot.idle, now);
            if slot.arrivals.as_ref().is_some_and(|counter| counter.count(ring) == 0) {
                slot.arrivals = None;
            }
        }
        inner.idle_total -= reaped;
        inner.stats.reaped += reaped as u64;
        inner
            .slots
            .retain(|_, s| !s.idle.is_empty() || s.snapshot.is_some() || s.arrivals.is_some());

        let mut minted = 0;
        'mint: for (key, slot) in inner.slots.iter_mut() {
            let (Some(snapshot), Some(arrivals)) = (&slot.snapshot, &slot.arrivals) else {
                continue;
            };
            let rate = arrivals.rate_per_sec(self.config.rate_window);
            let target = (rate * self.config.ttl.as_secs_f64()).ceil() as usize;
            while slot.idle.len() < target.min(self.config.per_key_capacity) {
                if minted >= self.config.max_prewarm_per_tick
                    || inner.idle_total >= self.config.global_capacity
                {
                    break 'mint;
                }
                let (value, cost) = model.mint(*key, snapshot);
                slot.idle.push_back(Idle {
                    value,
                    idle_since: now,
                    provenance: Provenance::Preminted,
                });
                inner.idle_total += 1;
                minted += 1;
                inner.stats.prewarm_cost_nanos += cost.as_nanos().min(u64::MAX as u128) as u64;
            }
        }
        inner.stats.prewarm_minted += minted as u64;
        minted
    }

    /// Idle values for `key` that can still be handed out. Entries whose TTL
    /// has lapsed but which no reap has visited yet are not counted: they
    /// can never be served, so counting them would over-report warm capacity.
    pub fn warm_count(&self, key: K) -> usize {
        let now = self.clock.now();
        let inner = self.inner.lock();
        inner.slots.get(&key).map_or(0, |s| s.idle.iter().filter(|e| self.is_live(e, now)).count())
    }

    /// Live idle values across all keys.
    pub fn warm_total(&self) -> usize {
        let now = self.clock.now();
        let inner = self.inner.lock();
        inner.slots.values().flat_map(|s| &s.idle).filter(|e| self.is_live(e, now)).count()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::time::ManualClock;

    const WARM: Duration = Duration::from_micros(500);
    const CLONE: Duration = Duration::from_millis(6);
    const COLD: Duration = Duration::from_millis(80);
    const REFUSED: u32 = 99;

    /// Values are serial numbers, so tests can tell which one came back.
    struct Serial {
        next: u64,
        keeps_snapshots: bool,
    }

    impl TierModel<u32, u64> for Serial {
        type Error = &'static str;

        fn warm_cost(&self) -> Duration {
            WARM
        }

        fn mint(&mut self, _key: u32, _snapshot: &u64) -> (u64, Duration) {
            self.next += 1;
            (self.next, CLONE)
        }

        fn cold_start(&mut self, key: u32) -> Result<(u64, Duration), &'static str> {
            self.next += 1;
            if key == REFUSED {
                return Err("refused");
            }
            Ok((self.next, COLD))
        }

        fn snapshot(&mut self, value: &u64) -> Option<u64> {
            self.keeps_snapshots.then_some(*value)
        }
    }

    fn pool(config: PoolConfig) -> (Arc<ManualClock>, TieredPool<u32, u64>, Serial) {
        let clock = ManualClock::new();
        let pool = TieredPool::new(clock.clone(), config);
        (clock, pool, Serial { next: 0, keeps_snapshots: true })
    }

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn resolution_order_cold_then_warm_then_clone() {
        let (_clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(450)));

        // No snapshot: cold start, snapshot captured.
        let (first, tier, cost) = pool.resolve(1, &mut model).unwrap();
        assert_eq!((tier, cost), (Tier::Cold, COLD));
        assert_eq!(pool.stats().snapshots, 1);

        // A released value wins over a clone.
        pool.release(1, first);
        assert_eq!(pool.resolve(1, &mut model).unwrap(), (first, Tier::Warm, WARM));

        // Queue empty, snapshot present: a fresh clone.
        let (clone, tier, cost) = pool.resolve(1, &mut model).unwrap();
        assert_eq!((tier, cost), (Tier::Clone, CLONE));
        assert_ne!(clone, first);

        let stats = pool.stats();
        assert_eq!(
            (stats.cold_misses, stats.warm_hits, stats.clone_hits, stats.predicted_hits),
            (1, 1, 1, 0)
        );
        assert_eq!(stats.acquires(), 3);
        assert!((stats.warm_tier_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn failed_cold_start_counts_a_miss_and_leaves_no_snapshot() {
        let (_clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(450)));
        assert_eq!(pool.resolve(REFUSED, &mut model), Err("refused"));
        assert_eq!(pool.resolve(REFUSED, &mut model), Err("refused"), "cold again, not a clone");
        let stats = pool.stats();
        assert_eq!((stats.cold_misses, stats.snapshots, stats.clone_hits), (2, 0, 0));
    }

    #[test]
    fn without_snapshots_every_miss_is_cold() {
        // The paper's plain TTL cache: the model leaves no snapshot, so
        // nothing is cloned and nothing can be pre-minted.
        let (clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(450)));
        model.keeps_snapshots = false;
        let (v, tier, _) = pool.resolve(1, &mut model).unwrap();
        assert_eq!(tier, Tier::Cold);
        pool.release(1, v);
        assert_eq!(pool.resolve(1, &mut model).unwrap().1, Tier::Warm);
        // Taken out of the pool: the next resolve misses again.
        assert_eq!(pool.resolve(1, &mut model).unwrap().1, Tier::Cold);
        for _ in 0..30 {
            pool.note_arrival(1);
        }
        clock.advance(secs(1));
        assert_eq!(pool.maintain(&mut model), 0);
        let stats = pool.stats();
        assert_eq!((stats.warm_hits, stats.cold_misses, stats.snapshots), (1, 2, 0));
    }

    #[test]
    fn idle_values_are_per_key() {
        let (_clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(450)));
        pool.release(1, 7);
        assert_eq!(pool.resolve(2, &mut model).unwrap().1, Tier::Cold);
        assert_eq!(pool.resolve(1, &mut model).unwrap(), (7, Tier::Warm, WARM));
    }

    #[test]
    fn lifo_hands_out_the_hottest_value() {
        let (clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(450)));
        pool.release(1, 10);
        clock.advance(secs(1));
        pool.release(1, 11);
        assert_eq!(pool.resolve(1, &mut model).unwrap().0, 11, "most recently released wins");
    }

    #[test]
    fn ttl_expiry_reaps_on_resolve() {
        let (clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(300)));
        pool.release(1, 10);
        clock.advance(secs(299));
        assert_eq!(pool.resolve(1, &mut model).unwrap(), (10, Tier::Warm, WARM));
        pool.release(1, 10);
        clock.advance(secs(300));
        assert_eq!(pool.resolve(1, &mut model).unwrap().1, Tier::Cold);
        assert_eq!(pool.stats().reaped, 1);
    }

    #[test]
    fn maintain_reaps_expired_values() {
        let (clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(60)));
        pool.release(1, 10);
        pool.release(1, 11);
        clock.advance(secs(30));
        pool.release(2, 12);
        clock.advance(secs(40)); // first two now 70 s idle, third 40 s
        pool.maintain(&mut model);
        assert_eq!(pool.stats().reaped, 2);
        assert_eq!((pool.warm_count(1), pool.warm_count(2), pool.warm_total()), (0, 1, 1));
        assert_eq!(pool.inner.lock().slots.len(), 1, "an emptied slot is dropped");
    }

    #[test]
    fn warm_count_excludes_expired_values() {
        // Regression: warm_count once reported the raw queue length,
        // counting expired values no reap had visited yet.
        let (clock, pool, _model) = pool(PoolConfig::with_ttl(secs(300)));
        pool.release(1, 10);
        clock.advance(secs(200));
        pool.release(1, 11);
        assert_eq!(pool.warm_count(1), 2, "both within TTL");
        clock.advance(secs(150)); // first now 350 s idle, second 150 s
        assert_eq!((pool.warm_count(1), pool.warm_total()), (1, 1));
        clock.advance(secs(200));
        assert_eq!(pool.warm_count(1), 0);
        assert_eq!(pool.stats().reaped, 0, "still resident, just not countable");
    }

    #[test]
    fn per_key_overflow_evicts_the_stalest() {
        let config = PoolConfig { per_key_capacity: 2, ..PoolConfig::with_ttl(secs(600)) };
        let (clock, pool, mut model) = pool(config);
        for value in 10..13 {
            pool.release(1, value);
            clock.advance(secs(1));
        }
        assert_eq!(pool.warm_count(1), 2);
        assert_eq!(pool.stats().evictions, 1);
        // Hottest first, and the evicted value is never handed out.
        assert_eq!(pool.resolve(1, &mut model).unwrap().0, 12);
        assert_eq!(pool.resolve(1, &mut model).unwrap().0, 11);
        assert_eq!(pool.resolve(1, &mut model).unwrap().1, Tier::Cold);

        let none = PoolConfig { per_key_capacity: 0, ..PoolConfig::with_ttl(secs(600)) };
        let (_clock, pool, _model) = self::pool(none);
        pool.release(1, 10);
        assert_eq!((pool.warm_total(), pool.stats().evictions), (0, 1), "zero holds nothing");
    }

    #[test]
    fn global_overflow_evicts_the_stalest_across_keys_and_ties_go_to_the_smaller_key() {
        let config = PoolConfig { global_capacity: 2, ..PoolConfig::with_ttl(secs(450)) };
        let (clock, pool, _model) = pool(config);
        pool.release(1, 10); // stalest
        clock.advance(secs(1));
        pool.release(2, 11);
        clock.advance(secs(1));
        pool.release(2, 12); // over the global bound: key 1's value goes
        assert_eq!((pool.warm_count(1), pool.warm_count(2), pool.warm_total()), (0, 2, 2));
        assert_eq!(pool.stats().evictions, 1);

        // Three releases at one instant: the smaller key loses the tie.
        let (_clock, pool, _model) = self::pool(config);
        pool.release(5, 10);
        pool.release(3, 11);
        pool.release(4, 12);
        assert_eq!((pool.warm_count(3), pool.warm_count(4), pool.warm_count(5)), (0, 1, 1));
    }

    #[test]
    fn prewarm_mints_toward_rate_times_ttl() {
        let config = PoolConfig {
            per_key_capacity: 3,
            max_prewarm_per_tick: 8,
            ..PoolConfig::with_ttl(secs(100))
        };
        let (clock, pool, mut model) = pool(config);
        for _ in 0..30 {
            pool.note_arrival(1);
        }
        clock.advance(secs(1));
        assert_eq!(pool.maintain(&mut model), 0, "no snapshot to mint from yet");
        assert_eq!(pool.resolve(1, &mut model).unwrap().1, Tier::Cold);

        // 30 arrivals over 60 s -> 0.5/s; x 100 s TTL -> target 50, clamped
        // to the per-key capacity of 3.
        assert_eq!(pool.maintain(&mut model), 3);
        assert_eq!(pool.warm_count(1), 3);
        let stats = pool.stats();
        assert_eq!((stats.prewarm_minted, stats.prewarm_cost_nanos), (3, 3 * 6_000_000));

        // A hit on a pre-minted value is the predicted tier.
        let (_, tier, cost) = pool.resolve(1, &mut model).unwrap();
        assert_eq!((tier, cost), (Tier::Predicted, WARM));
        assert_eq!(pool.stats().predicted_hits, 1);
        // Target still 3, live 2: exactly the deficit.
        assert_eq!(pool.maintain(&mut model), 1);
    }

    /// `keys` hot keys, each with a snapshot and 60 arrivals in the window.
    fn hot_pool(config: PoolConfig, keys: u32) -> (TieredPool<u32, u64>, Serial) {
        let (clock, pool, mut model) = pool(config);
        // Descending, so insertion order is not key order.
        for key in (0..keys).rev() {
            pool.resolve(key, &mut model).unwrap();
            for _ in 0..60 {
                pool.note_arrival(key);
            }
        }
        clock.advance(secs(1));
        (pool, model)
    }

    #[test]
    fn per_pass_and_global_bounds_stop_the_mint_in_key_order() {
        let config = PoolConfig { max_prewarm_per_tick: 10, ..PoolConfig::with_ttl(secs(600)) };
        let (pool, mut model) = hot_pool(config, 12);
        // Every key wants 8; a pass of 10 fills key 0 and starts key 1.
        assert_eq!(pool.maintain(&mut model), 10);
        let counts: Vec<usize> = (0..12).map(|k| pool.warm_count(k)).collect();
        assert_eq!(counts, [8, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);

        let none = PoolConfig { max_prewarm_per_tick: 0, ..config };
        let (pool, mut model) = hot_pool(none, 12);
        assert_eq!(pool.maintain(&mut model), 0, "a zero budget mints nothing");

        let tight = PoolConfig { global_capacity: 11, max_prewarm_per_tick: 64, ..config };
        let (pool, mut model) = hot_pool(tight, 12);
        assert_eq!(pool.maintain(&mut model), 11, "stops at the global bound");
        assert_eq!((pool.warm_count(0), pool.warm_count(1), pool.warm_count(2)), (8, 3, 0));
    }

    #[test]
    fn silent_arrival_counters_are_dropped() {
        let (clock, pool, mut model) = pool(PoolConfig::with_ttl(secs(600)));
        let tracked = |pool: &TieredPool<u32, u64>| -> Vec<u32> {
            let inner = pool.inner.lock();
            inner.slots.iter().filter(|(_, s)| s.arrivals.is_some()).map(|(k, _)| *k).collect()
        };
        // Key 1 has a snapshot, key 2 was only ever announced.
        pool.resolve(1, &mut model).unwrap();
        pool.note_arrival(1);
        pool.note_arrival(2);
        pool.maintain(&mut model);
        assert_eq!(tracked(&pool), vec![1, 2]);

        // The ring covers 12 x 10 s. Key 1 keeps arriving; key 2 is silent.
        for _ in 0..13 {
            clock.advance(secs(10));
            pool.note_arrival(1);
            pool.maintain(&mut model);
        }
        assert_eq!(tracked(&pool), vec![1], "the silent key's counter is gone");
        assert_eq!(pool.inner.lock().slots.len(), 1, "and with nothing else to hold, its slot");
        assert_eq!(pool.warm_count(1), 8, "the live key kept its counter and its target");

        // Coming back starts a fresh counter.
        pool.note_arrival(2);
        assert_eq!(tracked(&pool), vec![1, 2]);
    }
}
