//! Snapshot/COW warm-start engine with predictive pre-warming.
//!
//! The paper's warming story (§4.7) is a TTL pool: pay the full Table 2
//! cold start on every miss, keep the instance warm for 5-10 minutes. This
//! engine is the container instantiation of `funcx-telemetry`'s
//! [`TieredPool`] — key [`ContainerImageId`], value [`ContainerInstance`] —
//! which owns the mechanism: idle instances handed out hottest-first, TTL
//! reap, per-image and global capacity with stalest-first eviction, and a
//! pre-warmer keeping `ceil(arrival_rate × ttl)` clones minted per image.
//! What the engine supplies is the tier-cost model over the
//! [`ContainerRuntime`]:
//!
//! 1. **Warm / predicted hit** — an idle instance (released by a worker, or
//!    pre-minted by the predictor) is handed out at zero cost.
//! 2. **Snapshot clone** — the first successful cold start of an image
//!    leaves a fully-initialized *snapshot*. Later misses mint a
//!    copy-on-write clone from it at [`WarmStartConfig::clone_cost_fraction`]
//!    of a sampled cold start, instead of paying Table 2 again.
//! 3. **Cold start** — no snapshot yet: pay the full model.
//!
//! Acquire latency is deterministic: [`resolve`](WarmStartEngine::resolve)
//! never sleeps and returns a [`Lease`] carrying the virtual cost, which
//! [`acquire`](WarmStartEngine::acquire) charges to the clock. The DES
//! bench and background pre-warm work use the uncharged form directly.

use std::sync::Arc;

use funcx_telemetry::{PoolConfig, TierModel, TieredPool};
use funcx_types::time::{SharedClock, VirtualDuration};
use funcx_types::{ContainerImageId, FuncxError, Result};

use crate::runtime::{ContainerInstance, ContainerRuntime};

/// Which layer served an acquire, and the engine's counters for status,
/// `/v1/metrics` and the warmstart bench: the pool's own.
pub use funcx_telemetry::{PoolStats as WarmStartStats, Tier as AcquireTier};

/// Default warm TTL: the middle of the paper's "5-10 minutes".
pub const DEFAULT_WARM_TTL: VirtualDuration = VirtualDuration::from_secs(7 * 60 + 30);

/// Tuning knobs for the warm-start engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStartConfig {
    /// TTL, capacities and pre-warm bounds of the idle-clone pool.
    pub pool: PoolConfig,
    /// COW clone cost as a fraction of a sampled cold start. Restoring
    /// page-mapped state is an order of magnitude cheaper than image fetch
    /// plus interpreter boot.
    pub clone_cost_fraction: f64,
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        WarmStartConfig { pool: PoolConfig::with_ttl(DEFAULT_WARM_TTL), clone_cost_fraction: 0.08 }
    }
}

/// A resolved acquire: the instance, which tier served it, and the virtual
/// cost the caller owes (zero for warm/predicted hits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The container instance handed to the worker.
    pub instance: ContainerInstance,
    /// Layer that served it.
    pub tier: AcquireTier,
    /// Virtual startup cost; [`WarmStartEngine::acquire`] sleeps this.
    pub cost: VirtualDuration,
}

/// Three-layer warm-start engine; see the module docs for the model.
pub struct WarmStartEngine {
    clock: SharedClock,
    runtime: Arc<ContainerRuntime>,
    config: WarmStartConfig,
    pool: TieredPool<ContainerImageId, ContainerInstance>,
}

/// Tier costs over the container runtime: idle hits are free, a clone costs
/// a fraction of a sampled cold start, a cold start is the Table 2 model and
/// leaves its instance behind as the image's snapshot.
struct ContainerTiers<'a>(&'a WarmStartEngine);

impl TierModel<ContainerImageId, ContainerInstance> for ContainerTiers<'_> {
    type Error = FuncxError;

    fn warm_cost(&self) -> VirtualDuration {
        VirtualDuration::ZERO
    }

    fn mint(
        &mut self,
        image: ContainerImageId,
        _snapshot: &ContainerInstance,
    ) -> (ContainerInstance, VirtualDuration) {
        let engine = self.0;
        let tech = engine.runtime.system().native_tech();
        engine.runtime.clone_uncharged(image, tech, engine.config.clone_cost_fraction)
    }

    fn cold_start(
        &mut self,
        image: ContainerImageId,
    ) -> Result<(ContainerInstance, VirtualDuration)> {
        let runtime = &self.0.runtime;
        let (result, cost) = runtime.start_uncharged(image, runtime.system().native_tech());
        Ok((result?, cost))
    }

    fn snapshot(&mut self, instance: &ContainerInstance) -> Option<ContainerInstance> {
        Some(instance.clone())
    }
}

impl WarmStartEngine {
    /// New engine over a runtime with explicit config.
    pub fn new(
        clock: SharedClock,
        runtime: Arc<ContainerRuntime>,
        config: WarmStartConfig,
    ) -> Arc<Self> {
        let pool = TieredPool::new(Arc::clone(&clock), config.pool);
        Arc::new(WarmStartEngine { clock, runtime, config, pool })
    }

    /// New engine with default config.
    pub fn with_defaults(clock: SharedClock, runtime: Arc<ContainerRuntime>) -> Arc<Self> {
        Self::new(clock, runtime, WarmStartConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &WarmStartConfig {
        &self.config
    }

    /// Record one task arrival for `image`. The manager calls this on task
    /// receipt — *not* on acquire — so queueing delay between arrival and
    /// dispatch cannot double-count or starve the rate estimate.
    pub fn note_arrival(&self, image: ContainerImageId) {
        self.pool.note_arrival(image);
    }

    /// Resolve an acquire without sleeping: warm hit, else snapshot clone,
    /// else full cold start. The returned [`Lease::cost`] is the virtual
    /// time the caller owes (the charged form is [`acquire`](Self::acquire)).
    pub fn resolve(&self, image: ContainerImageId) -> Result<Lease> {
        let (instance, tier, cost) = self.pool.resolve(image, &mut ContainerTiers(self))?;
        Ok(Lease { instance, tier, cost })
    }

    /// Acquire an instance for `image`, charging [`Lease::cost`] to the
    /// virtual clock (the worker path; the DES bench uses `resolve`).
    pub fn acquire(&self, image: ContainerImageId) -> Result<Lease> {
        let lease = self.resolve(image)?;
        if !lease.cost.is_zero() {
            self.clock.sleep(lease.cost);
        }
        Ok(lease)
    }

    /// Return an instance after task completion; it idles (tier `warm` on
    /// its next hit) until TTL or capacity takes it.
    pub fn release(&self, instance: ContainerInstance) {
        self.pool.release(instance.image, instance);
    }

    /// Periodic maintenance: reap TTL-expired clones, then pre-mint clones
    /// toward each image's prediction target. Pre-warm cost is accounted in
    /// the stats, never charged to the caller (it is background work off the
    /// task critical path). Returns clones minted.
    pub fn maintain(&self) -> usize {
        self.pool.maintain(&mut ContainerTiers(self))
    }

    /// Live (TTL-filtered) idle clones for `image`.
    pub fn warm_count(&self, image: ContainerImageId) -> usize {
        self.pool.warm_count(image)
    }

    /// Live idle clones across all images.
    pub fn warm_total(&self) -> usize {
        self.pool.warm_total()
    }

    /// Snapshots captured so far (they are never dropped).
    pub fn snapshot_count(&self) -> usize {
        self.pool.stats().snapshots as usize
    }

    /// Counters snapshot.
    pub fn stats(&self) -> WarmStartStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::SystemProfile;
    use funcx_types::time::ManualClock;
    use std::time::Duration;

    // Resolution order, LIFO, reaping, eviction and pre-warming are the
    // pool's and are tested there (`funcx_telemetry::pool`); what is the
    // engine's own is what each tier costs and what becomes a snapshot.

    fn engine() -> (Arc<ContainerRuntime>, Arc<WarmStartEngine>) {
        let clock = ManualClock::new();
        let rt = ContainerRuntime::new(clock.clone(), SystemProfile::Ec2, 7);
        let eng = WarmStartEngine::with_defaults(clock, Arc::clone(&rt));
        (rt, eng)
    }

    #[test]
    fn tiers_cost_table_2_then_nothing_then_a_fraction() {
        let (rt, eng) = engine();
        let img = ContainerImageId::from_u128(1);

        // No snapshot: full cold start, snapshot captured.
        let cold = eng.resolve(img).unwrap();
        assert_eq!(cold.tier, AcquireTier::Cold);
        assert!(cold.cost >= Duration::from_secs_f64(1.74), "cost {:?}", cold.cost);
        assert_eq!(eng.snapshot_count(), 1);

        // The released instance itself comes back, at zero cost.
        eng.release(cold.instance.clone());
        let warm = eng.resolve(img).unwrap();
        assert_eq!((warm.tier, &warm.instance), (AcquireTier::Warm, &cold.instance));
        assert!(warm.cost.is_zero());

        // Pool empty, snapshot present: a new COW clone at a fraction of
        // cold cost.
        let clone = eng.resolve(img).unwrap();
        assert_eq!(clone.tier, AcquireTier::Clone);
        assert!(clone.cost > Duration::ZERO);
        assert!(clone.cost < Duration::from_secs_f64(1.74 * 0.2), "cost {:?}", clone.cost);
        assert_ne!(clone.instance.instance, warm.instance.instance);
        assert_eq!((rt.cold_start_count(), rt.clone_count()), (1, 1));
    }

    #[test]
    fn prewarm_mints_runtime_clones_and_accounts_their_cost() {
        let (rt, eng) = engine();
        let img = ContainerImageId::from_u128(1);
        eng.resolve(img).unwrap();
        for _ in 0..60 {
            eng.note_arrival(img);
        }
        assert_eq!(eng.maintain(), eng.config().pool.max_prewarm_per_tick);
        assert_eq!(rt.clone_count(), 4);
        assert!(eng.stats().prewarm_cost_nanos > 0);
        let hit = eng.resolve(img).unwrap();
        assert_eq!(hit.tier, AcquireTier::Predicted);
        assert!(hit.cost.is_zero());
    }

    #[test]
    fn failed_cold_start_captures_no_snapshot() {
        let (rt, eng) = engine();
        let img = ContainerImageId::from_u128(1);
        rt.set_failure_rate(1.0);
        assert!(eng.resolve(img).is_err());
        assert_eq!((eng.snapshot_count(), eng.stats().cold_misses), (0, 1));
        rt.set_failure_rate(0.0);
        assert_eq!(eng.resolve(img).unwrap().tier, AcquireTier::Cold);
        assert_eq!(eng.snapshot_count(), 1);
    }
}
