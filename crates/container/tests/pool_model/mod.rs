//! The warm-pool model checker shared by `warming_properties.rs` (proptest
//! shrinks the op lists) and `pool_model_seeded.rs` (the same checker fed
//! from a seeded generator, which also runs where `proptest` is not
//! available). The pool under test is the engine's [`TieredPool`] driven as
//! the paper's TTL-only cache: a tier model that keeps no snapshots.

use std::time::Duration;

use funcx_container::{AcquireTier, PoolConfig, TierModel, TieredPool};
use funcx_types::time::ManualClock;
use funcx_types::ContainerImageId;

pub const IMAGES: u8 = 3;
const TTL_SECS: u64 = 300;

#[derive(Debug, Clone)]
pub enum PoolOp {
    /// Acquire for image (0..3).
    Acquire(u8),
    /// Release a held instance (if any) for image.
    Release(u8),
    /// Advance time by seconds.
    Advance(u16),
    /// Run the periodic reaper.
    Reap,
}

/// A miss starts the next numbered instance and leaves no snapshot.
struct FreshInstances {
    next_instance: u64,
}

impl TierModel<ContainerImageId, u64> for FreshInstances {
    type Error = std::convert::Infallible;

    fn warm_cost(&self) -> Duration {
        Duration::ZERO
    }

    fn mint(&mut self, _: ContainerImageId, _: &u64) -> (u64, Duration) {
        unreachable!("no snapshot is ever kept")
    }

    fn cold_start(&mut self, _: ContainerImageId) -> Result<(u64, Duration), Self::Error> {
        self.next_instance += 1;
        Ok((self.next_instance - 1, Duration::from_secs(10)))
    }

    fn snapshot(&mut self, _: &u64) -> Option<u64> {
        None
    }
}

/// Conservation (an instance is either held by a worker, warm in the pool,
/// or gone — never duplicated) and TTL correctness under one schedule.
pub fn check(ops: &[PoolOp]) -> Result<(), String> {
    let clock = ManualClock::new();
    let config = PoolConfig::with_ttl(Duration::from_secs(TTL_SECS));
    let capacity = config.per_key_capacity;
    let pool = TieredPool::new(clock.clone(), config);
    let mut fresh = FreshInstances { next_instance: 0 };
    // Instances currently held by "workers", per image.
    let mut held: Vec<Vec<u64>> = vec![vec![]; IMAGES as usize];
    // Our model of warm instances: (id, idle_since_seconds).
    let mut warm: Vec<Vec<(u64, u64)>> = vec![vec![]; IMAGES as usize];
    let mut now_s = 0u64;
    let image = |idx: usize| ContainerImageId::from_u128(idx as u128 + 1);

    for op in ops {
        match *op {
            PoolOp::Acquire(img_idx) => {
                let idx = img_idx as usize;
                // Expire model entries first (pool reaps on acquire).
                warm[idx].retain(|(_, since)| now_s - since < TTL_SECS);
                let expected_next = fresh.next_instance;
                let Ok((instance, tier, _)) = pool.resolve(image(idx), &mut fresh);
                match tier {
                    AcquireTier::Warm => {
                        // Must be a model-warm instance (LIFO: the most
                        // recently released).
                        let expected = warm[idx].pop().map(|(id, _)| id);
                        if Some(instance) != expected {
                            return Err(format!(
                                "warm hit must return the most recent release: got {instance}, \
                                 model {expected:?}"
                            ));
                        }
                    }
                    AcquireTier::Cold => {
                        if !warm[idx].is_empty() {
                            return Err(
                                "pool missed though the model holds a live warm instance".into()
                            );
                        }
                        if instance != expected_next {
                            return Err(format!("cold start {instance} is not a new instance"));
                        }
                    }
                    other => return Err(format!("tier {other:?} without a snapshot")),
                }
                held[idx].push(instance);
            }
            PoolOp::Release(img_idx) => {
                let idx = img_idx as usize;
                if let Some(id) = held[idx].pop() {
                    pool.release(image(idx), id);
                    warm[idx].push((id, now_s));
                    // Mirror the capacity bound: overflow evicts the
                    // stalest entry (front; pushes are time-ordered).
                    while warm[idx].len() > capacity {
                        warm[idx].remove(0);
                    }
                }
            }
            PoolOp::Advance(secs) => {
                clock.advance(Duration::from_secs(secs as u64));
                now_s += secs as u64;
            }
            PoolOp::Reap => {
                if pool.maintain(&mut fresh) != 0 {
                    return Err("minted without a snapshot".into());
                }
                for w in warm.iter_mut() {
                    w.retain(|(_, since)| now_s - since < TTL_SECS);
                }
            }
        }
        // Invariant: warm_count reports exactly the model's *live* set —
        // expired-but-unreaped entries are filtered at read time, and
        // capacity eviction mirrors the model's.
        for (i, w) in warm.iter().enumerate() {
            let live = w.iter().filter(|(_, since)| now_s - since < TTL_SECS).count();
            if pool.warm_count(image(i)) != live {
                return Err(format!(
                    "warm_count {} != the model's live warm set {live} for image {i}",
                    pool.warm_count(image(i))
                ));
            }
        }
    }
    Ok(())
}
