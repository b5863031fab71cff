//! Ablation (DESIGN.md decision 5): warm-pool TTL vs cold-start cost.
//!
//! §4.7 keeps containers warm "for a short period of time (5-10 minutes)".
//! This ablation drives a sporadic arrival process (the paper repeatedly
//! stresses that "funcX workloads are often sporadic") against the warm
//! pool (the engine's [`TieredPool`] with a tier model that keeps no
//! snapshots, which is the paper's TTL-only cache) and sweeps the TTL: too short re-pays Theta's ~10 s cold start on
//! every burst; longer TTLs buy hit rate at the cost of holding resources
//! idle (which the agent would otherwise release, §4.3).

use std::time::Duration;

use funcx_container::{
    AcquireTier, ColdStartModel, ContainerInstance, ContainerTech, PoolConfig, SystemProfile,
    TierModel, TieredPool,
};
use funcx_types::time::ManualClock;
use funcx_types::ContainerImageId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Table;

/// One TTL sweep point.
#[derive(Debug, Clone, Copy)]
pub struct TtlPoint {
    /// Warm TTL in seconds (`f64::INFINITY` = never reap).
    pub ttl_s: f64,
    /// Fraction of acquires served warm.
    pub hit_ratio: f64,
    /// Total cold-start seconds paid over the run.
    pub cold_seconds: f64,
    /// Container-idle seconds held warm (the resource cost of the TTL).
    pub idle_seconds: f64,
}

/// Drive `tasks` sporadic 1-second tasks (exponential inter-arrivals with
/// mean `mean_gap_s`) through a warm pool per TTL value.
pub fn run(tasks: usize, mean_gap_s: f64, seed: u64) -> Vec<TtlPoint> {
    let ttls = [30.0, 60.0, 150.0, 450.0, 900.0, f64::INFINITY];
    ttls.iter().map(|&ttl| run_point(tasks, mean_gap_s, ttl, seed)).collect()
}

/// The tier model of the paper's TTL-only cache, shared with the `warmstart`
/// bench's `ttl` policy: a miss is whatever cold start the closure performs
/// and prices, and no snapshot is kept, so the pool never clones or
/// pre-mints.
pub struct TtlOnly<F>(pub F);

impl<F> TierModel<ContainerImageId, ContainerInstance> for TtlOnly<F>
where
    F: FnMut(ContainerImageId) -> (ContainerInstance, Duration),
{
    type Error = std::convert::Infallible;

    fn warm_cost(&self) -> Duration {
        Duration::ZERO
    }

    fn mint(
        &mut self,
        _: ContainerImageId,
        _: &ContainerInstance,
    ) -> (ContainerInstance, Duration) {
        unreachable!("no snapshot is ever kept")
    }

    fn cold_start(
        &mut self,
        image: ContainerImageId,
    ) -> Result<(ContainerInstance, Duration), Self::Error> {
        Ok((self.0)(image))
    }

    fn snapshot(&mut self, _: &ContainerInstance) -> Option<ContainerInstance> {
        None
    }
}

fn run_point(tasks: usize, mean_gap_s: f64, ttl_s: f64, seed: u64) -> TtlPoint {
    let clock = ManualClock::new();
    let ttl = if ttl_s.is_finite() {
        Duration::from_secs_f64(ttl_s)
    } else {
        Duration::from_secs(u32::MAX as u64)
    };
    let pool = TieredPool::new(
        clock.clone(),
        PoolConfig { global_capacity: usize::MAX, ..PoolConfig::with_ttl(ttl) },
    );
    let model = ColdStartModel::for_pair(SystemProfile::ThetaKnl, ContainerTech::Singularity);
    let image = ContainerImageId::from_u128(1);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut cold_seconds = 0.0;
    let mut idle_seconds = 0.0;
    let mut last_release_at: Option<f64> = None;
    let mut now_s = 0.0;
    let mut instance_counter = 0u64;

    for _ in 0..tasks {
        // Sporadic arrival.
        let gap = -mean_gap_s * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
        clock.advance(Duration::from_secs_f64(gap));
        now_s += gap;

        // A miss samples the Table 2 model from the run's RNG.
        let mut tiers = TtlOnly(|image| {
            instance_counter += 1;
            let tech = ContainerTech::Singularity;
            (ContainerInstance { instance: instance_counter, image, tech }, model.sample(&mut rng))
        });
        let Ok((instance, tier, cost)) = pool.resolve(image, &mut tiers);
        if tier == AcquireTier::Warm {
            // Idle time this instance spent waiting warm.
            if let Some(at) = last_release_at {
                idle_seconds += now_s - at;
            }
        }
        cold_seconds += cost.as_secs_f64();
        // Execute 1 s, then release back warm.
        clock.advance(Duration::from_secs(1));
        now_s += 1.0;
        pool.release(image, instance);
        last_release_at = Some(now_s);
    }

    TtlPoint { ttl_s, hit_ratio: pool.stats().warm_tier_rate(), cold_seconds, idle_seconds }
}

/// Paper-shaped ablation table.
pub fn table(points: &[TtlPoint]) -> Table {
    let mut t = Table::new(
        "Ablation: warm-pool TTL (sporadic 1s tasks, Theta cold-start model)",
        &["TTL (s)", "warm-hit ratio", "cold-start s paid", "idle s held"],
    );
    for p in points {
        t.row(vec![
            if p.ttl_s.is_finite() { format!("{:.0}", p.ttl_s) } else { "inf".into() },
            format!("{:.2}", p.hit_ratio),
            format!("{:.0}", p.cold_seconds),
            format!("{:.0}", p.idle_seconds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_ttl_trades_cold_starts_for_idle_time() {
        // Mean gap 300 s: right between the paper's 5–10 min TTL band.
        let points = run(400, 300.0, 7);
        let hit = |i: usize| points[i].hit_ratio;
        // Hit ratio is monotone non-decreasing in TTL.
        for w in points.windows(2) {
            assert!(
                w[1].hit_ratio >= w[0].hit_ratio - 1e-9,
                "hit ratio monotone: {:?}",
                points.iter().map(|p| p.hit_ratio).collect::<Vec<_>>()
            );
        }
        // A 30 s TTL misses nearly everything; infinite TTL hits nearly
        // everything; the paper's band (≈450 s) sits usefully in between.
        assert!(hit(0) < 0.2, "30s TTL hit {:.2}", hit(0));
        assert!(points.last().unwrap().hit_ratio > 0.95);
        let band = points.iter().find(|p| p.ttl_s == 450.0).unwrap();
        assert!(
            band.hit_ratio > 0.5 && band.hit_ratio < 1.0,
            "paper's 7.5 min TTL captures most bursts: {:.2}",
            band.hit_ratio
        );
        // Cold seconds fall with TTL; idle seconds rise.
        assert!(points[0].cold_seconds > band.cold_seconds * 1.5);
        assert!(points.last().unwrap().idle_seconds > points[0].idle_seconds);
    }
}
