//! The plain-`#[test]` twin of `warming_properties.rs`: 256 seeded op lists
//! through the same model checker, so the property is exercised by every
//! `cargo test`, including builds where `proptest` is an empty stand-in and
//! the property file cannot compile.

mod pool_model;

use pool_model::{check, PoolOp, IMAGES};

struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

#[test]
fn seeded_schedules_conserve_instances_and_honour_the_ttl() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64(seed);
        // Longer than the property's lists (0..60), so that releases reach
        // the per-image capacity of 8 and time crosses the TTL several times.
        let ops: Vec<PoolOp> = (0..rng.below(200))
            .map(|_| match rng.below(4) {
                0 => PoolOp::Acquire(rng.below(IMAGES as u64) as u8),
                1 => PoolOp::Release(rng.below(IMAGES as u64) as u8),
                2 => PoolOp::Advance(rng.below(400) as u16),
                _ => PoolOp::Reap,
            })
            .collect();
        if let Err(violation) = check(&ops) {
            panic!("seed {seed}: {violation}\nops: {ops:?}");
        }
    }
}
