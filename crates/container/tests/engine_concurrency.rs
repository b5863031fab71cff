//! Concurrency: many workers sharing one [`WarmStartEngine`] on a manual
//! clock. The engine's contract under contention is twofold: the tier
//! counters conserve (`warm + predicted + clone + cold == acquires` — no
//! acquire is double-counted or lost), and no container instance is ever
//! handed to two workers at once.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use funcx_container::{
    ContainerRuntime, PoolConfig, SystemProfile, WarmStartConfig, WarmStartEngine,
};
use funcx_types::time::ManualClock;
use funcx_types::ContainerImageId;

const THREADS: usize = 8;
const ITERS: usize = 200;
const IMAGES: u128 = 4;

#[test]
fn concurrent_acquires_conserve_tier_counts_and_never_share_instances() {
    let clock = ManualClock::new();
    let runtime = ContainerRuntime::new(clock.clone(), SystemProfile::Ec2, 11);
    let engine = WarmStartEngine::new(
        clock.clone(),
        runtime,
        WarmStartConfig {
            pool: PoolConfig {
                per_key_capacity: 4,
                global_capacity: 16,
                ..PoolConfig::with_ttl(Duration::from_secs(30))
            },
            ..WarmStartConfig::default()
        },
    );

    // Instance numbers currently checked out to some worker. `insert`
    // returning false would mean the engine handed one instance to two
    // workers simultaneously.
    let held: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let done = Arc::new(AtomicBool::new(false));

    // Background maintainer: advances virtual time and runs the reap /
    // pre-warm pass concurrently with the workers, so predicted-tier
    // mints and TTL reaps race the acquire path.
    let maintainer = {
        let engine = Arc::clone(&engine);
        let clock = Arc::clone(&clock);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                engine.maintain();
                clock.advance(Duration::from_secs(1));
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let held = Arc::clone(&held);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ITERS {
                    let img = ContainerImageId::from_u128((t as u128 % IMAGES) + 1);
                    engine.note_arrival(img);
                    // resolve(), not acquire(): nobody owes virtual sleep
                    // here, and cold-start sleeps on a manual clock would
                    // deadlock the workers against the maintainer.
                    let lease = engine.resolve(img).expect("clones are failure-exempt");
                    assert_eq!(lease.instance.image, img, "cross-image instance leak");
                    assert!(
                        held.lock().unwrap().insert(lease.instance.instance),
                        "instance {} handed to two workers at once",
                        lease.instance.instance
                    );
                    std::thread::yield_now();
                    assert!(held.lock().unwrap().remove(&lease.instance.instance));
                    // Mostly give instances back; sometimes abandon one
                    // (a crashed worker) so the pool shrinks too.
                    if i % 7 != 6 {
                        engine.release(lease.instance);
                    }
                }
            })
        })
        .collect();

    barrier.wait();
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    maintainer.join().unwrap();

    let stats = engine.stats();
    let total = (THREADS * ITERS) as u64;
    assert_eq!(
        stats.warm_hits + stats.predicted_hits + stats.clone_hits + stats.cold_misses,
        total,
        "tier counts must conserve: {stats:?}"
    );
    assert_eq!(stats.acquires(), total);
    // One cold start per image: resolve holds the pool lock through the
    // start, so racing threads on a fresh image cannot both go cold.
    assert_eq!(stats.cold_misses, IMAGES as u64, "{stats:?}");
    assert_eq!(stats.snapshots, IMAGES as u64, "{stats:?}");
    // With 8 workers re-releasing onto 4 images, the warm path must have
    // carried real traffic.
    assert!(stats.warm_hits > 0, "{stats:?}");
}
