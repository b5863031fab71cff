//! Concurrency: many workers sharing one [`SandboxHost`] on a manual clock,
//! the sandbox's counterpart of `funcx-container`'s `engine_concurrency.rs`.
//! Under contention the tier counters conserve (no acquisition is lost or
//! counted twice), and each program is compiled exactly once: the cold boot
//! runs under the pool's lock, so workers racing on a program nobody has
//! seen yet cannot both go cold.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use funcx_sandbox::{PoolConfig, SandboxConfig, SandboxHost};
use funcx_types::time::ManualClock;

const THREADS: usize = 8;
const ITERS: usize = 200;
const PROGRAMS: usize = 4;

#[test]
fn concurrent_resolves_conserve_tier_counts_and_compile_each_program_once() {
    let clock = ManualClock::new();
    let host = SandboxHost::new(
        clock.clone(),
        SandboxConfig {
            pool: PoolConfig {
                per_key_capacity: 4,
                global_capacity: 12,
                ..PoolConfig::with_ttl(Duration::from_secs(30))
            },
            ..SandboxConfig::default()
        },
    );
    let sources: Arc<Vec<String>> =
        Arc::new((0..PROGRAMS).map(|i| format!("def f(x):\n    return x + {i}\n")).collect());
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let done = Arc::new(AtomicBool::new(false));

    // Background maintainer: advances virtual time and runs the reap /
    // pre-warm pass concurrently with the workers, so predicted-tier mints
    // and TTL reaps race the acquire path.
    let maintainer = {
        let (host, clock, done) = (Arc::clone(&host), Arc::clone(&clock), Arc::clone(&done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                host.maintain();
                clock.advance(Duration::from_secs(1));
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (host, sources, barrier) =
                (Arc::clone(&host), Arc::clone(&sources), Arc::clone(&barrier));
            std::thread::spawn(move || {
                // Two threads per program, all released at once: the first
                // resolve of every program is a race.
                let source = &sources[t % PROGRAMS];
                let key = SandboxHost::program_key(source);
                barrier.wait();
                for i in 0..ITERS {
                    host.note_arrival(key);
                    // resolve(), not execute(): a tier cost slept on a manual
                    // clock would deadlock the workers against the maintainer.
                    let lease = host.resolve(source, &[]).expect("sources compile");
                    assert_eq!(lease.env.key, key, "cross-program environment leak");
                    std::thread::yield_now();
                    // Mostly give environments back; sometimes abandon one
                    // (a crashed worker) so the pool shrinks too.
                    if i % 7 != 6 {
                        host.release(lease.env);
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

    let stats = host.stats();
    assert_eq!(
        stats.warm_hits + stats.predicted_hits + stats.clone_hits + stats.cold_misses,
        (THREADS * ITERS) as u64,
        "tier counts must conserve: {stats:?}"
    );
    assert_eq!(stats.cold_misses, PROGRAMS as u64, "{stats:?}");
    assert_eq!(stats.compiles, PROGRAMS as u64, "{stats:?}");
    assert!(stats.warm_hits > 0, "{stats:?}");
    assert!(host.warm_total() <= 12);
}
