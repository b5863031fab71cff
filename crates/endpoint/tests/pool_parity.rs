//! Parity schedule: one seeded op script (arrivals, resolves, releases,
//! abandoned leases, clock advances, maintenance passes) driven through the
//! container [`WarmStartEngine`] and, with a source per key, through the
//! [`SandboxHost`], both on a [`ManualClock`] with their default configs.
//!
//! Written against the two hand-rolled pools *before* they were folded into
//! one `TieredPool`, and kept unmodified across that refactor: the per-op
//! `(tier, value)` transcript digest, the final counters and the per-key
//! `warm_count` below are the parent commit's values.
//!
//! The script is built so that no outcome depends on the order a map is
//! walked in: the clock moves after every op (no two releases or mints share
//! an instant, so stalest-first eviction never meets a tie), and only one
//! key at a time has arrivals inside the rate window (so at most one key has
//! a pre-warm deficit per pass; the hot key changes only after 80 s of
//! silence, which empties the 60 s window).
//!
//! Container costs come from the runtime's seeded RNG, whose stream differs
//! between `rand` and the offline stand-in for it, so the engine's costs
//! are checked against a second runtime with the same seed replaying the
//! same starts and clones, not against literals.

use std::sync::Arc;
use std::time::Duration;

use funcx_container::{ContainerRuntime, SystemProfile, WarmStartEngine, WarmStartStats};
use funcx_sandbox::{SandboxHost, SandboxStats};
use funcx_types::hash::Fnv1a;
use funcx_types::time::ManualClock;
use funcx_types::ContainerImageId;

const KEYS: usize = 10;
const OPS: usize = 4000;
const SEED: u64 = 0x5eed_f00d;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Arrive(usize),
    Resolve(usize),
    /// Give back the held lease at this index (`swap_remove` order).
    Release(usize),
    /// Drop the held lease at this index: a crashed worker.
    Abandon(usize),
    Advance(Duration),
    Maintain,
}

/// The shared script. Held leases pile up to ~160 and drain to ~10 in turns
/// (a drain is faster than a TTL, so the releases overflow the per-key bound
/// of 8 and the global bound of 64); one advance in 300 crosses both TTLs
/// (450 s / 600 s) and a few more cross part of one.
fn script() -> Vec<Op> {
    let mut rng = SplitMix64(SEED);
    let mut ops = Vec::with_capacity(OPS + 8);
    let (mut held, mut hot, mut filling) = (0u64, 0usize, true);
    while ops.len() < OPS {
        if held > 160 {
            filling = false;
        } else if held < 10 {
            filling = true;
        }
        let (p_resolve, p_release) = if filling { (500, 150) } else { (100, 700) };
        let roll = rng.below(1000);
        if roll < p_resolve {
            let key = if rng.below(10) < 3 { hot } else { rng.below(KEYS as u64) as usize };
            if key == hot {
                ops.push(Op::Arrive(key));
            }
            ops.push(Op::Resolve(key));
            held += 1;
        } else if roll < p_resolve + p_release {
            if held > 0 {
                let idx = rng.below(held) as usize;
                ops.push(if rng.below(10) == 0 { Op::Abandon(idx) } else { Op::Release(idx) });
                held -= 1;
            }
        } else if roll < 900 {
            ops.push(Op::Advance(Duration::from_millis(50 + rng.below(1950))));
        } else if roll < 977 {
            ops.push(Op::Maintain);
        } else if roll < 987 {
            ops.push(Op::Advance(Duration::from_secs(20 + rng.below(40))));
        } else if roll < 997 {
            ops.push(Op::Advance(Duration::from_secs(80 + rng.below(40))));
            hot = (hot + 1 + rng.below(KEYS as u64 - 1) as usize) % KEYS;
        } else {
            ops.push(Op::Advance(Duration::from_secs(610 + rng.below(90))));
        }
    }
    ops
}

/// What the driver needs of a pool under test.
trait Subject {
    type Held;
    fn arrive(&mut self, key: usize);
    /// Returns the lease and `(tier name, value identity, cost in ns)`.
    fn resolve(&mut self, key: usize) -> (Self::Held, &'static str, u64, u64);
    fn release(&mut self, held: Self::Held);
    fn maintain(&mut self) -> usize;
    fn warm_count(&self, key: usize) -> usize;
}

struct Outcome {
    digest: u64,
    tiers: [u64; 4],
    minted: u64,
    /// Most idle entries seen after any release (the global bound is 64).
    peak_idle: usize,
    warm_counts: Vec<usize>,
}

fn drive<S: Subject>(clock: &ManualClock, subject: &mut S) -> Outcome {
    let mut digest = Fnv1a::new();
    let mut tiers = [0u64; 4];
    let (mut minted, mut peak_idle) = (0u64, 0usize);
    let mut held: Vec<S::Held> = Vec::new();
    for op in script() {
        match op {
            Op::Arrive(key) => subject.arrive(key),
            Op::Resolve(key) => {
                let (lease, tier, identity, cost) = subject.resolve(key);
                let idx = ["warm", "predicted", "clone", "cold"]
                    .iter()
                    .position(|t| *t == tier)
                    .expect("known tier");
                tiers[idx] += 1;
                digest.update(&[idx as u8]).update(&identity.to_le_bytes());
                digest.update(&cost.to_le_bytes());
                held.push(lease);
            }
            Op::Release(idx) => {
                subject.release(held.swap_remove(idx));
                peak_idle = peak_idle.max((0..KEYS).map(|k| subject.warm_count(k)).sum());
            }
            Op::Abandon(idx) => drop(held.swap_remove(idx)),
            Op::Advance(d) => clock.advance(d),
            Op::Maintain => {
                let n = subject.maintain() as u64;
                minted += n;
                digest.update(&[0xff]).update(&n.to_le_bytes());
            }
        }
        clock.advance(Duration::from_millis(1));
    }
    let warm_counts = (0..KEYS).map(|k| subject.warm_count(k)).collect();
    Outcome { digest: digest.finish(), tiers, minted, peak_idle, warm_counts }
}

fn image(key: usize) -> ContainerImageId {
    ContainerImageId::from_u128(key as u128 + 1)
}

struct EngineSubject {
    engine: Arc<WarmStartEngine>,
    /// Same seed as the engine's runtime; replays each start and clone.
    reference: Arc<ContainerRuntime>,
    prewarm_cost_nanos: u64,
}

impl Subject for EngineSubject {
    type Held = funcx_container::ContainerInstance;

    fn arrive(&mut self, key: usize) {
        self.engine.note_arrival(image(key));
    }

    fn resolve(&mut self, key: usize) -> (Self::Held, &'static str, u64, u64) {
        let lease = self.engine.resolve(image(key)).expect("no failure injection");
        let tech = SystemProfile::Ec2.native_tech();
        let tier = lease.tier.name();
        match tier {
            "cold" => {
                let (instance, cost) = self.reference.start_uncharged(image(key), tech);
                assert_eq!((instance.unwrap(), cost), (lease.instance.clone(), lease.cost));
            }
            "clone" => {
                let fraction = self.engine.config().clone_cost_fraction;
                let (instance, cost) = self.reference.clone_uncharged(image(key), tech, fraction);
                assert_eq!((instance, cost), (lease.instance.clone(), lease.cost));
            }
            _ => assert!(lease.cost.is_zero(), "idle hits are free"),
        }
        // The cost is pinned by the reference above, not by the digest.
        let id = lease.instance.instance;
        (lease.instance, tier, id, 0)
    }

    fn release(&mut self, held: Self::Held) {
        self.engine.release(held);
    }

    fn maintain(&mut self) -> usize {
        let before: Vec<usize> = (0..KEYS).map(|k| self.warm_count(k)).collect();
        let minted = self.engine.maintain();
        // A reap only removes what `warm_count` already filtered out, so
        // the per-key difference is exactly what was minted for that key.
        let mut seen = 0;
        for (key, was) in before.iter().enumerate() {
            for _ in *was..self.warm_count(key) {
                let (_, cost) = self.reference.clone_uncharged(
                    image(key),
                    SystemProfile::Ec2.native_tech(),
                    self.engine.config().clone_cost_fraction,
                );
                self.prewarm_cost_nanos += cost.as_nanos() as u64;
                seen += 1;
            }
        }
        assert_eq!(seen, minted);
        minted
    }

    fn warm_count(&self, key: usize) -> usize {
        self.engine.warm_count(image(key))
    }
}

#[test]
fn engine_follows_the_pinned_schedule() {
    let clock = ManualClock::new();
    let runtime = ContainerRuntime::new(clock.clone(), SystemProfile::Ec2, 17);
    let mut subject = EngineSubject {
        engine: WarmStartEngine::with_defaults(clock.clone(), runtime),
        reference: ContainerRuntime::new(clock.clone(), SystemProfile::Ec2, 17),
        prewarm_cost_nanos: 0,
    };
    let outcome = drive(&clock, &mut subject);
    let stats = subject.engine.stats();

    assert_eq!(stats.prewarm_cost_nanos, subject.prewarm_cost_nanos);
    assert_eq!(
        stats,
        WarmStartStats {
            warm_hits: outcome.tiers[0],
            predicted_hits: outcome.tiers[1],
            clone_hits: outcome.tiers[2],
            cold_misses: outcome.tiers[3],
            prewarm_minted: outcome.minted,
            evictions: ENGINE.evictions,
            reaped: ENGINE.reaped,
            snapshots: KEYS as u64,
            prewarm_cost_nanos: subject.prewarm_cost_nanos,
        }
    );
    assert_eq!(outcome.tiers, ENGINE.tiers);
    assert_eq!(outcome.minted, ENGINE.minted);
    assert_eq!(outcome.peak_idle, 64, "the global bound was reached");
    assert_eq!(outcome.warm_counts, ENGINE.warm_counts);
    assert_eq!(subject.engine.warm_total(), ENGINE.warm_counts.iter().sum::<usize>());
    assert_eq!(outcome.digest, ENGINE.digest, "per-op (tier, instance) transcript");
}

struct HostSubject {
    host: Arc<SandboxHost>,
    sources: Vec<String>,
}

impl Subject for HostSubject {
    type Held = funcx_sandbox::PreparedEnv;

    fn arrive(&mut self, key: usize) {
        self.host.note_arrival(SandboxHost::program_key(&self.sources[key]));
    }

    fn resolve(&mut self, key: usize) -> (Self::Held, &'static str, u64, u64) {
        let lease = self.host.resolve(&self.sources[key], &[]).expect("sources compile");
        assert_eq!(lease.env.key, SandboxHost::program_key(&self.sources[key]));
        (lease.env, lease.tier.name(), key as u64, lease.cost.as_nanos() as u64)
    }

    fn release(&mut self, held: Self::Held) {
        self.host.release(held);
    }

    fn maintain(&mut self) -> usize {
        self.host.maintain()
    }

    fn warm_count(&self, key: usize) -> usize {
        self.host.warm_count(SandboxHost::program_key(&self.sources[key]))
    }
}

#[test]
fn sandbox_host_follows_the_pinned_schedule() {
    let clock = ManualClock::new();
    let mut subject = HostSubject {
        host: SandboxHost::with_defaults(clock.clone()),
        sources: (0..KEYS).map(|i| format!("def f{i}(x):\n    return x + {i}\n")).collect(),
    };
    let outcome = drive(&clock, &mut subject);
    let config = *subject.host.config();

    assert_eq!(
        subject.host.stats(),
        SandboxStats {
            warm_hits: outcome.tiers[0],
            predicted_hits: outcome.tiers[1],
            clone_hits: outcome.tiers[2],
            cold_misses: outcome.tiers[3],
            prewarm_minted: outcome.minted,
            evictions: HOST.evictions,
            reaped: HOST.reaped,
            compiles: KEYS as u64,
            prewarm_cost_nanos: outcome.minted * config.clone_cost.as_nanos() as u64,
            ..SandboxStats::default()
        }
    );
    assert_eq!(outcome.tiers, HOST.tiers);
    assert_eq!(outcome.minted, HOST.minted);
    assert_eq!(outcome.peak_idle, 64, "the global bound was reached");
    assert_eq!(outcome.warm_counts, HOST.warm_counts);
    assert_eq!(subject.host.warm_total(), HOST.warm_counts.iter().sum::<usize>());
    assert_eq!(outcome.digest, HOST.digest, "per-op (tier, cost) transcript");
}

/// The parent commit's values for the script above.
struct Pinned {
    /// warm, predicted, clone, cold.
    tiers: [u64; 4],
    minted: u64,
    evictions: u64,
    reaped: u64,
    warm_counts: [usize; KEYS],
    digest: u64,
}

const ENGINE: Pinned = Pinned {
    tiers: [514, 290, 454, 10],
    minted: 425,
    evictions: 348,
    reaped: 337,
    warm_counts: [0, 6, 3, 0, 7, 3, 3, 7, 3, 1],
    digest: 0x5952_3587_f4c8_cd45,
};

const HOST: Pinned = Pinned {
    tiers: [530, 288, 440, 10],
    minted: 418,
    evictions: 361,
    reaped: 303,
    warm_counts: [0, 6, 3, 0, 7, 3, 3, 7, 3, 1],
    digest: 0xfc5e_893b_ae5e_b65c,
};
