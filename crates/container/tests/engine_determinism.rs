//! Determinism: the same schedule gives the same transcript. Every choice
//! the pool makes among images — which of them a budget-bound pre-warm pass
//! mints for, which of several equally stale instances the global bound
//! evicts — is made in key order, not in the iteration order of a hash map
//! (which differs between two maps in one process, and made the `warmstart`
//! bench's `engine` row differ from run to run).
//!
//! Default config throughout: 8 idle per image, 64 overall, 4 mints a pass.

use std::sync::Arc;
use std::time::Duration;

use funcx_container::{ContainerRuntime, SystemProfile, WarmStartEngine, WarmStartStats};
use funcx_types::time::ManualClock;
use funcx_types::ContainerImageId;

const IMAGES: u128 = 12;

#[derive(Debug, PartialEq)]
struct Transcript {
    /// `warm_count` per image after each of three budget-bound passes.
    minted_sets: Vec<Vec<usize>>,
    /// `warm_count` per image after 108 releases at one instant.
    survivors: Vec<usize>,
    /// What draining every image's idle queue hands out, in order.
    drained: Vec<(u128, &'static str, u64)>,
    stats: WarmStartStats,
}

fn run() -> Transcript {
    let clock = ManualClock::new();
    let runtime = ContainerRuntime::new(clock.clone(), SystemProfile::Ec2, 5);
    let engine = WarmStartEngine::with_defaults(clock.clone(), runtime);
    let image = ContainerImageId::from_u128;
    let warm_counts =
        |engine: &Arc<WarmStartEngine>| (1..=IMAGES).map(|i| engine.warm_count(image(i))).collect();

    // Twelve hot images with snapshots; every one wants 8 pre-minted, so the
    // total deficit (96) is far over a pass's budget (4).
    let mut held = Vec::new();
    for i in (1..=IMAGES).rev() {
        held.push(engine.resolve(image(i)).unwrap().instance);
        for _ in 0..60 {
            engine.note_arrival(image(i));
        }
    }
    clock.advance(Duration::from_secs(1));
    let mut minted_sets = Vec::new();
    for _ in 0..3 {
        assert_eq!(engine.maintain(), 4, "the per-pass budget binds");
        minted_sets.push(warm_counts(&engine));
        clock.advance(Duration::from_secs(1));
    }

    // Eight more leases per image, then everything comes back at one
    // instant: 8 x 12 survive the per-image bound, 64 the global one, and
    // the 32 that go are chosen among equally stale instances.
    for i in 1..=IMAGES {
        for _ in 0..8 {
            held.push(engine.resolve(image(i)).unwrap().instance);
        }
    }
    for instance in held.into_iter().rev() {
        engine.release(instance);
    }
    let survivors: Vec<usize> = warm_counts(&engine);
    assert_eq!(survivors.iter().sum::<usize>(), 64);

    let mut drained = Vec::new();
    for i in 1..=IMAGES {
        while engine.warm_count(image(i)) > 0 {
            let lease = engine.resolve(image(i)).unwrap();
            drained.push((i, lease.tier.name(), lease.instance.instance));
        }
    }
    Transcript { minted_sets, survivors, drained, stats: engine.stats() }
}

#[test]
fn two_engines_fed_one_schedule_agree() {
    let first = run();
    assert_eq!(first, run());
    // And the order is the documented one: the mint walks images ascending,
    // and a tie at the global bound is lost by the smaller image.
    assert_eq!(first.minted_sets[2], [8, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(first.survivors, [0, 0, 0, 0, 8, 8, 8, 8, 8, 8, 8, 8]);
}
