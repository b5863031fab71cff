//! `warmstart` — the snapshot/COW warm-start engine vs the baselines.
//!
//! ```sh
//! cargo run --release -p funcx-bench --bin warmstart            # full
//! cargo run --release -p funcx-bench --bin warmstart -- --quick # CI sizes
//! ```
//!
//! A discrete-event simulation on the manual clock drives one seeded
//! bursty multi-tenant arrival schedule (a dozen images with ON/OFF
//! bursts and long-tailed execution times from [`funcx_workload`])
//! through three acquire policies over the Theta container profile
//! (~10 s cold starts, Table 2):
//!
//! * `none` — no warming: every acquire pays a full cold start;
//! * `ttl` — the paper's TTL-only cache: the same [`TieredPool`] the engine
//!   uses, driven with the [`TtlOnly`] tier model, which keeps no snapshots
//!   (so nothing is cloned or pre-minted), and with no global bound — reuse
//!   within the TTL, cold start on every miss;
//! * `engine` — the three-layer [`WarmStartEngine`]: warm hits, COW
//!   clones minted from a per-image snapshot, and predictive pre-warming
//!   from the arrival-rate history.
//!
//! All three policies replay the *same* arrival/exec schedule against a
//! runtime seeded identically, and the pool makes every choice among images
//! in key order, so differences are policy, not luck, and two runs write the
//! same bytes. The output table and `BENCH_warmstart.json` report per-tier
//! hit counts and p50/p99 acquire latency per policy. The process exits
//! non-zero unless the engine beats `ttl` on warm-tier rate and on p99 and
//! the predicted tier served something.

use std::collections::BinaryHeap;
use std::time::Duration;

use funcx_bench::experiments::ablation_warm_ttl::TtlOnly;
use funcx_bench::Table;
use funcx_container::{
    AcquireTier, ContainerInstance, ContainerRuntime, PoolConfig, SystemProfile, TieredPool,
    WarmStartConfig, WarmStartEngine,
};
use funcx_types::time::{Clock, ManualClock};
use funcx_types::ContainerImageId;
use funcx_workload::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One task in the pre-generated schedule (shared across policies).
struct Arrival {
    at_nanos: u64,
    image: ContainerImageId,
    exec: Duration,
}

/// One simulated tenant: an image with bursty ON/OFF arrivals.
struct Tenant {
    image: ContainerImageId,
    /// Inter-arrival gap while a burst is ON.
    gap: Distribution,
    /// Burst length (s).
    on: Distribution,
    /// Silence between bursts (s).
    off: Distribution,
    /// Execution time per task.
    exec: Distribution,
}

fn tenants() -> Vec<Tenant> {
    // A dozen images spanning hot interactive tenants (sub-second gaps,
    // short tasks) to cold batch tenants (rare bursts, long tasks) — the
    // Figure 1 spread. Hot tenants are where prediction pays; cold
    // tenants are where capacity pressure comes from.
    (0..12)
        .map(|i| {
            let hot = i < 4; // tenants 0-3 dominate traffic
            Tenant {
                image: ContainerImageId::from_u128(i as u128 + 1),
                gap: if hot {
                    Distribution::ShiftedExp { min: 0.2, scale: 0.8, max: 10.0 }
                } else {
                    Distribution::ShiftedExp { min: 2.0, scale: 8.0, max: 60.0 }
                },
                on: Distribution::ShiftedExp { min: 30.0, scale: 60.0, max: 300.0 },
                off: if hot {
                    Distribution::ShiftedExp { min: 20.0, scale: 60.0, max: 240.0 }
                } else {
                    Distribution::ShiftedExp { min: 120.0, scale: 300.0, max: 1200.0 }
                },
                exec: match i % 3 {
                    0 => Distribution::LogNormal { median: 0.5, sigma: 1.0, max: 30.0 },
                    1 => Distribution::Uniform { lo: 0.5, hi: 3.0 },
                    _ => Distribution::ShiftedExp { min: 1.0, scale: 4.0, max: 60.0 },
                },
            }
        })
        .collect()
}

/// Generate the shared schedule: every tenant walks its ON/OFF process
/// over the horizon; the merged stream is truncated to `target` tasks.
fn schedule(target: usize, horizon_secs: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all = Vec::new();
    for tenant in tenants() {
        let mut t = tenant.off.sample(&mut rng).as_secs_f64() * 0.25; // staggered starts
        while t < horizon_secs {
            let burst_end = (t + tenant.on.sample(&mut rng).as_secs_f64()).min(horizon_secs);
            while t < burst_end {
                all.push(Arrival {
                    at_nanos: (t * 1e9) as u64,
                    image: tenant.image,
                    exec: tenant.exec.sample(&mut rng),
                });
                t += tenant.gap.sample(&mut rng).as_secs_f64();
            }
            t = burst_end + tenant.off.sample(&mut rng).as_secs_f64();
        }
    }
    all.sort_by_key(|a| a.at_nanos);
    all.truncate(target);
    all
}

/// Heap event: a container coming back from a finished task, or a
/// pre-warmer maintenance tick. Ordered by time only (min-heap via the
/// inverted `Ord`).
struct Event {
    at_nanos: u64,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    Release(ContainerInstance),
    Maintain,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at_nanos, self.seq) == (other.at_nanos, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted so BinaryHeap pops the earliest event first.
        (other.at_nanos, other.seq).cmp(&(self.at_nanos, self.seq))
    }
}

#[derive(Default)]
struct PolicyResult {
    name: &'static str,
    tiers: [u64; 4], // warm, predicted, clone, cold
    latencies_ms: Vec<f64>,
    tier_latencies_ms: [Vec<f64>; 4],
    prewarm_minted: u64,
    evictions: u64,
    prewarm_cost_ms: f64,
}

impl PolicyResult {
    fn acquires(&self) -> u64 {
        self.tiers.iter().sum()
    }

    /// Fraction served at zero cost (warm + predicted).
    fn warm_tier_rate(&self) -> f64 {
        (self.tiers[0] + self.tiers[1]) as f64 / self.acquires().max(1) as f64
    }

    fn quantile(samples: &[f64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn p(&self, q: f64) -> f64 {
        Self::quantile(&self.latencies_ms, q)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    None,
    Ttl,
    Engine,
}

/// Replay the schedule through one policy on its own clock + runtime.
fn simulate(policy: Policy, arrivals: &[Arrival], seed: u64) -> PolicyResult {
    let clock = ManualClock::new();
    let runtime = ContainerRuntime::new(clock.clone(), SystemProfile::ThetaKnl, seed);
    let tech = SystemProfile::ThetaKnl.native_tech();
    let config = WarmStartConfig::default();
    let pool =
        TieredPool::new(clock.clone(), PoolConfig { global_capacity: usize::MAX, ..config.pool });
    let engine = WarmStartEngine::new(clock.clone(), runtime.clone(), config);

    let mut result = PolicyResult {
        name: match policy {
            Policy::None => "none",
            Policy::Ttl => "ttl",
            Policy::Engine => "engine",
        },
        ..PolicyResult::default()
    };

    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    if policy == Policy::Engine {
        // Maintenance cadence: the manager loop runs maintain() every
        // iteration; one tick per simulated second is conservative.
        let end = arrivals.last().map(|a| a.at_nanos).unwrap_or(0);
        let mut t = 1_000_000_000u64;
        while t < end {
            heap.push(Event { at_nanos: t, seq, kind: EventKind::Maintain });
            seq += 1;
            t += 1_000_000_000;
        }
    }

    let mut next = 0usize;
    loop {
        // Earliest of: next scheduled arrival, next heap event.
        let arrival_at = arrivals.get(next).map(|a| a.at_nanos);
        let event_at = heap.peek().map(|e| e.at_nanos);
        let now_n = match (arrival_at, event_at) {
            (Some(a), Some(e)) => a.min(e),
            (Some(a), None) => a,
            (None, Some(e)) => e,
            (None, None) => break,
        };
        let behind = now_n.saturating_sub(Clock::now(clock.as_ref()).as_nanos());
        if behind > 0 {
            clock.advance(Duration::from_nanos(behind));
        }

        if event_at.is_some_and(|e| e <= arrival_at.unwrap_or(u64::MAX)) {
            match heap.pop().unwrap().kind {
                EventKind::Release(instance) => match policy {
                    Policy::Ttl => pool.release(instance.image, instance),
                    Policy::Engine => engine.release(instance),
                    Policy::None => {}
                },
                EventKind::Maintain => {
                    engine.maintain();
                }
            }
            continue;
        }

        let task = &arrivals[next];
        next += 1;
        // Acquire under the policy; `cost` is the start latency this task
        // observes before execution begins.
        let (instance, tier, cost) = match policy {
            Policy::None => {
                let (res, cost) = runtime.start_uncharged(task.image, tech);
                (res.expect("no failure injection"), AcquireTier::Cold, cost)
            }
            Policy::Ttl => {
                let mut tiers = TtlOnly(|image| {
                    let (res, cost) = runtime.start_uncharged(image, tech);
                    (res.expect("no failure injection"), cost)
                });
                let Ok(lease) = pool.resolve(task.image, &mut tiers);
                lease
            }
            Policy::Engine => {
                engine.note_arrival(task.image);
                let lease = engine.resolve(task.image).expect("no failure injection");
                (lease.instance, lease.tier, lease.cost)
            }
        };
        let tier_idx = match tier {
            AcquireTier::Warm => 0,
            AcquireTier::Predicted => 1,
            AcquireTier::Clone => 2,
            AcquireTier::Cold => 3,
        };
        result.tiers[tier_idx] += 1;
        let ms = cost.as_secs_f64() * 1e3;
        result.latencies_ms.push(ms);
        result.tier_latencies_ms[tier_idx].push(ms);
        if policy != Policy::None {
            heap.push(Event {
                at_nanos: task.at_nanos + (cost + task.exec).as_nanos() as u64,
                seq,
                kind: EventKind::Release(instance),
            });
            seq += 1;
        }
    }

    if policy == Policy::Engine {
        let stats = engine.stats();
        result.prewarm_minted = stats.prewarm_minted;
        result.evictions = stats.evictions;
        result.prewarm_cost_ms = stats.prewarm_cost_nanos as f64 / 1e6;
        debug_assert_eq!(stats.acquires(), result.acquires());
    }
    result
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let target = if quick { 1200 } else { 6000 };
    let horizon = if quick { 1800.0 } else { 7200.0 };
    let seed = 4242;

    let arrivals = schedule(target, horizon, seed);
    let span_s = arrivals.last().map(|a| a.at_nanos as f64 / 1e9).unwrap_or(0.0);
    println!(
        "{} tasks over {:.0} virtual seconds, {} images, Theta profile",
        arrivals.len(),
        span_s,
        tenants().len()
    );

    let results: Vec<PolicyResult> = [Policy::None, Policy::Ttl, Policy::Engine]
        .into_iter()
        .map(|p| simulate(p, &arrivals, seed))
        .collect();

    let mut table = Table::new(
        "acquire latency and hit tiers per policy (virtual ms)",
        &["policy", "warm", "predicted", "clone", "cold", "warm-rate", "p50", "p99"],
    );
    for r in &results {
        table.row(vec![
            r.name.into(),
            r.tiers[0].to_string(),
            r.tiers[1].to_string(),
            r.tiers[2].to_string(),
            r.tiers[3].to_string(),
            format!("{:.1}%", r.warm_tier_rate() * 100.0),
            format!("{:.0}", r.p(0.50)),
            format!("{:.0}", r.p(0.99)),
        ]);
    }
    println!("{table}");

    let ttl = &results[1];
    let engine = &results[2];
    let beats_hit_rate = engine.warm_tier_rate() > ttl.warm_tier_rate();
    let beats_p99 = engine.p(0.99) < ttl.p(0.99);
    println!(
        "engine vs ttl: warm-tier rate {:.1}% vs {:.1}% ({}), p99 {:.0} ms vs {:.0} ms ({})",
        engine.warm_tier_rate() * 100.0,
        ttl.warm_tier_rate() * 100.0,
        if beats_hit_rate { "better" } else { "WORSE" },
        engine.p(0.99),
        ttl.p(0.99),
        if beats_p99 { "better" } else { "WORSE" },
    );

    let policy_json: Vec<String> = results
        .iter()
        .map(|r| {
            let tier_json: Vec<String> = ["warm", "predicted", "clone", "cold"]
                .iter()
                .zip(r.tiers.iter().zip(r.tier_latencies_ms.iter()))
                .map(|(name, (count, lats))| {
                    format!(
                        "{{\"tier\": \"{name}\", \"count\": {count}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                        PolicyResult::quantile(lats, 0.50),
                        PolicyResult::quantile(lats, 0.99),
                    )
                })
                .collect();
            format!(
                "{{\"policy\": \"{}\", \"acquires\": {}, \"warm_tier_rate\": {:.4}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"prewarm_minted\": {}, \"evictions\": {}, \"prewarm_cost_ms\": {:.1}, \"tiers\": [{}]}}",
                r.name,
                r.acquires(),
                r.warm_tier_rate(),
                r.p(0.50),
                r.p(0.99),
                r.prewarm_minted,
                r.evictions,
                r.prewarm_cost_ms,
                tier_json.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"warmstart\",\n  \"quick\": {quick},\n  \"tasks\": {},\n  \"engine_beats_ttl_hit_rate\": {beats_hit_rate},\n  \"engine_beats_ttl_p99\": {beats_p99},\n  \"policies\": [\n    {}\n  ]\n}}\n",
        arrivals.len(),
        policy_json.join(",\n    "),
    );
    std::fs::write("BENCH_warmstart.json", json).expect("write BENCH_warmstart.json");
    println!("wrote BENCH_warmstart.json");

    if !beats_hit_rate || !beats_p99 || engine.tiers[1] == 0 {
        eprintln!(
            "FAIL: the engine must beat ttl on warm-tier rate and p99 and serve predicted hits \
             (predicted: {})",
            engine.tiers[1]
        );
        std::process::exit(1);
    }
}
