//! The sandbox host: pre-initialized session pools, tiered acquisition,
//! predictive pre-warming, and persistent named sessions.
//!
//! Starting a sandbox execution from nothing costs a *cold boot*: parse the
//! shipped source, validate its imports, and build the definition table.
//! The host avoids paying that on the hot path with the same three-layer
//! model as the container warm-start engine:
//!
//! 1. **Warm hit** — an idle prepared environment for this program (released
//!    by a worker, or pre-minted by the predictor) at near-zero cost.
//! 2. **Clone** — the compiled program is cached; mint a fresh environment
//!    from it at a fraction of the cold cost.
//! 3. **Cold boot** — parse + validate + build, and cache the compiled
//!    program for next time.
//!
//! The **predictive pre-warmer** consumes per-program arrival rates and
//! keeps `ceil(rate × ttl)` environments pre-minted, bounded by per-program
//! and global capacity; pre-minted environments that get used count as the
//! `predicted` tier. Tier costs are charged in *virtual* time, so the bench
//! and tests are deterministic under a speed-up clock.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use funcx_lang::ast::{FunctionDef, Program};
use funcx_lang::interp::check_imports;
use funcx_lang::{ExecHooks, Value};
use funcx_telemetry::WindowedCounter;
use funcx_types::hash::fnv1a;
use funcx_types::time::{SharedClock, VirtualDuration, VirtualInstant};
use funcx_types::{Capability, TaskLimits};
use parking_lot::Mutex;

use crate::meter::{CapKind, SandboxLimits, SandboxResult};
use crate::session::{SessionStore, DEFAULT_SESSION_TTL};
use crate::vm;

/// Tuning knobs for the sandbox host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SandboxConfig {
    /// Idle prepared environments older than this are reaped.
    pub ttl: VirtualDuration,
    /// Named sessions idle past this are reaped.
    pub session_ttl: VirtualDuration,
    /// Idle environments one program may hold.
    pub per_program_capacity: usize,
    /// Idle environments across all programs; overflow evicts the stalest.
    pub global_capacity: usize,
    /// Gate for the predictive pre-warmer.
    pub prewarm: bool,
    /// Trailing window the arrival-rate estimate is computed over.
    pub rate_window: VirtualDuration,
    /// Environments one `maintain` pass may mint.
    pub max_prewarm_per_tick: usize,
    /// Endpoint-default caps, overlaid by per-function [`TaskLimits`].
    pub default_limits: SandboxLimits,
    /// Virtual cost of a cold boot (parse + validate + build).
    pub cold_cost: VirtualDuration,
    /// Virtual cost of minting an environment from a cached program.
    pub clone_cost: VirtualDuration,
    /// Virtual cost of handing out an idle prepared environment.
    pub warm_cost: VirtualDuration,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            ttl: VirtualDuration::from_secs(600),
            session_ttl: DEFAULT_SESSION_TTL,
            per_program_capacity: 8,
            global_capacity: 64,
            prewarm: true,
            rate_window: VirtualDuration::from_secs(60),
            max_prewarm_per_tick: 4,
            default_limits: SandboxLimits::default(),
            cold_cost: VirtualDuration::from_millis(80),
            clone_cost: VirtualDuration::from_millis(6),
            warm_cost: VirtualDuration::from_micros(500),
        }
    }
}

/// Which layer served a session acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTier {
    /// Idle prepared environment released by a worker.
    Warm,
    /// Idle prepared environment the pre-warmer minted ahead of demand.
    Predicted,
    /// Minted from the cached compiled program.
    Clone,
    /// Full cold boot (parse + validate + build).
    Cold,
}

impl SessionTier {
    /// Stable label for metrics and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            SessionTier::Warm => "warm",
            SessionTier::Predicted => "predicted",
            SessionTier::Clone => "clone",
            SessionTier::Cold => "cold",
        }
    }
}

/// A prepared execution environment: the parsed program and its pre-built
/// definition table, shared by reference so minting a clone is cheap in
/// real time (the modelled cost is charged in virtual time).
#[derive(Clone)]
pub struct PreparedEnv {
    /// Program cache key (`fnv1a` of the source).
    pub key: u64,
    /// The parsed program.
    pub program: Arc<Program>,
    /// Pre-built top-level definition table.
    pub globals: Arc<HashMap<String, FunctionDef>>,
}

/// A resolved acquisition: the environment, the serving tier, and the
/// virtual cost the caller owes.
pub struct EnvLease {
    /// The prepared environment.
    pub env: PreparedEnv,
    /// Layer that served it.
    pub tier: SessionTier,
    /// Virtual acquisition cost; [`SandboxHost::execute`] charges this.
    pub cost: VirtualDuration,
}

/// Counters for status, metrics, and the sandbox bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SandboxStats {
    /// Acquisitions served by a worker-released idle environment.
    pub warm_hits: u64,
    /// Acquisitions served by a pre-minted environment.
    pub predicted_hits: u64,
    /// Acquisitions minted from the cached compiled program.
    pub clone_hits: u64,
    /// Acquisitions that paid a full cold boot.
    pub cold_misses: u64,
    /// Environments the pre-warmer minted.
    pub prewarm_minted: u64,
    /// Idle environments evicted by capacity bounds.
    pub evictions: u64,
    /// Idle environments reaped after their TTL lapsed.
    pub reaped: u64,
    /// Programs compiled (one per distinct source cold-booted).
    pub compiles: u64,
    /// Virtual nanoseconds spent minting pre-warm environments.
    pub prewarm_cost_nanos: u64,
    /// Executions attempted (success or failure).
    pub execs: u64,
    /// Executions that returned an error.
    pub exec_failures: u64,
    /// Executions killed by the fuel cap.
    pub fuel_kills: u64,
    /// Executions killed by the memory cap.
    pub memory_kills: u64,
    /// Executions killed by the time cap.
    pub time_kills: u64,
    /// Executions killed by the output cap.
    pub output_kills: u64,
    /// Executions rejected by the capability policy.
    pub capability_denials: u64,
    /// Named sessions reaped by TTL.
    pub sessions_reaped: u64,
}

impl SandboxStats {
    /// Total acquisitions across all four tiers.
    pub fn acquires(&self) -> u64 {
        self.warm_hits + self.predicted_hits + self.clone_hits + self.cold_misses
    }

    /// Fraction of acquisitions served from an idle environment.
    pub fn warm_tier_rate(&self) -> f64 {
        let total = self.acquires();
        if total == 0 {
            0.0
        } else {
            (self.warm_hits + self.predicted_hits) as f64 / total as f64
        }
    }

    /// Total cap-policy kills across every cap kind.
    pub fn cap_kills(&self) -> u64 {
        self.fuel_kills
            + self.memory_kills
            + self.time_kills
            + self.output_kills
            + self.capability_denials
    }
}

/// Who put an idle environment in the pool — decides its hit tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    Released,
    Preminted,
}

struct IdleEnv {
    env: PreparedEnv,
    idle_since: VirtualInstant,
    provenance: Provenance,
}

struct HostInner {
    /// Compiled-program cache, keyed by source hash.
    programs: HashMap<u64, PreparedEnv>,
    /// Idle environments per program, stalest at the front.
    idle: HashMap<u64, VecDeque<IdleEnv>>,
    idle_total: usize,
    /// Per-program arrival counters feeding the prediction target.
    arrivals: HashMap<u64, WindowedCounter>,
}

/// One sandbox execution request (the worker's view of a dispatch frame).
pub struct ExecRequest<'a> {
    /// Shipped function source.
    pub source: &'a str,
    /// Entry function name.
    pub entry: &'a str,
    /// Positional arguments.
    pub args: &'a [Value],
    /// Keyword arguments.
    pub kwargs: &'a [(String, Value)],
    /// Per-function cap overlay.
    pub limits: TaskLimits,
    /// Capability grants.
    pub capabilities: &'a [Capability],
    /// Persistent session key (`"{owner}:{name}"`), if registered with one.
    pub session: Option<&'a str>,
    /// Modules the enclosing container ships beyond the base whitelist.
    pub extra_modules: &'a [String],
    /// Worker hooks (virtual-time sleep/stress, stdout capture).
    pub hooks: &'a dyn ExecHooks,
}

/// A completed sandbox execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SandboxOutcome {
    /// The function's return value.
    pub value: Value,
    /// Which tier served the environment.
    pub tier: SessionTier,
    /// Fuel consumed.
    pub fuel_used: u64,
    /// Live-heap high-water mark, in bytes.
    pub mem_high_water: usize,
    /// Printed output, in bytes.
    pub output_bytes: usize,
}

/// The sandbox runtime host; one per manager. See the module docs.
pub struct SandboxHost {
    clock: SharedClock,
    config: SandboxConfig,
    inner: Mutex<HostInner>,
    sessions: SessionStore,
    stats: Mutex<SandboxStats>,
}

impl SandboxHost {
    /// New host with explicit config.
    pub fn new(clock: SharedClock, config: SandboxConfig) -> Arc<Self> {
        Arc::new(SandboxHost {
            sessions: SessionStore::new(Arc::clone(&clock), config.session_ttl),
            clock,
            config,
            inner: Mutex::new(HostInner {
                programs: HashMap::new(),
                idle: HashMap::new(),
                idle_total: 0,
                arrivals: HashMap::new(),
            }),
            stats: Mutex::new(SandboxStats::default()),
        })
    }

    /// New host with default config.
    pub fn with_defaults(clock: SharedClock) -> Arc<Self> {
        Self::new(clock, SandboxConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SandboxConfig {
        &self.config
    }

    /// Program cache key for `source`.
    pub fn program_key(source: &str) -> u64 {
        fnv1a(source.as_bytes())
    }

    /// Record one task arrival for `source`'s program. Managers call this
    /// on task receipt — not on acquire — so queueing delay cannot starve
    /// the rate estimate.
    pub fn note_arrival(&self, key: u64) {
        let mut inner = self.inner.lock();
        let counter = inner.arrivals.entry(key).or_insert_with(|| {
            let frame = VirtualDuration::from_nanos(
                (self.config.rate_window.as_nanos() / 6).max(1_000_000_000) as u64,
            );
            WindowedCounter::new(Arc::clone(&self.clock), frame, 12)
        });
        counter.inc();
    }

    fn compile(key: u64, source: &str) -> SandboxResult<PreparedEnv> {
        let program = funcx_lang::parse(source)?;
        let globals: HashMap<String, FunctionDef> =
            program.defs.iter().map(|d| (d.name.clone(), d.clone())).collect();
        Ok(PreparedEnv { key, program: Arc::new(program), globals: Arc::new(globals) })
    }

    fn prune_queue(
        queue: &mut VecDeque<IdleEnv>,
        now: VirtualInstant,
        ttl: VirtualDuration,
    ) -> usize {
        let before = queue.len();
        queue.retain(|e| now.saturating_duration_since(e.idle_since) < ttl);
        before - queue.len()
    }

    /// Resolve an acquisition without charging its cost: warm hit, else
    /// clone from the cached program, else cold boot (which caches).
    pub fn resolve(&self, source: &str, extra_modules: &[String]) -> SandboxResult<EnvLease> {
        let key = Self::program_key(source);
        let now = self.clock.now();
        let mut inner = self.inner.lock();

        // Layer 1: an idle prepared environment.
        if let Some(queue) = inner.idle.get_mut(&key) {
            let reaped = Self::prune_queue(queue, now, self.config.ttl);
            inner.idle_total -= reaped;
            if reaped > 0 {
                self.stats.lock().reaped += reaped as u64;
            }
            if let Some(entry) = inner.idle.get_mut(&key).and_then(|q| q.pop_back()) {
                inner.idle_total -= 1;
                drop(inner);
                check_imports(&entry.env.program, extra_modules)?;
                let tier = match entry.provenance {
                    Provenance::Released => SessionTier::Warm,
                    Provenance::Preminted => SessionTier::Predicted,
                };
                let mut stats = self.stats.lock();
                match tier {
                    SessionTier::Warm => stats.warm_hits += 1,
                    _ => stats.predicted_hits += 1,
                }
                return Ok(EnvLease { env: entry.env, tier, cost: self.config.warm_cost });
            }
        }

        // Layer 2: mint from the cached compiled program.
        if let Some(cached) = inner.programs.get(&key).cloned() {
            drop(inner);
            check_imports(&cached.program, extra_modules)?;
            self.stats.lock().clone_hits += 1;
            return Ok(EnvLease {
                env: cached,
                tier: SessionTier::Clone,
                cost: self.config.clone_cost,
            });
        }

        // Layer 3: cold boot; success caches the compiled program.
        drop(inner);
        let mut stats = self.stats.lock();
        stats.cold_misses += 1;
        drop(stats);
        let env = Self::compile(key, source)?;
        check_imports(&env.program, extra_modules)?;
        let mut inner = self.inner.lock();
        if inner.programs.insert(key, env.clone()).is_none() {
            self.stats.lock().compiles += 1;
        }
        Ok(EnvLease { env, tier: SessionTier::Cold, cost: self.config.cold_cost })
    }

    /// Return an environment after execution; it idles (tier `warm` on its
    /// next hit) until TTL or capacity takes it.
    pub fn release(&self, env: PreparedEnv) {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let key = env.key;
        inner.idle.entry(key).or_default().push_back(IdleEnv {
            env,
            idle_since: now,
            provenance: Provenance::Released,
        });
        inner.idle_total += 1;
        let evicted = self.enforce_capacity(&mut inner, key);
        drop(inner);
        if evicted > 0 {
            self.stats.lock().evictions += evicted;
        }
    }

    fn enforce_capacity(&self, inner: &mut HostInner, key: u64) -> u64 {
        let mut evicted = 0u64;
        if let Some(queue) = inner.idle.get_mut(&key) {
            while queue.len() > self.config.per_program_capacity {
                queue.pop_front();
                inner.idle_total -= 1;
                evicted += 1;
            }
        }
        while inner.idle_total > self.config.global_capacity {
            let victim = inner
                .idle
                .iter()
                .filter_map(|(k, q)| q.front().map(|e| (*k, e.idle_since)))
                .min_by_key(|(_, since)| *since)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    let q = inner.idle.get_mut(&k).expect("victim queue exists");
                    q.pop_front();
                    inner.idle_total -= 1;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Execute one request end to end: acquire (charging the tier cost to
    /// the virtual clock), run under the meter with the session locked for
    /// the duration, release the environment, and account the outcome.
    pub fn execute(&self, req: ExecRequest<'_>) -> SandboxResult<SandboxOutcome> {
        let lease = self.resolve(req.source, req.extra_modules)?;
        if !lease.cost.is_zero() {
            self.clock.sleep(lease.cost);
        }
        let limits = self.config.default_limits.overlaid(&req.limits);
        let cell = req.session.map(|key| self.sessions.checkout(key));
        let mut state = cell.as_ref().map(|cell| cell.lock());
        let result = vm::run_program(
            &lease.env.program,
            &lease.env.globals,
            req.entry,
            req.args,
            req.kwargs,
            limits,
            req.capabilities,
            state.as_deref_mut(),
            req.hooks,
            Arc::clone(&self.clock),
        );
        drop(state);
        let tier = lease.tier;
        self.release(lease.env);
        let mut stats = self.stats.lock();
        stats.execs += 1;
        if let Err(e) = &result {
            stats.exec_failures += 1;
            match e.kind {
                Some(CapKind::Fuel) => stats.fuel_kills += 1,
                Some(CapKind::Memory) => stats.memory_kills += 1,
                Some(CapKind::Time) => stats.time_kills += 1,
                Some(CapKind::Output) => stats.output_kills += 1,
                Some(CapKind::Capability) => stats.capability_denials += 1,
                None => {}
            }
        }
        drop(stats);
        result.map(|o| SandboxOutcome {
            value: o.value,
            tier,
            fuel_used: o.fuel_used,
            mem_high_water: o.mem_high_water,
            output_bytes: o.output_bytes,
        })
    }

    /// Periodic maintenance: reap TTL-expired idle environments and named
    /// sessions, then pre-mint environments toward each hot program's
    /// prediction target `ceil(arrival_rate × ttl)`. Returns environments
    /// minted.
    pub fn maintain(&self) -> usize {
        let now = self.clock.now();
        let mut inner = self.inner.lock();

        let mut reaped = 0usize;
        for queue in inner.idle.values_mut() {
            reaped += Self::prune_queue(queue, now, self.config.ttl);
        }
        inner.idle.retain(|_, q| !q.is_empty());
        inner.idle_total -= reaped;
        if reaped > 0 {
            self.stats.lock().reaped += reaped as u64;
        }

        let sessions_reaped = self.sessions.reap();
        if sessions_reaped > 0 {
            self.stats.lock().sessions_reaped += sessions_reaped as u64;
        }

        if !self.config.prewarm {
            return 0;
        }

        let ttl_secs = self.config.ttl.as_secs_f64();
        let mut wanted: Vec<(u64, usize)> = Vec::new();
        for (key, counter) in inner.arrivals.iter() {
            if !inner.programs.contains_key(key) {
                continue; // nothing to mint from yet
            }
            let rate = counter.rate_per_sec(self.config.rate_window);
            let target = ((rate * ttl_secs).ceil() as usize).min(self.config.per_program_capacity);
            let live = inner.idle.get(key).map(|q| q.len()).unwrap_or(0);
            if target > live {
                wanted.push((*key, target - live));
            }
        }

        let mut minted = 0usize;
        let mut minted_cost = 0u64;
        'mint: for (key, deficit) in wanted {
            for _ in 0..deficit {
                if minted >= self.config.max_prewarm_per_tick
                    || inner.idle_total >= self.config.global_capacity
                {
                    break 'mint;
                }
                let env = inner.programs.get(&key).expect("checked above").clone();
                inner.idle.entry(key).or_default().push_back(IdleEnv {
                    env,
                    idle_since: now,
                    provenance: Provenance::Preminted,
                });
                inner.idle_total += 1;
                minted += 1;
                minted_cost += self.config.clone_cost.as_nanos().min(u64::MAX as u128) as u64;
            }
        }
        if minted > 0 {
            let mut stats = self.stats.lock();
            stats.prewarm_minted += minted as u64;
            stats.prewarm_cost_nanos += minted_cost;
        }
        minted
    }

    /// Live (TTL-filtered) idle environments for `source`'s program.
    pub fn warm_count(&self, key: u64) -> usize {
        let now = self.clock.now();
        self.inner
            .lock()
            .idle
            .get(&key)
            .map(|q| {
                q.iter()
                    .filter(|e| now.saturating_duration_since(e.idle_since) < self.config.ttl)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Live idle environments across all programs.
    pub fn warm_total(&self) -> usize {
        let now = self.clock.now();
        self.inner
            .lock()
            .idle
            .values()
            .flat_map(|q| q.iter())
            .filter(|e| now.saturating_duration_since(e.idle_since) < self.config.ttl)
            .count()
    }

    /// Live named sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// True if session `key` has live state.
    pub fn has_session(&self, key: &str) -> bool {
        self.sessions.contains(key)
    }

    /// Explicitly tear down session `key`; returns true if it existed.
    pub fn teardown_session(&self, key: &str) -> bool {
        self.sessions.teardown(key)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> SandboxStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_lang::NoopHooks;
    use funcx_types::time::{ManualClock, RealClock};

    const SRC: &str = "def f(n):\n    return n * 2\n";

    fn manual_host(config: SandboxConfig) -> (Arc<ManualClock>, Arc<SandboxHost>) {
        let clock = ManualClock::new();
        let host = SandboxHost::new(clock.clone(), config);
        (clock, host)
    }

    // 1000x: virtual tier costs cost microseconds of wall time, while the
    // default 30s virtual deadline still leaves ~30ms of wall headroom so
    // fuel/memory caps (not the time cap) decide these tests.
    fn fast_host(config: SandboxConfig) -> Arc<SandboxHost> {
        SandboxHost::new(Arc::new(RealClock::with_speedup(1e3)), config)
    }

    fn req<'a>(source: &'a str, entry: &'a str, args: &'a [Value]) -> ExecRequest<'a> {
        ExecRequest {
            source,
            entry,
            args,
            kwargs: &[],
            limits: TaskLimits::default(),
            capabilities: &[],
            session: None,
            extra_modules: &[],
            hooks: &NoopHooks,
        }
    }

    #[test]
    fn resolution_order_cold_then_warm_then_clone() {
        let (_clock, host) = manual_host(SandboxConfig::default());

        let cold = host.resolve(SRC, &[]).unwrap();
        assert_eq!(cold.tier, SessionTier::Cold);
        assert_eq!(cold.cost, host.config().cold_cost);
        assert_eq!(host.stats().compiles, 1);

        host.release(cold.env);
        let warm = host.resolve(SRC, &[]).unwrap();
        assert_eq!(warm.tier, SessionTier::Warm);
        assert_eq!(warm.cost, host.config().warm_cost);

        // Pool now empty but the program is cached: clone tier.
        let clone = host.resolve(SRC, &[]).unwrap();
        assert_eq!(clone.tier, SessionTier::Clone);
        assert_eq!(clone.cost, host.config().clone_cost);

        let stats = host.stats();
        assert_eq!(
            (stats.cold_misses, stats.warm_hits, stats.clone_hits, stats.predicted_hits),
            (1, 1, 1, 0)
        );
        assert!(
            host.config().warm_cost.as_secs_f64() < 0.1 * host.config().cold_cost.as_secs_f64()
        );
    }

    #[test]
    fn prewarm_mints_toward_rate_times_ttl() {
        let config = SandboxConfig {
            ttl: VirtualDuration::from_secs(100),
            per_program_capacity: 3,
            max_prewarm_per_tick: 8,
            ..SandboxConfig::default()
        };
        let (clock, host) = manual_host(config);
        let key = SandboxHost::program_key(SRC);

        let cold = host.resolve(SRC, &[]).unwrap();
        assert_eq!(cold.tier, SessionTier::Cold);

        for _ in 0..30 {
            host.note_arrival(key);
        }
        clock.advance(VirtualDuration::from_secs(1));
        let minted = host.maintain();
        assert_eq!(minted, 3, "rate x ttl clamped to per-program capacity");
        assert_eq!(host.warm_count(key), 3);
        assert_eq!(host.stats().prewarm_minted, 3);

        let hit = host.resolve(SRC, &[]).unwrap();
        assert_eq!(hit.tier, SessionTier::Predicted);
        assert_eq!(host.stats().predicted_hits, 1);
    }

    #[test]
    fn maintain_reaps_expired_envs_and_sessions() {
        let config = SandboxConfig {
            ttl: VirtualDuration::from_secs(300),
            session_ttl: VirtualDuration::from_secs(300),
            prewarm: false,
            ..SandboxConfig::default()
        };
        let (clock, host) = manual_host(config);
        let cold = host.resolve(SRC, &[]).unwrap();
        host.release(cold.env);
        host.sessions.checkout("alice:s");
        clock.advance(VirtualDuration::from_secs(301));
        host.maintain();
        assert_eq!(host.stats().reaped, 1);
        assert_eq!(host.stats().sessions_reaped, 1);
        assert_eq!(host.warm_total(), 0);
        assert_eq!(host.session_count(), 0);
    }

    #[test]
    fn rejects_unavailable_imports_but_honors_container_modules() {
        let (_clock, host) = manual_host(SandboxConfig::default());
        let src = "import tensorflow\ndef f():\n    return 0\n";
        assert!(host.resolve(src, &[]).is_err());
        assert!(host.resolve(src, &["tensorflow".to_string()]).is_ok());
    }

    #[test]
    fn execute_charges_tiers_and_reuses_envs() {
        let host = fast_host(SandboxConfig::default());
        let args = [Value::Int(21)];
        let first = host.execute(req(SRC, "f", &args)).unwrap();
        assert_eq!(first.value, Value::Int(42));
        assert_eq!(first.tier, SessionTier::Cold);
        let second = host.execute(req(SRC, "f", &args)).unwrap();
        assert_eq!(second.tier, SessionTier::Warm);
        assert_eq!(host.stats().execs, 2);
        assert_eq!(host.stats().exec_failures, 0);
    }

    #[test]
    fn execute_accounts_cap_kills() {
        let host = fast_host(SandboxConfig::default());
        let src = "def f():\n    while True:\n        pass\n    return 0\n";
        let mut r = req(src, "f", &[]);
        r.limits = TaskLimits { max_fuel: Some(500), ..TaskLimits::default() };
        let e = host.execute(r).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Fuel));
        let stats = host.stats();
        assert_eq!((stats.exec_failures, stats.fuel_kills), (1, 1));
        assert_eq!(stats.cap_kills(), 1);
    }

    #[test]
    fn execute_persists_named_session_until_teardown() {
        let host = fast_host(SandboxConfig::default());
        let src = "\
def bump():
    n = session_get('count', 0)
    session_set('count', n + 1)
    return session_get('count')
";
        let caps = [Capability::Session];
        let mut r1 = req(src, "bump", &[]);
        r1.capabilities = &caps;
        r1.session = Some("alice:counter");
        assert_eq!(host.execute(r1).unwrap().value, Value::Int(1));
        let mut r2 = req(src, "bump", &[]);
        r2.capabilities = &caps;
        r2.session = Some("alice:counter");
        assert_eq!(host.execute(r2).unwrap().value, Value::Int(2));
        assert!(host.has_session("alice:counter"));

        assert!(host.teardown_session("alice:counter"));
        let mut r3 = req(src, "bump", &[]);
        r3.capabilities = &caps;
        r3.session = Some("alice:counter");
        assert_eq!(host.execute(r3).unwrap().value, Value::Int(1), "state reset after teardown");
    }

    #[test]
    fn capability_denied_execution_fails_closed_and_counts() {
        let host = fast_host(SandboxConfig::default());
        let src = "def f():\n    sleep(5)\n    return 0\n";
        let e = host.execute(req(src, "f", &[])).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Capability));
        assert_eq!(host.stats().capability_denials, 1);
    }
}
