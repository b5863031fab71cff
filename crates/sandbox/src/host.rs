//! The sandbox host: pre-initialized session pools, tiered acquisition,
//! predictive pre-warming, and persistent named sessions.
//!
//! Starting a sandbox execution from nothing costs a *cold boot*: parse the
//! shipped source and build the definition table. The host avoids paying
//! that on the hot path by keeping prepared environments in
//! `funcx-telemetry`'s [`TieredPool`] — the pool the container warm-start
//! engine uses, here keyed by the hash of the shipped source with a
//! [`PreparedEnv`] as the value and the compiled program as the snapshot:
//!
//! 1. **Warm hit** — an idle prepared environment for this program (released
//!    by a worker, or pre-minted by the predictor) at near-zero cost.
//! 2. **Clone** — the compiled program is cached; mint a fresh environment
//!    from it at a fraction of the cold cost.
//! 3. **Cold boot** — parse + build, and cache the compiled program for next
//!    time. The boot runs under the pool's lock, so workers racing on a new
//!    program compile it once.
//!
//! The pool reaps, evicts and pre-mints toward `ceil(rate × ttl)`
//! environments per hot program; what is the host's own is the tier costs
//! (charged in *virtual* time, so the bench and tests are deterministic under
//! a speed-up clock), the import check on every leased environment, named
//! sessions, metering and the cap-kill accounting.

use std::collections::HashMap;
use std::sync::Arc;

use funcx_lang::ast::{FunctionDef, Program};
use funcx_lang::interp::check_imports;
use funcx_lang::{ExecHooks, Value};
use funcx_telemetry::{PoolConfig, TierModel, TieredPool};
use funcx_types::hash::fnv1a;
use funcx_types::time::{SharedClock, VirtualDuration};
use funcx_types::{Capability, TaskLimits};
use parking_lot::Mutex;

use crate::meter::{CapKind, SandboxError, SandboxLimits, SandboxResult};
use crate::session::{SessionStore, DEFAULT_SESSION_TTL};
use crate::vm;

/// Which layer served a session acquisition: the pool's tiers.
pub use funcx_telemetry::Tier as SessionTier;

/// Tuning knobs for the sandbox host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SandboxConfig {
    /// TTL, capacities and pre-warm bounds of the idle-environment pool.
    pub pool: PoolConfig,
    /// Named sessions idle past this are reaped.
    pub session_ttl: VirtualDuration,
    /// Endpoint-default caps, overlaid by per-function [`TaskLimits`].
    pub default_limits: SandboxLimits,
    /// Virtual cost of a cold boot (parse + build).
    pub cold_cost: VirtualDuration,
    /// Virtual cost of minting an environment from a cached program.
    pub clone_cost: VirtualDuration,
    /// Virtual cost of handing out an idle prepared environment.
    pub warm_cost: VirtualDuration,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            pool: PoolConfig::with_ttl(VirtualDuration::from_secs(600)),
            session_ttl: DEFAULT_SESSION_TTL,
            default_limits: SandboxLimits::default(),
            cold_cost: VirtualDuration::from_millis(80),
            clone_cost: VirtualDuration::from_millis(6),
            warm_cost: VirtualDuration::from_micros(500),
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
    /// Total cap-policy kills across every cap kind.
    pub fn cap_kills(&self) -> u64 {
        self.fuel_kills
            + self.memory_kills
            + self.time_kills
            + self.output_kills
            + self.capability_denials
    }
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
    pool: TieredPool<u64, PreparedEnv>,
    sessions: SessionStore,
    /// The execution, cap-kill and session counters; the tier counters are
    /// the pool's and are merged in by [`stats`](Self::stats).
    stats: Mutex<SandboxStats>,
}

/// Tier costs from the config; a cold boot compiles `source`, and the
/// compiled program stays behind as the snapshot clones are minted from.
struct ProgramTiers<'a> {
    config: &'a SandboxConfig,
    source: &'a str,
}

impl TierModel<u64, PreparedEnv> for ProgramTiers<'_> {
    type Error = SandboxError;

    fn warm_cost(&self) -> VirtualDuration {
        self.config.warm_cost
    }

    fn mint(&mut self, _key: u64, program: &PreparedEnv) -> (PreparedEnv, VirtualDuration) {
        (program.clone(), self.config.clone_cost)
    }

    fn cold_start(&mut self, key: u64) -> SandboxResult<(PreparedEnv, VirtualDuration)> {
        let program = funcx_lang::parse(self.source)?;
        let globals: HashMap<String, FunctionDef> =
            program.defs.iter().map(|d| (d.name.clone(), d.clone())).collect();
        let env = PreparedEnv { key, program: Arc::new(program), globals: Arc::new(globals) };
        Ok((env, self.config.cold_cost))
    }

    fn snapshot(&mut self, env: &PreparedEnv) -> Option<PreparedEnv> {
        Some(env.clone())
    }
}

impl SandboxHost {
    /// New host with explicit config.
    pub fn new(clock: SharedClock, config: SandboxConfig) -> Arc<Self> {
        Arc::new(SandboxHost {
            pool: TieredPool::new(Arc::clone(&clock), config.pool),
            sessions: SessionStore::new(Arc::clone(&clock), config.session_ttl),
            clock,
            config,
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

    /// Record one task arrival for the program with this key. Managers call
    /// this on task receipt — not on acquire — so queueing delay cannot
    /// starve the rate estimate.
    pub fn note_arrival(&self, key: u64) {
        self.pool.note_arrival(key);
    }

    /// Resolve an acquisition without charging its cost: warm hit, else
    /// clone from the cached program, else cold boot (which caches). The
    /// leased environment's imports are checked against what this container
    /// offers; a refused environment goes back to the pool, not away.
    pub fn resolve(&self, source: &str, extra_modules: &[String]) -> SandboxResult<EnvLease> {
        let mut tiers = ProgramTiers { config: &self.config, source };
        let (env, tier, cost) = self.pool.resolve(Self::program_key(source), &mut tiers)?;
        if let Err(refused) = check_imports(&env.program, extra_modules) {
            self.release(env);
            return Err(refused.into());
        }
        Ok(EnvLease { env, tier, cost })
    }

    /// Return an environment after execution; it idles (tier `warm` on its
    /// next hit) until TTL or capacity takes it.
    pub fn release(&self, env: PreparedEnv) {
        self.pool.release(env.key, env);
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
    /// prediction target. Returns environments minted.
    pub fn maintain(&self) -> usize {
        self.stats.lock().sessions_reaped += self.sessions.reap() as u64;
        // A maintenance pass mints from cached programs and never boots one.
        self.pool.maintain(&mut ProgramTiers { config: &self.config, source: "" })
    }

    /// Live (TTL-filtered) idle environments for the program with this key.
    pub fn warm_count(&self, key: u64) -> usize {
        self.pool.warm_count(key)
    }

    /// Live idle environments across all programs.
    pub fn warm_total(&self) -> usize {
        self.pool.warm_total()
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

    /// Counters snapshot: the pool's tier counters and the host's own.
    pub fn stats(&self) -> SandboxStats {
        let pool = self.pool.stats();
        SandboxStats {
            warm_hits: pool.warm_hits,
            predicted_hits: pool.predicted_hits,
            clone_hits: pool.clone_hits,
            cold_misses: pool.cold_misses,
            prewarm_minted: pool.prewarm_minted,
            evictions: pool.evictions,
            reaped: pool.reaped,
            compiles: pool.snapshots,
            prewarm_cost_nanos: pool.prewarm_cost_nanos,
            ..*self.stats.lock()
        }
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

    // Resolution order, LIFO, reaping, eviction and pre-warming are the
    // pool's and are tested there (`funcx_telemetry::pool`); what is the
    // host's own is the tier costs, the import check, sessions and caps.

    #[test]
    fn tiers_charge_the_configured_costs_and_compile_once() {
        let (clock, host) = manual_host(SandboxConfig::default());
        let key = SandboxHost::program_key(SRC);

        let cold = host.resolve(SRC, &[]).unwrap();
        assert_eq!((cold.tier, cold.cost), (SessionTier::Cold, host.config().cold_cost));
        assert_eq!(cold.env.key, key);

        host.release(cold.env);
        let warm = host.resolve(SRC, &[]).unwrap();
        assert_eq!((warm.tier, warm.cost), (SessionTier::Warm, host.config().warm_cost));

        // Pool now empty but the program is cached: clone tier.
        let clone = host.resolve(SRC, &[]).unwrap();
        assert_eq!((clone.tier, clone.cost), (SessionTier::Clone, host.config().clone_cost));

        // Pre-minted environments are priced as clones, in the background.
        for _ in 0..60 {
            host.note_arrival(key);
        }
        clock.advance(VirtualDuration::from_secs(1));
        assert_eq!(host.maintain(), 4);
        let predicted = host.resolve(SRC, &[]).unwrap();
        assert_eq!((predicted.tier, predicted.cost), (SessionTier::Predicted, warm.cost));

        let stats = host.stats();
        assert_eq!(
            (stats.cold_misses, stats.warm_hits, stats.clone_hits, stats.predicted_hits),
            (1, 1, 1, 1)
        );
        assert_eq!((stats.compiles, stats.prewarm_minted), (1, 4));
        assert_eq!(stats.prewarm_cost_nanos, 4 * host.config().clone_cost.as_nanos() as u64);
        assert!(
            host.config().warm_cost.as_secs_f64() < 0.1 * host.config().cold_cost.as_secs_f64()
        );
    }

    #[test]
    fn maintain_reaps_expired_envs_and_sessions() {
        let config = SandboxConfig {
            pool: PoolConfig::with_ttl(VirtualDuration::from_secs(300)),
            session_ttl: VirtualDuration::from_secs(300),
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

    const TF: &str = "import tensorflow\ndef f():\n    return 0\n";

    #[test]
    fn rejects_unavailable_imports_but_honors_container_modules() {
        let (_clock, host) = manual_host(SandboxConfig::default());
        assert!(host.resolve(TF, &[]).is_err());
        assert!(host.resolve(TF, &["tensorflow".to_string()]).is_ok());
        assert!(host.resolve("def f(:\n", &[]).is_err(), "a parse error is not an environment");
        assert_eq!(host.stats().compiles, 1);
    }

    #[test]
    fn import_refused_environment_goes_back_to_the_pool() {
        let (_clock, host) = manual_host(SandboxConfig::default());
        let key = SandboxHost::program_key(TF);
        let offered = ["tensorflow".to_string()];
        let cold = host.resolve(TF, &offered).unwrap();
        assert_eq!(cold.tier, SessionTier::Cold);
        host.release(cold.env);
        assert_eq!(host.warm_count(key), 1);

        // A container without the module is refused the warm environment,
        // which must still be there for the next container that has it.
        assert!(host.resolve(TF, &[]).is_err());
        assert_eq!(host.warm_count(key), 1);
        assert_eq!(host.resolve(TF, &offered).unwrap().tier, SessionTier::Warm);
        assert_eq!(host.warm_count(key), 0);
        host.release(host.resolve(TF, &offered).unwrap().env);
        assert_eq!(host.warm_count(key), 1);
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
