//! Per-function execution runtimes on the worker (runtime negotiation,
//! endpoint side).
//!
//! The paper's workers execute everything one way: the interpreter runs the
//! shipped source inside whatever container the task asked for. With
//! runtime negotiation, *which engine executes a function* is a per-function
//! property carried on the dispatch frame, and the worker routes each task
//! through a [`RuntimeRegistry`] — a small trait-object table mapping
//! [`Runtime`] tags to [`FunctionRuntime`] implementations:
//!
//! * [`FxScriptRuntime`] — the interpreter under its classic policy
//!   (`funcx_lang::run_function_in_env`), now honouring the per-function
//!   [`TaskLimits`] overlay instead of one hard-coded default;
//! * [`SandboxRuntime`] — the same interpreter under the sandbox policy
//!   ([`funcx_sandbox`]), with pre-warmed environment pools, hard
//!   fuel/memory/time/output caps, persistent named sessions, and
//!   deny-by-default capabilities.
//!
//! An endpoint only advertises the runtimes its registry holds; the service
//! refuses to route a function to an endpoint that cannot execute it, so a
//! missing entry here is a defensive error path, not a normal one.

use std::sync::Arc;

use funcx_lang::{ExecHooks, LangError, Limits, Value};
use funcx_sandbox::{ExecRequest, SandboxHost};
use funcx_types::{Capability, Runtime, TaskLimits};

/// Everything a runtime needs to execute one dispatched function.
pub struct RuntimeJob<'a> {
    /// Function source (already unpacked from the code buffer).
    pub source: &'a str,
    /// Entry-point `def` within the source.
    pub entry: &'a str,
    /// Positional arguments.
    pub args: &'a [Value],
    /// Keyword arguments.
    pub kwargs: &'a [(String, Value)],
    /// Per-function cap overlay from the dispatch frame.
    pub limits: &'a TaskLimits,
    /// Capability grants (sandbox runtime; FxScript ignores them).
    pub capabilities: &'a [Capability],
    /// Persistent session key, if the function was registered with one.
    pub session: Option<&'a str>,
    /// Modules the task's container ships beyond the base runtime.
    pub extra_modules: &'a [String],
    /// Worker hooks: virtual-clock sleep/stress and stdout capture.
    pub hooks: &'a dyn ExecHooks,
}

/// What a runtime reports back for one execution.
pub struct RuntimeVerdict {
    /// The function's value, or the traceback error.
    pub outcome: Result<Value, LangError>,
    /// Resource-cap label (`fuel`/`memory`/`time`/`output`/`capability`)
    /// when a sandbox cap killed the task; rides the result frame into the
    /// service's cap-kill counters.
    pub cap_kill: Option<String>,
}

/// One execution engine the worker can route tasks to.
pub trait FunctionRuntime: Send + Sync {
    /// Which negotiated runtime this engine implements.
    fn runtime(&self) -> Runtime;

    /// Execute one function to completion (blocking; charges all execution
    /// time to the virtual clock).
    fn execute(&self, job: RuntimeJob<'_>) -> RuntimeVerdict;

    /// Background upkeep on the manager's cadence (pre-warming, TTL reaps).
    fn maintain(&self) {}
}

/// The classic FxScript interpreter, parameterized by the endpoint's
/// default limits. The dispatch frame's [`TaskLimits`] overlay the
/// defaults per function — a registration that pins `max_fuel` is killed
/// at *its* fuel cap, not the endpoint-wide one.
pub struct FxScriptRuntime {
    defaults: Limits,
}

impl FxScriptRuntime {
    /// New interpreter runtime with the endpoint's default limits.
    pub fn new(defaults: Limits) -> Self {
        FxScriptRuntime { defaults }
    }

    /// The endpoint defaults with the per-function overlay applied.
    fn overlaid(&self, t: &TaskLimits) -> Limits {
        Limits {
            max_fuel: t.max_fuel.unwrap_or(self.defaults.max_fuel),
            max_depth: t.max_depth.unwrap_or(self.defaults.max_depth),
            max_value_bytes: t
                .max_value_bytes
                .map(|v| v as usize)
                .unwrap_or(self.defaults.max_value_bytes),
        }
    }
}

impl FunctionRuntime for FxScriptRuntime {
    fn runtime(&self) -> Runtime {
        Runtime::FxScript
    }

    fn execute(&self, job: RuntimeJob<'_>) -> RuntimeVerdict {
        let limits = self.overlaid(job.limits);
        let outcome = funcx_lang::run_function_in_env(
            job.source,
            job.entry,
            job.args,
            job.kwargs,
            job.hooks,
            &limits,
            job.extra_modules,
        );
        RuntimeVerdict { outcome, cap_kill: None }
    }
}

/// The embedded sandbox VM, backed by a node-shared [`SandboxHost`] so all
/// of a manager's workers draw from one pre-warmed environment pool and
/// one session store.
pub struct SandboxRuntime {
    host: Arc<SandboxHost>,
}

impl SandboxRuntime {
    /// New sandbox runtime over a (shared) host.
    pub fn new(host: Arc<SandboxHost>) -> Self {
        SandboxRuntime { host }
    }

    /// The underlying host (stats, session teardown).
    pub fn host(&self) -> &Arc<SandboxHost> {
        &self.host
    }
}

impl FunctionRuntime for SandboxRuntime {
    fn runtime(&self) -> Runtime {
        Runtime::Sandbox
    }

    fn execute(&self, job: RuntimeJob<'_>) -> RuntimeVerdict {
        // Feed the pre-warmer's rate estimate. Ideally this happens at task
        // receipt (like container arrivals in the manager loop), but the
        // manager only holds packed code; noting it here keeps the estimate
        // within one queueing delay of the truth.
        self.host.note_arrival(SandboxHost::program_key(job.source));
        let result = self.host.execute(ExecRequest {
            source: job.source,
            entry: job.entry,
            args: job.args,
            kwargs: job.kwargs,
            limits: *job.limits,
            capabilities: job.capabilities,
            session: job.session,
            extra_modules: job.extra_modules,
            hooks: job.hooks,
        });
        match result {
            Ok(out) => RuntimeVerdict { outcome: Ok(out.value), cap_kill: None },
            Err(e) => {
                let cap_kill = e.kind.map(|k| k.label().to_string());
                // Fold the cap-specific prefix into the traceback message so
                // the client sees `SandboxFuelExceeded: line N: ...`.
                let mut lang = e.error.clone();
                if let Some(kind) = e.kind {
                    lang.message = format!("{}: {}", kind.prefix(), lang.message);
                }
                RuntimeVerdict { outcome: Err(lang), cap_kill }
            }
        }
    }

    fn maintain(&self) {
        self.host.maintain();
    }
}

/// The worker's runtime table: which engines this endpoint can execute.
pub struct RuntimeRegistry {
    entries: Vec<Arc<dyn FunctionRuntime>>,
}

impl RuntimeRegistry {
    /// FxScript-only registry (the classic endpoint).
    pub fn new(defaults: Limits) -> Self {
        RuntimeRegistry { entries: vec![Arc::new(FxScriptRuntime::new(defaults))] }
    }

    /// Registry with both the interpreter and the sandbox VM.
    pub fn with_sandbox(defaults: Limits, host: Arc<SandboxHost>) -> Self {
        RuntimeRegistry {
            entries: vec![
                Arc::new(FxScriptRuntime::new(defaults)),
                Arc::new(SandboxRuntime::new(host)),
            ],
        }
    }

    /// Add/replace an engine.
    pub fn insert(&mut self, engine: Arc<dyn FunctionRuntime>) {
        self.entries.retain(|e| e.runtime() != engine.runtime());
        self.entries.push(engine);
    }

    /// Look up the engine for `runtime`.
    pub fn get(&self, runtime: Runtime) -> Option<&Arc<dyn FunctionRuntime>> {
        self.entries.iter().find(|e| e.runtime() == runtime)
    }

    /// Every runtime this registry can execute.
    pub fn supported(&self) -> Vec<Runtime> {
        self.entries.iter().map(|e| e.runtime()).collect()
    }

    /// Background upkeep across all engines.
    pub fn maintain(&self) {
        for e in &self.entries {
            e.maintain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_lang::NoopHooks;
    use funcx_types::time::RealClock;

    fn job<'a>(
        source: &'a str,
        entry: &'a str,
        args: &'a [Value],
        limits: &'a TaskLimits,
    ) -> RuntimeJob<'a> {
        RuntimeJob {
            source,
            entry,
            args,
            kwargs: &[],
            limits,
            capabilities: &[],
            session: None,
            extra_modules: &[],
            hooks: &NoopHooks,
        }
    }

    #[test]
    fn registry_routes_by_runtime_tag() {
        let host = SandboxHost::with_defaults(Arc::new(RealClock::with_speedup(1e3)));
        let reg = RuntimeRegistry::with_sandbox(Limits::default(), host);
        assert_eq!(reg.supported(), vec![Runtime::FxScript, Runtime::Sandbox]);
        assert!(reg.get(Runtime::Sandbox).is_some());

        let classic = RuntimeRegistry::new(Limits::default());
        assert_eq!(classic.supported(), vec![Runtime::FxScript]);
        assert!(classic.get(Runtime::Sandbox).is_none());
    }

    #[test]
    fn fxscript_overlays_per_function_limits() {
        let rt = FxScriptRuntime::new(Limits::default());
        let src = "def f():\n    while True:\n        pass\n    return 0\n";
        let limits = TaskLimits { max_fuel: Some(200), ..TaskLimits::default() };
        let verdict = rt.execute(job(src, "f", &[], &limits));
        let err = verdict.outcome.unwrap_err();
        assert!(err.to_string().contains("fuel exhausted"), "{err}");
        assert!(verdict.cap_kill.is_none(), "FxScript reports no cap label");
    }

    #[test]
    fn sandbox_reports_cap_specific_kills() {
        let host = SandboxHost::with_defaults(Arc::new(RealClock::with_speedup(1e3)));
        let rt = SandboxRuntime::new(host);
        let src = "def f():\n    while True:\n        pass\n    return 0\n";
        let limits = TaskLimits { max_fuel: Some(200), ..TaskLimits::default() };
        let verdict = rt.execute(job(src, "f", &[], &limits));
        assert_eq!(verdict.cap_kill.as_deref(), Some("fuel"));
        let err = verdict.outcome.unwrap_err();
        assert!(err.to_string().contains("SandboxFuelExceeded"), "{err}");
    }

    #[test]
    fn sandbox_success_returns_value() {
        let host = SandboxHost::with_defaults(Arc::new(RealClock::with_speedup(1e3)));
        let rt = SandboxRuntime::new(host);
        let limits = TaskLimits::default();
        let args = [Value::Int(4)];
        let verdict = rt.execute(job("def sq(x):\n    return x * x\n", "sq", &args, &limits));
        assert_eq!(verdict.outcome.unwrap(), Value::Int(16));
    }
}
