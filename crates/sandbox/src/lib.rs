//! funcx-sandbox — the sandbox runtime of funcX-rs.
//!
//! The original funcX executes every function the same way: Python source
//! inside a warm container (§4.2). The follow-on production system treats
//! the execution engine itself as a negotiable, per-function property. This
//! crate is that second choice for funcX-rs. It is not a second
//! implementation of the language: FxScript is evaluated by the one
//! `funcx_lang::Interpreter`, and the sandbox is the [`vm`] policy that
//! interpreter runs under, plus a host around it. The contract is much
//! stricter than the FxScript runtime's:
//!
//! * **Pre-initialized session pools** ([`SandboxHost`]) — acquisition is
//!   tiered (warm / predicted / clone / cold) by the same
//!   `funcx_telemetry::TieredPool` the container warm-start engine uses, so
//!   a hot function's environment is handed out in fractions of a
//!   millisecond instead of paying a parse-and-boot cold start, and a
//!   predictive pre-warmer keeps environments minted ahead of demand.
//! * **Hard resource caps** ([`SandboxLimits`], [`Meter`]) — fuel, live
//!   memory (with high-water accounting), virtual-time deadline, and
//!   printed-output budget, each killing the execution with a cap-specific
//!   traceback prefix ([`CapKind`]).
//! * **Persistent named sessions** ([`SessionStore`]) — a function
//!   registered with a session name shares one mutable value store across
//!   invocations on the same endpoint, surviving until TTL or explicit
//!   teardown.
//! * **Deny-by-default capabilities** ([`funcx_types::Capability`]) —
//!   `sleep`/`stress` require the `clock` grant, session builtins require
//!   the `session` grant, and un-gated builtins execute with inert hooks.
//!
//! Which runtime a function uses is negotiated end to end (registration →
//! submit validation → dispatch frame → endpoint routing); see
//! `funcx_types::Runtime` and the service/endpoint crates.

pub mod host;
pub mod meter;
pub mod session;
pub mod vm;

pub use funcx_telemetry::PoolConfig;
pub use host::{
    EnvLease, ExecRequest, PreparedEnv, SandboxConfig, SandboxHost, SandboxOutcome, SandboxStats,
    SessionTier,
};
pub use meter::{CapKind, Meter, SandboxError, SandboxLimits, SandboxResult};
pub use session::{SessionState, SessionStore, DEFAULT_SESSION_TTL};
pub use vm::{run_program, ExecOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_lang::{NoopHooks, Value};
    use funcx_types::time::RealClock;
    use funcx_types::TaskLimits;
    use std::sync::Arc;

    /// The walkthrough from the README: register-like flow, cap kill, and
    /// session persistence in one place.
    #[test]
    fn crate_quickstart() {
        let host = SandboxHost::with_defaults(Arc::new(RealClock::with_speedup(1e3)));
        let src = "def double(x):\n    return x * 2\n";
        let out = host
            .execute(ExecRequest {
                source: src,
                entry: "double",
                args: &[Value::Int(21)],
                kwargs: &[],
                limits: TaskLimits::default(),
                capabilities: &[],
                session: None,
                extra_modules: &[],
                hooks: &NoopHooks,
            })
            .unwrap();
        assert_eq!(out.value, Value::Int(42));
        assert_eq!(out.tier, SessionTier::Cold);
    }
}
