//! The sandbox runtime's execution policy.
//!
//! The sandbox is not a second engine: it runs FxScript on the one
//! evaluator, [`funcx_lang::Interpreter`], and this module is the
//! [`ExecPolicy`] that evaluator consults. The policy enforces, through a
//! [`Meter`], hard caps the FxScript runtime does not have (live-heap
//! accounting, a virtual-time deadline, an output budget), and dispatches
//! builtins **deny-by-default**:
//!
//! * `sleep`/`stress` require [`Capability::Clock`];
//! * `session_get`/`session_set`/`session_clear` require
//!   [`Capability::Session`] *and* a bound session;
//! * every other builtin is dispatched through the shared builtin table
//!   with **no-op hooks**, so even a builtin with side effects added to
//!   `funcx-lang` later is inert here unless this policy explicitly gates
//!   and forwards it.
//!
//! Cap violations kill the execution with a cap-specific traceback prefix
//! (see [`CapKind`]) so the client can tell "my function is wrong" from
//! "my function hit a cap".

use std::collections::HashMap;

use funcx_lang::ast::{FunctionDef, Program};
use funcx_lang::{
    builtins, BuiltinCtx, ExecHooks, ExecPolicy, Interpreter, LangError, LangResult, NoopHooks,
    Value,
};
use funcx_types::time::SharedClock;
use funcx_types::Capability;

use crate::meter::{CapKind, Meter, SandboxError, SandboxLimits, SandboxResult};
use crate::session::SessionState;

/// What a completed execution reports back, beyond the value: the meter
/// readings that feed stats and the bench.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The function's return value.
    pub value: Value,
    /// Fuel consumed.
    pub fuel_used: u64,
    /// Live-heap high-water mark, in bytes.
    pub mem_high_water: usize,
    /// Printed output, in bytes.
    pub output_bytes: usize,
}

/// The policy of one sandbox execution. Create per execution via
/// [`run_program`].
struct Metered<'a> {
    meter: Meter,
    hooks: &'a dyn ExecHooks,
    caps: &'a [Capability],
    session: Option<&'a mut SessionState>,
    /// Bytes the bound session currently holds against the meter.
    session_live: usize,
    /// The cap behind the error this policy returned. The evaluator carries
    /// plain [`LangError`]s and FxScript cannot catch one, so the first cap
    /// error is the execution's error and this is its kind.
    killed: Option<CapKind>,
}

impl Metered<'_> {
    /// Hand a cap violation to the evaluator, remembering which cap it was.
    fn kill(&mut self, e: SandboxError) -> LangError {
        self.killed = e.kind;
        e.error
    }

    fn deny(&mut self, message: String, line: u32) -> LangError {
        self.kill(SandboxError::cap(CapKind::Capability, message, line))
    }

    fn require_cap(&mut self, cap: Capability, what: &str, line: u32) -> LangResult<()> {
        if self.caps.contains(&cap) {
            Ok(())
        } else {
            Err(self.deny(format!("'{}' capability required for {what}()", cap.as_str()), line))
        }
    }

    fn session_builtin(&mut self, name: &str, args: Vec<Value>, line: u32) -> LangResult<Value> {
        if self.session.is_none() {
            let message = format!("{name}() requires the function to be registered with a session");
            return Err(self.deny(message, line));
        }
        let key_of = |v: &Value| -> LangResult<String> {
            match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(LangError::new(
                    format!("session key must be a str, got {}", other.type_name()),
                    line,
                )),
            }
        };
        match name {
            "session_get" => {
                let (key, default) = match args.as_slice() {
                    [k] => (key_of(k)?, Value::None),
                    [k, d] => (key_of(k)?, d.clone()),
                    _ => {
                        return Err(LangError::new(
                            "session_get() takes a key and optional default",
                            line,
                        ))
                    }
                };
                let state = self.session.as_deref().expect("checked above");
                Ok(state.get(&key).cloned().unwrap_or(default))
            }
            "session_set" => {
                let [k, v] = args.as_slice() else {
                    return Err(LangError::new("session_set() takes a key and a value", line));
                };
                let key = key_of(k)?;
                self.check_size(v, line)?;
                let state = self.session.as_deref_mut().expect("checked above");
                let before = state.approx_size();
                state.set(key, v.clone());
                let after = state.approx_size();
                self.session_live = after;
                self.mem_swap(before, after, line)?;
                Ok(Value::None)
            }
            "session_clear" => {
                if !args.is_empty() {
                    return Err(LangError::new("session_clear() takes no arguments", line));
                }
                let state = self.session.as_deref_mut().expect("checked above");
                let released = state.clear();
                self.session_live = 0;
                self.meter.mem_release(released);
                Ok(Value::None)
            }
            _ => unreachable!("gated dispatch only routes session builtins here"),
        }
    }
}

impl ExecPolicy for Metered<'_> {
    fn max_depth(&self) -> u32 {
        self.meter.limits().max_depth
    }

    fn charge(&mut self, line: u32) -> LangResult<()> {
        self.meter.charge(line).map_err(|e| self.kill(e))
    }

    fn check_bytes(&mut self, bytes: usize, line: u32) -> LangResult<()> {
        self.meter.check_value_size(bytes, line).map_err(|e| self.kill(e))
    }

    fn live_size(&self, v: &Value) -> usize {
        v.approx_size()
    }

    fn mem_swap(&mut self, old: usize, new: usize, line: u32) -> LangResult<()> {
        self.meter.mem_swap(old, new, line).map_err(|e| self.kill(e))
    }

    fn mem_release(&mut self, bytes: usize) {
        self.meter.mem_release(bytes);
    }

    /// Effectful builtins are intercepted and gated; the rest delegate with
    /// inert hooks.
    fn call_builtin(
        &mut self,
        imports: &[String],
        name: &str,
        args: Vec<Value>,
        line: u32,
    ) -> LangResult<Value> {
        match name {
            "sleep" | "stress" => {
                self.require_cap(Capability::Clock, name, line)?;
                let ctx = BuiltinCtx { hooks: self.hooks, imports };
                let out = builtins::call_builtin(&ctx, name, args, line)?;
                // The hook advanced virtual time; the deadline may have
                // lapsed mid-sleep.
                self.meter.check_deadline(line).map_err(|e| self.kill(e))?;
                Ok(out)
            }
            "print" => {
                let rendered: Vec<String> = args.iter().map(Value::to_string).collect();
                let joined = rendered.join(" ");
                self.meter.charge_output(joined.len() + 1, line).map_err(|e| self.kill(e))?;
                self.hooks.print(&joined);
                Ok(Value::None)
            }
            "session_get" | "session_set" | "session_clear" => {
                self.require_cap(Capability::Session, name, line)?;
                self.session_builtin(name, args, line)
            }
            _ => {
                let ctx = BuiltinCtx { hooks: &NoopHooks, imports };
                let v = builtins::call_builtin(&ctx, name, args, line)?;
                self.check_size(&v, line)?;
                Ok(v)
            }
        }
    }
}

/// Execute `entry` from a prepared program under sandbox metering.
///
/// `globals` is the pre-built definition table (the per-session prepared
/// state the host pools), which the evaluator borrows; `session`, when
/// present, is the function's named persistent store, locked by the caller
/// for the duration of the call.
#[allow(clippy::too_many_arguments)]
pub fn run_program(
    program: &Program,
    globals: &HashMap<String, FunctionDef>,
    entry: &str,
    args: &[Value],
    kwargs: &[(String, Value)],
    limits: SandboxLimits,
    caps: &[Capability],
    session: Option<&mut SessionState>,
    hooks: &dyn ExecHooks,
    clock: SharedClock,
) -> SandboxResult<ExecOutcome> {
    let policy = Metered {
        meter: Meter::start(limits, clock),
        hooks,
        caps,
        session,
        session_live: 0,
        killed: None,
    };
    let mut vm = Interpreter::prepared(policy, &program.imports, globals);
    let mut call = || -> LangResult<ExecOutcome> {
        // A bound session's resident state counts against the memory cap
        // for the whole execution — warm state is not free memory.
        let policy = vm.policy_mut();
        if let Some(state) = policy.session.as_deref() {
            policy.session_live = state.approx_size();
            policy.mem_swap(0, policy.session_live, 0)?;
        }
        let value = vm.call_function(entry, args, kwargs)?;
        let policy = vm.policy_mut();
        policy.check_size(&value, 0)?;
        if let Some(state) = policy.session.as_deref_mut() {
            state.note_exec();
        }
        policy.meter.mem_release(policy.session_live);
        Ok(ExecOutcome {
            value,
            fuel_used: policy.meter.fuel_used(),
            mem_high_water: policy.meter.high_water(),
            output_bytes: policy.meter.output_used(),
        })
    };
    call().map_err(|error| SandboxError { kind: vm.policy_mut().killed, error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::CapKind;
    use funcx_types::time::ManualClock;
    use funcx_types::Clock;
    use std::sync::{Arc, Mutex};

    fn prepared(src: &str) -> (funcx_lang::ast::Program, HashMap<String, FunctionDef>) {
        let program = funcx_lang::parse(src).unwrap();
        let globals: HashMap<String, FunctionDef> =
            program.defs.iter().map(|d| (d.name.clone(), d.clone())).collect();
        (program, globals)
    }

    fn run_simple(
        src: &str,
        entry: &str,
        args: &[Value],
        limits: SandboxLimits,
        caps: &[Capability],
    ) -> SandboxResult<ExecOutcome> {
        let (program, globals) = prepared(src);
        run_program(
            &program,
            &globals,
            entry,
            args,
            &[],
            limits,
            caps,
            None,
            &NoopHooks,
            ManualClock::new(),
        )
    }

    /// Hooks that advance a manual clock — how workers wire virtual time.
    struct ClockHooks(Arc<ManualClock>);
    impl ExecHooks for ClockHooks {
        fn sleep(&self, d: std::time::Duration) {
            self.0.advance(d);
        }
        fn stress(&self, d: std::time::Duration) {
            self.0.advance(d);
        }
    }

    #[test]
    fn computes_like_the_interpreter() {
        let src = "def f(n):\n    total = 0\n    for i in range(n):\n        total += i\n    return total\n";
        let out = run_simple(src, "f", &[Value::Int(10)], SandboxLimits::default(), &[]).unwrap();
        assert_eq!(out.value, Value::Int(45));
        assert!(out.fuel_used > 0);
    }

    #[test]
    fn fuel_cap_kills_with_prefix() {
        let src = "def f():\n    while True:\n        pass\n    return 0\n";
        let limits = SandboxLimits { max_fuel: 1000, ..SandboxLimits::default() };
        let e = run_simple(src, "f", &[], limits, &[]).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Fuel));
        assert!(e.to_string().starts_with("SandboxFuelExceeded:"), "{e}");
        assert!(e.to_string().contains("(in f)"), "traceback names the function: {e}");
    }

    #[test]
    fn memory_cap_kills_accumulating_loop() {
        let src = "\
def f():
    xs = []
    while True:
        xs.append('0123456789abcdef')
    return xs
";
        let limits = SandboxLimits { max_memory_bytes: 1 << 14, ..SandboxLimits::default() };
        let e = run_simple(src, "f", &[], limits, &[]).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Memory));
        assert!(e.to_string().starts_with("SandboxMemoryExceeded:"), "{e}");
    }

    #[test]
    fn list_repetition_hits_the_memory_cap_before_it_allocates() {
        // The last two have a byte count past `usize::MAX`.
        for expr in ["[0] * 10**15", "[0, 0, 0] * 2**62", "2**62 * 'aaaa'"] {
            let src = format!("def f():\n    return {expr}\n");
            let e = run_simple(&src, "f", &[], SandboxLimits::default(), &[]).unwrap_err();
            assert_eq!(e.kind, Some(CapKind::Memory), "{expr}");
            assert!(e.to_string().contains("size limit"), "{expr}: {e}");
        }
    }

    #[test]
    fn memory_high_water_reported_and_released() {
        let src = "\
def f():
    xs = []
    for i in range(100):
        xs.append('0123456789')
    xs = 0
    return 1
";
        let out = run_simple(src, "f", &[], SandboxLimits::default(), &[]).unwrap();
        assert!(out.mem_high_water > 100 * 34, "high water saw the list: {}", out.mem_high_water);
    }

    #[test]
    fn time_cap_kills_sleeper_mid_execution() {
        let src = "def f():\n    sleep(10)\n    return 'never'\n";
        let (program, globals) = prepared(src);
        let clock = ManualClock::new();
        let hooks = ClockHooks(clock.clone());
        let limits = SandboxLimits { max_millis: 2_000, ..SandboxLimits::default() };
        let e = run_program(
            &program,
            &globals,
            "f",
            &[],
            &[],
            limits,
            &[Capability::Clock],
            None,
            &hooks,
            clock,
        )
        .unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Time));
        assert!(e.to_string().starts_with("TimeLimitExceeded:"), "{e}");
    }

    #[test]
    fn output_cap_kills_chatty_function() {
        let src =
            "def f():\n    for i in range(1000):\n        print('spam spam spam')\n    return 0\n";
        let limits = SandboxLimits { max_output_bytes: 64, ..SandboxLimits::default() };
        let e = run_simple(src, "f", &[], limits, &[]).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Output));
        assert!(e.to_string().starts_with("OutputLimitExceeded:"), "{e}");
    }

    #[test]
    fn clock_capability_denied_by_default() {
        let src = "def f():\n    sleep(1)\n    return 0\n";
        let e = run_simple(src, "f", &[], SandboxLimits::default(), &[]).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Capability));
        let msg = e.to_string();
        assert!(msg.starts_with("CapabilityDenied:"), "{msg}");
        assert!(msg.contains("'clock' capability required for sleep()"), "{msg}");
    }

    #[test]
    fn clock_capability_grants_sleep() {
        let src = "def f():\n    sleep(1)\n    return 'ok'\n";
        let (program, globals) = prepared(src);
        let clock = ManualClock::new();
        let hooks = ClockHooks(clock.clone());
        let out = run_program(
            &program,
            &globals,
            "f",
            &[],
            &[],
            SandboxLimits::default(),
            &[Capability::Clock],
            None,
            &hooks,
            clock.clone(),
        )
        .unwrap();
        assert_eq!(out.value, Value::from("ok"));
        assert_eq!(clock.now().as_secs_f64(), 1.0, "sleep advanced virtual time");
    }

    #[test]
    fn session_denied_without_capability() {
        let src = "def f():\n    return session_get('k')\n";
        let mut state = SessionState::default();
        let (program, globals) = prepared(src);
        let e = run_program(
            &program,
            &globals,
            "f",
            &[],
            &[],
            SandboxLimits::default(),
            &[],
            Some(&mut state),
            &NoopHooks,
            ManualClock::new(),
        )
        .unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Capability));
        assert!(e.to_string().contains("'session' capability"), "{e}");
    }

    #[test]
    fn session_state_persists_across_invocations() {
        let src = "\
def bump(by):
    n = session_get('count', 0)
    session_set('count', n + by)
    return session_get('count')
";
        let (program, globals) = prepared(src);
        let mut state = SessionState::default();
        let caps = [Capability::Session];
        for expect in [3, 6, 9] {
            let out = run_program(
                &program,
                &globals,
                "bump",
                &[Value::Int(3)],
                &[],
                SandboxLimits::default(),
                &caps,
                Some(&mut state),
                &NoopHooks,
                ManualClock::new(),
            )
            .unwrap();
            assert_eq!(out.value, Value::Int(expect));
        }
        assert_eq!(state.execs(), 3);
    }

    #[test]
    fn session_builtins_without_bound_session_fail_closed() {
        let src = "def f():\n    session_set('k', 1)\n    return 0\n";
        let e = run_simple(src, "f", &[], SandboxLimits::default(), &[Capability::Session])
            .unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Capability));
        assert!(e.to_string().contains("registered with a session"), "{e}");
    }

    #[test]
    fn session_state_counts_against_memory_cap() {
        let src = "def f():\n    session_set('blob', 'x' * 10000)\n    return 0\n";
        let (program, globals) = prepared(src);
        let mut state = SessionState::default();
        let limits = SandboxLimits { max_memory_bytes: 4096, ..SandboxLimits::default() };
        let e = run_program(
            &program,
            &globals,
            "f",
            &[],
            &[],
            limits,
            &[Capability::Session],
            Some(&mut state),
            &NoopHooks,
            ManualClock::new(),
        )
        .unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Memory));
    }

    #[test]
    fn print_is_captured_through_real_hooks() {
        struct Capture(Mutex<Vec<String>>);
        impl ExecHooks for Capture {
            fn sleep(&self, _d: std::time::Duration) {}
            fn stress(&self, _d: std::time::Duration) {}
            fn print(&self, line: &str) {
                self.0.lock().unwrap().push(line.to_string());
            }
        }
        let hooks = Capture(Mutex::new(vec![]));
        let src = "def f():\n    print('hello', 42)\n    return 0\n";
        let (program, globals) = prepared(src);
        let out = run_program(
            &program,
            &globals,
            "f",
            &[],
            &[],
            SandboxLimits::default(),
            &[],
            None,
            &hooks,
            ManualClock::new(),
        )
        .unwrap();
        assert_eq!(*hooks.0.lock().unwrap(), vec!["hello 42".to_string()]);
        assert_eq!(out.output_bytes, "hello 42".len() + 1);
    }

    #[test]
    fn math_builtins_delegate_with_imports() {
        let src = "import math\ndef f(x):\n    return sqrt(x)\n";
        let out = run_simple(src, "f", &[Value::Int(9)], SandboxLimits::default(), &[]).unwrap();
        assert_eq!(out.value, Value::Float(3.0));
    }

    #[test]
    fn frame_pop_releases_memory() {
        // Each call allocates locally; live memory must not accumulate
        // across sequential calls.
        let src = "\
def helper():
    xs = ['aaaaaaaaaa'] * 100
    return len(xs)

def f():
    total = 0
    for i in range(50):
        total += helper()
    return total
";
        let limits = SandboxLimits { max_memory_bytes: 64 << 10, ..SandboxLimits::default() };
        let out = run_simple(src, "f", &[], limits, &[]).unwrap();
        assert_eq!(out.value, Value::Int(5000));
    }
}
