//! Resource metering for sandbox executions.
//!
//! Every cap is *hard*: the execution is killed the moment it crosses the
//! line, and the error names the specific cap so the traceback the client
//! sees says *why* — `SandboxFuelExceeded`, `SandboxMemoryExceeded`,
//! `TimeLimitExceeded`, `OutputLimitExceeded`, or `CapabilityDenied` —
//! instead of a generic failure.

use std::fmt;

use funcx_lang::LangError;
use funcx_types::time::{SharedClock, VirtualDuration, VirtualInstant};
use funcx_types::TaskLimits;

/// Which hard cap (or policy) killed an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapKind {
    /// Fuel (abstract work units) exhausted.
    Fuel,
    /// Live-heap high-water mark exceeded.
    Memory,
    /// Wall/virtual time budget exceeded.
    Time,
    /// Printed-output budget exceeded.
    Output,
    /// Operation requires a capability the function was not granted.
    Capability,
}

impl CapKind {
    /// Every kind, for metric label iteration.
    pub const ALL: [CapKind; 5] =
        [CapKind::Fuel, CapKind::Memory, CapKind::Time, CapKind::Output, CapKind::Capability];

    /// The traceback prefix (and metric label) for this kind.
    pub fn prefix(&self) -> &'static str {
        match self {
            CapKind::Fuel => "SandboxFuelExceeded",
            CapKind::Memory => "SandboxMemoryExceeded",
            CapKind::Time => "TimeLimitExceeded",
            CapKind::Output => "OutputLimitExceeded",
            CapKind::Capability => "CapabilityDenied",
        }
    }

    /// Short metric label (`cap` label on the cap-kill counter).
    pub fn label(&self) -> &'static str {
        match self {
            CapKind::Fuel => "fuel",
            CapKind::Memory => "memory",
            CapKind::Time => "time",
            CapKind::Output => "output",
            CapKind::Capability => "capability",
        }
    }
}

/// A sandbox execution failure: an FxScript-style error, optionally tagged
/// with the cap that caused it. `kind: None` is an ordinary language error
/// (bad argument, division by zero, parse failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SandboxError {
    /// The violated cap, when a cap (not the program) caused the failure.
    pub kind: Option<CapKind>,
    /// Underlying error with line and mini-traceback.
    pub error: LangError,
}

impl SandboxError {
    /// A cap violation of `kind`.
    pub fn cap(kind: CapKind, message: impl Into<String>, line: u32) -> Self {
        SandboxError { kind: Some(kind), error: LangError::new(message, line) }
    }

    /// Append a stack frame as the error propagates out of a call.
    pub fn in_function(mut self, name: &str) -> Self {
        self.error = self.error.in_function(name);
        self
    }
}

impl From<LangError> for SandboxError {
    fn from(error: LangError) -> Self {
        SandboxError { kind: None, error }
    }
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Some(kind) => write!(f, "{}: {}", kind.prefix(), self.error),
            None => write!(f, "{}", self.error),
        }
    }
}

impl std::error::Error for SandboxError {}

/// Result alias for sandbox execution.
pub type SandboxResult<T> = std::result::Result<T, SandboxError>;

/// Fully-resolved hard caps for one execution. Unlike
/// [`TaskLimits`] (all-optional, wire form), every knob here has a value:
/// the endpoint's defaults overlaid with whatever the function pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SandboxLimits {
    /// Execution fuel (abstract work units).
    pub max_fuel: u64,
    /// Call-stack depth.
    pub max_depth: u32,
    /// Largest single constructed value, in approximate bytes.
    pub max_value_bytes: usize,
    /// Live-heap high-water mark (locals + session state), in bytes.
    pub max_memory_bytes: usize,
    /// Virtual-time budget per execution, in milliseconds.
    pub max_millis: u64,
    /// Printed-output budget per execution, in bytes.
    pub max_output_bytes: usize,
}

impl Default for SandboxLimits {
    fn default() -> Self {
        SandboxLimits {
            max_fuel: 50_000_000,
            max_depth: 64,
            max_value_bytes: 64 << 20,
            max_memory_bytes: 128 << 20,
            max_millis: 30_000,
            max_output_bytes: 1 << 20,
        }
    }
}

impl SandboxLimits {
    /// Overlay per-function [`TaskLimits`] on these defaults: pinned knobs
    /// win, unset knobs keep the endpoint default.
    pub fn overlaid(&self, task: &TaskLimits) -> SandboxLimits {
        SandboxLimits {
            max_fuel: task.max_fuel.unwrap_or(self.max_fuel),
            max_depth: task.max_depth.unwrap_or(self.max_depth),
            max_value_bytes: task
                .max_value_bytes
                .map(|b| b as usize)
                .unwrap_or(self.max_value_bytes),
            max_memory_bytes: task
                .max_memory_bytes
                .map(|b| b as usize)
                .unwrap_or(self.max_memory_bytes),
            max_millis: task.max_millis.unwrap_or(self.max_millis),
            max_output_bytes: task
                .max_output_bytes
                .map(|b| b as usize)
                .unwrap_or(self.max_output_bytes),
        }
    }
}

/// How many fuel charges between deadline probes. `Clock::now` is an atomic
/// load, but probing every statement would still dominate tight loops.
const DEADLINE_PROBE_EVERY: u64 = 64;

/// Per-execution resource meter: fuel, live memory (with high-water mark),
/// output budget, and a virtual-time deadline.
pub struct Meter {
    limits: SandboxLimits,
    clock: SharedClock,
    deadline: VirtualInstant,
    fuel_used: u64,
    live_bytes: usize,
    high_water: usize,
    output_used: usize,
}

impl Meter {
    /// Start a meter now; the deadline is `now + limits.max_millis`.
    pub fn start(limits: SandboxLimits, clock: SharedClock) -> Self {
        let deadline = clock.now() + VirtualDuration::from_millis(limits.max_millis);
        Meter {
            limits,
            clock,
            deadline,
            fuel_used: 0,
            live_bytes: 0,
            high_water: 0,
            output_used: 0,
        }
    }

    /// The resolved limits this meter enforces.
    pub fn limits(&self) -> &SandboxLimits {
        &self.limits
    }

    /// Charge one unit of fuel; probes the deadline periodically.
    pub fn charge(&mut self, line: u32) -> SandboxResult<()> {
        self.fuel_used += 1;
        if self.fuel_used > self.limits.max_fuel {
            return Err(SandboxError::cap(
                CapKind::Fuel,
                format!("execution fuel exhausted ({} units)", self.limits.max_fuel),
                line,
            ));
        }
        if self.fuel_used.is_multiple_of(DEADLINE_PROBE_EVERY) {
            self.check_deadline(line)?;
        }
        Ok(())
    }

    /// Kill the execution if the virtual-time budget has lapsed. Called on
    /// the probe cadence and immediately after any clock-advancing builtin
    /// (`sleep`/`stress`).
    pub fn check_deadline(&self, line: u32) -> SandboxResult<()> {
        if self.clock.now() > self.deadline {
            return Err(SandboxError::cap(
                CapKind::Time,
                format!("time budget exhausted ({} ms)", self.limits.max_millis),
                line,
            ));
        }
        Ok(())
    }

    /// Per-value size cap (FxScript's classic sandbox size check) on a value
    /// of `bytes` approximate bytes.
    pub fn check_value_size(&self, bytes: usize, line: u32) -> SandboxResult<()> {
        if bytes > self.limits.max_value_bytes {
            return Err(SandboxError::cap(
                CapKind::Memory,
                format!("value exceeds sandbox size limit ({} bytes)", self.limits.max_value_bytes),
                line,
            ));
        }
        Ok(())
    }

    /// Replace `old` live bytes with `new` (an assignment or in-place
    /// mutation) and enforce the live-heap cap.
    pub fn mem_swap(&mut self, old: usize, new: usize, line: u32) -> SandboxResult<()> {
        self.live_bytes = self.live_bytes.saturating_sub(old) + new;
        if self.live_bytes > self.high_water {
            self.high_water = self.live_bytes;
        }
        if self.live_bytes > self.limits.max_memory_bytes {
            return Err(SandboxError::cap(
                CapKind::Memory,
                format!("live memory exceeds sandbox cap ({} bytes)", self.limits.max_memory_bytes),
                line,
            ));
        }
        Ok(())
    }

    /// Release `bytes` of live memory (a frame popped, session detached).
    pub fn mem_release(&mut self, bytes: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Charge printed output and enforce the output budget.
    pub fn charge_output(&mut self, bytes: usize, line: u32) -> SandboxResult<()> {
        self.output_used += bytes;
        if self.output_used > self.limits.max_output_bytes {
            return Err(SandboxError::cap(
                CapKind::Output,
                format!("output budget exhausted ({} bytes)", self.limits.max_output_bytes),
                line,
            ));
        }
        Ok(())
    }

    /// Fuel consumed so far.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Live-heap high-water mark, in bytes.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Printed output so far, in bytes.
    pub fn output_used(&self) -> usize {
        self.output_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_types::time::ManualClock;

    fn meter(limits: SandboxLimits) -> (std::sync::Arc<ManualClock>, Meter) {
        let clock = ManualClock::new();
        let m = Meter::start(limits, clock.clone());
        (clock, m)
    }

    #[test]
    fn fuel_cap_names_itself() {
        let (_c, mut m) = meter(SandboxLimits { max_fuel: 3, ..SandboxLimits::default() });
        assert!(m.charge(1).is_ok());
        assert!(m.charge(1).is_ok());
        assert!(m.charge(1).is_ok());
        let e = m.charge(7).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Fuel));
        assert!(e.to_string().starts_with("SandboxFuelExceeded:"), "{e}");
        assert!(e.to_string().contains("line 7"), "{e}");
    }

    #[test]
    fn deadline_probe_fires_after_clock_advance() {
        let (clock, mut m) = meter(SandboxLimits { max_millis: 100, ..SandboxLimits::default() });
        for _ in 0..DEADLINE_PROBE_EVERY {
            m.charge(1).unwrap();
        }
        clock.advance(VirtualDuration::from_millis(200));
        let mut last = Ok(());
        for _ in 0..=DEADLINE_PROBE_EVERY {
            last = m.charge(2);
            if last.is_err() {
                break;
            }
        }
        let e = last.unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Time));
        assert!(e.to_string().starts_with("TimeLimitExceeded:"), "{e}");
    }

    #[test]
    fn memory_high_water_tracks_and_caps() {
        let (_c, mut m) =
            meter(SandboxLimits { max_memory_bytes: 1000, ..SandboxLimits::default() });
        m.mem_swap(0, 600, 1).unwrap();
        m.mem_swap(600, 100, 1).unwrap();
        assert_eq!(m.high_water(), 600);
        let e = m.mem_swap(0, 950, 4).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Memory));
        assert!(e.to_string().starts_with("SandboxMemoryExceeded:"), "{e}");
    }

    #[test]
    fn output_budget_enforced() {
        let (_c, mut m) = meter(SandboxLimits { max_output_bytes: 10, ..SandboxLimits::default() });
        m.charge_output(8, 1).unwrap();
        let e = m.charge_output(8, 2).unwrap_err();
        assert_eq!(e.kind, Some(CapKind::Output));
        assert!(e.to_string().starts_with("OutputLimitExceeded:"), "{e}");
    }

    #[test]
    fn overlay_pins_only_set_knobs() {
        let base = SandboxLimits::default();
        let task = TaskLimits { max_fuel: Some(5), max_millis: Some(77), ..TaskLimits::default() };
        let out = base.overlaid(&task);
        assert_eq!(out.max_fuel, 5);
        assert_eq!(out.max_millis, 77);
        assert_eq!(out.max_depth, base.max_depth);
        assert_eq!(out.max_memory_bytes, base.max_memory_bytes);
    }
}
