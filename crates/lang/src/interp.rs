//! The FxScript evaluator: the one tree-walker every runtime executes on.
//!
//! The evaluator is the sandbox the paper gets from containers plus the
//! Python runtime: a function can compute, but cannot touch the host. All
//! interaction with the outside world goes through [`ExecHooks`]:
//!
//! * `sleep(d)` — the paper's "sleep" benchmark function (§5.2); the worker
//!   wires this to the virtual clock so second-long sleeps cost milliseconds
//!   of wall time.
//! * `stress(d)` — the paper's CPU "stress" function; wired to a busy loop
//!   or a virtual-time charge depending on the runner.
//! * `print(line)` — captured per-task, returned with the result (stdout of
//!   a task in the real system ends up in endpoint logs).
//!
//! What bounds an execution is an [`ExecPolicy`], chosen per function by its
//! `Runtime` tag and dispatched statically. [`ClassicPolicy`] is the FxScript
//! runtime: the fuel, recursion-depth and value-size checks of [`Limits`],
//! so a hostile or buggy function cannot wedge a worker. `funcx-sandbox`
//! supplies the metered, capability-gated policy of the sandbox runtime.
//! Everything else (binding arguments, control flow, expressions, where
//! fuel is charged) is this file and exists once.

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Duration;

use crate::ast::{AssignOp, AssignTarget, BinOp, Expr, FunctionDef, Program, Stmt, UnOp};
use crate::builtins::{self, BuiltinCtx};
use crate::error::{LangError, LangResult};
use crate::value::Value;

/// Host hooks for effects that must escape the sandbox.
pub trait ExecHooks: Sync {
    /// Block for `d` of task time (virtual time on workers).
    fn sleep(&self, d: Duration);
    /// Burn CPU for `d` of task time.
    fn stress(&self, d: Duration);
    /// Capture one line of printed output.
    fn print(&self, _line: &str) {}
}

/// Hooks that ignore sleep/stress — unit tests and pure computations.
pub struct NoopHooks;

impl ExecHooks for NoopHooks {
    fn sleep(&self, _d: Duration) {}
    fn stress(&self, _d: Duration) {}
}

/// Sandbox resource limits.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum AST evaluation steps before the task is killed.
    pub max_fuel: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Maximum approximate bytes for any single constructed value.
    pub max_value_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        // max_depth is conservative: each FxScript frame costs a few KB of
        // host stack in debug builds, and the default must be safe on a
        // 2 MB thread stack. Workers that want Python-like depth spawn
        // execution threads with larger stacks and raise this.
        Limits { max_fuel: 50_000_000, max_depth: 64, max_value_bytes: 64 << 20 }
    }
}

/// The decisions a runtime makes while the evaluator walks a program. The
/// evaluator is generic over the policy, so each runtime's checks are
/// inlined into its own copy of the walk. FxScript has no `try`/`except`:
/// the first error a policy returns ends the execution.
pub trait ExecPolicy {
    /// Deepest call stack the execution may reach.
    fn max_depth(&self) -> u32;

    /// Charge one evaluation step at `line`.
    fn charge(&mut self, line: u32) -> LangResult<()>;

    /// Admit or reject one constructed value of `bytes` approximate bytes.
    fn check_bytes(&mut self, bytes: usize, line: u32) -> LangResult<()>;

    /// Admit or reject `v`. Only values that can grow are measured; a
    /// scalar costs one discriminant test.
    fn check_size(&mut self, v: &Value, line: u32) -> LangResult<()> {
        if matches!(v, Value::List(_) | Value::Dict(_) | Value::Str(_) | Value::Bytes(_)) {
            self.check_bytes(v.approx_size(), line)
        } else {
            Ok(())
        }
    }

    /// Bytes `v` holds against the policy's live-memory account, measured
    /// whenever a variable is bound or mutated in place. A policy that keeps
    /// no such account returns 0 and the measuring is compiled out.
    fn live_size(&self, _v: &Value) -> usize {
        0
    }

    /// A variable's live bytes went from `old` to `new`.
    fn mem_swap(&mut self, _old: usize, _new: usize, _line: u32) -> LangResult<()> {
        Ok(())
    }

    /// A call frame holding `bytes` live bytes was popped.
    fn mem_release(&mut self, _bytes: usize) {}

    /// Call the builtin `name` (no `def` of that name is in scope).
    /// `imports` is the program's import list, which gates module builtins.
    fn call_builtin(
        &mut self,
        imports: &[String],
        name: &str,
        args: Vec<Value>,
        line: u32,
    ) -> LangResult<Value>;
}

/// The FxScript runtime's policy: [`Limits`] and nothing else. Builtins
/// see the worker's hooks directly.
pub struct ClassicPolicy<'h> {
    hooks: &'h dyn ExecHooks,
    limits: Limits,
    fuel: u64,
}

impl ExecPolicy for ClassicPolicy<'_> {
    fn max_depth(&self) -> u32 {
        self.limits.max_depth
    }

    fn charge(&mut self, line: u32) -> LangResult<()> {
        if self.fuel == 0 {
            return Err(LangError::new("execution fuel exhausted", line));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn check_bytes(&mut self, bytes: usize, line: u32) -> LangResult<()> {
        let max = self.limits.max_value_bytes;
        if bytes <= max {
            return Ok(());
        }
        Err(LangError::new(format!("value exceeds sandbox size limit ({max} bytes)"), line))
    }

    fn call_builtin(
        &mut self,
        imports: &[String],
        name: &str,
        args: Vec<Value>,
        line: u32,
    ) -> LangResult<Value> {
        builtins::call_builtin(&BuiltinCtx { hooks: self.hooks, imports }, name, args, line)
    }
}

/// Signal threaded through statement execution.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// One call frame: local variables, locally-defined functions, and the
/// live bytes the policy counts for the variables, so that popping the
/// frame releases them in O(1).
#[derive(Default)]
struct Frame {
    vars: HashMap<String, Value>,
    funcs: HashMap<String, FunctionDef>,
    bytes: usize,
}

/// The FxScript evaluator. Create one per task execution.
pub struct Interpreter<'h, P = ClassicPolicy<'h>> {
    policy: P,
    depth: u32,
    /// Top-level function definitions: built by
    /// [`load_program`](Self::load_program), or borrowed from a table a
    /// host prepared ahead of time.
    globals: Cow<'h, HashMap<String, FunctionDef>>,
    /// Modules the program imported (gates module builtins like `sqrt`).
    imports: Cow<'h, [String]>,
    /// Modules available beyond the base whitelist — what the enclosing
    /// container image ships (§4.2).
    extra_modules: Vec<String>,
}

/// Modules a function may import (§3: "The function body must specify all
/// imported modules"); anything else is rejected at load. These are the
/// "base set of software" every worker environment provides (§4.2) —
/// container images only need to carry modules beyond this set.
const MODULE_WHITELIST: &[&str] = &["math", "time", "json", "funcx"];

/// The base modules present in every worker environment (§4.2).
pub fn base_modules() -> &'static [&'static str] {
    MODULE_WHITELIST
}

/// Check `program`'s imports against the base modules plus
/// `extra_modules`, the ones the enclosing container image ships.
pub fn check_imports(program: &Program, extra_modules: &[String]) -> LangResult<()> {
    for m in &program.imports {
        if !MODULE_WHITELIST.contains(&m.as_str()) && !extra_modules.iter().any(|have| have == m) {
            return Err(LangError::new(format!("module '{m}' is not available on this worker"), 0));
        }
    }
    Ok(())
}

impl<'h> Interpreter<'h> {
    /// New FxScript-runtime interpreter with the given hooks and limits.
    pub fn new(hooks: &'h dyn ExecHooks, limits: Limits) -> Self {
        let fuel = limits.max_fuel;
        Interpreter {
            policy: ClassicPolicy { hooks, limits, fuel },
            depth: 0,
            globals: Cow::Owned(HashMap::new()),
            imports: Cow::Owned(Vec::new()),
            extra_modules: Vec::new(),
        }
    }

    /// Remaining fuel (observability for tests).
    pub fn fuel_remaining(&self) -> u64 {
        self.policy.fuel
    }
}

impl<'h, P: ExecPolicy> Interpreter<'h, P> {
    /// Interpreter over a program prepared ahead of time: `imports` (the
    /// caller has checked them, see [`check_imports`]) and the definition
    /// table are borrowed, so starting an execution copies neither.
    pub fn prepared(
        policy: P,
        imports: &'h [String],
        globals: &'h HashMap<String, FunctionDef>,
    ) -> Self {
        Interpreter {
            policy,
            depth: 0,
            globals: Cow::Borrowed(globals),
            imports: Cow::Borrowed(imports),
            extra_modules: Vec::new(),
        }
    }

    /// The policy, for reading its meters or adjusting it around a call.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Declare modules available beyond the base whitelist — what the
    /// worker's container image ships (§4.2). Call before
    /// [`load_program`](Self::load_program).
    pub fn allow_modules(&mut self, modules: &[String]) {
        self.extra_modules.extend(modules.iter().cloned());
    }

    /// Load a parsed program: check imports against the whitelist (plus
    /// any container-provided modules) and register its top-level
    /// definitions.
    pub fn load_program(&mut self, program: &Program) -> LangResult<()> {
        check_imports(program, &self.extra_modules)?;
        self.imports = Cow::Owned(program.imports.clone());
        let globals = self.globals.to_mut();
        for def in &program.defs {
            globals.insert(def.name.clone(), def.clone());
        }
        Ok(())
    }

    /// Invoke a loaded top-level function.
    pub fn call_function(
        &mut self,
        name: &str,
        args: &[Value],
        kwargs: &[(String, Value)],
    ) -> LangResult<Value> {
        let def = self
            .globals
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::new(format!("no such function '{name}'"), 0))?;
        self.invoke(&def, args.to_vec(), kwargs.to_vec()).map_err(|e| e.in_function(name))
    }

    /// Bind a variable in `frame`, keeping the policy's live-byte account
    /// and the frame's running total in step.
    fn bind(&mut self, frame: &mut Frame, name: &str, value: Value, line: u32) -> LangResult<()> {
        let new = self.policy.live_size(&value);
        let replaced = frame.vars.insert(name.to_string(), value);
        let old = replaced.map_or(0, |v| self.policy.live_size(&v));
        frame.bytes = frame.bytes.saturating_sub(old) + new;
        self.policy.mem_swap(old, new, line)
    }

    /// Bind arguments to parameters and execute a function body.
    fn invoke(
        &mut self,
        def: &FunctionDef,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    ) -> LangResult<Value> {
        if self.depth >= self.policy.max_depth() {
            return Err(LangError::new("maximum call depth exceeded", def.line));
        }
        if args.len() > def.params.len() {
            return Err(LangError::new(
                format!(
                    "{}() takes at most {} arguments, got {}",
                    def.name,
                    def.params.len(),
                    args.len()
                ),
                def.line,
            ));
        }
        let mut frame = Frame::default();
        let mut args_iter = args.into_iter();
        for param in &def.params {
            if let Some(v) = args_iter.next() {
                if kwargs.iter().any(|(k, _)| k == &param.name) {
                    return Err(LangError::new(
                        format!("{}() got multiple values for '{}'", def.name, param.name),
                        def.line,
                    ));
                }
                self.bind(&mut frame, &param.name, v, def.line)?;
            }
        }
        for (k, v) in &kwargs {
            if !def.params.iter().any(|p| &p.name == k) {
                return Err(LangError::new(
                    format!("{}() got unexpected keyword argument '{k}'", def.name),
                    def.line,
                ));
            }
            if frame.vars.contains_key(k) {
                return Err(LangError::new(
                    format!("{}() got multiple values for '{k}'", def.name),
                    def.line,
                ));
            }
            self.bind(&mut frame, k, v.clone(), def.line)?;
        }
        // Defaults for anything still unbound.
        for param in &def.params {
            if !frame.vars.contains_key(&param.name) {
                match &param.default {
                    Some(expr) => {
                        let v = self.eval(expr, &mut frame)?;
                        self.bind(&mut frame, &param.name, v, def.line)?;
                    }
                    None => {
                        return Err(LangError::new(
                            format!("{}() missing required argument '{}'", def.name, param.name),
                            def.line,
                        ));
                    }
                }
            }
        }
        self.depth += 1;
        let result = self.exec_block(&def.body, &mut frame);
        self.depth -= 1;
        // An error on the way here ended the execution; there is nothing
        // left to release the frame for.
        self.policy.mem_release(frame.bytes);
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::None),
            Flow::Break | Flow::Continue => {
                Err(LangError::new("'break'/'continue' outside loop", def.line))
            }
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], frame: &mut Frame) -> LangResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> LangResult<Flow> {
        match stmt {
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Break { line } => {
                self.policy.charge(*line)?;
                Ok(Flow::Break)
            }
            Stmt::Continue { line } => {
                self.policy.charge(*line)?;
                Ok(Flow::Continue)
            }
            Stmt::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, line } => {
                self.policy.charge(*line)?;
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Def(def) => {
                frame.funcs.insert(def.name.clone(), def.clone());
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value, line } => {
                self.policy.charge(*line)?;
                let rhs = self.eval(value, frame)?;
                match target {
                    AssignTarget::Name(name) => {
                        let new = match op {
                            AssignOp::Set => rhs,
                            AssignOp::Add | AssignOp::Sub => {
                                let old = frame.vars.get(name).cloned().ok_or_else(|| {
                                    LangError::new(format!("name '{name}' is not defined"), *line)
                                })?;
                                let bop =
                                    if *op == AssignOp::Add { BinOp::Add } else { BinOp::Sub };
                                builtins::binary_op(bop, old, rhs, *line)?
                            }
                        };
                        self.policy.check_size(&new, *line)?;
                        self.bind(frame, name, new, *line)?;
                    }
                    AssignTarget::Index { container, index } => {
                        // Only `name[index] = v` is supported as a store
                        // target (nested stores via a temp variable).
                        let Expr::Name { name, .. } = container.as_ref() else {
                            return Err(LangError::new(
                                "indexed assignment requires a plain variable",
                                *line,
                            ));
                        };
                        let idx = self.eval(index, frame)?;
                        let slot = frame.vars.get_mut(name).ok_or_else(|| {
                            LangError::new(format!("name '{name}' is not defined"), *line)
                        })?;
                        let current = builtins::index_get(slot, &idx, *line).ok();
                        let new = match op {
                            AssignOp::Set => rhs,
                            AssignOp::Add | AssignOp::Sub => {
                                let old = current.ok_or_else(|| {
                                    LangError::new("augmented assign to missing index", *line)
                                })?;
                                let bop =
                                    if *op == AssignOp::Add { BinOp::Add } else { BinOp::Sub };
                                builtins::binary_op(bop, old, rhs, *line)?
                            }
                        };
                        let before = self.policy.live_size(slot);
                        builtins::index_set(slot, &idx, new, *line)?;
                        let after = self.policy.live_size(slot);
                        frame.bytes = frame.bytes.saturating_sub(before) + after;
                        self.policy.mem_swap(before, after, *line)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { branches, otherwise, line } => {
                self.policy.charge(*line)?;
                for (cond, body) in branches {
                    if self.eval(cond, frame)?.truthy() {
                        return self.exec_block(body, frame);
                    }
                }
                if otherwise.is_empty() {
                    Ok(Flow::Normal)
                } else {
                    self.exec_block(otherwise, frame)
                }
            }
            Stmt::While { cond, body, line } => {
                loop {
                    self.policy.charge(*line)?;
                    if !self.eval(cond, frame)?.truthy() {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iterable, body, line } => {
                self.policy.charge(*line)?;
                // Lazy path for `for i in range(...)` so large ranges don't
                // materialize a list.
                if let Expr::Call { callee, args, kwargs, .. } = iterable {
                    if callee == "range" && kwargs.is_empty() {
                        let (start, stop, step) = self.eval_range_args(args, frame, *line)?;
                        let items = builtins::range_iter(start, stop, step).map(Value::Int);
                        return self.run_for(var, items, body, frame, *line);
                    }
                }
                let items: Vec<Value> = match self.eval(iterable, frame)? {
                    Value::List(items) => items,
                    Value::Str(s) => s.chars().map(|c| Value::Str(c.to_string())).collect(),
                    Value::Dict(pairs) => pairs.into_iter().map(|(k, _)| Value::Str(k)).collect(),
                    other => {
                        return Err(LangError::new(
                            format!("'{}' object is not iterable", other.type_name()),
                            *line,
                        ))
                    }
                };
                self.run_for(var, items.into_iter(), body, frame, *line)
            }
        }
    }

    fn eval_range_args(
        &mut self,
        args: &[Expr],
        frame: &mut Frame,
        line: u32,
    ) -> LangResult<(i64, i64, i64)> {
        let vals: Vec<i64> = args
            .iter()
            .map(|a| {
                self.eval(a, frame)?
                    .as_i64()
                    .ok_or_else(|| LangError::new("range() arguments must be integers", line))
            })
            .collect::<LangResult<_>>()?;
        match vals.as_slice() {
            [stop] => Ok((0, *stop, 1)),
            [start, stop] => Ok((*start, *stop, 1)),
            [start, stop, step] if *step != 0 => Ok((*start, *stop, *step)),
            [_, _, _] => Err(LangError::new("range() step must not be zero", line)),
            _ => Err(LangError::new("range() takes 1 to 3 arguments", line)),
        }
    }

    /// The body of a `for`, once per item, charged and bound the same way
    /// whatever the items come from.
    fn run_for(
        &mut self,
        var: &str,
        items: impl Iterator<Item = Value>,
        body: &[Stmt],
        frame: &mut Frame,
        line: u32,
    ) -> LangResult<Flow> {
        for item in items {
            self.policy.charge(line)?;
            self.bind(frame, var, item, line)?;
            match self.exec_block(body, frame)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(&mut self, expr: &Expr, frame: &mut Frame) -> LangResult<Value> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::None => Ok(Value::None),
            Expr::Name { name, line } => {
                self.policy.charge(*line)?;
                frame
                    .vars
                    .get(name)
                    .cloned()
                    .ok_or_else(|| LangError::new(format!("name '{name}' is not defined"), *line))
            }
            Expr::List(items) => {
                let vals: Vec<Value> =
                    items.iter().map(|e| self.eval(e, frame)).collect::<LangResult<_>>()?;
                let v = Value::List(vals);
                self.policy.check_size(&v, 0)?;
                Ok(v)
            }
            Expr::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let key = self.eval(k, frame)?.key_repr();
                    let val = self.eval(v, frame)?;
                    out.push((key, val));
                }
                let v = Value::Dict(out);
                self.policy.check_size(&v, 0)?;
                Ok(v)
            }
            Expr::Unary { op, operand, line } => {
                self.policy.charge(*line)?;
                let v = self.eval(operand, frame)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Neg => match v {
                        Value::Int(i) => i
                            .checked_neg()
                            .map(Value::Int)
                            .ok_or_else(|| LangError::new("integer overflow in unary -", *line)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(LangError::new(
                            format!("bad operand type for unary -: '{}'", other.type_name()),
                            *line,
                        )),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.policy.charge(*line)?;
                // Short-circuit logic operators.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs, frame)?;
                        if !l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs, frame)?;
                        if l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    _ => {}
                }
                let l = self.eval(lhs, frame)?;
                let r = self.eval(rhs, frame)?;
                // A repetition is sized before it is built: `[0] * 10**15`
                // must meet the size limit, not the allocator.
                if let Some(bytes) = builtins::repetition_bytes(*op, &l, &r) {
                    self.policy.check_bytes(bytes, *line)?;
                }
                let v = builtins::binary_op(*op, l, r, *line)?;
                self.policy.check_size(&v, *line)?;
                Ok(v)
            }
            Expr::Index { container, index, line } => {
                self.policy.charge(*line)?;
                let c = self.eval(container, frame)?;
                let i = self.eval(index, frame)?;
                builtins::index_get(&c, &i, *line)
            }
            Expr::Ternary { cond, then, otherwise, .. } => {
                if self.eval(cond, frame)?.truthy() {
                    self.eval(then, frame)
                } else {
                    self.eval(otherwise, frame)
                }
            }
            Expr::MethodCall { receiver, method, args, line } => {
                self.policy.charge(*line)?;
                // `name.append(x)` and friends mutate in place when the
                // receiver is a plain variable.
                let arg_vals: Vec<Value> =
                    args.iter().map(|e| self.eval(e, frame)).collect::<LangResult<_>>()?;
                if let Expr::Name { name, .. } = receiver.as_ref() {
                    if builtins::is_mutating_method(method) {
                        let slot = frame.vars.get_mut(name).ok_or_else(|| {
                            LangError::new(format!("name '{name}' is not defined"), *line)
                        })?;
                        let before = self.policy.live_size(slot);
                        let out = builtins::call_mutating_method(slot, method, arg_vals, *line)?;
                        let after = self.policy.live_size(slot);
                        self.policy.check_size(slot, *line)?;
                        frame.bytes = frame.bytes.saturating_sub(before) + after;
                        self.policy.mem_swap(before, after, *line)?;
                        return Ok(out);
                    }
                }
                let recv = self.eval(receiver, frame)?;
                builtins::call_method(&recv, method, arg_vals, *line)
            }
            Expr::Call { callee, args, kwargs, line } => {
                self.policy.charge(*line)?;
                let arg_vals: Vec<Value> =
                    args.iter().map(|e| self.eval(e, frame)).collect::<LangResult<_>>()?;
                let kwarg_vals: Vec<(String, Value)> = kwargs
                    .iter()
                    .map(|(k, e)| Ok((k.clone(), self.eval(e, frame)?)))
                    .collect::<LangResult<_>>()?;
                // Resolution order: local defs, global defs, builtins.
                let def = frame.funcs.get(callee).or_else(|| self.globals.get(callee));
                if let Some(def) = def.cloned() {
                    return self
                        .invoke(&def, arg_vals, kwarg_vals)
                        .map_err(|e| e.in_function(callee));
                }
                if !kwarg_vals.is_empty() {
                    return Err(LangError::new(
                        format!("builtin '{callee}' does not take keyword arguments"),
                        *line,
                    ));
                }
                self.policy.call_builtin(&self.imports, callee, arg_vals, *line)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use std::sync::Mutex;

    fn run(src: &str, name: &str, args: &[Value]) -> LangResult<Value> {
        crate::run_function(src, name, args, &[], &NoopHooks, &Limits::default())
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("def f():\n    return 2 + 3 * 4\n", "f", &[]).unwrap(), Value::Int(14));
        assert_eq!(run("def f():\n    return (2 + 3) * 4\n", "f", &[]).unwrap(), Value::Int(20));
        assert_eq!(run("def f():\n    return 7 // 2\n", "f", &[]).unwrap(), Value::Int(3));
        assert_eq!(run("def f():\n    return 7 % 3\n", "f", &[]).unwrap(), Value::Int(1));
        assert_eq!(run("def f():\n    return 2 ** 10\n", "f", &[]).unwrap(), Value::Int(1024));
        assert_eq!(run("def f():\n    return 1 / 2\n", "f", &[]).unwrap(), Value::Float(0.5));
    }

    #[test]
    fn division_by_zero_reports_line() {
        let e = run("def f():\n    x = 1\n    return x / 0\n", "f", &[]).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("division by zero"));
    }

    #[test]
    fn recursion_fibonacci() {
        let src =
            "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n";
        assert_eq!(run(src, "fib", &[Value::Int(15)]).unwrap(), Value::Int(610));
    }

    #[test]
    fn recursion_depth_limited() {
        let src = "def f(n):\n    return f(n + 1)\n";
        let e = run(src, "f", &[Value::Int(0)]).unwrap_err();
        assert!(e.to_string().contains("depth"));
    }

    #[test]
    fn fuel_bounds_infinite_loop() {
        let src = "def f():\n    while True:\n        pass\n    return 0\n";
        let limits = Limits { max_fuel: 10_000, ..Limits::default() };
        let e = crate::run_function(src, "f", &[], &[], &NoopHooks, &limits).unwrap_err();
        assert!(e.to_string().contains("fuel"));
    }

    #[test]
    fn default_and_keyword_arguments() {
        let src = "def f(a, b=10, c=20):\n    return a + b + c\n";
        assert_eq!(run(src, "f", &[Value::Int(1)]).unwrap(), Value::Int(31));
        let out = crate::run_function(
            src,
            "f",
            &[Value::Int(1)],
            &[("c".into(), Value::Int(0))],
            &NoopHooks,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(out, Value::Int(11));
    }

    #[test]
    fn duplicate_binding_rejected() {
        let src = "def f(a):\n    return a\n";
        let e = crate::run_function(
            src,
            "f",
            &[Value::Int(1)],
            &[("a".into(), Value::Int(2))],
            &NoopHooks,
            &Limits::default(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("multiple values"));
    }

    #[test]
    fn missing_argument_rejected() {
        let e = run("def f(a, b):\n    return a\n", "f", &[Value::Int(1)]).unwrap_err();
        assert!(e.to_string().contains("missing required argument 'b'"));
    }

    #[test]
    fn loops_break_continue() {
        let src = "\
def f(n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            continue
        if i > 7:
            break
        total += i
    return total
";
        // odd i <= 7: 1+3+5+7 = 16
        assert_eq!(run(src, "f", &[Value::Int(100)]).unwrap(), Value::Int(16));
    }

    #[test]
    fn while_loop_counts() {
        let src = "def f(n):\n    i = 0\n    while i < n:\n        i += 1\n    return i\n";
        assert_eq!(run(src, "f", &[Value::Int(17)]).unwrap(), Value::Int(17));
    }

    #[test]
    fn large_range_is_lazy() {
        // Would OOM if range materialized; also exercises the fuel budget.
        let src =
            "def f():\n    t = 0\n    for i in range(1000000):\n        t += 1\n    return t\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(1_000_000));
    }

    #[test]
    fn negative_range_step() {
        let src = "def f():\n    out = []\n    for i in range(5, 0, -2):\n        out.append(i)\n    return out\n";
        assert_eq!(
            run(src, "f", &[]).unwrap(),
            Value::List(vec![Value::Int(5), Value::Int(3), Value::Int(1)])
        );
    }

    #[test]
    fn list_and_dict_manipulation() {
        let src = "\
def f():
    d = {'a': 1}
    d['b'] = 2
    d['a'] += 10
    xs = [0, 0, 0]
    xs[1] = 5
    xs[2] = d['a']
    return [xs, d['b']]
";
        assert_eq!(
            run(src, "f", &[]).unwrap(),
            Value::List(vec![
                Value::List(vec![Value::Int(0), Value::Int(5), Value::Int(11)]),
                Value::Int(2)
            ])
        );
    }

    #[test]
    fn negative_indexing() {
        let src = "def f(xs):\n    return xs[-1]\n";
        let xs = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(run(src, "f", &[xs]).unwrap(), Value::Int(3));
    }

    #[test]
    fn string_iteration_and_in() {
        let src = "\
def count_vowels(s):
    n = 0
    for c in s:
        if c in 'aeiou':
            n += 1
    return n
";
        assert_eq!(run(src, "count_vowels", &[Value::from("serverless")]).unwrap(), Value::Int(3));
    }

    #[test]
    fn nested_functions_and_shadowing() {
        let src = "\
def outer(x):
    def helper(y):
        return y * 2
    return helper(x) + helper(1)
";
        assert_eq!(run(src, "outer", &[Value::Int(10)]).unwrap(), Value::Int(22));
    }

    #[test]
    fn short_circuit_evaluation() {
        // RHS would divide by zero if evaluated.
        let src = "def f():\n    return False and 1 / 0\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Bool(false));
        let src = "def f():\n    return True or 1 / 0\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn ternary_in_function() {
        let src = "def sign(x):\n    return 1 if x > 0 else (-1 if x < 0 else 0)\n";
        assert_eq!(run(src, "sign", &[Value::Int(5)]).unwrap(), Value::Int(1));
        assert_eq!(run(src, "sign", &[Value::Int(-5)]).unwrap(), Value::Int(-1));
        assert_eq!(run(src, "sign", &[Value::Int(0)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn import_whitelist_enforced() {
        let program = parse("import os\ndef f():\n    return 0\n").unwrap();
        let mut interp = Interpreter::new(&NoopHooks, Limits::default());
        assert!(interp.load_program(&program).is_err());
    }

    #[test]
    fn hooks_receive_sleep_and_print() {
        struct Recorder {
            slept: Mutex<Vec<Duration>>,
            printed: Mutex<Vec<String>>,
        }
        impl ExecHooks for Recorder {
            fn sleep(&self, d: Duration) {
                self.slept.lock().unwrap().push(d);
            }
            fn stress(&self, _d: Duration) {}
            fn print(&self, line: &str) {
                self.printed.lock().unwrap().push(line.to_string());
            }
        }
        let hooks = Recorder { slept: Mutex::new(vec![]), printed: Mutex::new(vec![]) };
        let src = "def f():\n    print('starting')\n    sleep(0.25)\n    return 'ok'\n";
        let out = crate::run_function(src, "f", &[], &[], &hooks, &Limits::default()).unwrap();
        assert_eq!(out, Value::from("ok"));
        assert_eq!(*hooks.slept.lock().unwrap(), vec![Duration::from_millis(250)]);
        assert_eq!(*hooks.printed.lock().unwrap(), vec!["starting".to_string()]);
    }

    #[test]
    fn error_carries_stack() {
        let src = "\
def inner(x):
    return x / 0

def outer(x):
    return inner(x)
";
        let e = run(src, "outer", &[Value::Int(1)]).unwrap_err();
        let rendered = e.to_string();
        assert!(rendered.contains("outer") && rendered.contains("inner"), "{rendered}");
    }

    #[test]
    fn value_size_limit_enforced() {
        let src = "\
def f():
    s = 'x'
    while True:
        s = s + s
    return s
";
        let limits = Limits { max_value_bytes: 1 << 16, ..Limits::default() };
        let e = crate::run_function(src, "f", &[], &[], &NoopHooks, &limits).unwrap_err();
        assert!(e.to_string().contains("size limit"), "{e}");
    }
}
