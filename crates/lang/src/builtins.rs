//! Operators, methods, and builtin functions for FxScript.
//!
//! The builtin surface mirrors what the paper's case-study functions need:
//! arithmetic and collections for the analysis kernels (§2), plus the three
//! benchmark primitives — `noop()`, `sleep(seconds)`, `stress(seconds)` —
//! used throughout the evaluation (§5.2). `sleep`/`stress` route through
//! [`ExecHooks`](crate::interp::ExecHooks) so workers charge virtual time.

use std::time::Duration;

use crate::ast::BinOp;
use crate::error::{LangError, LangResult};
use crate::interp::ExecHooks;
use crate::value::Value;

/// What builtin dispatch needs from the execution it serves. An
/// [`ExecPolicy`](crate::interp::ExecPolicy) decides which hooks a builtin
/// gets to see.
pub struct BuiltinCtx<'a> {
    /// Side-effect hooks (`sleep`/`stress`/`print`).
    pub hooks: &'a dyn ExecHooks,
    /// The program's imports. Gates the `math` builtins.
    pub imports: &'a [String],
}

impl BuiltinCtx<'_> {
    fn imported(&self, module: &str) -> bool {
        self.imports.iter().any(|m| m == module)
    }
}

fn err(msg: impl Into<String>, line: u32) -> LangError {
    LangError::new(msg, line)
}

// ---------------------------------------------------------------------------
// Binary operators

/// Apply a binary operator (logic ops excluded — those short-circuit in the
/// interpreter).
pub fn binary_op(op: BinOp, l: Value, r: Value, line: u32) -> LangResult<Value> {
    use BinOp::*;
    match op {
        Add => add(l, r, line),
        Sub => arith(l, r, line, "-", |a, b| a.checked_sub(b), |a, b| a - b),
        Mul => mul(l, r, line),
        Div => {
            let (a, b) = float_pair(&l, &r, "/", line)?;
            if b == 0.0 {
                return Err(err("division by zero", line));
            }
            Ok(Value::Float(a / b))
        }
        FloorDiv => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(err("division by zero", line))
                } else {
                    Ok(Value::Int(a.div_euclid(*b)))
                }
            }
            _ => {
                let (a, b) = float_pair(&l, &r, "//", line)?;
                if b == 0.0 {
                    return Err(err("division by zero", line));
                }
                Ok(Value::Float((a / b).floor()))
            }
        },
        Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(err("division by zero", line))
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => {
                let (a, b) = float_pair(&l, &r, "%", line)?;
                if b == 0.0 {
                    return Err(err("division by zero", line));
                }
                Ok(Value::Float(a.rem_euclid(b)))
            }
        },
        Pow => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) if *b >= 0 => {
                let exp = u32::try_from(*b).map_err(|_| err("exponent too large", line))?;
                a.checked_pow(exp)
                    .map(Value::Int)
                    .ok_or_else(|| err("integer overflow in **", line))
            }
            _ => {
                let (a, b) = float_pair(&l, &r, "**", line)?;
                Ok(Value::Float(a.powf(b)))
            }
        },
        Eq => Ok(Value::Bool(values_eq(&l, &r))),
        Ne => Ok(Value::Bool(!values_eq(&l, &r))),
        Lt | Le | Gt | Ge => compare(op, &l, &r, line),
        In => contains(&r, &l, line).map(Value::Bool),
        NotIn => contains(&r, &l, line).map(|b| Value::Bool(!b)),
        And | Or => unreachable!("short-circuited in interpreter"),
    }
}

fn add(l: Value, r: Value, line: u32) -> LangResult<Value> {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Ok(Value::Str(a + &b)),
        (Value::List(mut a), Value::List(b)) => {
            a.extend(b);
            Ok(Value::List(a))
        }
        (Value::Bytes(mut a), Value::Bytes(b)) => {
            a.extend(b);
            Ok(Value::Bytes(a))
        }
        (l, r) => arith(l, r, line, "+", |a, b| a.checked_add(b), |a, b| a + b),
    }
}

fn mul(l: Value, r: Value, line: u32) -> LangResult<Value> {
    // At most 64 MiB of contents under the one 24-byte header.
    let fits = repetition_bytes(BinOp::Mul, &l, &r) <= Some(24 + (64 << 20));
    match (&l, &r) {
        (Value::Str(_), Value::Int(_)) | (Value::Int(_), Value::Str(_)) if !fits => {
            Err(err("string repetition too large", line))
        }
        (Value::List(_), Value::Int(_)) | (Value::Int(_), Value::List(_)) if !fits => {
            Err(err("list repetition too large", line))
        }
        (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) => {
            Ok(Value::Str(s.repeat(repeat_count(*n))))
        }
        (Value::List(xs), Value::Int(n)) | (Value::Int(n), Value::List(xs)) => {
            // It fits, so the product does; an empty list is not walked `n` times.
            let len = xs.len() * repeat_count(*n);
            Ok(Value::List(xs.iter().cloned().cycle().take(len).collect()))
        }
        _ => arith(l, r, line, "*", |a, b| a.checked_mul(b), |a, b| a * b),
    }
}

/// How many copies `seq * n` makes: none for a negative `n`.
fn repeat_count(n: i64) -> usize {
    usize::try_from(n.max(0)).unwrap_or(usize::MAX)
}

/// What [`Value::approx_size`] will say of `l * r` when that is a repetition
/// (`str * int` or `list * int`, either order): one header plus `n` copies
/// of the contents, saturating at `usize::MAX`. `None` for every other
/// operation. `*` bounds itself by this figure, and the evaluator shows it
/// to the policy before `*` runs.
pub(crate) fn repetition_bytes(op: BinOp, l: &Value, r: &Value) -> Option<usize> {
    match (op, l, r) {
        (BinOp::Mul, seq @ (Value::Str(_) | Value::List(_)), Value::Int(n))
        | (BinOp::Mul, Value::Int(n), seq @ (Value::Str(_) | Value::List(_))) => {
            let contents = seq.approx_size() - 24;
            Some(contents.saturating_mul(repeat_count(*n)).saturating_add(24))
        }
        _ => None,
    }
}

fn arith(
    l: Value,
    r: Value,
    line: u32,
    sym: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> LangResult<Value> {
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
            .map(Value::Int)
            .ok_or_else(|| err(format!("integer overflow in {sym}"), line)),
        _ => {
            let (a, b) = float_pair(&l, &r, sym, line)?;
            Ok(Value::Float(float_op(a, b)))
        }
    }
}

fn float_pair(l: &Value, r: &Value, sym: &str, line: u32) -> LangResult<(f64, f64)> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(err(
            format!(
                "unsupported operand types for {sym}: '{}' and '{}'",
                l.type_name(),
                r.type_name()
            ),
            line,
        )),
    }
}

/// Structural equality with int/float coercion (`1 == 1.0` is true).
pub fn values_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
        (Value::List(a), Value::List(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_eq(x, y))
        }
        (Value::Dict(a), Value::Dict(b)) => {
            a.len() == b.len()
                && a.iter().all(|(k, v)| {
                    b.iter().find(|(k2, _)| k2 == k).map(|(_, v2)| values_eq(v, v2)) == Some(true)
                })
        }
        _ => l == r,
    }
}

fn compare(op: BinOp, l: &Value, r: &Value, line: u32) -> LangResult<Value> {
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
        (Value::List(a), Value::List(b)) => {
            // Lexicographic, like Python.
            let mut result = None;
            for (x, y) in a.iter().zip(b.iter()) {
                if !values_eq(x, y) {
                    result = match compare(BinOp::Lt, x, y, line)? {
                        Value::Bool(true) => Some(std::cmp::Ordering::Less),
                        _ => Some(std::cmp::Ordering::Greater),
                    };
                    break;
                }
            }
            result.or_else(|| a.len().partial_cmp(&b.len()))
        }
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => None,
        },
    };
    let ord = ord.ok_or_else(|| {
        err(format!("'{}' and '{}' are not orderable", l.type_name(), r.type_name()), line)
    })?;
    let out = match op {
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!(),
    };
    Ok(Value::Bool(out))
}

fn contains(container: &Value, needle: &Value, line: u32) -> LangResult<bool> {
    match container {
        Value::List(items) => Ok(items.iter().any(|v| values_eq(v, needle))),
        Value::Str(s) => match needle {
            Value::Str(sub) => Ok(s.contains(sub.as_str())),
            _ => Err(err("'in <str>' requires a string operand", line)),
        },
        Value::Dict(pairs) => {
            let key = needle.key_repr();
            Ok(pairs.iter().any(|(k, _)| *k == key))
        }
        other => Err(err(format!("'{}' is not a container", other.type_name()), line)),
    }
}

// ---------------------------------------------------------------------------
// Indexing

/// `container[index]` with Python-style negative indexes.
pub fn index_get(container: &Value, index: &Value, line: u32) -> LangResult<Value> {
    match container {
        Value::List(items) => {
            let i = normalize_index(index, items.len(), line)?;
            Ok(items[i].clone())
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let i = normalize_index(index, chars.len(), line)?;
            Ok(Value::Str(chars[i].to_string()))
        }
        Value::Dict(_) => {
            let key = index.key_repr();
            container
                .dict_get(&key)
                .cloned()
                .ok_or_else(|| err(format!("key '{key}' not found"), line))
        }
        Value::Bytes(b) => {
            let i = normalize_index(index, b.len(), line)?;
            Ok(Value::Int(b[i] as i64))
        }
        other => Err(err(format!("'{}' is not subscriptable", other.type_name()), line)),
    }
}

/// `container[index] = value` for lists and dicts.
pub fn index_set(container: &mut Value, index: &Value, value: Value, line: u32) -> LangResult<()> {
    match container {
        Value::List(items) => {
            let i = normalize_index(index, items.len(), line)?;
            items[i] = value;
            Ok(())
        }
        Value::Dict(_) => {
            container.dict_set(index.key_repr(), value);
            Ok(())
        }
        other => {
            Err(err(format!("'{}' does not support item assignment", other.type_name()), line))
        }
    }
}

fn normalize_index(index: &Value, len: usize, line: u32) -> LangResult<usize> {
    let i = index
        .as_i64()
        .ok_or_else(|| err(format!("indices must be integers, not {}", index.type_name()), line))?;
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        return Err(err(format!("index {i} out of range (len {len})"), line));
    }
    Ok(adjusted as usize)
}

// ---------------------------------------------------------------------------
// Methods

/// Methods that mutate their receiver in place (receiver must be a variable).
pub fn is_mutating_method(name: &str) -> bool {
    matches!(name, "append" | "extend" | "pop" | "clear" | "insert" | "remove")
}

/// Invoke a mutating method on a variable slot.
pub fn call_mutating_method(
    slot: &mut Value,
    method: &str,
    mut args: Vec<Value>,
    line: u32,
) -> LangResult<Value> {
    match (slot, method) {
        (Value::List(items), "append") => {
            if args.len() != 1 {
                return Err(err("append() takes exactly one argument", line));
            }
            items.push(args.pop().unwrap());
            Ok(Value::None)
        }
        (Value::List(items), "extend") => match args.pop() {
            Some(Value::List(more)) if args.is_empty() => {
                items.extend(more);
                Ok(Value::None)
            }
            _ => Err(err("extend() takes exactly one list argument", line)),
        },
        (Value::List(items), "insert") => {
            if args.len() != 2 {
                return Err(err("insert() takes an index and a value", line));
            }
            let value = args.pop().unwrap();
            let raw = args.pop().unwrap();
            let i = raw
                .as_i64()
                .ok_or_else(|| err("insert() index must be an integer", line))?
                .clamp(0, items.len() as i64) as usize;
            items.insert(i, value);
            Ok(Value::None)
        }
        (Value::List(items), "pop") => {
            let i = match args.len() {
                0 => items.len().checked_sub(1).ok_or_else(|| err("pop from empty list", line))?,
                1 => normalize_index(&args[0], items.len(), line)?,
                _ => return Err(err("pop() takes at most one argument", line)),
            };
            Ok(items.remove(i))
        }
        (Value::List(items), "remove") => {
            if args.len() != 1 {
                return Err(err("remove() takes exactly one argument", line));
            }
            let needle = &args[0];
            let pos = items
                .iter()
                .position(|v| values_eq(v, needle))
                .ok_or_else(|| err("value not in list", line))?;
            items.remove(pos);
            Ok(Value::None)
        }
        (Value::List(items), "clear") => {
            items.clear();
            Ok(Value::None)
        }
        (Value::Dict(pairs), "clear") => {
            pairs.clear();
            Ok(Value::None)
        }
        (Value::Dict(pairs), "pop") => {
            if args.len() != 1 {
                return Err(err("dict pop() takes exactly one key", line));
            }
            let key = args[0].key_repr();
            let pos = pairs
                .iter()
                .position(|(k, _)| *k == key)
                .ok_or_else(|| err(format!("key '{key}' not found"), line))?;
            Ok(pairs.remove(pos).1)
        }
        (slot, _) => {
            Err(err(format!("'{}' object has no method '{method}'", slot.type_name()), line))
        }
    }
}

/// Invoke a non-mutating method.
pub fn call_method(recv: &Value, method: &str, args: Vec<Value>, line: u32) -> LangResult<Value> {
    match (recv, method) {
        (Value::Str(s), "upper") => Ok(Value::Str(s.to_uppercase())),
        (Value::Str(s), "lower") => Ok(Value::Str(s.to_lowercase())),
        (Value::Str(s), "strip") => Ok(Value::Str(s.trim().to_string())),
        (Value::Str(s), "split") => {
            let parts: Vec<Value> = match args.first() {
                None => s.split_whitespace().map(|p| Value::Str(p.to_string())).collect(),
                Some(Value::Str(sep)) if !sep.is_empty() => {
                    s.split(sep.as_str()).map(|p| Value::Str(p.to_string())).collect()
                }
                _ => return Err(err("split() separator must be a non-empty string", line)),
            };
            Ok(Value::List(parts))
        }
        (Value::Str(sep), "join") => match args.first() {
            Some(Value::List(items)) if args.len() == 1 => {
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Str(s) => parts.push(s.clone()),
                        other => {
                            return Err(err(
                                format!("join() requires strings, got {}", other.type_name()),
                                line,
                            ))
                        }
                    }
                }
                Ok(Value::Str(parts.join(sep)))
            }
            _ => Err(err("join() takes exactly one list argument", line)),
        },
        (Value::Str(s), "startswith") => match args.first() {
            Some(Value::Str(p)) => Ok(Value::Bool(s.starts_with(p.as_str()))),
            _ => Err(err("startswith() takes a string", line)),
        },
        (Value::Str(s), "endswith") => match args.first() {
            Some(Value::Str(p)) => Ok(Value::Bool(s.ends_with(p.as_str()))),
            _ => Err(err("endswith() takes a string", line)),
        },
        (Value::Str(s), "replace") => match (args.first(), args.get(1)) {
            (Some(Value::Str(from)), Some(Value::Str(to))) if args.len() == 2 => {
                Ok(Value::Str(s.replace(from.as_str(), to.as_str())))
            }
            _ => Err(err("replace() takes two strings", line)),
        },
        (Value::Str(s), "find") => match args.first() {
            Some(Value::Str(p)) => Ok(Value::Int(
                s.find(p.as_str()).map(|b| s[..b].chars().count() as i64).unwrap_or(-1),
            )),
            _ => Err(err("find() takes a string", line)),
        },
        (Value::Dict(pairs), "keys") => {
            Ok(Value::List(pairs.iter().map(|(k, _)| Value::Str(k.clone())).collect()))
        }
        (Value::Dict(pairs), "values") => {
            Ok(Value::List(pairs.iter().map(|(_, v)| v.clone()).collect()))
        }
        (Value::Dict(pairs), "items") => Ok(Value::List(
            pairs
                .iter()
                .map(|(k, v)| Value::List(vec![Value::Str(k.clone()), v.clone()]))
                .collect(),
        )),
        (d @ Value::Dict(_), "get") => {
            let key = args
                .first()
                .ok_or_else(|| err("get() takes a key and optional default", line))?
                .key_repr();
            Ok(d.dict_get(&key)
                .cloned()
                .unwrap_or_else(|| args.get(1).cloned().unwrap_or(Value::None)))
        }
        (Value::List(items), "index") => {
            let needle =
                args.first().ok_or_else(|| err("index() takes exactly one argument", line))?;
            items
                .iter()
                .position(|v| values_eq(v, needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| err("value not in list", line))
        }
        (Value::List(items), "count") => {
            let needle =
                args.first().ok_or_else(|| err("count() takes exactly one argument", line))?;
            Ok(Value::Int(items.iter().filter(|v| values_eq(v, needle)).count() as i64))
        }
        (recv, _) => {
            Err(err(format!("'{}' object has no method '{method}'", recv.type_name()), line))
        }
    }
}

// ---------------------------------------------------------------------------
// Builtin functions

/// `range(start, stop, step)`, lazily; `step` is not zero. A step past the
/// last i64 is a step past `stop`, so it ends the range.
pub(crate) fn range_iter(start: i64, stop: i64, step: i64) -> impl Iterator<Item = i64> {
    let before_stop = move |i: &i64| if step > 0 { *i < stop } else { *i > stop };
    std::iter::successors(Some(start), move |i| i.checked_add(step)).take_while(before_stop)
}

/// Dispatch a builtin function by name.
pub fn call_builtin(
    ctx: &BuiltinCtx<'_>,
    name: &str,
    args: Vec<Value>,
    line: u32,
) -> LangResult<Value> {
    let argc = args.len();
    let need = |n: usize| -> LangResult<()> {
        if argc != n {
            Err(err(format!("{name}() takes exactly {n} argument(s), got {argc}"), line))
        } else {
            Ok(())
        }
    };
    match name {
        // --- benchmark primitives (§5.2) ---------------------------------
        "noop" => {
            need(0)?;
            Ok(Value::None)
        }
        "sleep" => {
            need(1)?;
            let secs = args[0]
                .as_f64()
                .filter(|s| *s >= 0.0 && s.is_finite())
                .ok_or_else(|| err("sleep() takes a non-negative number of seconds", line))?;
            ctx.hooks.sleep(Duration::from_secs_f64(secs));
            Ok(Value::None)
        }
        "stress" => {
            need(1)?;
            let secs = args[0]
                .as_f64()
                .filter(|s| *s >= 0.0 && s.is_finite())
                .ok_or_else(|| err("stress() takes a non-negative number of seconds", line))?;
            ctx.hooks.stress(Duration::from_secs_f64(secs));
            Ok(Value::None)
        }
        "print" => {
            let rendered: Vec<String> = args.iter().map(Value::to_string).collect();
            ctx.hooks.print(&rendered.join(" "));
            Ok(Value::None)
        }
        // --- conversions ---------------------------------------------------
        "str" => {
            need(1)?;
            Ok(Value::Str(args[0].to_string()))
        }
        "repr" => {
            need(1)?;
            Ok(Value::Str(args[0].repr()))
        }
        "int" => {
            need(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| err(format!("invalid literal for int(): '{s}'"), line)),
                other => Err(err(format!("cannot convert {} to int", other.type_name()), line)),
            }
        }
        "float" => {
            need(1)?;
            match &args[0] {
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| err(format!("invalid literal for float(): '{s}'"), line)),
                other => other.as_f64().map(Value::Float).ok_or_else(|| {
                    err(format!("cannot convert {} to float", other.type_name()), line)
                }),
            }
        }
        "bool" => {
            need(1)?;
            Ok(Value::Bool(args[0].truthy()))
        }
        "type" => {
            need(1)?;
            Ok(Value::Str(args[0].type_name().to_string()))
        }
        // --- collections ----------------------------------------------------
        "len" => {
            need(1)?;
            let n = match &args[0] {
                Value::Str(s) => s.chars().count(),
                Value::List(v) => v.len(),
                Value::Dict(d) => d.len(),
                Value::Bytes(b) => b.len(),
                other => {
                    return Err(err(
                        format!("object of type '{}' has no len()", other.type_name()),
                        line,
                    ))
                }
            };
            Ok(Value::Int(n as i64))
        }
        "range" => {
            // Materialized range for use outside `for` headers; bounded.
            let ints: Vec<i64> = args
                .iter()
                .map(|a| a.as_i64().ok_or_else(|| err("range() arguments must be integers", line)))
                .collect::<LangResult<_>>()?;
            let (start, stop, step) = match ints.as_slice() {
                [stop] => (0, *stop, 1),
                [start, stop] => (*start, *stop, 1),
                [start, stop, step] if *step != 0 => (*start, *stop, *step),
                _ => return Err(err("range() takes 1 to 3 non-zero-step arguments", line)),
            };
            // The distance to cover in the step's direction; in i128 the span
            // of any two i64 bounds fits.
            let span = (stop as i128 - start as i128) * step.signum() as i128;
            let count = (span.max(0) as u128).div_ceil(step.unsigned_abs() as u128);
            if count > 10_000_000 {
                return Err(err("materialized range too large (use it in a for loop)", line));
            }
            let mut out = Vec::with_capacity(count as usize);
            out.extend(range_iter(start, stop, step).map(Value::Int));
            Ok(Value::List(out))
        }
        "sum" => {
            need(1)?;
            match &args[0] {
                Value::List(items) => {
                    let mut acc = Value::Int(0);
                    for item in items {
                        acc = binary_op(BinOp::Add, acc, item.clone(), line)?;
                    }
                    Ok(acc)
                }
                other => {
                    Err(err(format!("sum() requires a list, got {}", other.type_name()), line))
                }
            }
        }
        "min" | "max" => {
            let items: Vec<Value> = match args.as_slice() {
                [Value::List(items)] => items.clone(),
                [] => return Err(err(format!("{name}() requires arguments"), line)),
                many => many.to_vec(),
            };
            let mut iter = items.into_iter();
            let mut best =
                iter.next().ok_or_else(|| err(format!("{name}() of empty list"), line))?;
            for v in iter {
                let take = match binary_op(BinOp::Lt, v.clone(), best.clone(), line)? {
                    Value::Bool(less) => {
                        if name == "min" {
                            less
                        } else {
                            !less && !values_eq(&v, &best)
                        }
                    }
                    _ => unreachable!(),
                };
                if take {
                    best = v;
                }
            }
            Ok(best)
        }
        "abs" => {
            need(1)?;
            match &args[0] {
                Value::Int(i) => i
                    .checked_abs()
                    .map(Value::Int)
                    .ok_or_else(|| err("integer overflow in abs()", line)),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(err(format!("bad operand for abs(): {}", other.type_name()), line)),
            }
        }
        "round" => match args.as_slice() {
            [v] => Ok(Value::Int(
                v.as_f64().ok_or_else(|| err("round() takes a number", line))?.round() as i64,
            )),
            [v, Value::Int(digits)] => {
                let x = v.as_f64().ok_or_else(|| err("round() takes a number", line))?;
                let m = 10f64.powi(*digits as i32);
                Ok(Value::Float((x * m).round() / m))
            }
            _ => Err(err("round() takes a number and optional digit count", line)),
        },
        "sorted" => {
            need(1)?;
            match &args[0] {
                Value::List(items) => {
                    let mut out = items.clone();
                    let mut fail = None;
                    out.sort_by(|a, b| match compare(BinOp::Lt, a, b, line) {
                        Ok(Value::Bool(true)) => std::cmp::Ordering::Less,
                        Ok(_) => {
                            if values_eq(a, b) {
                                std::cmp::Ordering::Equal
                            } else {
                                std::cmp::Ordering::Greater
                            }
                        }
                        Err(e) => {
                            fail.get_or_insert(e);
                            std::cmp::Ordering::Equal
                        }
                    });
                    match fail {
                        Some(e) => Err(e),
                        None => Ok(Value::List(out)),
                    }
                }
                other => {
                    Err(err(format!("sorted() requires a list, got {}", other.type_name()), line))
                }
            }
        }
        "reversed" => {
            need(1)?;
            match &args[0] {
                Value::List(items) => Ok(Value::List(items.iter().rev().cloned().collect())),
                Value::Str(s) => Ok(Value::Str(s.chars().rev().collect())),
                other => Err(err(
                    format!("reversed() requires a list or str, got {}", other.type_name()),
                    line,
                )),
            }
        }
        "enumerate" => {
            need(1)?;
            match &args[0] {
                Value::List(items) => Ok(Value::List(
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, v)| Value::List(vec![Value::Int(i as i64), v.clone()]))
                        .collect(),
                )),
                other => Err(err(
                    format!("enumerate() requires a list, got {}", other.type_name()),
                    line,
                )),
            }
        }
        "zip" => {
            need(2)?;
            match (&args[0], &args[1]) {
                (Value::List(a), Value::List(b)) => Ok(Value::List(
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| Value::List(vec![x.clone(), y.clone()]))
                        .collect(),
                )),
                _ => Err(err("zip() requires two lists", line)),
            }
        }
        "hash" => {
            need(1)?;
            let rendered = args[0].repr();
            Ok(Value::Int(funcx_types::hash::fnv1a(rendered.as_bytes()) as i64))
        }
        // --- math module (requires `import math`) ---------------------------
        "sqrt" | "floor" | "ceil" | "sin" | "cos" | "tan" | "exp" | "log" | "log2" | "log10" => {
            if !ctx.imported("math") {
                return Err(err(format!("{name}() requires 'import math'"), line));
            }
            need(1)?;
            let x =
                args[0].as_f64().ok_or_else(|| err(format!("{name}() takes a number"), line))?;
            let out = match name {
                "sqrt" => {
                    if x < 0.0 {
                        return Err(err("math domain error: sqrt of negative", line));
                    }
                    x.sqrt()
                }
                "floor" => return Ok(Value::Int(x.floor() as i64)),
                "ceil" => return Ok(Value::Int(x.ceil() as i64)),
                "sin" => x.sin(),
                "cos" => x.cos(),
                "tan" => x.tan(),
                "exp" => x.exp(),
                "log" => {
                    if x <= 0.0 {
                        return Err(err("math domain error: log of non-positive", line));
                    }
                    x.ln()
                }
                "log2" => x.log2(),
                "log10" => x.log10(),
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
        "pi" => {
            if !ctx.imported("math") {
                return Err(err("pi() requires 'import math'", line));
            }
            need(0)?;
            Ok(Value::Float(std::f64::consts::PI))
        }
        _ => Err(err(format!("no such function or builtin '{name}'"), line)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Limits, NoopHooks};
    use crate::run_function;

    fn run(src: &str, name: &str, args: &[Value]) -> LangResult<Value> {
        run_function(src, name, args, &[], &NoopHooks, &Limits::default())
    }

    fn eval1(expr: &str) -> Value {
        run(&format!("def f():\n    return {expr}\n"), "f", &[]).unwrap()
    }

    #[test]
    fn string_methods() {
        assert_eq!(eval1("'Hello'.upper()"), Value::from("HELLO"));
        assert_eq!(eval1("'  x  '.strip()"), Value::from("x"));
        assert_eq!(eval1("'a,b,c'.split(',')"), Value::from(vec!["a", "b", "c"]));
        assert_eq!(eval1("'-'.join(['a', 'b'])"), Value::from("a-b"));
        assert_eq!(eval1("'hello'.replace('l', 'L')"), Value::from("heLLo"));
        assert_eq!(eval1("'hello'.find('ll')"), Value::Int(2));
        assert_eq!(eval1("'hello'.find('z')"), Value::Int(-1));
        assert_eq!(eval1("'abc'.startswith('ab')"), Value::Bool(true));
        assert_eq!(eval1("'abc'.endswith('ab')"), Value::Bool(false));
    }

    #[test]
    fn list_methods() {
        assert_eq!(eval1("[1, 2, 2, 3].count(2)"), Value::Int(2));
        assert_eq!(eval1("[1, 2, 3].index(3)"), Value::Int(2));
        let src = "\
def f():
    xs = [3, 1]
    xs.append(2)
    xs.extend([5, 4])
    xs.insert(0, 9)
    xs.remove(1)
    last = xs.pop()
    return [sorted(xs), last]
";
        assert_eq!(
            run(src, "f", &[]).unwrap(),
            Value::List(vec![
                Value::List(vec![Value::Int(2), Value::Int(3), Value::Int(5), Value::Int(9)]),
                Value::Int(4)
            ])
        );
    }

    #[test]
    fn dict_methods() {
        assert_eq!(eval1("{'a': 1, 'b': 2}.keys()"), Value::from(vec!["a", "b"]));
        assert_eq!(eval1("{'a': 1}.get('missing', 42)"), Value::Int(42));
        assert_eq!(eval1("{'a': 1}.get('a')"), Value::Int(1));
        let src =
            "def f():\n    d = {'a': 1, 'b': 2}\n    v = d.pop('a')\n    return [v, len(d)]\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::List(vec![Value::Int(1), Value::Int(1)]));
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(eval1("abs(-5)"), Value::Int(5));
        assert_eq!(eval1("round(2.7)"), Value::Int(3));
        assert_eq!(eval1("round(2.456, 2)"), Value::Float(2.46));
        assert_eq!(eval1("min(3, 1, 2)"), Value::Int(1));
        assert_eq!(eval1("max([3, 1, 2])"), Value::Int(3));
        assert_eq!(eval1("sum([1, 2, 3.5])"), Value::Float(6.5));
    }

    #[test]
    fn sorting_and_sequences() {
        assert_eq!(
            eval1("sorted([3, 1, 2])"),
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(eval1("reversed([1, 2])"), Value::List(vec![Value::Int(2), Value::Int(1)]));
        assert_eq!(eval1("reversed('abc')"), Value::from("cba"));
        assert_eq!(
            eval1("enumerate(['a'])"),
            Value::List(vec![Value::List(vec![Value::Int(0), Value::from("a")])])
        );
        assert_eq!(
            eval1("zip([1], ['a'])"),
            Value::List(vec![Value::List(vec![Value::Int(1), Value::from("a")])])
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(eval1("int('42')"), Value::Int(42));
        assert_eq!(eval1("int(3.9)"), Value::Int(3));
        assert_eq!(eval1("float('2.5')"), Value::Float(2.5));
        assert_eq!(eval1("str(12)"), Value::from("12"));
        assert_eq!(eval1("bool([])"), Value::Bool(false));
        assert_eq!(eval1("type(1.5)"), Value::from("float"));
        assert!(run("def f():\n    return int('zzz')\n", "f", &[]).is_err());
    }

    #[test]
    fn math_requires_import() {
        assert!(run("def f():\n    return sqrt(4)\n", "f", &[]).is_err());
        let src = "import math\ndef f():\n    return sqrt(4)\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Float(2.0));
        let src = "import math\ndef f():\n    return floor(2.9)\n";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn hash_is_stable() {
        let a = eval1("hash('abc')");
        let b = eval1("hash('abc')");
        assert_eq!(a, b);
        assert_ne!(a, eval1("hash('abd')"));
    }

    #[test]
    fn comparison_coercion() {
        assert_eq!(eval1("1 == 1.0"), Value::Bool(true));
        assert_eq!(eval1("1 < 1.5"), Value::Bool(true));
        assert_eq!(eval1("'a' < 'b'"), Value::Bool(true));
        assert_eq!(eval1("[1, 2] < [1, 3]"), Value::Bool(true));
        assert_eq!(eval1("[1] < [1, 0]"), Value::Bool(true));
    }

    #[test]
    fn containment() {
        assert_eq!(eval1("2 in [1, 2]"), Value::Bool(true));
        assert_eq!(eval1("'ell' in 'hello'"), Value::Bool(true));
        assert_eq!(eval1("'a' in {'a': 1}"), Value::Bool(true));
        assert_eq!(eval1("3 not in [1, 2]"), Value::Bool(true));
    }

    #[test]
    fn string_and_list_operators() {
        assert_eq!(eval1("'ab' + 'cd'"), Value::from("abcd"));
        assert_eq!(eval1("'ab' * 3"), Value::from("ababab"));
        assert_eq!(eval1("[1] + [2]"), Value::List(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(
            eval1("[0] * 3"),
            Value::List(vec![Value::Int(0), Value::Int(0), Value::Int(0)])
        );
    }

    #[test]
    fn integer_overflow_is_an_error_not_a_panic() {
        let e = run("def f():\n    return 9223372036854775807 + 1\n", "f", &[]).unwrap_err();
        assert!(e.to_string().contains("overflow"));

        // A materialized range whose span does not fit in i64 is counted,
        // and refused, without wrapping.
        let wide = "def f():\n    return len(range(-9223372036854775807, 9223372036854775807))\n";
        assert!(run(wide, "f", &[]).unwrap_err().to_string().contains("range too large"));
        let down = "def f():\n    return range(9223372036854775807, -9223372036854775807, -1)\n";
        assert!(run(down, "f", &[]).unwrap_err().to_string().contains("range too large"));
        // Ranges that end at the edge of i64 stop there, materialized or lazy.
        assert_eq!(
            eval1("range(9223372036854775800, 9223372036854775807, 5)"),
            Value::List(vec![Value::Int(9223372036854775800), Value::Int(9223372036854775805)])
        );
        let lazy = "\
def f():
    n = 0
    for i in range(9223372036854775800, 9223372036854775807, 5):
        n += 1
    for i in range(-9223372036854775800, -9223372036854775807, -5):
        n += 1
    return n
";
        assert_eq!(run(lazy, "f", &[]).unwrap(), Value::Int(4));

        // i64::MIN has no negation and no absolute value.
        let min = "-9223372036854775807 - 1";
        let e = run(&format!("def f():\n    return -({min})\n"), "f", &[]).unwrap_err();
        assert!(e.to_string().contains("integer overflow in unary -"), "{e}");
        let e = run(&format!("def f():\n    return abs({min})\n"), "f", &[]).unwrap_err();
        assert!(e.to_string().contains("integer overflow in abs()"), "{e}");
    }

    #[test]
    fn repetition_is_sized_before_it_is_built() {
        // Would allocate until the process aborts if the list were built.
        // The last three have a byte count past `usize::MAX`.
        for expr in [
            "[0] * 10**15",
            "10**15 * [0]",
            "[[1, 2], 'ab'] * 10**12",
            "[0, 0, 0] * 2**62",
            "2**62 * 'aaaa'",
            "[''] * (2**62 + (2**62 - 1))",
        ] {
            let e = run(&format!("def f():\n    return {expr}\n"), "f", &[]).unwrap_err();
            assert!(e.to_string().contains("size limit"), "{expr}: {e}");
        }
        // Called without a policy in front, `*` has its own bound.
        for (seq, n, what) in [
            (Value::from(vec![0i64]), 1 << 40, "list"),
            (Value::from(vec![0i64, 0, 0]), 1 << 62, "list"),
            (Value::from("aaaa"), 1 << 62, "string"),
            (Value::from("aaaa"), i64::MAX, "string"),
        ] {
            let e = binary_op(BinOp::Mul, Value::Int(n), seq, 1).unwrap_err();
            assert!(e.to_string().contains(&format!("{what} repetition too large")), "{e}");
        }
        // A negative count repeats to nothing.
        assert_eq!(eval1("[1, 2] * -3"), Value::List(vec![]));
        assert_eq!(eval1("-(2**62) * 'ab'"), Value::from(""));
        // An empty list repeats to an empty list at any count.
        assert_eq!(eval1("[] * 10**15"), Value::List(vec![]));
        // The estimate is the size the result really has.
        for (l, r) in [(Value::from("abc"), 7), (Value::from(vec!["a", "bc"]), 3)] {
            let predicted = repetition_bytes(BinOp::Mul, &l, &Value::Int(r)).unwrap();
            let built = binary_op(BinOp::Mul, l, Value::Int(r), 1).unwrap();
            assert_eq!(predicted, built.approx_size());
        }
    }

    #[test]
    fn floor_div_and_mod_match_python_on_negatives() {
        assert_eq!(eval1("-7 // 2"), Value::Int(-4));
        assert_eq!(eval1("-7 % 2"), Value::Int(1));
    }

    #[test]
    fn index_errors() {
        assert!(run("def f():\n    return [1][5]\n", "f", &[]).is_err());
        assert!(run("def f():\n    return {'a': 1}['b']\n", "f", &[]).is_err());
        assert!(run("def f():\n    return 5[0]\n", "f", &[]).is_err());
    }

    #[test]
    fn unknown_builtin_reported() {
        let e = run("def f():\n    return launch_missiles()\n", "f", &[]).unwrap_err();
        assert!(e.to_string().contains("launch_missiles"));
    }
}
