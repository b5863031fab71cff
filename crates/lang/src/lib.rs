//! FxScript — the function language of funcX-rs.
//!
//! The original funcX registers *Python source* with the cloud service and
//! ships it, serialized, to workers that have never seen it (§3, Listing 1).
//! Rust cannot ship native code, so this crate reproduces the essential
//! behaviour — dynamic code shipping and sandboxed execution — with a small
//! indentation-structured, Python-flavoured language:
//!
//! ```text
//! def automo_preview(fname, start, end, step):
//!     total = 0
//!     for i in range(start, end, step):
//!         total = total + i
//!     return [fname, total]
//! ```
//!
//! Function *source text* is what gets registered, stored, serialized, and
//! finally parsed + interpreted inside a worker's container. The interpreter
//! is sandboxed: no I/O, no ambient clock, bounded fuel and recursion, and
//! `sleep`/`stress` (the paper's benchmark primitives, §5.2) are routed
//! through an [`ExecHooks`] implementation supplied by the worker so they
//! consume *virtual* time.
//!
//! # Quick example
//!
//! ```
//! use funcx_lang::{run_function, Limits, NoopHooks, Value};
//!
//! let src = "def double(x):\n    return x * 2\n";
//! let out = run_function(src, "double", &[Value::Int(21)], &[], &NoopHooks, &Limits::default())
//!     .unwrap();
//! assert_eq!(out, Value::Int(42));
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod value;

pub use builtins::BuiltinCtx;
pub use error::{LangError, LangResult};
pub use interp::{ClassicPolicy, ExecHooks, ExecPolicy, Interpreter, Limits, NoopHooks};
pub use value::Value;

use ast::Program;

/// Parse FxScript source into a program (a sequence of `def`s and optional
/// module-level statements).
pub fn parse(source: &str) -> LangResult<Program> {
    let tokens = lexer::lex(source)?;
    parser::parse_program(&tokens)
}

/// Validate that `source` parses and defines `name`. This is what the funcX
/// service runs at registration time — catching syntax errors at register
/// rather than at dispatch.
pub fn validate_function(source: &str, name: &str) -> LangResult<()> {
    let program = parse(source)?;
    if program.find_def(name).is_none() {
        return Err(LangError::new(format!("source does not define function '{name}'"), 0));
    }
    Ok(())
}

/// Parse + execute one function from `source` with positional `args` and
/// keyword `kwargs`. This is the worker's entry point (bare environment).
pub fn run_function(
    source: &str,
    name: &str,
    args: &[Value],
    kwargs: &[(String, Value)],
    hooks: &dyn ExecHooks,
    limits: &Limits,
) -> LangResult<Value> {
    run_function_in_env(source, name, args, kwargs, hooks, limits, &[])
}

/// Like [`run_function`], inside an environment that ships `extra_modules`
/// beyond the base runtime — what executing inside a container image with
/// baked-in dependencies means (§4.2).
#[allow(clippy::too_many_arguments)]
pub fn run_function_in_env(
    source: &str,
    name: &str,
    args: &[Value],
    kwargs: &[(String, Value)],
    hooks: &dyn ExecHooks,
    limits: &Limits,
    extra_modules: &[String],
) -> LangResult<Value> {
    let program = parse(source)?;
    let mut interp = Interpreter::new(hooks, limits.clone());
    interp.allow_modules(extra_modules);
    interp.load_program(&program)?;
    interp.call_function(name, args, kwargs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_listing_shape() {
        // The shape of the paper's Listing 1, adapted to FxScript.
        let src = "\
def automo_preview(fname, start, end, step):
    total = 0
    for i in range(start, end, step):
        total = total + i
    return [fname, total]
";
        let out = run_function(
            src,
            "automo_preview",
            &[Value::from("test.h5")],
            &[
                ("start".into(), Value::Int(0)),
                ("end".into(), Value::Int(10)),
                ("step".into(), Value::Int(1)),
            ],
            &NoopHooks,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(out, Value::List(vec![Value::from("test.h5"), Value::Int(45)]));
    }

    #[test]
    fn validate_accepts_good_rejects_bad() {
        assert!(validate_function("def f(x):\n    return x\n", "f").is_ok());
        assert!(validate_function("def f(x):\n    return x\n", "g").is_err());
        assert!(validate_function("def f(x:\n    return x\n", "f").is_err());
    }
}
