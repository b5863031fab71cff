//! Derives for the serde shim, parsed by hand (no `syn`/`quote` offline).
//!
//! Supported input: non-generic structs (named, tuple, unit) and enums with
//! unit, tuple and struct variants. Supported attributes are the ones the
//! product uses: `default`, `default = "path"`, `skip_serializing_if =
//! "path"`, `rename = "name"` and `transparent`. Anything else is a compile
//! error, so a new serde feature in `crates/` cannot be silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    /// `Some(None)` is `#[serde(default)]`, `Some(Some(path))` names a function.
    default: Option<Option<String>>,
    skip_serializing_if: Option<String>,
    rename: Option<String>,
    transparent: bool,
}

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    is_option: bool,
    attrs: Attrs,
}

impl Field {
    fn wire_name(&self) -> String {
        let name = self.name.clone().expect("named field");
        self.attrs.rename.clone().unwrap_or(name)
    }
}

enum Body {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    attrs: Attrs,
    body: Body,
}

enum Shape {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn unquote(lit: &str) -> String {
    let s = lit.trim();
    assert!(
        s.starts_with('"') && s.ends_with('"') && s.len() >= 2,
        "expected a string literal, found {s}"
    );
    s[1..s.len() - 1].to_string()
}

/// Parse the inside of one `#[serde(...)]` into `attrs`.
fn parse_serde_args(stream: TokenStream, attrs: &mut Attrs) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    while i < tokens.len() {
        let key = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => {
                i += 1;
                continue;
            }
            other => panic!("serde shim: unexpected token `{other}` in #[serde(...)]"),
        };
        i += 1;
        let mut value = None;
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                value = Some(unquote(&tokens[i + 1].to_string()));
                i += 2;
            }
        }
        match (key.as_str(), value) {
            ("default", v) => attrs.default = Some(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("transparent", None) => attrs.transparent = true,
            (other, _) => panic!("serde shim: unsupported attribute `{other}`"),
        }
    }
}

/// Consume leading `#[...]` attributes starting at `*i`, keeping the
/// `serde` ones.
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*i), tokens.get(*i + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
            (inner.first(), inner.get(1))
        {
            if id.to_string() == "serde" {
                parse_serde_args(args.stream(), &mut attrs);
            }
        }
        *i += 2;
    }
    attrs
}

/// Skip `pub`, `pub(crate)` and friends.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Split a field or variant list at the commas outside `<...>`.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i32;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("non-empty").push(tt);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn parse_fields(stream: TokenStream, named: bool) -> Vec<Field> {
    split_commas(stream)
        .into_iter()
        .map(|tokens| {
            let mut i = 0;
            let attrs = take_attrs(&tokens, &mut i);
            skip_vis(&tokens, &mut i);
            let name = if named {
                let name = tokens[i].to_string();
                i += 2; // the name and its `:`
                Some(name)
            } else {
                None
            };
            let is_option =
                matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "Option");
            Field { name, is_option, attrs }
        })
        .collect()
}

fn parse_body(group: Option<&TokenTree>) -> Body {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Body::Named(parse_fields(g.stream(), true))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Tuple(parse_fields(g.stream(), false))
        }
        _ => Body::Unit,
    }
}

fn parse_item(input: TokenStream) -> (Item, Attrs) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = take_attrs(&tokens, &mut i);
    skip_vis(&tokens, &mut i);
    let keyword = tokens[i].to_string();
    let name = tokens[i + 1].to_string();
    i += 2;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim: generic type `{name}` is not supported");
    }
    let shape = match keyword.as_str() {
        "struct" => Shape::Struct(parse_body(tokens.get(i))),
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(i) else {
                panic!("serde shim: enum `{name}` has no body");
            };
            let variants = split_commas(g.stream())
                .into_iter()
                .map(|vt| {
                    let mut j = 0;
                    let attrs = take_attrs(&vt, &mut j);
                    let name = vt[j].to_string();
                    Variant { name, attrs, body: parse_body(vt.get(j + 1)) }
                })
                .collect();
            Shape::Enum(variants)
        }
        other => panic!("serde shim: cannot derive for `{other}`"),
    };
    (Item { name, shape }, attrs)
}

// ---------------------------------------------------------------- Serialize

/// Statements that write a named-field body as a JSON object. `access`
/// turns a field name into the expression holding a reference to it.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("sink.begin_map();");
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        let expr = access(name);
        let write =
            format!("sink.key({:?}); ::serde::Serialize::serialize({expr}, sink);", f.wire_name());
        match &f.attrs.skip_serializing_if {
            Some(pred) => out.push_str(&format!("if !{pred}({expr}) {{ {write} }}")),
            None => out.push_str(&write),
        }
    }
    out.push_str("sink.end_map();");
    out
}

/// Statements that write tuple fields: one field as itself, several as an
/// array. `exprs` are references to the fields.
fn ser_tuple(exprs: &[String]) -> String {
    if let [one] = exprs {
        return format!("::serde::Serialize::serialize({one}, sink);");
    }
    let mut out = String::from("sink.begin_seq();");
    for e in exprs {
        out.push_str(&format!("::serde::Serialize::serialize({e}, sink);"));
    }
    out.push_str("sink.end_seq();");
    out
}

fn binders(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("f{k}")).collect()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (item, attrs) = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Body::Named(fields)) if attrs.transparent => {
            let [field] = fields.as_slice() else {
                panic!("serde shim: transparent needs one field")
            };
            ser_tuple(&[format!("&self.{}", field.name.as_deref().expect("named field"))])
        }
        Shape::Struct(Body::Unit) => "sink.null();".to_string(),
        Shape::Struct(Body::Tuple(fields)) => {
            let exprs: Vec<String> = (0..fields.len()).map(|k| format!("&self.{k}")).collect();
            ser_tuple(&exprs)
        }
        Shape::Struct(Body::Named(fields)) => ser_named(fields, |f| format!("&self.{f}")),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = v.attrs.rename.clone().unwrap_or_else(|| vname.clone());
                match &v.body {
                    Body::Unit => {
                        arms.push_str(&format!("{name}::{vname} => sink.str({wire:?}),"));
                    }
                    Body::Tuple(fields) => {
                        let names = binders(fields.len());
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{ sink.begin_map(); sink.key({wire:?}); {} sink.end_map(); }}",
                            names.join(", "),
                            ser_tuple(&names),
                        ));
                    }
                    Body::Named(fields) => {
                        let names: Vec<String> =
                            fields.iter().map(|f| f.name.clone().expect("named")).collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{ sink.begin_map(); sink.key({wire:?}); {} sink.end_map(); }}",
                            names.join(", "),
                            ser_named(fields, |f| f.to_string()),
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
             fn serialize<S: ::serde::ser::Sink>(&self, sink: &mut S) {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde shim: generated Serialize impl parses")
}

// -------------------------------------------------------------- Deserialize

/// An expression that reads a named-field body from a JSON object and
/// builds `ctor { ... }`. Unknown keys are skipped; a missing field takes
/// its `default`, `None` for an `Option`, or is an error.
fn de_named(fields: &[Field], ctor: &str) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        let wire = f.wire_name();
        decls.push_str(&format!("let mut v_{name} = ::core::option::Option::None;"));
        arms.push_str(&format!(
            "{wire:?} => v_{name} = ::core::option::Option::Some(::serde::Deserialize::deserialize(p)?),"
        ));
        let missing = match (&f.attrs.default, f.is_option) {
            (Some(Some(path)), _) => format!("{path}()"),
            (Some(None), _) => "::core::default::Default::default()".to_string(),
            (None, true) => "::core::option::Option::None".to_string(),
            (None, false) => format!(
                "return ::core::result::Result::Err(::serde::de::Error::missing_field({wire:?}))"
            ),
        };
        build.push_str(&format!(
            "{name}: match v_{name} {{ ::core::option::Option::Some(v) => v, ::core::option::Option::None => {missing} }},"
        ));
    }
    format!(
        "{{ {decls} p.begin_map()?; \
            while let ::core::option::Option::Some(key) = p.next_key()? {{ \
                match &*key {{ {arms} _ => p.skip_value()?, }} \
            }} \
            {ctor} {{ {build} }} }}"
    )
}

/// An expression that reads tuple fields and builds `ctor(...)`.
fn de_tuple(n: usize, ctor: &str) -> String {
    if n == 1 {
        return format!("{ctor}(::serde::Deserialize::deserialize(p)?)");
    }
    let elems: String = (0..n)
        .map(|_| "{ p.seq_elem()?; ::serde::Deserialize::deserialize(p)? },".to_string())
        .collect();
    format!("{{ p.begin_seq()?; let out = {ctor}({elems}); p.seq_end()?; out }}")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (item, attrs) = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Body::Named(fields)) if attrs.transparent => {
            let [field] = fields.as_slice() else {
                panic!("serde shim: transparent needs one field")
            };
            format!(
                "::core::result::Result::Ok({name} {{ {}: ::serde::Deserialize::deserialize(p)? }})",
                field.name.as_deref().expect("named field")
            )
        }
        Shape::Struct(Body::Unit) => format!("p.read_null()?; ::core::result::Result::Ok({name})"),
        Shape::Struct(Body::Tuple(fields)) => {
            format!("::core::result::Result::Ok({})", de_tuple(fields.len(), name))
        }
        Shape::Struct(Body::Named(fields)) => {
            format!("::core::result::Result::Ok({})", de_named(fields, name))
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = v.attrs.rename.clone().unwrap_or_else(|| vname.clone());
                let ctor = format!("{name}::{vname}");
                match &v.body {
                    Body::Unit => {
                        unit_arms.push_str(&format!("{wire:?} => {ctor},"));
                        tagged_arms.push_str(&format!("{wire:?} => {{ p.read_null()?; {ctor} }},"));
                    }
                    Body::Tuple(fields) => {
                        tagged_arms
                            .push_str(&format!("{wire:?} => {},", de_tuple(fields.len(), &ctor)));
                    }
                    Body::Named(fields) => {
                        tagged_arms.push_str(&format!("{wire:?} => {},", de_named(fields, &ctor)));
                    }
                }
            }
            let unknown = format!(
                "::core::result::Result::Err(::serde::de::Error::unknown_variant(other, {name:?}))"
            );
            // A `match` whose only arm diverges would make the code after it
            // unreachable, so the arm lists are only emitted when non-empty.
            let unit_match = if unit_arms.is_empty() {
                format!("{{ let other = &*tag; {unknown} }}")
            } else {
                format!(
                    "::core::result::Result::Ok(match &*tag {{ {unit_arms} other => return {unknown}, }})"
                )
            };
            let tagged_match = if tagged_arms.is_empty() {
                format!("{{ let other = &*tag; {unknown} }}")
            } else {
                format!(
                    "{{ let out = match &*tag {{ {tagged_arms} other => return {unknown}, }}; \
                        p.map_end()?; \
                        ::core::result::Result::Ok(out) }}"
                )
            };
            format!(
                "match p.peek()? {{ \
                    ::serde::de::Kind::Str => {{ let tag = p.read_str()?; {unit_match} }} \
                    ::serde::de::Kind::Map => {{ \
                        p.begin_map()?; \
                        let tag = match p.next_key()? {{ \
                            ::core::option::Option::Some(tag) => tag, \
                            ::core::option::Option::None => return ::core::result::Result::Err(p.error(\"expected a variant name\")), \
                        }}; \
                        {tagged_match} \
                    }} \
                    _ => ::core::result::Result::Err(p.error(concat!(\"expected a variant of `\", {name:?}, \"`\"))), \
                }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
             fn deserialize(p: &mut ::serde::de::Parser<'de>) -> ::core::result::Result<Self, ::serde::de::Error> {{ {body} }} \
         }}"
    )
    .parse()
    .expect("serde shim: generated Deserialize impl parses")
}
