//! Offline stand-in for `serde_json`: `Value`, `json!`, and the
//! `to_*`/`from_*` entry points, over the serde shim's writer and parser.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

use serde::de::{self, Deserialize, Kind, Parser};
use serde::ser::{JsonWriter, Serialize, Sink};

pub use serde::de::Error;

pub type Result<T> = std::result::Result<T, Error>;

/// Object representation: keys kept sorted, as `serde_json` does without
/// its `preserve_order` feature.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number: an unsigned or signed 64-bit integer, or a double.
#[derive(Debug, Clone, Copy)]
pub struct Number(de::Number);

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            de::Number::U(v) => Some(v),
            de::Number::I(v) => u64::try_from(v).ok(),
            de::Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            de::Number::U(v) => i64::try_from(v).ok(),
            de::Number::I(v) => Some(v),
            de::Number::F(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            de::Number::U(v) => v as f64,
            de::Number::I(v) => v as f64,
            de::Number::F(v) => v,
        })
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, de::Number::F(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i64(), other.as_i64(), self.as_u64(), other.as_u64()) {
            (Some(a), Some(b), _, _) => a == b,
            (_, _, Some(a), Some(b)) => a == b,
            _ => self.is_f64() && other.is_f64() && self.as_f64() == other.as_f64(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            de::Number::U(v) => write!(f, "{v}"),
            de::Number::I(v) => write!(f, "{v}"),
            de::Number::F(v) => write!(f, "{v:?}"),
        }
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member of an object by key, or element of an array by position.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// A type that can index into a [`Value`]: `&str`/`String` or `usize`.
pub trait ValueIndex {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

/// Indexing never panics: a missing member reads as `Null`.
impl<I: ValueIndex> Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

macro_rules! from_number {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                Number(de::Number::$variant(v as $wide))
            }
        }
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v.into())
            }
        }
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Number(n) if *n == Number::from(*other))
            }
        }
    )*};
}

// `Number`'s equality compares integers by value, so `1i64 == 1u64`.
from_number!(U as u64: u8, u16, u32, u64, usize);
from_number!(I as i64: i8, i16, i32, i64, isize);
from_number!(F as f64: f32, f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl Serialize for Value {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Number(Number(de::Number::U(v))) => sink.u64(*v),
            Value::Number(Number(de::Number::I(v))) => sink.i64(*v),
            Value::Number(Number(de::Number::F(v))) => sink.f64(*v),
            Value::String(s) => sink.str(s),
            Value::Array(items) => {
                sink.begin_seq();
                for item in items {
                    item.serialize(sink);
                }
                sink.end_seq();
            }
            Value::Object(map) => {
                sink.begin_map();
                for (k, v) in map {
                    sink.key(k);
                    v.serialize(sink);
                }
                sink.end_map();
            }
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        Ok(match p.peek()? {
            Kind::Null => {
                p.read_null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(p.read_bool()?),
            Kind::Number => Value::Number(Number(p.read_number()?)),
            Kind::Str => Value::String(p.read_str()?.into_owned()),
            Kind::Seq => {
                let mut items = Vec::new();
                p.begin_seq()?;
                while p.seq_next()? {
                    items.push(Value::deserialize(p)?);
                }
                Value::Array(items)
            }
            Kind::Map => {
                let mut map = Map::new();
                p.begin_map()?;
                while let Some(key) = p.next_key()? {
                    map.insert(key.into_owned(), Value::deserialize(p)?);
                }
                Value::Object(map)
            }
        })
    }
}

/// Compact JSON text, as `serde_json::Value`'s `Display` prints.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if f.alternate() { to_string_pretty(self) } else { to_string(self) };
        f.write_str(&text.map_err(|_| fmt::Error)?)
    }
}

/// Builds a [`Value`] from serialization events.
#[derive(Default)]
struct ValueBuilder {
    /// Open containers, innermost last, each with the key awaiting a value.
    stack: Vec<(Value, Option<String>)>,
    done: Option<Value>,
}

impl ValueBuilder {
    fn put(&mut self, v: Value) {
        match self.stack.last_mut() {
            None => self.done = Some(v),
            Some((Value::Array(items), _)) => items.push(v),
            Some((Value::Object(map), key)) => {
                let key = key.take().expect("a key precedes every map value");
                map.insert(key, v);
            }
            Some(_) => unreachable!("only containers are pushed on the stack"),
        }
    }

    fn close(&mut self) {
        let (v, _) = self.stack.pop().expect("end matches a begin");
        self.put(v);
    }
}

impl Sink for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }
    fn u64(&mut self, v: u64) {
        self.put(Value::from(v));
    }
    fn i64(&mut self, v: i64) {
        self.put(Value::from(v));
    }
    fn u128(&mut self, v: u128) {
        // Beyond 64 bits a `Value` can only hold the nearest double.
        self.put(u64::try_from(v).map_or(Value::from(v as f64), Value::from));
    }
    fn i128(&mut self, v: i128) {
        self.put(i64::try_from(v).map_or(Value::from(v as f64), Value::from));
    }
    fn f64(&mut self, v: f64) {
        self.put(if v.is_finite() { Value::from(v) } else { Value::Null });
    }
    fn str(&mut self, v: &str) {
        self.put(Value::String(v.to_string()));
    }
    fn begin_seq(&mut self) {
        self.stack.push((Value::Array(Vec::new()), None));
    }
    fn end_seq(&mut self) {
        self.close();
    }
    fn begin_map(&mut self) {
        self.stack.push((Value::Object(Map::new()), None));
    }
    fn key(&mut self, k: &str) {
        self.stack.last_mut().expect("key inside a map").1 = Some(k.to_string());
    }
    fn end_map(&mut self) {
        self.close();
    }
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut w = JsonWriter::with_capacity(128);
    value.serialize(&mut w);
    Ok(w.into_bytes())
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer only emits `str` contents and ASCII punctuation.
    to_vec(value).map(|bytes| String::from_utf8(bytes).expect("JSON writer emits UTF-8"))
}

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    let mut b = ValueBuilder::default();
    value.serialize(&mut b);
    Ok(b.done.unwrap_or(Value::Null))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut b = ValueBuilder::default();
    value.serialize(&mut b);
    let mut out = String::new();
    write_pretty(&b.done.unwrap_or(Value::Null), 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |out: &mut String, n: usize| out.extend(std::iter::repeat_n("  ", n));
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                write_pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                pad(out, indent + 1);
                out.push_str(&to_string(k).expect("strings serialize"));
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push('}');
        }
        scalar_or_empty => out.push_str(&to_string(scalar_or_empty).expect("values serialize")),
    }
}

pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    de::from_slice(bytes)
}

pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T> {
    de::from_slice(text.as_bytes())
}

pub fn from_value<T: de::DeserializeOwned>(value: Value) -> Result<T> {
    de::from_slice(&to_vec(&value)?)
}

/// Build a [`Value`] from JSON-like syntax. Keys are string literals (or
/// parenthesised expressions); values are literals, nested `{}` / `[]`, or
/// any expression whose type is `Serialize`.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => { $crate::json_internal!($($json)+) };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ---- arrays: munch elements into [$($elems,)*] ----
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ---- objects: munch `key: value` pairs into $object ----
    (@object $object:ident () () ()) => {};
    // Insert the finished entry, then continue after the comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Insert the last entry.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Munch one token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // ---- entry points ----
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::to_value(&$other).expect("json! value serializes") };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let name = "ep";
        let n = 3u32;
        let v = json!({
            "name": name,
            "n": n,
            "nested": {"ok": true, "none": null, "list": [1, "two", [3.5], {"k": n + 1}]},
            "empty": {},
            "trailing": [1, 2,],
        });
        assert_eq!(v["name"], "ep");
        assert_eq!(v["n"], 3);
        assert_eq!(v["nested"]["ok"], true);
        assert!(v["nested"]["none"].is_null());
        assert_eq!(v["nested"]["list"][1], "two");
        assert_eq!(v["nested"]["list"][2][0], 3.5);
        assert_eq!(v["nested"]["list"][3]["k"], 4);
        assert_eq!(v["trailing"].as_array().map(Vec::len), Some(2));
        assert!(v["missing"]["deeper"].is_null());
    }

    #[test]
    fn text_round_trips_through_value() {
        let text = r#"{"a":[1,-2,3.5,"x\n\u00e9\ud83d\ude00"],"b":{"c":null,"d":false}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][3], "x\né😀");
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
        let pretty: Value = from_str(&to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "[1 2]", "{\"a\"}", "\"\\ud800\"", "nul", "1 2", "[,1]"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(10_000);
        assert!(from_str::<Value>(&deep).is_err());
    }
}
