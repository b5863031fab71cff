//! `Serialize` / `Deserialize` for the std types the product serializes.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

use crate::de::{deserialize_key, Deserialize, DeserializeOwned, Error, Kind, Parser};
use crate::ser::{serialize_key, Serialize, Sink};

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.u64(*self as u64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            #[inline]
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                p.read_int::<$t>()
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.i64(*self as i64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            #[inline]
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                p.read_int::<$t>()
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);
signed!(i8, i16, i32, i64, isize);

impl Serialize for u8 {
    #[inline]
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.u64(u64::from(*self));
    }
}

impl<'de> Deserialize<'de> for u8 {
    #[inline]
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_u8()
    }
}

impl Serialize for u128 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.u128(*self);
    }
}

impl<'de> Deserialize<'de> for u128 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_int::<u128>()
    }
}

impl Serialize for f64 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self);
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_f64()
    }
}

impl Serialize for bool {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_bool()
    }
}

impl Serialize for str {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Serialize for String {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_str().map(Cow::into_owned)
    }
}

/// A `&'static str` field (an event-kind tag, say) can only be filled from
/// transient input by keeping the text alive for the rest of the process.
impl<'de> Deserialize<'de> for &'static str {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.read_str().map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        T::deserialize(p).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Some(v) => v.serialize(sink),
            None => sink.null(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        if p.peek()? == Kind::Null {
            p.read_null().map(|_| None)
        } else {
            T::deserialize(p).map(Some)
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a, S: Sink>(items: impl Iterator<Item = &'a T>, sink: &mut S) {
    sink.begin_seq();
    for item in items {
        item.serialize(sink);
    }
    sink.end_seq();
}

fn deserialize_seq<'de, T: Deserialize<'de>>(
    p: &mut Parser<'de>,
    mut push: impl FnMut(T),
) -> Result<(), Error> {
    p.begin_seq()?;
    while p.seq_next()? {
        push(T::deserialize(p)?);
    }
    Ok(())
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self.iter(), sink);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self.iter(), sink);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let mut out = Vec::new();
        deserialize_seq(p, |v| out.push(v))?;
        Ok(out)
    }
}

fn serialize_map<'a, K: Serialize + 'a, V: Serialize + 'a, S: Sink>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    sink: &mut S,
) {
    sink.begin_map();
    for (k, v) in entries {
        serialize_key(k, sink);
        v.serialize(sink);
    }
    sink.end_map();
}

fn deserialize_map<'de, K: DeserializeOwned, V: Deserialize<'de>>(
    p: &mut Parser<'de>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    p.begin_map()?;
    while let Some(key) = p.next_key()? {
        insert(deserialize_key::<K>(&key)?, V::deserialize(p)?);
    }
    Ok(())
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_map(self.iter(), sink);
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: DeserializeOwned + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let mut out = HashMap::default();
        deserialize_map(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        serialize_map(self.iter(), sink);
    }
}

macro_rules! tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.begin_seq();
                $(self.$idx.serialize(sink);)+
                sink.end_seq();
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                p.begin_seq()?;
                let out = ($({ p.seq_elem()?; $name::deserialize(p)? },)+);
                p.seq_end()?;
                Ok(out)
            }
        }
    };
}

tuple!(A.0, B.1);

/// serde's own shape for `Duration`: `{"secs": u64, "nanos": u32}`.
impl Serialize for Duration {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_map();
        sink.key("secs");
        sink.u64(self.as_secs());
        sink.key("nanos");
        sink.u64(u64::from(self.subsec_nanos()));
        sink.end_map();
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let (mut secs, mut nanos) = (None, None);
        p.begin_map()?;
        while let Some(key) = p.next_key()? {
            match &*key {
                "secs" => secs = Some(u64::deserialize(p)?),
                "nanos" => nanos = Some(u32::deserialize(p)?),
                _ => p.skip_value()?,
            }
        }
        match (secs, nanos) {
            (Some(s), Some(n)) => Duration::from_secs(s)
                .checked_add(Duration::from_nanos(u64::from(n)))
                .ok_or_else(|| p.error("duration overflows")),
            (None, _) => Err(Error::missing_field("secs")),
            (_, None) => Err(Error::missing_field("nanos")),
        }
    }
}
