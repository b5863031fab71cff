//! Serialization: a value pushes JSON events into a [`Sink`].

/// A value that can describe itself as a sequence of JSON events.
pub trait Serialize {
    fn serialize<S: Sink>(&self, sink: &mut S);
}

/// Receiver of JSON events. Containers are bracketed by `begin_*`/`end_*`;
/// inside a map every value is preceded by one `key`.
pub trait Sink {
    fn null(&mut self);
    fn bool(&mut self, v: bool);
    fn u64(&mut self, v: u64);
    fn i64(&mut self, v: i64);
    fn u128(&mut self, v: u128);
    fn i128(&mut self, v: i128);
    fn f64(&mut self, v: f64);
    fn str(&mut self, v: &str);
    fn begin_seq(&mut self);
    fn end_seq(&mut self);
    fn begin_map(&mut self);
    fn key(&mut self, k: &str);
    fn end_map(&mut self);
}

/// Compact JSON text writer.
pub struct JsonWriter {
    out: Vec<u8>,
    /// No element has been written in the innermost open container yet.
    fresh: bool,
    /// The previous event was a key, so the next value takes no comma.
    after_key: bool,
}

impl JsonWriter {
    pub fn with_capacity(n: usize) -> Self {
        JsonWriter { out: Vec::with_capacity(n), fresh: true, after_key: false }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    #[inline]
    fn value_prefix(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if !self.fresh {
            self.out.push(b',');
        }
        self.fresh = false;
    }

    fn write_display<T: std::fmt::Display>(&mut self, v: T) {
        use std::io::Write;
        self.value_prefix();
        let _ = write!(self.out, "{v}");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                out.extend_from_slice(&bytes[start..i]);
                out.extend_from_slice(b"\\u00");
                out.push(HEX[(b >> 4) as usize]);
                out.push(HEX[(b & 0xf) as usize]);
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(esc);
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

/// Decimal text of a small unsigned integer, without going through `fmt`.
#[inline]
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

impl Sink for JsonWriter {
    fn null(&mut self) {
        self.value_prefix();
        self.out.extend_from_slice(b"null");
    }
    fn bool(&mut self, v: bool) {
        self.value_prefix();
        self.out.extend_from_slice(if v { b"true" } else { b"false" });
    }
    fn u64(&mut self, v: u64) {
        self.value_prefix();
        push_u64(&mut self.out, v);
    }
    fn i64(&mut self, v: i64) {
        self.value_prefix();
        if v < 0 {
            self.out.push(b'-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
    }
    fn u128(&mut self, v: u128) {
        self.write_display(v);
    }
    fn i128(&mut self, v: i128) {
        self.write_display(v);
    }
    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // `{:?}` is the shortest text that round-trips and always marks
            // the number as a float (`1.0`, `1e21`).
            use std::io::Write;
            self.value_prefix();
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }
    fn str(&mut self, v: &str) {
        self.value_prefix();
        write_json_str(&mut self.out, v);
    }
    fn begin_seq(&mut self) {
        self.value_prefix();
        self.out.push(b'[');
        self.fresh = true;
    }
    fn end_seq(&mut self) {
        self.out.push(b']');
        self.fresh = false;
    }
    fn begin_map(&mut self) {
        self.value_prefix();
        self.out.push(b'{');
        self.fresh = true;
    }
    fn key(&mut self, k: &str) {
        if !self.fresh {
            self.out.push(b',');
        }
        self.fresh = false;
        write_json_str(&mut self.out, k);
        self.out.push(b':');
        self.after_key = true;
    }
    fn end_map(&mut self) {
        self.out.push(b'}');
        self.fresh = false;
    }
}

/// Renders a map key. JSON object keys are strings, so integer keys are
/// written as their decimal text (as `serde_json` does); any other key
/// shape is a programming error in the serialized type.
#[derive(Default)]
pub struct KeySink {
    pub key: String,
}

impl KeySink {
    fn reject(&mut self, what: &str) {
        panic!("serde shim: map key must be a string or an integer, found {what}");
    }
}

impl Sink for KeySink {
    fn null(&mut self) {
        self.reject("null");
    }
    fn bool(&mut self, v: bool) {
        self.key = v.to_string();
    }
    fn u64(&mut self, v: u64) {
        self.key = v.to_string();
    }
    fn i64(&mut self, v: i64) {
        self.key = v.to_string();
    }
    fn u128(&mut self, v: u128) {
        self.key = v.to_string();
    }
    fn i128(&mut self, v: i128) {
        self.key = v.to_string();
    }
    fn f64(&mut self, _: f64) {
        self.reject("a float");
    }
    fn str(&mut self, v: &str) {
        self.key.push_str(v);
    }
    fn begin_seq(&mut self) {
        self.reject("a sequence");
    }
    fn end_seq(&mut self) {}
    fn begin_map(&mut self) {
        self.reject("a map");
    }
    fn key(&mut self, _: &str) {}
    fn end_map(&mut self) {}
}

/// Emit `k` as the key of the next map entry.
pub fn serialize_key<K: Serialize + ?Sized, S: Sink>(k: &K, sink: &mut S) {
    let mut ks = KeySink::default();
    k.serialize(&mut ks);
    sink.key(&ks.key);
}
