//! Deserialization: a value pulls itself out of a streaming JSON [`Parser`].

use std::borrow::Cow;
use std::fmt;

/// A value that can be read from JSON text.
pub trait Deserialize<'de>: Sized {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error>;
}

/// A value that can be read without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// What went wrong, and at which byte of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl Error {
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into(), offset: 0 }
    }

    pub fn missing_field(name: &str) -> Self {
        Error::custom(format!("missing field `{name}`"))
    }

    pub fn unknown_variant(found: &str, ty: &str) -> Self {
        Error::custom(format!("unknown variant `{found}` of `{ty}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// The kind of the next value in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    Str,
    Seq,
    Map,
}

/// Containers nested deeper than this are refused, so hostile input cannot
/// overflow the stack.
const MAX_DEPTH: u32 = 128;

/// Pull parser over one JSON document.
pub struct Parser<'de> {
    src: &'de [u8],
    pos: usize,
    /// No element has been read in the innermost open container yet.
    fresh: bool,
    depth: u32,
}

impl<'de> Parser<'de> {
    pub fn new(src: &'de [u8]) -> Self {
        Parser { src, pos: 0, fresh: true, depth: 0 }
    }

    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error { msg: msg.into(), offset: self.pos }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn next_byte(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.src.get(self.pos).copied().ok_or_else(|| self.error("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.next_byte()?;
        if got == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", b as char, got as char)))
        }
    }

    /// Nothing but whitespace may follow the document.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    pub fn peek(&mut self) -> Result<Kind, Error> {
        Ok(match self.next_byte()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Seq,
            b'{' => Kind::Map,
            b'-' | b'0'..=b'9' => Kind::Number,
            other => return Err(self.error(format!("unexpected `{}`", other as char))),
        })
    }

    fn literal(&mut self, word: &'static str) -> Result<(), Error> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    pub fn read_null(&mut self) -> Result<(), Error> {
        self.literal("null")
    }

    pub fn read_bool(&mut self) -> Result<bool, Error> {
        if self.next_byte()? == b't' {
            self.literal("true").map(|_| true)
        } else {
            self.literal("false").map(|_| false)
        }
    }

    /// The text of the next number token; `is_float` tells whether it has a
    /// fraction or an exponent.
    fn number_token(&mut self) -> Result<(&'de str, bool), Error> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        // Only ASCII was accepted above.
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii number");
        Ok((text, is_float))
    }

    /// An integer of any width the target type can hold.
    pub fn read_int<T: std::str::FromStr>(&mut self) -> Result<T, Error> {
        let (text, is_float) = self.number_token()?;
        if is_float {
            // `2.0` is accepted for an integer target only when it is whole.
            if let Ok(f) = text.parse::<f64>() {
                if f.fract() == 0.0 && f.abs() < 9.0e15 {
                    if let Ok(v) = format!("{}", f as i64).parse::<T>() {
                        return Ok(v);
                    }
                }
            }
            return Err(self.error(format!("expected an integer, found `{text}`")));
        }
        text.parse::<T>().map_err(|_| self.error(format!("integer `{text}` out of range")))
    }

    /// A `u8`, without going through `str::parse` — byte vectors travel as
    /// number arrays, so this is the hottest number path.
    pub fn read_u8(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        let mut v: u32 = 0;
        let start = self.pos;
        while let Some(&b) = self.src.get(self.pos) {
            if b.is_ascii_digit() && self.pos - start < 3 {
                v = v * 10 + u32::from(b - b'0');
                self.pos += 1;
            } else {
                break;
            }
        }
        let terminated =
            !matches!(self.src.get(self.pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+'));
        if self.pos > start && terminated && v <= 255 {
            Ok(v as u8)
        } else {
            self.pos = start;
            self.read_int::<u8>()
        }
    }

    pub fn read_f64(&mut self) -> Result<f64, Error> {
        let (text, _) = self.number_token()?;
        text.parse::<f64>().map_err(|_| self.error(format!("invalid number `{text}`")))
    }

    /// The next number as the narrowest of u64 / i64 / f64 that holds it.
    pub fn read_number(&mut self) -> Result<Number, Error> {
        let (text, is_float) = self.number_token()?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::U(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Number::I(v));
            }
        }
        text.parse::<f64>()
            .map(Number::F)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }

    /// The next string, borrowed from the input when it has no escapes.
    pub fn read_str(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let raw = &self.src[start..self.pos];
                    self.pos += 1;
                    return std::str::from_utf8(raw)
                        .map(Cow::Borrowed)
                        .map_err(|_| self.error("invalid UTF-8 in string"));
                }
                Some(b'\\') => break,
                Some(b) if *b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        // Slow path: the string has at least one escape.
        let mut out = Vec::from(&self.src[start..self.pos]);
        loop {
            let b = *self.src.get(self.pos).ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => self.read_escape(&mut out)?,
                0..=0x1f => return Err(self.error("control character in string")),
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map(Cow::Owned).map_err(|_| self.error("invalid UTF-8 in string"))
    }

    fn read_escape(&mut self, out: &mut Vec<u8>) -> Result<(), Error> {
        let b = *self.src.get(self.pos).ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        let ch = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.read_hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must be followed by `\uXXXX` low.
                    if self.src.get(self.pos) != Some(&b'\\')
                        || self.src.get(self.pos + 1) != Some(&b'u')
                    {
                        return Err(self.error("lone surrogate in string"));
                    }
                    self.pos += 2;
                    let lo = self.read_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid surrogate pair"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        };
        let mut buf = [0u8; 4];
        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
        Ok(())
    }

    fn read_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("short unicode escape"))?;
        let v =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn enter(&mut self, open: u8) -> Result<(), Error> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.fresh = true;
        Ok(())
    }

    /// Step to the next element of the open container; `false` once the
    /// closing bracket has been consumed.
    fn advance(&mut self, close: u8) -> Result<bool, Error> {
        if self.next_byte()? == close {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if self.fresh {
            self.fresh = false;
        } else {
            self.expect(b',')?;
        }
        Ok(true)
    }

    pub fn begin_seq(&mut self) -> Result<(), Error> {
        self.enter(b'[')
    }

    /// `true` when another element follows; `false` after consuming `]`.
    pub fn seq_next(&mut self) -> Result<bool, Error> {
        self.advance(b']')
    }

    /// Require one more element (tuples and tuple variants).
    pub fn seq_elem(&mut self) -> Result<(), Error> {
        if self.seq_next()? {
            Ok(())
        } else {
            Err(self.error("sequence too short"))
        }
    }

    /// Require the closing bracket (tuples and tuple variants).
    pub fn seq_end(&mut self) -> Result<(), Error> {
        if self.seq_next()? {
            Err(self.error("sequence too long"))
        } else {
            Ok(())
        }
    }

    pub fn begin_map(&mut self) -> Result<(), Error> {
        self.enter(b'{')
    }

    /// The next key, or `None` after consuming `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.read_str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Require the closing brace (externally tagged enums hold one entry).
    pub fn map_end(&mut self) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error("expected a single-entry map")),
        }
    }

    /// Skip one value of any shape (unknown struct fields).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Null => self.read_null(),
            Kind::Bool => self.read_bool().map(|_| ()),
            Kind::Number => self.number_token().map(|_| ()),
            Kind::Str => self.read_str().map(|_| ()),
            Kind::Seq => {
                self.begin_seq()?;
                while self.seq_next()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Map => {
                self.begin_map()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }
}

/// A JSON number as read, before it is narrowed to a Rust type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

/// Parse one whole document.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T, Error> {
    let mut p = Parser::new(bytes);
    let v = T::deserialize(&mut p)?;
    p.end()?;
    Ok(v)
}

/// Read a map key of any key type: strings as themselves, integer keys
/// from their decimal text.
pub fn deserialize_key<K: for<'k> Deserialize<'k>>(key: &str) -> Result<K, Error> {
    let mut quoted = Vec::with_capacity(key.len() + 2);
    crate::ser::write_json_str(&mut quoted, key);
    from_slice::<K>(&quoted).or_else(|e| from_slice::<K>(key.as_bytes()).map_err(|_| e))
}
