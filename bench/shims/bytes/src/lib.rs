//! Offline stand-in for `bytes`: an immutable, cheaply cloned byte buffer.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Reference-counted immutable bytes; `clone` copies a pointer, not the data.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes(Arc::from(bytes))
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.0.escape_ascii())
    }
}
