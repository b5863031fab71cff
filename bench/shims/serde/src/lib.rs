//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so the benchmark workspace
//! patches `serde`, `serde_json` and the other registry crates with small
//! local implementations. This one keeps the names the product code uses
//! (`Serialize`, `Deserialize<'de>`, `de::DeserializeOwned`, the derives and
//! the `#[serde(...)]` attributes found in `crates/`), but the data model is
//! JSON only: a value serializes into a [`ser::Sink`] of JSON events and
//! deserializes from a streaming [`de::Parser`] over JSON text.
//!
//! The wire shapes follow serde's defaults — externally tagged enums,
//! newtype structs as their inner value, `Option` as `null`, maps as
//! objects, byte vectors as number arrays — so frames and REST bodies look
//! exactly as they would with the real crates.

pub mod de;
pub mod ser;

mod impls;

pub use de::Deserialize;
pub use ser::Serialize;
pub use serde_derive::{Deserialize, Serialize};
