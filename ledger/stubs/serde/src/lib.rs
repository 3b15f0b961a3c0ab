//! Stand-in for `serde`, for building the ledger with no registry access.
//!
//! The engine crates only *derive* `Serialize`/`Deserialize`; nothing on
//! the path the ledger drives serialises through serde (checkpoints and
//! the WAL use a hand-rolled binary codec). So the traits here are
//! method-less markers implemented for every type, and the derives expand
//! to nothing. The one consumer, the stand-in `serde_json`, returns an
//! error instead of encoding.

/// Marker for "could be serialised"; implemented for every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker for "could be deserialised"; implemented for every sized type.
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

/// Mirrors `serde::de` far enough for `DeserializeOwned` bounds.
pub mod de {
    /// Marker for types deserialisable from any lifetime.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
