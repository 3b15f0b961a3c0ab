//! Stand-in for `serde_json`: every call reports that JSON is unavailable.
//!
//! The ledger writes its own JSON by hand and never drives the engine's
//! JSON snapshot path, so these functions exist only to let the engine
//! crates compile. They return an error rather than panic so a caller that
//! does reach them fails with a message that names the cause.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The only error the stand-in produces.
#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serde_json stand-in: {} is not available in the offline ledger build",
            self.0
        )
    }
}

impl std::error::Error for Error {}

/// Alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: the stand-in cannot encode.
pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string"))
}

/// Always fails: the stand-in cannot encode.
pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string_pretty"))
}

/// Always fails: the stand-in cannot decode.
pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error("from_str"))
}
