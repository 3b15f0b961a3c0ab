//! Root test/example package for the SCUBA reproduction workspace.
//!
//! The library target is intentionally empty; the interesting code lives in
//! `crates/*`. This package exists so the workspace root can host
//! `examples/` and `tests/` that span every crate.
#![forbid(unsafe_code)]
