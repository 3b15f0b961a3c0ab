//! Spatial primitives and indexing substrate for the SCUBA reproduction.
//!
//! This crate provides the geometric foundation every other crate builds on:
//!
//! * [`Point`] / [`Vector`] — 2-D cartesian coordinates in *spatial units*
//!   (the unit system of the paper; the synthetic city spans roughly
//!   10 000 × 10 000 spatial units, and the distance threshold Θ_D defaults
//!   to 100 spatial units).
//! * [`Rect`] / [`Circle`] — the region shapes used by range queries and
//!   moving clusters, with the intersection predicates the join phases need.
//! * [`GridSpec`] / [`SpatialGrid`] — the N×N uniform partitioning that
//!   SCUBA's `ClusterGrid` and the regular grid-based baseline operator
//!   share, and the per-cell index the baseline stores its entities in.
//! * [`fxhash`] — a local FxHash-style hasher for the hot integer-keyed
//!   tables (the entity rows, the query registry, …), avoiding SipHash overhead
//!   without adding a dependency.
//! * [`json`] — the one JSON value, emitter and parser of the workspace
//!   (config files and `--json` reports), local for the same reason.
//! * [`rng`] — the seeded generators behind the synthetic city, the
//!   workload and the fault schedules, local for the same reason: a seed
//!   must name the same stream in every build.
//!
//! Everything here is deterministic and allocation-conscious: the grid index
//! exposes cell-range iteration without materialising intermediate vectors,
//! and all predicates are branch-light `f64` arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod circle;
pub mod fxhash;
pub mod grid;
pub mod json;
pub mod point;
pub mod rect;
pub mod rng;
pub mod units;

pub use circle::Circle;
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use grid::{CellIdx, GridSpec, SpatialGrid};
pub use point::{Point, Vector};
pub use rect::Rect;
pub use units::{Distance, Speed, Time, TimeDelta};
