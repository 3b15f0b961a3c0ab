//! Spatial primitives and indexing substrate for the SCUBA reproduction.
//!
//! This crate provides the geometric foundation every other crate builds on:
//!
//! * [`Point`] / [`Vector`] — 2-D cartesian coordinates in *spatial units*
//!   (the unit system of the paper; the synthetic city spans roughly
//!   10 000 × 10 000 spatial units, and the distance threshold Θ_D defaults
//!   to 100 spatial units).
//! * [`Polar`] — polar coordinates relative to a pole, used by SCUBA to
//!   store cluster-member positions relative to the cluster centroid
//!   (paper §3.1).
//! * [`Rect`] / [`Circle`] — the region shapes used by range queries and
//!   moving clusters, with the intersection predicates the join phases need.
//! * [`SpatialGrid`] — the N×N uniform grid index used both by SCUBA's
//!   `ClusterGrid` and by the regular grid-based baseline operator.
//! * [`RTree`] — a static STR-packed R-tree used by the Query-Indexing
//!   baseline (related work \[29\]).
//! * [`fxhash`] — a local FxHash-style hasher for the hot integer-keyed
//!   tables (ClusterHome, ObjectsTable, …), avoiding SipHash overhead
//!   without adding a dependency.
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
pub mod point;
pub mod polar;
pub mod rect;
pub mod rtree;
pub mod units;

pub use circle::Circle;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use grid::{CellIdx, GridSpec, SpatialGrid};
pub use point::{Point, Vector};
pub use polar::Polar;
pub use rect::Rect;
pub use rtree::RTree;
pub use units::{Distance, Speed, Time, TimeDelta};
