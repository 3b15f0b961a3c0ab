//! Road-network substrate for the SCUBA reproduction.
//!
//! The paper's motion model (§2) constrains moving objects to a road
//! network: "their movements are constrained by roads, which are connected
//! by network nodes, also known as *connection nodes*". Every location
//! update carries `o.cnloc` — the connection node the object is currently
//! heading to — and SCUBA's clustering uses a shared `cnloc` as its
//! direction criterion.
//!
//! The original evaluation used the road map of Worcester, MA fed to
//! Brinkhoff's network-based generator. That map is not redistributable, so
//! this crate provides:
//!
//! * [`RoadNetwork`] — the graph itself: connection nodes with positions,
//!   bidirectional road segments with a [`RoadClass`] (highway / arterial /
//!   local, each with its own speed limit), adjacency lists, and nearest-node
//!   lookup;
//! * [`route`] — Dijkstra routing by travel time or distance, the primitive
//!   the generator uses to produce piecewise-linear trajectories;
//! * [`synth`] — a deterministic synthetic-city builder (Manhattan-style
//!   block grid with periodic highways and optional diagonal shortcuts)
//!   that preserves the structural properties SCUBA's experiments depend
//!   on: heterogeneous road speeds, connection nodes spaced far apart on
//!   highways and close together downtown (paper §3.1's discussion of
//!   cluster longevity vs. road class);
//! * [`io`] — a plain-text edge-list export of a network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod io;
pub mod network;
pub mod route;
pub mod stats;
pub mod synth;

pub use network::{EdgeId, NetworkError, NodeId, RoadClass, RoadNetwork, RoadSegment};
pub use route::{Route, RouteMetric, Router};
pub use stats::NetworkStats;
pub use synth::{CityConfig, SyntheticCity};
