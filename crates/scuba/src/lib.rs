//! # SCUBA — Scalable Cluster-Based Algorithm for continuous spatio-temporal queries
//!
//! A from-scratch Rust reproduction of
//! *"SCUBA: Scalable Cluster-Based Algorithm for Evaluating Continuous
//! Spatio-Temporal Queries on Moving Objects"* (Nehme & Rundensteiner,
//! EDBT 2006).
//!
//! SCUBA evaluates very large sets of continuous range queries over
//! streams of moving-object location updates by grouping *both* objects and
//! queries into **moving clusters** — groups sharing direction (the same
//! next connection node), speed (within Θ_S), and position (within Θ_D of
//! the cluster centroid). Query evaluation then proceeds in two steps every
//! Δ time units:
//!
//! 1. **join-between** — a cheap circle/circle overlap pre-filter between
//!    cluster regions that prunes true negatives wholesale;
//! 2. **join-within** — the exact object×query spatial join, run only for
//!    cluster pairs that survived the pre-filter (and for mixed single
//!    clusters).
//!
//! Because clusters summarise their members, they double as a
//! **load-shedding** mechanism: members near the centroid can have their
//! individual positions discarded and be approximated by a nested *nucleus*
//! region, trading bounded accuracy for time and memory.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`params`] | §3.1, §6.1 | Θ_D, Θ_S, Δ, grid granularity, shedding policy |
//! | [`cluster`] | §3.1 | [`MovingCluster`]: centroid, radius, polar members, velocity, expiry |
//! | [`grid`] | §4.1 | `ClusterGrid`: the N×N index of cluster regions |
//! | [`index`] | §4.1 | [`SpatialIndex`] trait + adaptive split/merge grid |
//! | [`store`] | §4.1 | [`ClusterStore`]: generational slab + SoA hot columns + epoch clock |
//! | [`tables`] | §4.1 | ObjectsTable, QueriesTable, ClusterHome |
//! | [`clustering`] | §3.2 | the five-step incremental (Leader–Follower) clusterer |
//! | [`join`] | §4, Algs 1–3 | join-between + join-within |
//! | [`kernel`] | §4.2 | scalar and tiled lane-parallel join-between pre-filter kernels |
//! | [`engine`] | §4.2 | the three-phase [`ScubaOperator`] |
//! | [`baseline`] | §6 | the regular grid-based operator SCUBA is compared to (plus the §6-literal point-hashed variant) |
//! | [`qindex`] | §7 | the Query-Indexing baseline over an R-tree (related work \[29\]) |
//! | [`registry`] | §8 | [`QueryRegistry`]: the durable active query set, fed by the `ControlOp` stream |
//! | [`shard`] | §8 | [`ShardedScubaOperator`]: stripe-owned stores with boundary-ghost handoff |
//! | [`sina`] | §7 | the SINA-style incrementally-maintained grid baseline (related work \[24\]) |
//! | [`vci`] | §7 | the Velocity-Constrained Indexing baseline (related work \[29\]) |
//! | [`snapshot`] | — | JSON-safe engine checkpoint/restore (restart without re-learning clusters) |
//! | [`shedding`] | §5 | nucleus-based load-shedding policy |
//! | [`overload`] | §5 | deadline-driven controller escalating/relaxing the shedding mode |
//! | [`accuracy`] | §6.6 | false-positive/negative accounting vs. unshed truth |
//! | [`delta`] | §8 | incremental result output (added/removed per interval) |
//! | [`kmeans`] | §6.4 | non-incremental K-means clustering extension |
//! | [`knn`] | §1 | cluster-assisted k-nearest-neighbour extension |
//! | [`aggregate`] | §1 | cluster-as-summary aggregate queries extension |
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use scuba::{ScubaOperator, ScubaParams};
//! use scuba_generator::{WorkloadConfig, WorkloadGenerator};
//! use scuba_roadnet::{CityConfig, SyntheticCity};
//! use scuba_stream::{ContinuousOperator, Executor, ExecutorConfig};
//!
//! // A small synthetic city and a workload of objects + range queries.
//! let city = SyntheticCity::build(CityConfig::small());
//! let area = city.network.extent().unwrap();
//! let mut gen = WorkloadGenerator::new(
//!     Arc::new(city.network),
//!     WorkloadConfig::small(),
//! );
//!
//! // SCUBA with the paper's default thresholds, evaluated every 2 ticks.
//! let mut scuba = ScubaOperator::new(ScubaParams::default(), area);
//! let executor = Executor::new(ExecutorConfig { delta: 2, duration: 10 });
//! let report = executor.run(&mut || gen.tick(), &mut scuba);
//! println!(
//!     "{} evaluations, {} result tuples",
//!     report.evaluations.len(),
//!     report.total_results(),
//! );
//! ```

// `deny`, not `forbid`: the store's debug_assert-guarded unchecked column
// getters and their kernel call sites carry narrow `#[allow(unsafe_code)]`
// grants; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod aggregate;
pub mod baseline;
pub mod cluster;
pub mod clustering;
pub mod delta;
pub mod durability;
pub mod engine;
pub mod grid;
pub mod index;
pub mod join;
pub mod kernel;
pub mod kmeans;
pub mod knn;
pub mod ops;
pub mod overload;
pub mod params;
pub mod qindex;
pub(crate) mod radix;
pub mod registry;
pub mod shard;
pub mod shedding;
pub mod sina;
pub mod snapshot;
pub mod store;
pub mod tables;
pub mod vci;

pub use accuracy::AccuracyReport;
pub use baseline::{PointHashedGridOperator, RegularGridOperator};
pub use cluster::{ClusterId, Member, MovingCluster};
pub use delta::{DeltaTracker, ResultDelta};
pub use durability::{
    recover, resume, run_supervised, CheckpointState, DurabilityError, DurabilityStats,
    DurableOperator, HealthSnapshot, JournalFrame, JournalSegment, JournalWriter, NoObserver,
    Recovery, Resumed, SuperviseConfig, SuperviseObserver, SupervisedOutcome, TickFailure,
};
pub use engine::ScubaOperator;
pub use index::{AdaptiveGrid, AnyIndex, DiscoveryScratch, IndexKind, SpatialIndex};
pub use join::{JoinCache, JoinContext, JoinScratch};
pub use kernel::KernelKind;
pub use ops::{OperatorKind, OpsConfig};
pub use overload::{OverloadConfig, OverloadController, OverloadCounters, OverloadDecision};
pub use params::{ParamsError, ProbeScope, ScubaParams};
pub use qindex::QueryIndexOperator;
pub use registry::{ControlGauges, QueryRecord, QueryRegistry};
pub use shard::{ShardedScubaOperator, WorkerFailure};
pub use shedding::{AdaptiveShedder, SheddingMode};
pub use sina::IncrementalGridOperator;
pub use snapshot::{EngineSnapshot, SnapshotError};
pub use store::{ClusterSlot, ClusterStore, EpochTracker, StoreColumns};
pub use vci::{VciConfig, VciOperator};

// Ingestion-hardening policy lives in the stream substrate but is part of
// this crate's parameter surface ([`ScubaParams::validation`]).
pub use scuba_stream::ValidationPolicy;
