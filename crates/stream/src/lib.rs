//! Minimal stream-processing substrate — the CAPE substitute.
//!
//! **Substitution note (DESIGN.md §2):** the paper implements SCUBA inside
//! the CAPE stream-processing engine \[31\], which is not publicly available.
//! This crate provides the slice of a stream engine the algorithm actually
//! exercises:
//!
//! * a **logical clock** in time units driving periodic evaluation — the
//!   paper's Δ ("queries are evaluated periodically (every Δ time units)");
//! * the [`ContinuousOperator`] trait with the two phases of Algorithm 1:
//!   continuous [`ContinuousOperator::process_update`] between evaluations
//!   and a periodic [`ContinuousOperator::evaluate`] producing results and
//!   metrics;
//! * an [`Executor`] wiring an update source to an operator and collecting
//!   per-interval [`EvaluationReport`]s;
//! * [`metrics`] aggregating join time, maintenance time, memory
//!   consumption and result cardinality over a run — the measured
//!   quantities of every experiment in §6;
//! * a [`validate`] front-end quarantining malformed updates before they
//!   can reach (and corrupt) operator state, under a configurable
//!   [`ValidationPolicy`];
//! * a seeded [`faults`] injector replaying deterministic transport faults
//!   (drop / duplicate / reorder / corrupt / stall) between source and
//!   operator for robustness tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod faults;
pub mod metrics;
pub mod operator;
pub mod trace;
pub mod validate;

pub use executor::{Executor, ExecutorConfig, RunReport, UpdateSource};
pub use faults::{FaultInjector, FaultPlan, FaultStats, PanicInjector, PanicPlan};
pub use metrics::{LatencyTrack, Stopwatch};
pub use operator::{
    ContinuousOperator, EvaluationReport, PhaseBreakdown, PhaseKind, QueryMatch, StageRow,
    StageStats,
};
pub use trace::{TraceReader, TraceWriter};
pub use validate::{
    DeadLetter, RejectReason, UpdateValidator, ValidationPolicy, ValidationStats, Verdict,
};
