//! # scuba-ledger — the performance ledger of the SCUBA reproduction
//!
//! One benchmark, five named workloads, Δ-cycle latency/throughput metrics
//! and an outside-in per-layer trace. Every layer is measured from
//! outside: by timing calls into its public functions and by reading the
//! `EvaluationReport.phases` rows those calls already return. See
//! `README.md` for the metric glossary and how to run, trace and diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diff;
pub mod harness;
pub mod host;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
