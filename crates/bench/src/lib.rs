//! Benchmark harness regenerating every figure of the SCUBA paper's
//! evaluation section (§6).
//!
//! One binary per figure (`fig9_grid_size`, `fig10_skew`,
//! `fig11_incremental`, `fig12_maintenance`, `fig13_load_shedding`, plus
//! `all_experiments`) and one Criterion bench per figure for
//! statistically-sound micro-measurements.
//!
//! The paper's absolute numbers (seconds on a 2006 Xeon running CAPE) are
//! not reproducible; the harness reports the same *series* so the shapes
//! can be compared: who wins, by what factor, and where the trends bend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod figures;
pub mod output;
pub mod runner;
pub mod table;

pub use config::ExperimentScale;
pub use output::{BenchOutput, HarnessArgs};
pub use runner::{run_operator, run_regular, run_scuba, OperatorRun};

/// The deduplicated packed pair-key stream ([`scuba::kernel::pack_pair`])
/// the join's discovery stage would produce over `op`'s clusters as they
/// are now. Harvested from a uniform grid built here out of the store: the
/// engine's own region index is current only as of the sync before its
/// last join, and post-join maintenance has moved and dissolved clusters
/// since.
pub fn candidate_keys(op: &scuba::ScubaOperator) -> Vec<u64> {
    let engine = op.engine();
    let mut grid = scuba::grid::ClusterGrid::new(*engine.grid().spec());
    for (slot, cluster) in engine.store().iter() {
        grid.insert(slot, &cluster.effective_region());
    }
    let mut keys: Vec<u64> = Vec::new();
    for (_, cell) in grid.iter_nonempty() {
        for (i, &a) in cell.iter().enumerate() {
            for &b in &cell[i..] {
                keys.push(scuba::kernel::pack_pair(a, b));
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}
