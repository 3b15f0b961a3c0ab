//! Operator-construction factory.
//!
//! Every harness that pits SCUBA against its baselines (the CLI `compare`
//! command, the bench figure runners, ad-hoc experiments) needs the same
//! six operators built over the same parameters. Hand-rolling the six
//! constructor calls at every site invites drift — a baseline silently
//! missing from one harness, or built with a different grid granularity.
//! [`OpsConfig::build`] is the single place an [`OperatorKind`] turns into
//! a boxed [`ContinuousOperator`].

use scuba_spatial::Rect;
use scuba_stream::ContinuousOperator;

use crate::baseline::{PointHashedGridOperator, RegularGridOperator};
use crate::engine::ScubaOperator;
use crate::params::ScubaParams;
use crate::qindex::QueryIndexOperator;
use crate::sina::IncrementalGridOperator;
use crate::vci::{VciConfig, VciOperator};

/// Every operator the suite can build, in canonical reporting order
/// (SCUBA first, then the baselines as they appear in the paper's §6/§7
/// comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// The cluster-based operator under study ([`ScubaOperator`]).
    Scuba,
    /// The §6 comparison baseline ([`RegularGridOperator`]).
    Regular,
    /// The §6-literal lossy point-hashed grid
    /// ([`PointHashedGridOperator`]).
    PointHashed,
    /// Query Indexing over an R-tree, related work \[29\]
    /// ([`QueryIndexOperator`]).
    QueryIndex,
    /// SINA-style incrementally-maintained grid, related work \[24\]
    /// ([`IncrementalGridOperator`]).
    IncrementalGrid,
    /// Velocity-Constrained Indexing, related work \[29\]
    /// ([`VciOperator`]).
    Vci,
}

impl OperatorKind {
    /// All kinds in canonical reporting order.
    pub const ALL: [OperatorKind; 6] = [
        OperatorKind::Scuba,
        OperatorKind::Regular,
        OperatorKind::PointHashed,
        OperatorKind::QueryIndex,
        OperatorKind::IncrementalGrid,
        OperatorKind::Vci,
    ];

    /// Stable human-readable label (matches the operator's `name()` except
    /// where the name is parameter-dependent, as for SCUBA under
    /// shedding).
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Scuba => "SCUBA",
            OperatorKind::Regular => "REGULAR",
            OperatorKind::PointHashed => "POINT-HASHED",
            OperatorKind::QueryIndex => "Q-INDEX",
            OperatorKind::IncrementalGrid => "SINA-GRID",
            OperatorKind::Vci => "VCI",
        }
    }
}

/// Everything needed to build any operator in the suite.
#[derive(Debug, Clone, Copy)]
pub struct OpsConfig {
    /// SCUBA parameters; the baselines reuse `params.grid_cells`.
    pub params: ScubaParams,
    /// The monitored area all grid-based operators partition.
    pub area: Rect,
    /// VCI speed/inflation bounds.
    pub vci: VciConfig,
}

impl OpsConfig {
    /// Config over `params` and `area` with default VCI bounds.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        OpsConfig {
            params,
            area,
            vci: VciConfig::default(),
        }
    }

    /// Builds one operator.
    pub fn build(&self, kind: OperatorKind) -> Box<dyn ContinuousOperator> {
        match kind {
            OperatorKind::Scuba => Box::new(ScubaOperator::new(self.params, self.area)),
            OperatorKind::Regular => {
                Box::new(RegularGridOperator::new(self.params.grid_cells, self.area))
            }
            OperatorKind::PointHashed => Box::new(PointHashedGridOperator::new(
                self.params.grid_cells,
                self.area,
            )),
            OperatorKind::QueryIndex => Box::new(QueryIndexOperator::new()),
            OperatorKind::IncrementalGrid => Box::new(IncrementalGridOperator::new(
                self.params.grid_cells,
                self.area,
            )),
            OperatorKind::Vci => Box::new(VciOperator::new(self.vci)),
        }
    }

    /// Builds the full suite in canonical order.
    pub fn build_all(&self) -> Vec<(OperatorKind, Box<dyn ContinuousOperator>)> {
        OperatorKind::ALL
            .iter()
            .map(|&kind| (kind, self.build(kind)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
    use scuba_spatial::Point;

    fn config() -> OpsConfig {
        OpsConfig::new(ScubaParams::default(), Rect::square(1000.0))
    }

    #[test]
    fn builds_all_six_kinds() {
        let suite = config().build_all();
        assert_eq!(suite.len(), OperatorKind::ALL.len());
        for (kind, op) in &suite {
            assert!(!op.name().is_empty(), "{kind:?} has a name");
        }
    }

    /// The factory passes `params.join_cache` through: a suite built with
    /// the cache disabled returns exactly the same results as the default
    /// suite (the cache is a work optimisation, never a semantic change).
    #[test]
    fn join_cache_toggle_is_result_invariant() {
        let cn = Point::new(1000.0, 500.0);
        let run = |join_cache: bool| -> Vec<Vec<scuba_stream::QueryMatch>> {
            let params = ScubaParams::default().with_join_cache(join_cache);
            let mut op = OpsConfig::new(params, Rect::square(1000.0)).build(OperatorKind::Scuba);
            let mut per_interval = Vec::new();
            for round in 0..4u64 {
                for i in 0..30u64 {
                    let x = ((i * 97 + round * 13) % 1000) as f64;
                    let y = ((i * 53 + round * 29) % 1000) as f64;
                    if i % 4 == 0 {
                        op.process_update(&LocationUpdate::query(
                            QueryId(i),
                            Point::new(x, y),
                            round * 2,
                            25.0,
                            cn,
                            QueryAttrs {
                                spec: QuerySpec::square_range(150.0),
                            },
                        ));
                    } else {
                        op.process_update(&LocationUpdate::object(
                            ObjectId(i),
                            Point::new(x, y),
                            round * 2,
                            25.0,
                            cn,
                            ObjectAttrs::default(),
                        ));
                    }
                }
                per_interval.push(op.evaluate((round + 1) * 2).results);
            }
            per_interval
        };
        assert_eq!(run(true), run(false));
    }

    /// Batch ingestion is a transport detail, never a semantic change:
    /// feeding each tick through `process_batch` gives every operator
    /// exactly the per-update-loop results.
    #[test]
    fn batch_ingest_is_result_invariant_for_every_operator() {
        let cn = Point::new(1000.0, 500.0);
        let tick = |round: u64| -> Vec<LocationUpdate> {
            let mut updates = Vec::new();
            for i in 0..40u64 {
                let x = ((i * 97 + round * 13) % 1000) as f64;
                let y = ((i * 53 + round * 29) % 1000) as f64;
                if i % 4 == 0 {
                    updates.push(LocationUpdate::query(
                        QueryId(i),
                        Point::new(x, y),
                        round * 2,
                        25.0,
                        cn,
                        QueryAttrs {
                            spec: QuerySpec::square_range(150.0),
                        },
                    ));
                } else {
                    updates.push(LocationUpdate::object(
                        ObjectId(i),
                        Point::new(x, y),
                        round * 2,
                        25.0,
                        cn,
                        ObjectAttrs::default(),
                    ));
                }
            }
            updates
        };
        let params = ScubaParams::default();
        for kind in OperatorKind::ALL {
            let mut looped = OpsConfig::new(params, Rect::square(1000.0)).build(kind);
            let mut batched = OpsConfig::new(params, Rect::square(1000.0)).build(kind);
            for round in 0..4u64 {
                let updates = tick(round);
                for u in &updates {
                    looped.process_update(u);
                }
                batched.process_batch(&updates);
                assert_eq!(
                    looped.evaluate((round + 1) * 2).results,
                    batched.evaluate((round + 1) * 2).results,
                    "{kind:?}: batch ingestion changed interval results"
                );
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = OperatorKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OperatorKind::ALL.len());
    }

    #[test]
    fn built_operators_evaluate() {
        let cn = Point::new(1000.0, 500.0);
        for kind in OperatorKind::ALL {
            let mut op = config().build(kind);
            op.process_update(&LocationUpdate::object(
                ObjectId(1),
                Point::new(500.0, 500.0),
                0,
                30.0,
                cn,
                ObjectAttrs::default(),
            ));
            op.process_update(&LocationUpdate::query(
                QueryId(1),
                Point::new(503.0, 500.0),
                0,
                30.0,
                cn,
                QueryAttrs {
                    spec: QuerySpec::square_range(20.0),
                },
            ));
            let report = op.evaluate(2);
            assert_eq!(report.results.len(), 1, "{kind:?} finds the match");
            assert!(
                !report.phases.is_empty(),
                "{kind:?} reports a stage breakdown"
            );
        }
    }
}
