//! Operator-construction factory.
//!
//! Every harness that pits SCUBA against its baseline (the CLI `compare`
//! command, the bench figure runners, ad-hoc experiments) needs SCUBA and
//! its §6 baseline built over the same parameters. Hand-rolling the
//! constructor calls at every site invites drift — the baseline silently
//! missing from one harness, or built with a different grid granularity.
//! [`OpsConfig::build`] is the single place an [`OperatorKind`] turns into
//! a boxed [`ContinuousOperator`].

use scuba_spatial::Rect;
use scuba_stream::ContinuousOperator;

use crate::baseline::RegularGridOperator;
use crate::engine::ScubaOperator;
use crate::params::ScubaParams;

/// Every operator the suite can build, in canonical reporting order
/// (SCUBA first, then the paper's §6 baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// The cluster-based operator under study ([`ScubaOperator`]).
    Scuba,
    /// The §6 comparison baseline ([`RegularGridOperator`]).
    Regular,
}

impl OperatorKind {
    /// All kinds in canonical reporting order.
    pub const ALL: [OperatorKind; 2] = [OperatorKind::Scuba, OperatorKind::Regular];

    /// Stable human-readable label (matches the operator's `name()` except
    /// where the name is parameter-dependent, as for SCUBA under
    /// shedding).
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Scuba => "SCUBA",
            OperatorKind::Regular => "REGULAR",
        }
    }
}

/// Everything needed to build any operator in the suite.
#[derive(Debug, Clone, Copy)]
pub struct OpsConfig {
    /// SCUBA parameters; the baseline reuses `params.grid_cells`.
    pub params: ScubaParams,
    /// The monitored area all grid-based operators partition.
    pub area: Rect,
}

impl OpsConfig {
    /// Config over `params` and `area`.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        OpsConfig { params, area }
    }

    /// Builds one operator.
    pub fn build(&self, kind: OperatorKind) -> Box<dyn ContinuousOperator> {
        match kind {
            OperatorKind::Scuba => Box::new(ScubaOperator::new(self.params, self.area)),
            OperatorKind::Regular => {
                Box::new(RegularGridOperator::new(self.params.grid_cells, self.area))
            }
        }
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
    fn builds_every_kind() {
        for kind in OperatorKind::ALL {
            assert!(
                !config().build(kind).name().is_empty(),
                "{kind:?} has a name"
            );
        }
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
