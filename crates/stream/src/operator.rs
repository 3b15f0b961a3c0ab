//! The continuous-operator abstraction.

use std::time::Duration;

use scuba_motion::{ControlOp, LocationUpdate, ObjectId, QueryId};
use scuba_spatial::Time;

/// One query answer: object `object` currently satisfies query `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryMatch {
    /// The continuous query.
    pub query: QueryId,
    /// The object inside the query's region.
    pub object: ObjectId,
}

impl QueryMatch {
    /// Creates a match.
    pub fn new(query: QueryId, object: ObjectId) -> Self {
        QueryMatch { query, object }
    }
}

/// Which legacy cost bucket a pipeline stage belongs to.
///
/// The paper reports two coarse quantities per evaluation: "join time"
/// (Figs. 9a, 10, 11, 12, 13a) and "maintenance time" (Fig. 12). Every
/// stage of the evaluation pipeline is tagged with the bucket its wall
/// time rolls up into, so the figure harnesses keep their semantics while
/// per-stage observability is available underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Counted toward the paper's "join time".
    Join,
    /// Counted toward structure-maintenance time (cluster maintenance for
    /// SCUBA, index rebuild for the baseline).
    Maintenance,
}

impl PhaseKind {
    /// Lower-case label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Join => "join",
            PhaseKind::Maintenance => "maintenance",
        }
    }
}

/// Cost accounting for one named stage of an evaluation pipeline.
///
/// `items_in`/`items_out` describe the stage's data flow (what the stage
/// consumed and what survived it); `tests` counts the machine-independent
/// unit of work the stage performs (pair candidates, overlap tests,
/// object×query comparisons — whatever the stage's kernel is).
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stable stage name, e.g. `"join-between"`.
    pub name: String,
    /// Which legacy bucket the wall time rolls up into.
    pub kind: PhaseKind,
    /// Wall-clock time spent in the stage.
    pub wall_time: Duration,
    /// Items entering the stage.
    pub items_in: u64,
    /// Items surviving the stage.
    pub items_out: u64,
    /// Unit-work count (stage-specific: candidates, tests, comparisons).
    pub tests: u64,
    /// Always 0: no stage caches results. Kept, with `cache_misses`,
    /// because readers of the join-within row still derive a cache hit
    /// ratio from the two.
    pub cache_hits: u64,
    /// Always 0; see `cache_hits`.
    pub cache_misses: u64,
}

impl StageStats {
    /// Creates a zeroed stage record.
    pub fn new(name: impl Into<String>, kind: PhaseKind) -> Self {
        StageStats {
            name: name.into(),
            kind,
            wall_time: Duration::ZERO,
            items_in: 0,
            items_out: 0,
            tests: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Creates a zeroed join-bucket stage.
    pub fn join(name: impl Into<String>) -> Self {
        StageStats::new(name, PhaseKind::Join)
    }

    /// Creates a zeroed maintenance-bucket stage.
    pub fn maintenance(name: impl Into<String>) -> Self {
        StageStats::new(name, PhaseKind::Maintenance)
    }

    /// Sets the wall-clock time.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall_time = wall;
        self
    }

    /// Sets the in/out item counts.
    pub fn with_items(mut self, items_in: u64, items_out: u64) -> Self {
        self.items_in = items_in;
        self.items_out = items_out;
        self
    }

    /// Sets the unit-work count.
    pub fn with_tests(mut self, tests: u64) -> Self {
        self.tests = tests;
        self
    }

    /// Folds another record for the same stage into this one.
    fn absorb(&mut self, other: &StageStats) {
        self.wall_time += other.wall_time;
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.tests += other.tests;
    }
}

/// Flat, serialisable view of one stage for tables and JSON emitters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Stage name.
    pub stage: String,
    /// `"join"` or `"maintenance"`.
    pub kind: String,
    /// Wall-clock microseconds.
    pub wall_us: u128,
    /// Items entering the stage.
    pub items_in: u64,
    /// Items surviving the stage.
    pub items_out: u64,
    /// Unit-work count.
    pub tests: u64,
}

/// The ordered, named stages of one evaluation (or of many, summed).
///
/// Operators push stages in pipeline order; the legacy two-bucket view is
/// derived, never stored, so the breakdown and the figures can't drift
/// apart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    stages: Vec<StageStats>,
}

impl PhaseBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (stages render in insertion order).
    pub fn push(&mut self, stage: StageStats) {
        self.stages.push(stage);
    }

    /// Appends many stages.
    pub fn extend(&mut self, stages: impl IntoIterator<Item = StageStats>) {
        self.stages.extend(stages);
    }

    /// The stages, in pipeline order.
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// Looks up a stage by name.
    pub fn get(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether no stage was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Sum of wall time over stages in the given bucket.
    fn time_in(&self, kind: PhaseKind) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.wall_time)
            .sum()
    }

    /// The paper's "join time": wall time summed over join-bucket stages.
    pub fn join_time(&self) -> Duration {
        self.time_in(PhaseKind::Join)
    }

    /// Maintenance time: wall time summed over maintenance-bucket stages.
    pub fn maintenance_time(&self) -> Duration {
        self.time_in(PhaseKind::Maintenance)
    }

    /// Total wall time over all stages.
    pub fn total_time(&self) -> Duration {
        self.stages.iter().map(|s| s.wall_time).sum()
    }

    /// Merges another breakdown into this one, matching stages by
    /// `(name, kind)` and summing their fields; stages unseen so far are
    /// appended in the other breakdown's order. Summing the breakdowns of
    /// many evaluations this way yields per-run stage totals.
    pub fn absorb(&mut self, other: &PhaseBreakdown) {
        for stage in &other.stages {
            match self
                .stages
                .iter_mut()
                .find(|s| s.name == stage.name && s.kind == stage.kind)
            {
                Some(existing) => existing.absorb(stage),
                None => self.stages.push(stage.clone()),
            }
        }
    }

    /// Flat rows for the generic table/JSON emitters.
    pub fn rows(&self) -> Vec<StageRow> {
        self.stages
            .iter()
            .map(|s| StageRow {
                stage: s.name.clone(),
                kind: s.kind.label().to_string(),
                wall_us: s.wall_time.as_micros(),
                items_in: s.items_in,
                items_out: s.items_out,
                tests: s.tests,
            })
            .collect()
    }
}

/// What one periodic evaluation produced and cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvaluationReport {
    /// Logical time of the evaluation.
    pub now: Time,
    /// The query answers for this interval.
    pub results: Vec<QueryMatch>,
    /// Per-stage cost breakdown of the evaluation pipeline. The legacy
    /// join/maintenance split is derived from it via
    /// [`EvaluationReport::join_time`] and
    /// [`EvaluationReport::maintenance_time`].
    pub phases: PhaseBreakdown,
    /// Estimated bytes of in-memory state held by the operator (Fig. 9b).
    pub memory_bytes: usize,
    /// Number of object/query pair comparisons performed during the join —
    /// the machine-independent work measure behind the wall-clock shapes.
    pub comparisons: u64,
    /// Number of coarse pre-filter tests performed (cluster/cluster
    /// overlap checks for SCUBA; zero for the baseline).
    pub prefilter_tests: u64,
}

impl EvaluationReport {
    /// Wall-clock time of the join phase (the paper's "join time": the
    /// quantity plotted in Figs. 9a, 10, 11, 12, 13a). Derived: the sum of
    /// join-bucket stage timings.
    pub fn join_time(&self) -> Duration {
        self.phases.join_time()
    }

    /// Wall-clock time of pre/post-join structure maintenance (the paper's
    /// "cluster maintenance" in Fig. 12; index rebuild for the baseline).
    /// Derived: the sum of maintenance-bucket stage timings.
    pub fn maintenance_time(&self) -> Duration {
        self.phases.maintenance_time()
    }

    /// Join + maintenance wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.phases.total_time()
    }
}

/// A continuously running query-evaluation operator.
///
/// The life-cycle mirrors Algorithm 1: the engine feeds every incoming
/// location update to [`ContinuousOperator::process_update`] (cluster
/// pre-join maintenance for SCUBA, index ingestion for the baseline); every
/// Δ time units it calls [`ContinuousOperator::evaluate`], which runs the
/// join phases and post-join maintenance and reports results plus costs.
pub trait ContinuousOperator {
    /// Ingests one location update.
    fn process_update(&mut self, update: &LocationUpdate);

    /// Ingests every update of one tick at once.
    ///
    /// The default implementation simply loops over
    /// [`process_update`](Self::process_update), so operators with no batch
    /// path behave exactly as before. Operators that can exploit a whole
    /// tick's worth of updates (e.g. screen the batch first, or route it to
    /// stripes) override
    /// this; such overrides must leave the operator in the same state the
    /// per-update loop would have produced.
    fn process_batch(&mut self, updates: &[LocationUpdate]) {
        for update in updates {
            self.process_update(update);
        }
    }

    /// Applies a tick's query-lifecycle control operations.
    ///
    /// Contract: callers deliver the tick's controls **before** that
    /// tick's data batch (see [`scuba_motion::control`]), so a churned run
    /// is reproducible from the `(controls, updates)` streams alone. The
    /// default is a no-op: operators with a fixed query population ignore
    /// the control plane.
    fn apply_control(&mut self, ops: &[ControlOp], now: Time) {
        let _ = (ops, now);
    }

    /// Runs one periodic evaluation at logical time `now`.
    fn evaluate(&mut self, now: Time) -> EvaluationReport;

    /// Human-readable operator name for reports.
    fn name(&self) -> &str;

    /// Estimated bytes of in-memory state (outside of an evaluation).
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Live grouping units (clusters) the operator maintains, if it
    /// clusters at all. Harnesses report it as a diagnostic.
    fn clusters_live(&self) -> Option<usize> {
        None
    }

    /// A fatal condition the operator has entered, if any. The executor
    /// polls this after every ingest and evaluation; a `Some` stops the
    /// run and surfaces the reason in
    /// [`crate::executor::RunReport::aborted`]. Operators use it to refuse
    /// to continue past a broken input contract (e.g. validation policy
    /// `Abort`) instead of silently producing wrong answers.
    fn fault(&self) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_match_ordering_and_dedup() {
        let mut v = vec![
            QueryMatch::new(QueryId(2), ObjectId(1)),
            QueryMatch::new(QueryId(1), ObjectId(9)),
            QueryMatch::new(QueryId(1), ObjectId(9)),
            QueryMatch::new(QueryId(1), ObjectId(3)),
        ];
        v.sort();
        v.dedup();
        assert_eq!(
            v,
            vec![
                QueryMatch::new(QueryId(1), ObjectId(3)),
                QueryMatch::new(QueryId(1), ObjectId(9)),
                QueryMatch::new(QueryId(2), ObjectId(1)),
            ]
        );
    }

    #[test]
    fn report_total_time() {
        let mut phases = PhaseBreakdown::new();
        phases.push(StageStats::join("join").with_wall(Duration::from_millis(30)));
        phases.push(StageStats::maintenance("maintenance").with_wall(Duration::from_millis(12)));
        let r = EvaluationReport {
            phases,
            ..Default::default()
        };
        assert_eq!(r.join_time(), Duration::from_millis(30));
        assert_eq!(r.maintenance_time(), Duration::from_millis(12));
        assert_eq!(r.total_time(), Duration::from_millis(42));
    }

    #[test]
    fn default_report_is_empty() {
        let r = EvaluationReport::default();
        assert!(r.results.is_empty());
        assert!(r.phases.is_empty());
        assert_eq!(r.comparisons, 0);
        assert_eq!(r.total_time(), Duration::ZERO);
    }

    #[test]
    fn breakdown_sums_by_bucket() {
        let mut b = PhaseBreakdown::new();
        b.push(
            StageStats::maintenance("index-rebuild")
                .with_wall(Duration::from_millis(4))
                .with_items(10, 10),
        );
        b.push(
            StageStats::join("probe")
                .with_wall(Duration::from_millis(6))
                .with_items(10, 3)
                .with_tests(30),
        );
        b.push(StageStats::join("result-merge").with_wall(Duration::from_millis(1)));
        assert_eq!(b.join_time(), Duration::from_millis(7));
        assert_eq!(b.maintenance_time(), Duration::from_millis(4));
        assert_eq!(b.total_time(), Duration::from_millis(11));
        assert_eq!(b.get("probe").unwrap().tests, 30);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn breakdown_absorb_merges_by_name_and_kind() {
        let mut total = PhaseBreakdown::new();
        let mut a = PhaseBreakdown::new();
        a.push(
            StageStats::join("probe")
                .with_wall(Duration::from_millis(2))
                .with_items(5, 2)
                .with_tests(9),
        );
        let mut b = PhaseBreakdown::new();
        b.push(
            StageStats::join("probe")
                .with_wall(Duration::from_millis(3))
                .with_items(7, 4)
                .with_tests(11),
        );
        b.push(StageStats::maintenance("index-rebuild").with_wall(Duration::from_millis(1)));
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.len(), 2);
        let probe = total.get("probe").unwrap();
        assert_eq!(probe.wall_time, Duration::from_millis(5));
        assert_eq!(probe.items_in, 12);
        assert_eq!(probe.items_out, 6);
        assert_eq!(probe.tests, 20);
        assert_eq!(total.maintenance_time(), Duration::from_millis(1));
    }

    #[test]
    fn breakdown_rows_are_flat_and_ordered() {
        let mut b = PhaseBreakdown::new();
        b.push(StageStats::maintenance("index-rebuild").with_wall(Duration::from_micros(7)));
        b.push(
            StageStats::join("probe")
                .with_items(4, 2)
                .with_tests(8)
                .with_wall(Duration::from_micros(9)),
        );
        let rows = b.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "index-rebuild");
        assert_eq!(rows[0].kind, "maintenance");
        assert_eq!(rows[0].wall_us, 7);
        assert_eq!(rows[1].stage, "probe");
        assert_eq!(rows[1].kind, "join");
        assert_eq!(rows[1].wall_us, 9);
        assert_eq!(rows[1].items_in, 4);
        assert_eq!(rows[1].items_out, 2);
        assert_eq!(rows[1].tests, 8);
    }
}
