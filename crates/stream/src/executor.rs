//! The clocked executor: source → operator → reports.
//!
//! Mirrors the paper's execution state diagram (Fig. 6): between
//! evaluations the engine is in *cluster pre-join maintenance* (or, for the
//! baseline, index ingestion), consuming the tick's location updates; when
//! the interval Δ expires it triggers the operator's joining phase; the
//! resulting answers and costs are collected per interval.

use std::time::Duration;

use scuba_motion::{ControlOp, LocationUpdate};
use scuba_spatial::{Time, TimeDelta};

use crate::metrics::AggregateStats;
use crate::operator::{ContinuousOperator, EvaluationReport, PhaseBreakdown};

/// Anything that yields one tick's worth of location updates.
///
/// Implemented for closures so a `WorkloadGenerator` plugs in as
/// `|| generator.tick()`, and by [`crate::TraceReader`] for replay.
pub trait UpdateSource {
    /// Produces the updates of the next time unit.
    fn next_tick(&mut self) -> Vec<LocationUpdate>;

    /// Produces the query-lifecycle control ops of the next time unit.
    ///
    /// Called once per tick, **before** [`next_tick`](Self::next_tick);
    /// the executor delivers the returned ops to the operator before the
    /// tick's data batch. The default is an empty control plane, so
    /// fixed-population sources need no changes.
    fn next_controls(&mut self) -> Vec<ControlOp> {
        Vec::new()
    }

    /// Why the source could not deliver the tick just pulled, if it could
    /// not: a torn or foreign trace, say. Asked right after each
    /// [`next_tick`](Self::next_tick); once it is `Some`, that tick and
    /// every later one are not the source's real stream, so the loop ends
    /// the run (through [`RunReport::aborted`]) instead of consuming them.
    /// The default is a source that never fails.
    fn fault(&self) -> Option<String> {
        None
    }
}

impl<F> UpdateSource for F
where
    F: FnMut() -> Vec<LocationUpdate>,
{
    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        self()
    }
}

/// Executor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// The evaluation interval Δ in time units (paper default: 2).
    pub delta: TimeDelta,
    /// Total simulated time units to run.
    pub duration: Time,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            delta: 2,
            duration: 10,
        }
    }
}

/// Outcome of a run: one report per evaluation interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Name of the operator that ran.
    pub operator: String,
    /// Reports in evaluation order.
    pub evaluations: Vec<EvaluationReport>,
    /// Total location updates ingested.
    pub updates_ingested: usize,
    /// Wall-clock time spent feeding updates into the operator (the
    /// pre-join maintenance cost, separate from the join itself).
    pub ingest_time: Duration,
    /// Why the run stopped early, if the operator reported a fatal
    /// condition ([`ContinuousOperator::fault`]); `None` for a completed
    /// run.
    pub aborted: Option<String>,
    /// How many times a supervisor restored the operator from durable
    /// state after a worker failure. Always `0` for plain
    /// [`Executor::run`] runs; populated by supervised execution loops.
    pub restarts: u64,
    /// Total control operations applied ahead of data batches.
    pub controls_applied: usize,
}

impl RunReport {
    /// Aggregate statistics across all evaluations.
    pub fn aggregate(&self) -> AggregateStats {
        AggregateStats::from_reports(&self.evaluations)
    }

    /// Total result tuples over the run.
    pub fn total_results(&self) -> usize {
        self.evaluations.iter().map(|e| e.results.len()).sum()
    }

    /// Total join wall-clock time over the run.
    pub fn total_join_time(&self) -> Duration {
        self.evaluations.iter().map(|e| e.join_time()).sum()
    }

    /// Per-stage totals over the run: every evaluation's breakdown merged
    /// by stage name, preserving pipeline order.
    pub fn stage_totals(&self) -> PhaseBreakdown {
        let mut totals = PhaseBreakdown::new();
        for e in &self.evaluations {
            totals.absorb(&e.phases);
        }
        totals
    }
}

/// Drives an operator with a clocked update source.
#[derive(Debug)]
pub struct Executor {
    config: ExecutorConfig,
}

impl Executor {
    /// Creates an executor. Δ is clamped to at least 1 time unit.
    pub fn new(config: ExecutorConfig) -> Self {
        Executor {
            config: ExecutorConfig {
                delta: config.delta.max(1),
                duration: config.duration,
            },
        }
    }

    /// The effective configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// Runs `operator` against `source` for the configured duration,
    /// evaluating every Δ ticks.
    pub fn run<S, O>(&self, source: &mut S, operator: &mut O) -> RunReport
    where
        S: UpdateSource + ?Sized,
        O: ContinuousOperator + ?Sized,
    {
        let mut report = RunReport {
            operator: operator.name().to_string(),
            ..Default::default()
        };
        let mut since_eval: TimeDelta = 0;
        for now in 1..=self.config.duration {
            let controls = source.next_controls();
            let updates = source.next_tick();
            if let Some(reason) = source.fault() {
                report.aborted = Some(reason);
                break;
            }
            let sw = crate::metrics::Stopwatch::start();
            if !controls.is_empty() {
                operator.apply_control(&controls, now);
                report.controls_applied += controls.len();
            }
            operator.process_batch(&updates);
            report.ingest_time += sw.elapsed();
            report.updates_ingested += updates.len();
            if let Some(reason) = operator.fault() {
                report.aborted = Some(reason);
                break;
            }

            since_eval += 1;
            if since_eval == self.config.delta {
                since_eval = 0;
                report.evaluations.push(operator.evaluate(now));
                if let Some(reason) = operator.fault() {
                    report.aborted = Some(reason);
                    break;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::QueryMatch;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryId};
    use scuba_spatial::Point;

    /// Counts updates and emits one dummy result per evaluation.
    struct CountingOperator {
        ingested: usize,
        evaluations: Vec<Time>,
    }

    impl ContinuousOperator for CountingOperator {
        fn process_update(&mut self, _update: &LocationUpdate) {
            self.ingested += 1;
        }

        fn evaluate(&mut self, now: Time) -> EvaluationReport {
            self.evaluations.push(now);
            EvaluationReport {
                now,
                results: vec![QueryMatch::new(QueryId(0), ObjectId(self.ingested as u64))],
                memory_bytes: self.ingested * 8,
                ..Default::default()
            }
        }

        fn name(&self) -> &str {
            "counting"
        }
    }

    fn one_update() -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(1),
            Point::ORIGIN,
            0,
            1.0,
            Point::new(1.0, 0.0),
            ObjectAttrs::default(),
        )
    }

    #[test]
    fn evaluates_every_delta() {
        let mut op = CountingOperator {
            ingested: 0,
            evaluations: vec![],
        };
        let mut source = || vec![one_update(), one_update()];
        let exec = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 10,
        });
        let report = exec.run(&mut source, &mut op);
        assert_eq!(op.evaluations, vec![2, 4, 6, 8, 10]);
        assert_eq!(report.evaluations.len(), 5);
        assert_eq!(report.updates_ingested, 20);
        assert_eq!(op.ingested, 20);
        assert_eq!(report.operator, "counting");
    }

    #[test]
    fn delta_one_evaluates_every_tick() {
        let mut op = CountingOperator {
            ingested: 0,
            evaluations: vec![],
        };
        let mut source = Vec::new; // no updates
        let exec = Executor::new(ExecutorConfig {
            delta: 1,
            duration: 3,
        });
        let report = exec.run(&mut source, &mut op);
        assert_eq!(report.evaluations.len(), 3);
        assert_eq!(report.updates_ingested, 0);
    }

    #[test]
    fn zero_delta_clamped() {
        let exec = Executor::new(ExecutorConfig {
            delta: 0,
            duration: 1,
        });
        assert_eq!(exec.config().delta, 1);
    }

    #[test]
    fn incomplete_final_interval_is_not_evaluated() {
        let mut op = CountingOperator {
            ingested: 0,
            evaluations: vec![],
        };
        let mut source = Vec::new;
        let exec = Executor::new(ExecutorConfig {
            delta: 4,
            duration: 10,
        });
        let report = exec.run(&mut source, &mut op);
        // Evaluations at t=4 and t=8; the partial tail (9, 10) is dropped.
        assert_eq!(op.evaluations, vec![4, 8]);
        assert_eq!(report.evaluations.len(), 2);
    }

    #[test]
    fn stage_totals_merge_across_evaluations() {
        use crate::operator::StageStats;
        let mut e1 = EvaluationReport::default();
        e1.phases.push(
            StageStats::join("probe")
                .with_wall(Duration::from_millis(2))
                .with_tests(3),
        );
        let mut e2 = EvaluationReport::default();
        e2.phases.push(
            StageStats::join("probe")
                .with_wall(Duration::from_millis(5))
                .with_tests(4),
        );
        let report = RunReport {
            evaluations: vec![e1, e2],
            ..Default::default()
        };
        let totals = report.stage_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals.get("probe").unwrap().tests, 7);
        assert_eq!(
            totals.get("probe").unwrap().wall_time,
            Duration::from_millis(7)
        );
        assert_eq!(report.total_join_time(), Duration::from_millis(7));
    }

    /// Faults after the third update, like an `Abort`-policy validator.
    struct FaultingOperator {
        ingested: usize,
    }

    impl ContinuousOperator for FaultingOperator {
        fn process_update(&mut self, _update: &LocationUpdate) {
            self.ingested += 1;
        }

        fn evaluate(&mut self, now: Time) -> EvaluationReport {
            EvaluationReport {
                now,
                ..Default::default()
            }
        }

        fn name(&self) -> &str {
            "faulting"
        }

        fn fault(&self) -> Option<String> {
            (self.ingested >= 3).then(|| "bad input".to_string())
        }
    }

    #[test]
    fn operator_fault_aborts_the_run() {
        let mut op = FaultingOperator { ingested: 0 };
        let mut source = || vec![one_update()];
        let exec = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 10,
        });
        let report = exec.run(&mut source, &mut op);
        assert_eq!(report.aborted.as_deref(), Some("bad input"));
        assert_eq!(report.updates_ingested, 3, "stops at the faulting tick");
        assert_eq!(
            report.evaluations.len(),
            1,
            "the t=2 evaluation ran before the fault at t=3"
        );
    }

    #[test]
    fn completed_run_is_not_aborted() {
        let mut op = CountingOperator {
            ingested: 0,
            evaluations: vec![],
        };
        let mut source = || vec![one_update()];
        let exec = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 4,
        });
        assert_eq!(exec.run(&mut source, &mut op).aborted, None);
    }

    /// Yields updates plus one deregister control per tick; records the
    /// order controls and data arrive in.
    struct ChurningSource {
        tick: u64,
    }

    impl UpdateSource for ChurningSource {
        fn next_tick(&mut self) -> Vec<LocationUpdate> {
            vec![one_update()]
        }

        fn next_controls(&mut self) -> Vec<ControlOp> {
            self.tick += 1;
            vec![ControlOp::Deregister(QueryId(self.tick))]
        }
    }

    /// Records the interleaving of control and data deliveries.
    #[derive(Default)]
    struct OrderRecordingOperator {
        events: Vec<&'static str>,
    }

    impl ContinuousOperator for OrderRecordingOperator {
        fn process_update(&mut self, _update: &LocationUpdate) {
            self.events.push("data");
        }

        fn apply_control(&mut self, ops: &[ControlOp], _now: Time) {
            for _ in ops {
                self.events.push("control");
            }
        }

        fn evaluate(&mut self, now: Time) -> EvaluationReport {
            EvaluationReport {
                now,
                ..Default::default()
            }
        }

        fn name(&self) -> &str {
            "order-recording"
        }
    }

    #[test]
    fn controls_are_applied_before_each_ticks_batch() {
        let mut op = OrderRecordingOperator::default();
        let mut source = ChurningSource { tick: 0 };
        let exec = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 4,
        });
        let report = exec.run(&mut source, &mut op);
        assert_eq!(report.controls_applied, 4);
        assert_eq!(
            op.events,
            vec!["control", "data", "control", "data", "control", "data", "control", "data"]
        );
    }

    #[test]
    fn run_report_accessors() {
        let mut op = CountingOperator {
            ingested: 0,
            evaluations: vec![],
        };
        let mut source = || vec![one_update()];
        let exec = Executor::new(ExecutorConfig {
            delta: 1,
            duration: 4,
        });
        let report = exec.run(&mut source, &mut op);
        assert_eq!(report.total_results(), 4);
        let agg = report.aggregate();
        assert_eq!(agg.evaluations, 4);
        assert!(agg.peak_memory_bytes >= agg.mean_memory_bytes);
    }
}
