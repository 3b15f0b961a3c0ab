//! The SCUBA operator: three-phase execution (paper §4.2, Fig. 6).
//!
//! * **cluster pre-join maintenance** — runs continuously between
//!   evaluations: every incoming location update is clustered incrementally
//!   ([`ContinuousOperator::process_update`] →
//!   [`crate::clustering::ClusterEngine::process_update`]);
//! * **cluster-based joining** — when Δ expires, join-between + join-within
//!   over the ClusterGrid ([`crate::join::JoinContext`]);
//! * **cluster post-join maintenance** — dissolve expired clusters and
//!   relocate survivors along their velocity vectors for the next interval.

use std::collections::VecDeque;
use std::time::Duration;

use scuba_motion::{ControlOp, EntityRef, LocationUpdate, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect, Time};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, PhaseBreakdown, RejectReason, StageStats, Stopwatch,
    UpdateValidator, ValidationPolicy, ValidationStats, Verdict,
};

use crate::clustering::{ClusterEngine, ClusteringStats};
use crate::join::{JoinCache, JoinContext, JoinScratch};
use crate::overload::{OverloadConfig, OverloadController, OverloadCounters};
use crate::params::ScubaParams;
use crate::registry::{ControlGauges, QueryRegistry};
use crate::shedding::AdaptiveShedder;

/// Stage name: pre-join radius tightening (maintenance bucket).
pub const STAGE_PRE_JOIN_TIGHTEN: &str = "pre-join-tighten";
/// Stage name: continuous kNN evaluation alongside the range join.
pub const STAGE_KNN: &str = "knn";
/// Stage name: post-join cluster maintenance (dissolve + relocate).
pub const STAGE_POST_JOIN: &str = "post-join-maintenance";
/// Stage name: ingestion validation front-end (maintenance bucket).
/// `items_in` = updates inspected since the previous evaluation,
/// `items_out` = updates accepted (clamped repairs included), `tests` =
/// updates rejected into the dead-letter buffer.
pub const STAGE_VALIDATE: &str = "validate";
/// Stage name: overload-control decision (maintenance bucket). `items_in`
/// = the observed tick cost in µs, `items_out` = the deadline budget in
/// µs, `tests` = 1 on a deadline miss, 0 on a clean tick.
pub const STAGE_OVERLOAD: &str = "overload-control";
/// Stage name: region-index upkeep (maintenance bucket). Runs once per Δ
/// between radius tightening and the joining phase: first the once-per-Δ
/// [`ClusterEngine::sync_index`] — every region that changed since the
/// previous evaluation is re-registered here, not during ingest — then the
/// adaptive grid's incremental re-balance (a no-op for the uniform grid),
/// whose split/merge decisions thus see the exact post-tighten regions.
pub const STAGE_GRID_REBALANCE: &str = "grid-rebalance";

/// The operator name for a parameter set; shared by both constructors so
/// shedding naming cannot drift between them.
fn operator_name(params: &ScubaParams) -> String {
    let mut name = if params.shedding.is_active() {
        format!("SCUBA(shedding={:?})", params.shedding)
    } else {
        "SCUBA".to_string()
    };
    if params.validation != ValidationPolicy::Off {
        name.push_str(&format!("(validate={})", params.validation.label()));
    }
    if let Some(us) = params.deadline_us {
        name.push_str(&format!("(deadline={us}us)"));
    }
    name
}

/// The SCUBA continuous-query operator.
#[derive(Debug)]
pub struct ScubaOperator {
    engine: ClusterEngine,
    name: String,
    evaluations: u64,
    /// Optional memory-budget controller (§5's escalation behaviour).
    adaptive: Option<AdaptiveShedder>,
    /// Cross-epoch pair-result cache (active when `params.join_cache`).
    /// Always starts empty, including after a snapshot restore — the
    /// restored engine's epoch clock has no history to validate against.
    cache: JoinCache,
    /// Reusable joining-phase buffers; steady-state epochs allocate
    /// nothing.
    scratch: JoinScratch,
    /// Hardened ingestion front-end, active when
    /// [`ScubaParams::validation`] is not [`ValidationPolicy::Off`].
    validator: Option<UpdateValidator>,
    /// Validation counters at the previous evaluation, for per-interval
    /// deltas in the stage breakdown.
    vstats_mark: ValidationStats,
    /// Deadline-driven shedding controller, active when
    /// [`ScubaParams::deadline_us`] is set.
    overload: Option<OverloadController>,
    /// Ingest wall-time accumulated since the last evaluation; the
    /// overload controller charges it against the deadline alongside the
    /// evaluation itself. Only measured while a controller is attached.
    tick_ingest: Duration,
    /// Scripted per-evaluation tick costs (tests): each evaluation pops
    /// one entry in preference to the wall clock, making controller
    /// behaviour deterministic regardless of host speed.
    scripted_costs: VecDeque<Duration>,
    /// Fatal validation failure under [`ValidationPolicy::Abort`];
    /// reported through [`ContinuousOperator::fault`] and freezes all
    /// further ingestion.
    fatal: Option<String>,
    /// Reusable buffer of validated updates for batch ingestion.
    accepted_scratch: Vec<LocationUpdate>,
    /// The active query set: explicit control-plane lifecycle plus
    /// implicit registration by data-plane query updates. Carried in
    /// durable checkpoints (see [`crate::durability`]).
    registry: QueryRegistry,
}

impl ScubaOperator {
    /// Creates the operator over the given coverage area.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        Self::from_engine(ClusterEngine::new(params, area))
    }

    /// Wraps an existing (e.g. snapshot-restored) clustering engine in an
    /// operator.
    pub fn from_engine(engine: ClusterEngine) -> Self {
        let params = *engine.params();
        let name = operator_name(&params);
        let validator = (params.validation != ValidationPolicy::Off)
            .then(|| UpdateValidator::new(params.validation, engine.area()));
        let overload = params.deadline_us.map(|us| {
            OverloadController::new(OverloadConfig::with_deadline(Duration::from_micros(us)))
        });
        // Seed the registry from the engine's query table so a
        // snapshot-restored operator reports a truthful `active_queries`
        // gauge even without a checkpointed registry (the durable restore
        // path overwrites this with the exact checkpoint copy).
        let mut registry = QueryRegistry::new();
        let mut known: Vec<(QueryId, QuerySpec)> =
            engine.queries().iter().map(|(id, a)| (id, a.spec)).collect();
        known.sort_by_key(|(id, _)| *id);
        for (id, spec) in known {
            registry.observe(id, 0, spec, None);
        }
        ScubaOperator {
            engine,
            name,
            evaluations: 0,
            adaptive: None,
            cache: JoinCache::new(),
            scratch: JoinScratch::new(),
            validator,
            vstats_mark: ValidationStats::default(),
            overload,
            tick_ingest: Duration::ZERO,
            scripted_costs: VecDeque::new(),
            fatal: None,
            accepted_scratch: Vec::new(),
            registry,
        }
    }

    /// Attaches a memory-budget controller: after each evaluation the
    /// operator compares its estimated footprint against `budget_bytes`
    /// and escalates (or relaxes) the shedding mode accordingly,
    /// immediately discarding nucleus positions on escalation.
    pub fn with_memory_budget(mut self, budget_bytes: usize) -> Self {
        self.adaptive = Some(AdaptiveShedder::new(budget_bytes));
        self.name = format!("{}(budget={budget_bytes}B)", self.name);
        self
    }

    /// Attaches (or replaces) a deadline-driven overload controller with a
    /// custom config — [`ScubaParams::deadline_us`] covers the common case.
    pub fn with_overload(mut self, config: OverloadConfig) -> Self {
        if self.engine.params().deadline_us.is_none() {
            self.name = format!("{}(deadline={}us)", self.name, config.deadline.as_micros());
        }
        self.overload = Some(OverloadController::new(config));
        self
    }

    /// Scripts the overload controller's observed per-evaluation costs
    /// (tests, benchmarks): each evaluation pops one entry instead of
    /// reading the wall clock, so escalation behaviour is a pure function
    /// of the script. Once the script runs dry, measurement resumes.
    pub fn with_scripted_tick_costs(mut self, costs: Vec<Duration>) -> Self {
        self.scripted_costs = costs.into();
        self
    }

    /// The currently active shedding mode (reflects adaptive escalation).
    pub fn current_shedding(&self) -> crate::shedding::SheddingMode {
        self.engine.params().shedding
    }

    /// Read access to the clustering state (used by the kNN / aggregate
    /// extensions and by diagnostics).
    pub fn engine(&self) -> &ClusterEngine {
        &self.engine
    }

    /// Bytes currently reserved by the reusable joining-phase buffers.
    /// Stable across steady-state ticks — tests use it as evidence that
    /// evaluation allocates nothing once the scratch has warmed up.
    pub fn join_scratch_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
    }

    /// Clustering activity counters.
    pub fn clustering_stats(&self) -> ClusteringStats {
        self.engine.stats()
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Read access to the cross-epoch join cache (diagnostics, tests).
    pub fn join_cache(&self) -> &JoinCache {
        &self.cache
    }

    /// The active query set and its churn counters.
    pub fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    /// Control-plane gauges (active/registered/deregistered/unknown).
    pub fn control_gauges(&self) -> ControlGauges {
        self.registry.gauges()
    }

    /// Replaces the registry wholesale — the durable restore path installs
    /// the exact checkpointed copy over the table-seeded default.
    pub fn set_registry(&mut self, registry: QueryRegistry) {
        self.registry = registry;
    }

    /// Deregisters one query: retires its cluster membership (dirtying
    /// exactly the cluster that held it, dissolving it if emptied),
    /// surgically purges its cached join rows, and drops its registry
    /// entry. Never flushes the cache globally. Returns whether any layer
    /// knew the query; unknown deregisters are counted and, when a
    /// validator is attached, quarantined as
    /// [`RejectReason::UnknownEntity`] dead letters.
    pub fn deregister_query(&mut self, qid: QueryId, now: Time) -> bool {
        let entity = EntityRef::Query(qid);
        let slot = self.engine.home().cluster_of(entity);
        let in_engine = self.engine.remove_entity(entity);
        let in_registry = self.registry.deregister(qid).is_some();
        if in_engine {
            if let Some(slot) = slot {
                self.cache.purge_slot(slot);
            }
        }
        let known = in_engine || in_registry;
        if !known {
            self.registry.note_unknown();
            if let Some(v) = &mut self.validator {
                // Synthesise a minimal record of the doomed op so the
                // dead-letter buffer can carry it like any other reject.
                let ghost = LocationUpdate::query(
                    qid,
                    Point::ORIGIN,
                    now,
                    0.0,
                    Point::ORIGIN,
                    QueryAttrs {
                        spec: QuerySpec::square_range(0.0),
                    },
                );
                v.quarantine_control(&ghost, RejectReason::UnknownEntity);
            }
        }
        known
    }

    /// Records data-plane query updates in the registry (implicit
    /// registration): a query that reports is active.
    fn observe_queries(&mut self, updates: &[LocationUpdate]) {
        for u in updates {
            if let (Some(qid), Some(spec)) = (u.entity.as_query(), u.query_spec()) {
                self.registry.observe(qid, u.time, spec, None);
            }
        }
    }

    /// The ingestion validator, when one is active
    /// ([`ScubaParams::validation`] ≠ `Off`); exposes dead letters and
    /// rejection counters.
    pub fn validator(&self) -> Option<&UpdateValidator> {
        self.validator.as_ref()
    }

    /// The deadline-driven overload controller, when one is attached.
    pub fn overload(&self) -> Option<&OverloadController> {
        self.overload.as_ref()
    }

    /// The overload controller's lifetime counters, when one is attached.
    pub fn overload_counters(&self) -> Option<OverloadCounters> {
        self.overload.as_ref().map(|c| c.counters())
    }

    /// Screens one update through the validator (when active). `None`
    /// means the update must not reach the engine; a fatal verdict also
    /// freezes the operator.
    fn screen(&mut self, update: &LocationUpdate) -> Option<LocationUpdate> {
        match &mut self.validator {
            None => Some(*update),
            Some(v) => match v.check(update) {
                Verdict::Accept(clean) => Some(clean),
                Verdict::Reject(_) => None,
                Verdict::Fatal(reason) => {
                    self.fatal = Some(format!(
                        "validation abort: {reason} update from {:?} at t={}",
                        update.entity, update.time
                    ));
                    None
                }
            },
        }
    }

    /// Ingests already-validated updates in arrival order.
    fn ingest_accepted(&mut self, updates: &[LocationUpdate]) {
        self.observe_queries(updates);
        for update in updates {
            self.engine.process_update(update);
        }
    }
}

impl ContinuousOperator for ScubaOperator {
    fn process_update(&mut self, update: &LocationUpdate) {
        if self.fatal.is_some() {
            return;
        }
        let sw = self.overload.is_some().then(Stopwatch::start);
        if let Some(clean) = self.screen(update) {
            self.observe_queries(std::slice::from_ref(&clean));
            self.engine.process_update(&clean);
        }
        if let Some(sw) = sw {
            self.tick_ingest += sw.elapsed();
        }
    }

    fn process_batch(&mut self, updates: &[LocationUpdate]) {
        if self.fatal.is_some() {
            return;
        }
        let sw = self.overload.is_some().then(Stopwatch::start);
        if self.validator.is_some() {
            let mut accepted = std::mem::take(&mut self.accepted_scratch);
            accepted.clear();
            for update in updates {
                if self.fatal.is_some() {
                    // Abort: nothing past the fatal update is ingested.
                    break;
                }
                if let Some(clean) = self.screen(update) {
                    accepted.push(clean);
                }
            }
            self.ingest_accepted(&accepted);
            self.accepted_scratch = accepted;
        } else {
            self.ingest_accepted(updates);
        }
        if let Some(sw) = sw {
            self.tick_ingest += sw.elapsed();
        }
    }

    fn apply_control(&mut self, ops: &[ControlOp], now: Time) {
        if self.fatal.is_some() {
            return;
        }
        for op in ops {
            match op {
                ControlOp::Register(u) | ControlOp::Update(u) => {
                    if u.entity.as_query().is_some() {
                        // The carried update flows through the normal
                        // screened ingest path: validation applies, the
                        // registry observes, the clusterer absorbs.
                        self.process_update(u);
                    } else {
                        // Malformed: a register/update carrying an object.
                        self.registry.note_unknown();
                        if let Some(v) = &mut self.validator {
                            v.quarantine_control(u, RejectReason::UnknownEntity);
                        }
                    }
                }
                ControlOp::Deregister(qid) => {
                    self.deregister_query(*qid, now);
                }
            }
        }
    }

    fn evaluate(&mut self, now: Time) -> EvaluationReport {
        self.evaluations += 1;
        let sw_tick = Stopwatch::start();
        // The validation front-end leads the report, mirroring its
        // position in the pipeline.
        let mut phases = PhaseBreakdown::new();
        if let Some(v) = &self.validator {
            let s = v.stats();
            let m = std::mem::replace(&mut self.vstats_mark, s);
            phases.push(
                StageStats::maintenance(STAGE_VALIDATE)
                    .with_items(s.seen - m.seen, s.accepted - m.accepted)
                    .with_tests(s.rejected_total() - m.rejected_total()),
            );
        }
        let clusters_before = self.engine.cluster_count() as u64;

        // Tail of phase 1: tighten cluster radii so the join-between filter
        // sees exact regions (counted as maintenance, not join).
        let sw = Stopwatch::start();
        if self.engine.params().tighten_radii {
            self.engine.pre_join_tighten();
        }
        phases.push(
            StageStats::maintenance(STAGE_PRE_JOIN_TIGHTEN)
                .with_wall(sw.elapsed())
                .with_items(clusters_before, clusters_before),
        );

        // Bring the region index up to date (nothing read it since the last
        // join), then re-balance it: split hot cells / merge cooled ones at
        // a fixed point of the pipeline (adaptive grid only; the uniform
        // grid no-ops). Only per-Δ, so no tick pays a full rebuild storm.
        let sw = Stopwatch::start();
        self.engine.sync_index();
        self.engine.rebalance_index();
        phases.push(
            StageStats::maintenance(STAGE_GRID_REBALANCE)
                .with_wall(sw.elapsed())
                .with_items(clusters_before, clusters_before),
        );

        // Phase 2: cluster-based joining (the staged pipeline), incremental
        // across epochs when the join cache is enabled.
        let ctx = JoinContext {
            store: self.engine.store(),
            grid: self.engine.grid(),
            queries: self.engine.queries(),
            shedding: self.engine.params().shedding,
            theta_d: self.engine.params().theta_d,
            member_filter: self.engine.params().member_filter,
            parallelism: self.engine.params().parallelism,
            kernel: self.engine.params().kernel,
        };
        let epochs = self
            .engine
            .params()
            .join_cache
            .then(|| self.engine.epochs());
        let mut join = ctx.run_cached(epochs, &mut self.cache, &mut self.scratch);
        phases.extend(std::mem::take(&mut join.stages));
        // Extension: answer registered kNN queries alongside the range
        // join (zero-cost when the workload has none).
        let sw = Stopwatch::start();
        let knn = crate::knn::evaluate_continuous(&self.engine);
        let knn_found = knn.len() as u64;
        if !knn.is_empty() {
            join.results.extend(knn);
            join.results.sort_unstable();
            join.results.dedup();
        }
        phases.push(
            StageStats::join(STAGE_KNN)
                .with_wall(sw.elapsed())
                .with_items(knn_found, knn_found),
        );

        // Phase 3: post-join maintenance.
        let sw = Stopwatch::start();
        self.engine.post_join_maintenance(now);
        // Reconcile engine-side evictions (TTL, dissolves that removed the
        // attrs entry) back into the registry: a query the engine no
        // longer knows is no longer active.
        {
            let engine = &self.engine;
            self.registry
                .retain(|qid, _| engine.queries().get(qid).is_some());
        }
        let mut memory_bytes = self.engine.estimated_bytes();
        if let Some(adaptive) = &mut self.adaptive {
            if let Some(mode) = adaptive.observe(memory_bytes) {
                self.engine.set_shedding(mode);
                // Escalation takes effect immediately: discard nucleus
                // positions now rather than waiting for fresh updates.
                if mode.is_active() {
                    self.engine.shed_now();
                    memory_bytes = self.engine.estimated_bytes();
                }
            }
        }
        phases.push(
            StageStats::maintenance(STAGE_POST_JOIN)
                .with_wall(sw.elapsed())
                .with_items(clusters_before, self.engine.cluster_count() as u64),
        );

        // Overload control: charge this evaluation plus the interval's
        // ingest time against the deadline and walk the shedding ladder.
        if let Some(ctrl) = &mut self.overload {
            let measured = sw_tick.elapsed() + self.tick_ingest;
            let cost = self.scripted_costs.pop_front().unwrap_or(measured);
            self.tick_ingest = Duration::ZERO;
            let decision = ctrl.observe(cost);
            if decision.changed() {
                self.engine.set_shedding(decision.mode_after);
                // Escalation takes effect immediately, like the memory
                // controller above.
                if decision.escalated() && decision.mode_after.is_active() {
                    self.engine.shed_now();
                    memory_bytes = self.engine.estimated_bytes();
                }
            }
            phases.push(
                StageStats::maintenance(STAGE_OVERLOAD)
                    .with_items(cost.as_micros() as u64, ctrl.deadline().as_micros() as u64)
                    .with_tests(decision.missed as u64),
            );
        }

        EvaluationReport {
            now,
            results: join.results,
            phases,
            memory_bytes,
            comparisons: join.comparisons,
            prefilter_tests: join.prefilter_tests,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn memory_bytes(&self) -> usize {
        self.engine.estimated_bytes()
    }

    fn clusters_live(&self) -> Option<usize> {
        Some(self.engine.cluster_count())
    }

    fn fault(&self) -> Option<String> {
        self.fatal.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
    use scuba_spatial::Point;
    use scuba_stream::{Executor, ExecutorConfig};

    const CN: Point = Point {
        x: 1000.0,
        y: 500.0,
    };

    fn obj(id: u64, x: f64, y: f64) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            30.0,
            CN,
            ObjectAttrs::default(),
        )
    }

    fn qry(id: u64, x: f64, y: f64, side: f64) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            30.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        )
    }

    #[test]
    fn end_to_end_single_evaluation() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 504.0, 500.0, 20.0));
        let report = op.evaluate(2);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.now, 2);
        assert!(report.memory_bytes > 0);
        assert!(report.comparisons >= 1);
        assert_eq!(op.evaluations(), 1);
    }

    #[test]
    fn report_carries_stage_breakdown() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 504.0, 500.0, 20.0));
        let report = op.evaluate(2);
        assert!(!report.phases.is_empty());
        assert!(report.phases.get(crate::join::STAGE_JOIN_WITHIN).is_some());
        assert!(report.phases.get(STAGE_PRE_JOIN_TIGHTEN).is_some());
        assert!(report.phases.get(STAGE_KNN).is_some());
        assert!(report.phases.get(STAGE_POST_JOIN).is_some());
        assert_eq!(
            report.total_time(),
            report.join_time() + report.maintenance_time()
        );
        assert_eq!(op.clusters_live(), Some(op.engine().cluster_count()));
    }

    #[test]
    fn works_under_executor() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        let mut t = 0u64;
        let mut source = move || {
            t += 1;
            vec![
                obj(1, 500.0 + t as f64 * 30.0, 500.0),
                qry(1, 503.0 + t as f64 * 30.0, 500.0, 20.0),
            ]
        };
        let exec = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 6,
        });
        let run = exec.run(&mut source, &mut op);
        assert_eq!(run.evaluations.len(), 3);
        assert_eq!(run.updates_ingested, 12);
        // The object stays within the query range the whole time.
        for e in &run.evaluations {
            assert_eq!(e.results.len(), 1, "at t={}", e.now);
        }
    }

    #[test]
    fn name_reflects_shedding() {
        let plain = ScubaOperator::new(ScubaParams::default(), Rect::square(10.0));
        assert_eq!(plain.name(), "SCUBA");
        let shed = ScubaOperator::new(
            ScubaParams::default().with_shedding(crate::SheddingMode::Full),
            Rect::square(10.0),
        );
        assert!(shed.name().contains("shedding"));
    }

    #[test]
    fn post_join_runs_each_evaluation() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_update(&obj(1, 500.0, 500.0));
        let centroid_before = op.engine().clusters().values().next().unwrap().centroid();
        op.evaluate(2);
        let centroid_after = op.engine().clusters().values().next().unwrap().centroid();
        assert!(centroid_after.x > centroid_before.x, "cluster relocated");
    }

    #[test]
    fn invariants_hold_across_noisy_run() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        for round in 0..6u64 {
            for i in 0..50u64 {
                let x = (i * 37 % 900) as f64 + 50.0 + round as f64;
                let y = (i * 61 % 900) as f64 + 50.0;
                if i % 2 == 0 {
                    op.process_update(&obj(i, x, y));
                } else {
                    op.process_update(&qry(i, x, y, 30.0));
                }
            }
            op.engine().check_invariants();
            op.evaluate(round * 2 + 2);
            op.engine().check_invariants();
        }
    }

    #[test]
    fn stationary_workload_hits_join_cache() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        // Stationary convoy (zero speed, distant destination): nothing
        // mutates between evaluations, so epoch 2 finds its pairs clean
        // since epoch 1 and admits them, and epoch 3 replays them.
        for i in 0..5u64 {
            op.process_update(&LocationUpdate::object(
                ObjectId(i),
                Point::new(500.0 + i as f64, 500.0),
                0,
                0.0,
                CN,
                ObjectAttrs::default(),
            ));
        }
        op.process_update(&LocationUpdate::query(
            QueryId(1),
            Point::new(502.0, 501.0),
            0,
            0.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(20.0),
            },
        ));
        let first = op.evaluate(2);
        assert!(op.join_cache().is_empty());
        op.evaluate(4);
        assert!(!op.join_cache().is_empty());
        let warm = op.evaluate(6);
        assert_eq!(first.results, warm.results);
        let within = warm.phases.get(crate::join::STAGE_JOIN_WITHIN).unwrap();
        assert!(within.cache_hits > 0, "clean pairs replay from the cache");
        assert_eq!(within.cache_misses, 0);
        assert_eq!(within.tests, 0, "no member work on a clean epoch");
    }

    #[test]
    fn cache_disabled_keeps_results_identical() {
        let run = |join_cache: bool| {
            let params = ScubaParams::default().with_join_cache(join_cache);
            let mut op = ScubaOperator::new(params, Rect::square(1000.0));
            let mut all = Vec::new();
            for round in 0..4u64 {
                for i in 0..30u64 {
                    let x = (i * 37 % 900) as f64 + 50.0 + round as f64;
                    let y = (i * 61 % 900) as f64 + 50.0;
                    if i % 2 == 0 {
                        op.process_update(&obj(i, x, y));
                    } else {
                        op.process_update(&qry(i, x, y, 30.0));
                    }
                }
                all.push(op.evaluate(round * 2 + 2).results);
            }
            all
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn adaptive_budget_escalates_shedding() {
        use crate::SheddingMode;
        // A budget far below what 200 tracked entities need.
        let mut op =
            ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0)).with_memory_budget(1);
        assert_eq!(op.current_shedding(), SheddingMode::None);
        for round in 0..5u64 {
            for i in 0..100u64 {
                op.process_update(&obj(i, 100.0 + (i % 50) as f64, 100.0 + round as f64));
                op.process_update(&qry(i, 600.0 + (i % 50) as f64, 600.0 + round as f64, 20.0));
            }
            op.evaluate((round + 1) * 2);
        }
        assert_eq!(
            op.current_shedding(),
            SheddingMode::Full,
            "unreachable budget should drive the ladder to Full"
        );
        assert!(op.name().contains("budget"));
        // Positions are actually gone.
        assert!(op
            .engine()
            .clusters()
            .values()
            .flat_map(|c| c.members())
            .all(|m| m.is_shed()));
    }

    #[test]
    fn validation_rejects_without_touching_engine_state() {
        use scuba_stream::RejectReason;
        let params = ScubaParams::default().with_validation(crate::ValidationPolicy::Reject);
        let mut op = ScubaOperator::new(params, Rect::square(1000.0));
        assert!(op.name().contains("validate=reject"));
        op.process_update(&obj(1, 500.0, 500.0));
        let clusters = op.engine().cluster_count();
        // NaN coordinate, out-of-region point, replayed key: all rejected.
        op.process_update(&obj(2, f64::NAN, 500.0));
        op.process_update(&obj(3, 5000.0, 500.0));
        op.process_update(&obj(1, 501.0, 500.0)); // duplicate (t=0, obj 1)
        assert_eq!(op.engine().cluster_count(), clusters);
        op.engine().check_invariants();
        let v = op.validator().expect("validator attached");
        assert_eq!(v.stats().rejected_total(), 3);
        assert_eq!(v.stats().rejected(RejectReason::DuplicateKey), 1);
        assert_eq!(v.dead_letter_len(), 3);
        // The stage breakdown carries the interval's validation counters.
        let report = op.evaluate(2);
        let row = report.phases.get(STAGE_VALIDATE).expect("validate row");
        assert_eq!(row.items_in, 4);
        assert_eq!(row.items_out, 1);
        assert_eq!(row.tests, 3);
        // Deltas reset per interval.
        let report = op.evaluate(4);
        let row = report.phases.get(STAGE_VALIDATE).unwrap();
        assert_eq!(row.items_in, 0);
    }

    #[test]
    fn batch_validation_filters_like_the_per_update_path() {
        // A malformed update inside `process_batch` must be filtered
        // exactly as under per-update `process_update`.
        let run = |batched: bool| {
            let params = ScubaParams::default().with_validation(crate::ValidationPolicy::Reject);
            let mut op = ScubaOperator::new(params, Rect::square(1000.0));
            let mut batch: Vec<LocationUpdate> = (0..40u64)
                .map(|i| {
                    let (x, y) = (50.0 + (i * 23 % 300) as f64, 50.0 + (i * 41 % 300) as f64);
                    if i % 4 == 0 {
                        qry(i, x, y, 120.0)
                    } else {
                        obj(i, x, y)
                    }
                })
                .collect();
            batch.insert(17, obj(100, f64::NAN, 2.0));
            batch.push(obj(101, -999.0, 2.0));
            if batched {
                op.process_batch(&batch);
            } else {
                for u in &batch {
                    op.process_update(u);
                }
            }
            op.engine().check_invariants();
            (
                op.evaluate(2).results,
                op.validator().unwrap().stats().rejected_total(),
            )
        };
        let batched = run(true);
        assert!(!batched.0.is_empty(), "the surviving updates still match");
        assert_eq!(batched.1, 2, "both malformed updates are rejected");
        assert_eq!(batched, run(false));
    }

    #[test]
    fn abort_policy_freezes_the_operator() {
        let params = ScubaParams::default().with_validation(crate::ValidationPolicy::Abort);
        let mut op = ScubaOperator::new(params, Rect::square(1000.0));
        assert_eq!(op.fault(), None);
        op.process_batch(&[
            obj(1, 500.0, 500.0),
            obj(2, f64::NAN, 0.0),
            obj(3, 400.0, 400.0),
        ]);
        let reason = op.fault().expect("fatal fault reported");
        assert!(reason.contains("non-finite-coord"), "{reason}");
        // The update before the fault landed; the one after did not, and
        // later batches are ignored entirely.
        let seen = op.engine().cluster_count();
        assert!(seen >= 1);
        op.process_batch(&[obj(4, 300.0, 300.0)]);
        op.process_update(&obj(5, 200.0, 200.0));
        assert_eq!(op.engine().cluster_count(), seen);
    }

    #[test]
    fn overload_controller_escalates_and_relaxes_on_scripted_costs() {
        use crate::SheddingMode;
        let budget = Duration::from_micros(100);
        let slow = Duration::from_micros(500);
        let fast = Duration::from_micros(10);
        let params = ScubaParams::default().with_deadline_us(Some(100));
        let mut op = ScubaOperator::new(params, Rect::square(1000.0))
            .with_scripted_tick_costs(vec![slow, slow, fast, fast, fast]);
        assert!(op.name().contains("deadline=100us"));
        assert_eq!(op.overload().unwrap().deadline(), budget);
        for round in 0..5u64 {
            op.process_update(&obj(round, 100.0 + round as f64, 100.0));
            let report = op.evaluate((round + 1) * 2);
            let row = report.phases.get(STAGE_OVERLOAD).expect("overload row");
            assert_eq!(row.items_out, 100, "deadline budget in µs");
            if round == 1 {
                // Second consecutive miss: escalated, positions shed now.
                assert_eq!(op.current_shedding(), SheddingMode::Partial { eta: 0.25 });
                assert_eq!(row.tests, 1);
            }
        }
        // Three clean ticks relaxed back down.
        assert_eq!(op.current_shedding(), SheddingMode::None);
        let k = op.overload_counters().unwrap();
        assert_eq!(k.ticks, 5);
        assert_eq!(k.misses, 2);
        assert_eq!(k.escalations, 1);
        assert_eq!(k.relaxations, 1);
    }

    #[test]
    fn overload_escalation_sheds_positions_immediately() {
        let slow = Duration::from_micros(900);
        let params = ScubaParams::default().with_deadline_us(Some(1));
        let mut op = ScubaOperator::new(params, Rect::square(1000.0))
            .with_scripted_tick_costs(vec![slow; 20]);
        for round in 0..10u64 {
            for i in 0..40u64 {
                op.process_update(&obj(i, 100.0 + (i % 20) as f64, 100.0 + round as f64));
            }
            op.evaluate((round + 1) * 2);
            op.engine().check_invariants();
        }
        assert_eq!(op.current_shedding(), crate::SheddingMode::Full);
        assert!(op
            .engine()
            .clusters()
            .values()
            .flat_map(|c| c.members())
            .all(|m| m.is_shed()));
    }

    #[test]
    fn no_deadline_means_no_overload_row() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_update(&obj(1, 500.0, 500.0));
        let report = op.evaluate(2);
        assert!(report.phases.get(STAGE_OVERLOAD).is_none());
        assert!(report.phases.get(STAGE_VALIDATE).is_none());
        assert_eq!(op.overload_counters(), None);
        assert!(op.validator().is_none());
    }

    #[test]
    fn control_lifecycle_registers_and_deregisters() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_update(&obj(1, 500.0, 500.0));
        op.apply_control(&[ControlOp::Register(qry(7, 504.0, 500.0, 20.0))], 1);
        let g = op.control_gauges();
        assert_eq!(g.active_queries, 1);
        assert_eq!(g.registered_total, 1);
        assert_eq!(op.registry().get(QueryId(7)).unwrap().registered_at, 0);
        assert_eq!(op.evaluate(2).results.len(), 1);

        op.apply_control(&[ControlOp::Deregister(QueryId(7))], 3);
        let g = op.control_gauges();
        assert_eq!(g.active_queries, 0);
        assert_eq!(g.deregistered_total, 1);
        assert!(op.evaluate(4).results.is_empty(), "query is gone");
        op.engine().check_invariants();
    }

    #[test]
    fn data_plane_updates_register_implicitly() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        op.process_batch(&[obj(1, 500.0, 500.0), qry(3, 504.0, 500.0, 20.0)]);
        let g = op.control_gauges();
        assert_eq!(g.active_queries, 1);
        assert_eq!(g.registered_total, 1);
        // A refresh does not re-register.
        op.process_update(&LocationUpdate::query(
            QueryId(3),
            Point::new(505.0, 500.0),
            1,
            30.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(20.0),
            },
        ));
        assert_eq!(op.control_gauges().registered_total, 1);
    }

    #[test]
    fn unknown_deregister_lands_in_dead_letters() {
        use scuba_stream::RejectReason;
        let params = ScubaParams::default().with_validation(crate::ValidationPolicy::Reject);
        let mut op = ScubaOperator::new(params, Rect::square(1000.0));
        op.apply_control(&[ControlOp::Deregister(QueryId(99))], 1);
        assert_eq!(op.control_gauges().unknown_total, 1);
        let v = op.validator().unwrap();
        assert_eq!(v.stats().rejected(RejectReason::UnknownEntity), 1);
        assert_eq!(v.dead_letter_len(), 1);
        // Without a validator the op is still counted, never dropped
        // silently.
        let mut bare = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        bare.apply_control(&[ControlOp::Deregister(QueryId(99))], 1);
        assert_eq!(bare.control_gauges().unknown_total, 1);
    }

    #[test]
    fn deregister_purges_cached_rows_without_global_flush() {
        // Two independent convoys, each with its own query: deregistering
        // one query must purge only its cluster's cached pairs.
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        let mut feed = |op: &mut ScubaOperator, base: f64, qid: u64| {
            for i in 0..4u64 {
                op.process_update(&LocationUpdate::object(
                    ObjectId(qid * 100 + i),
                    Point::new(base + i as f64, base),
                    0,
                    0.0,
                    CN,
                    ObjectAttrs::default(),
                ));
            }
            op.process_update(&LocationUpdate::query(
                QueryId(qid),
                Point::new(base + 1.0, base + 1.0),
                0,
                0.0,
                CN,
                QueryAttrs {
                    spec: QuerySpec::square_range(20.0),
                },
            ));
        };
        feed(&mut op, 200.0, 1);
        feed(&mut op, 700.0, 2);
        op.evaluate(2);
        op.evaluate(4);
        let cached_before = op.join_cache().len();
        assert!(cached_before > 0, "warm cache");
        op.apply_control(&[ControlOp::Deregister(QueryId(1))], 5);
        assert!(
            !op.join_cache().is_empty(),
            "deregister must not flush the whole cache"
        );
        assert!(op.join_cache().len() < cached_before, "its rows fell");
        // The surviving query still answers, bit-identically.
        let results = op.evaluate(6).results;
        assert!(results.iter().all(|m| m.query == QueryId(2)));
        assert!(!results.is_empty());
        op.engine().check_invariants();
    }

    #[test]
    fn generous_budget_never_sheds() {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0))
            .with_memory_budget(usize::MAX);
        for i in 0..50u64 {
            op.process_update(&obj(i, 500.0 + (i % 20) as f64, 500.0));
        }
        op.evaluate(2);
        assert_eq!(op.current_shedding(), crate::SheddingMode::None);
    }
}
