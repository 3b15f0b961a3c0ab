//! Sharded multi-worker executor: stripe-owned `ClusterStore`s with
//! boundary-ghost handoff (ROADMAP item 1; DESIGN §4.8).
//!
//! The coverage area is split into K contiguous **column stripes** of the
//! ClusterGrid, and each stripe is owned by one worker holding a full
//! [`ClusterEngine`]: its own `ClusterStore`, its own spatial index, its
//! own epoch clock and [`JoinCache`]. A router classifies every location
//! update by the stripe of its reported position and hands it to the
//! owner; when an entity's new position crosses a stripe border, the
//! router emits a remove on the old owner before the update lands on the
//! new one, so every entity lives on exactly one shard at all times.
//!
//! Per evaluation (every Δ) the workers run the regular three-phase SCUBA
//! pipeline locally, with one extra step between the local join and
//! post-join maintenance: **ghost exchange**. Clusters whose halo
//! (effective radius + the global maximum effective radius) reaches into a
//! lower-indexed stripe are replicated there as read-only ghosts —
//! centroid, circle, exact member positions and query regions, mirroring
//! exactly what join-within materialises. The receiving shard joins its
//! local clusters against each ghost with the same exact predicate, so
//! every cross-boundary cluster pair is evaluated exactly once, on the
//! lower-indexed (min-stripe) side. Per-shard results are concatenated,
//! sorted and deduplicated into the canonical report.
//!
//! ## Identity
//!
//! With load shedding off, the merged result set is **bit-identical** to
//! the single-store [`crate::ScubaOperator`] on the same update stream:
//! the match predicate (query rectangle contains exact member position)
//! depends only on reported positions and query specs — never on which
//! cluster, store, or shard a member landed in — and the ghost halo is
//! provably wide enough to deliver every cluster pair that could produce
//! a match (see DESIGN §4.8 for the argument). kNN queries are answered
//! shard-locally and therefore only match the single-store engine at one
//! shard; identity workloads use range queries.
//!
//! Robustness features that mutate results (shedding ladders, validation,
//! deadlines, memory budgets) are single-store concerns and are not
//! driven by this executor.
//!
//! ## Supervision
//!
//! Worker bodies run inside `catch_unwind`: a panicking worker poisons the
//! epoch barrier (so siblings parked at an exchange rendezvous wake and
//! bail instead of deadlocking) and the whole epoch is **quarantined** —
//! [`ShardedScubaOperator::try_evaluate`] returns a typed
//! [`WorkerFailure`] and discards every stripe's output, because the
//! panicking worker may have died mid-mutation. The caller is expected to
//! restore all stripes from durable state ([`crate::durability`]) before
//! retrying; the plain [`ContinuousOperator::evaluate`] path records the
//! failure as a fatal [`ContinuousOperator::fault`] so an unsupervised
//! executor aborts cleanly rather than continuing on suspect state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use scuba_motion::{ControlOp, EntityRef, LocationUpdate, ObjectId, QueryId, QuerySpec};
use scuba_spatial::{Circle, FxHashMap, GridSpec, Point, Rect, Time};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, PanicInjector, PhaseBreakdown, QueryMatch, StageStats,
    Stopwatch,
};

use crate::cluster::MovingCluster;
use crate::clustering::ClusterEngine;
use crate::engine::{STAGE_GRID_REBALANCE, STAGE_KNN, STAGE_POST_JOIN, STAGE_PRE_JOIN_TIGHTEN};
use crate::join::{JoinCache, JoinContext, JoinScratch};
use crate::params::ScubaParams;
use crate::registry::{ControlGauges, QueryRegistry};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::store::ClusterSlot;
use crate::tables::QueriesTable;

/// A shard worker died mid-epoch. The epoch's outputs are quarantined:
/// the panicking worker may have been interrupted mid-mutation, so every
/// stripe engine must be considered suspect until restored from durable
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Index of the stripe whose worker panicked.
    pub shard: usize,
    /// The evaluation time at which the epoch failed.
    pub now: Time,
    /// The panic payload, when it carried a message.
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard worker {} panicked at t={}: {}",
            self.shard, self.now, self.message
        )
    }
}

impl std::error::Error for WorkerFailure {}

/// Marker returned up a worker's call chain when a *sibling* poisoned the
/// epoch: the worker abandons its remaining stages instead of waiting on
/// rendezvous that will never complete.
struct EpochAborted;

/// A reusable rendezvous like [`std::sync::Barrier`], plus poisoning: a
/// panicking worker calls [`EpochBarrier::poison`] and every current and
/// future waiter returns `Err(EpochAborted)` immediately instead of
/// blocking for a participant that will never arrive.
struct EpochBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    participants: usize,
}

struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

impl EpochBarrier {
    fn new(participants: usize) -> Self {
        EpochBarrier {
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
            participants,
        }
    }

    /// Blocks until all participants arrive (or the barrier is poisoned).
    fn wait(&self) -> Result<(), EpochAborted> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.poisoned {
            return Err(EpochAborted);
        }
        state.waiting += 1;
        if state.waiting == self.participants {
            state.waiting = 0;
            state.generation += 1;
            self.cvar.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        while state.generation == generation && !state.poisoned {
            state = self
                .cvar
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if state.poisoned {
            Err(EpochAborted)
        } else {
            Ok(())
        }
    }

    /// Marks the epoch dead and wakes every parked waiter.
    fn poison(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.poisoned = true;
        self.cvar.notify_all();
    }
}

/// Stage name: update routing and cross-stripe handoff (maintenance
/// bucket). `items_in` = updates routed since the last evaluation,
/// `items_out` = updates that stayed on their previous owner, `tests` =
/// stripe migrations (remove on old owner + insert on new).
pub const STAGE_SHARD_ROUTE: &str = "shard-route";
/// Stage name: boundary-ghost exchange plus the owner-side cross-stripe
/// join (join bucket). `items_in` = ghosts received, `items_out` =
/// (local, ghost) cluster pairs that survived the circle pre-filter,
/// `tests` = exact cross-join comparisons.
pub const STAGE_SHARD_EXCHANGE: &str = "shard-exchange";
/// Stage name: merging per-shard result sets into the canonical report
/// (join bucket). `items_in` = concatenated matches, `items_out` =
/// matches after sort + dedup.
pub const STAGE_SHARD_MERGE: &str = "shard-merge";

/// A routed operation in a shard's ordered apply queue.
#[derive(Debug, Clone)]
enum ShardOp {
    /// Ingest this update on the owning shard.
    Update(LocationUpdate),
    /// The entity migrated away: drop its membership and registration.
    Remove(EntityRef),
}

/// One stripe-owning worker's private state.
#[derive(Debug)]
struct ShardState {
    engine: ClusterEngine,
    cache: JoinCache,
    scratch: JoinScratch,
    /// Removes whose entity the stripe engine no longer knew (TTL-evicted
    /// between updates, or a deregister racing an eviction). Drained into
    /// the registry's unknown counter after each apply pass so dead
    /// removes are counted, never silently dropped.
    unknown_removes: u64,
}

/// An exact range query replicated inside a ghost (mirrors the arena's
/// exact-query entries in [`crate::join`]).
#[derive(Debug, Clone, Copy)]
struct GhostQuery {
    qid: QueryId,
    pos: Point,
    region: Rect,
    bounding_radius: f64,
}

/// A group of shed queries sharing one centroid-centred region.
#[derive(Debug, Clone)]
struct GhostGroup {
    region: Rect,
    qids: Vec<QueryId>,
}

/// Read-only replica of one boundary cluster, shipped to neighbouring
/// stripes each Δ. Carries exactly what join-within materialises: exact
/// member positions, shed members at the centroid, and per-query regions.
#[derive(Debug, Clone)]
struct Ghost {
    /// Cluster circle (centroid + covering radius) at exchange time.
    region: Circle,
    /// Effective radius: covering radius + widest query bounding radius.
    reach: f64,
    centroid: Point,
    objs: Vec<(ObjectId, Point)>,
    shed_objs: Vec<ObjectId>,
    queries: Vec<GhostQuery>,
    groups: Vec<GhostGroup>,
}

/// Exact-work counters of the cross-stripe join, merged into the report's
/// global `comparisons` / `prefilter_tests`.
#[derive(Debug, Default, Clone, Copy)]
struct CrossCounters {
    comparisons: u64,
    prefilter_tests: u64,
}

/// What one worker hands back to the merge step.
struct ShardOutput {
    results: Vec<QueryMatch>,
    phases: PhaseBreakdown,
    comparisons: u64,
    prefilter_tests: u64,
    memory_bytes: usize,
    ghosts_sent: u64,
    ghosts_received: u64,
}

/// The N-shard SCUBA executor: a router in front of K stripe-owned
/// [`ClusterEngine`]s evaluated by scoped worker threads (see the module
/// docs for the protocol and the identity argument).
#[derive(Debug)]
pub struct ShardedScubaOperator {
    params: ScubaParams,
    name: String,
    shards: Vec<ShardState>,
    /// Routing spec: same area/granularity as every shard's grid.
    spec: GridSpec,
    /// Grid column → owning stripe.
    col_shard: Vec<u16>,
    /// Stripe x-intervals for halo tests. Border stripes extend to ±∞,
    /// matching [`GridSpec::cell_of`]'s clamping of outside points.
    stripe_lo: Vec<f64>,
    stripe_hi: Vec<f64>,
    /// Current owner stripe of every known entity.
    owner: FxHashMap<EntityRef, u16>,
    /// The control-plane truth of the active query set. Fed implicitly by
    /// routed query updates and explicitly by [`ControlOp`]s; owners track
    /// the routing decision, so the registry mirrors the stripe map.
    registry: QueryRegistry,
    /// Reusable per-shard ordered apply queues.
    routes: Vec<Vec<ShardOp>>,
    /// Radix scatter buffer of the stripe merge.
    merge_tmp: Vec<QueryMatch>,
    evaluations: u64,
    /// Router counters accumulated since the last evaluation.
    route_updates: u64,
    route_handoffs: u64,
    route_wall: Duration,
    /// Lifetime ghost-refresh counter (ghost replicas shipped, summed
    /// over all exchanges).
    ghosts_sent_total: u64,
    /// Ghosts shipped / received during the most recent evaluation.
    last_ghosts_sent: u64,
    last_ghosts_received: u64,
    /// Deterministic worker-panic injection, for supervision tests.
    panics: Option<Arc<PanicInjector>>,
    /// A worker failure observed by the plain [`ContinuousOperator`]
    /// evaluate path; reported through [`ContinuousOperator::fault`].
    fatal: Option<String>,
}

impl ShardedScubaOperator {
    /// Creates an executor with `params.shards` stripe-owned engines over
    /// `area`. The shard count is clamped to the grid's column count (a
    /// stripe is at least one column).
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        let spec = GridSpec::new(area, params.grid_cells);
        let cols = spec.cells_per_side() as usize;
        let k = params.shards.clamp(1, cols);

        let mut col_shard = vec![0u16; cols];
        let mut stripe_lo = Vec::with_capacity(k);
        let mut stripe_hi = Vec::with_capacity(k);
        for s in 0..k {
            // Contiguous column stripes: shard s covers columns
            // [s·n/K, (s+1)·n/K).
            let start = s * cols / k;
            let end = (s + 1) * cols / k;
            for col in &mut col_shard[start..end] {
                *col = s as u16;
            }
            stripe_lo.push(if s == 0 {
                f64::NEG_INFINITY
            } else {
                area.min.x + start as f64 * spec.cell_width()
            });
            stripe_hi.push(if s == k - 1 {
                f64::INFINITY
            } else {
                area.min.x + end as f64 * spec.cell_width()
            });
        }

        let shards = (0..k)
            .map(|_| ShardState {
                engine: ClusterEngine::new(params, area),
                cache: JoinCache::new(),
                scratch: JoinScratch::new(),
                unknown_removes: 0,
            })
            .collect();
        ShardedScubaOperator {
            params,
            name: format!("SCUBA[shards={k}]"),
            shards,
            spec,
            col_shard,
            stripe_lo,
            stripe_hi,
            owner: FxHashMap::default(),
            registry: QueryRegistry::new(),
            routes: (0..k).map(|_| Vec::new()).collect(),
            merge_tmp: Vec::new(),
            evaluations: 0,
            route_updates: 0,
            route_handoffs: 0,
            route_wall: Duration::ZERO,
            ghosts_sent_total: 0,
            last_ghosts_sent: 0,
            last_ghosts_received: 0,
            panics: None,
            fatal: None,
        }
    }

    /// Attaches a deterministic worker-panic injector: each worker asks
    /// `injector.arm(now, shard)` once per evaluation (right before the
    /// ghost exchange, after the engine has already been mutated by
    /// tightening — so surviving an injected panic genuinely requires a
    /// restore) and panics when it fires.
    pub fn with_panic_injector(mut self, injector: Arc<PanicInjector>) -> Self {
        self.panics = Some(injector);
        self
    }

    /// Attaches (or detaches, with `None`) the panic injector in place —
    /// the supervised loop re-attaches the shared injector after restoring
    /// an operator from durable state, so re-armed fault sites keep firing
    /// across restarts.
    pub fn set_panic_injector(&mut self, injector: Option<Arc<PanicInjector>>) {
        self.panics = injector;
    }

    /// The parameters this executor was built with.
    pub fn params(&self) -> &ScubaParams {
        &self.params
    }

    /// The number of stripe-owned shards actually running (requested count
    /// clamped to the grid's column count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Lifetime count of ghost replicas shipped across stripe borders.
    pub fn ghost_refreshes(&self) -> u64 {
        self.ghosts_sent_total
    }

    /// Ghost replicas (shipped, received) during the most recent
    /// evaluation. Received can only differ from shipped transiently —
    /// every ghost is both sent and drained within one exchange.
    pub fn last_exchange(&self) -> (u64, u64) {
        (self.last_ghosts_sent, self.last_ghosts_received)
    }

    /// Read access to the per-stripe clustering engines, in stripe order
    /// (diagnostics, tests).
    pub fn engines(&self) -> impl Iterator<Item = &ClusterEngine> {
        self.shards.iter().map(|s| &s.engine)
    }

    /// Captures every stripe engine as a snapshot, in stripe order — the
    /// sharded counterpart of [`EngineSnapshot::capture`]. Operator
    /// transients (per-stripe join caches, the epoch clocks' cache
    /// warmth) are not part of the capture; they only affect work
    /// counters, never results.
    pub fn capture_stripes(&self) -> Vec<EngineSnapshot> {
        self.shards
            .iter()
            .map(|s| EngineSnapshot::capture(&s.engine))
            .collect()
    }

    /// Rebuilds a sharded operator from per-stripe snapshots produced by
    /// [`ShardedScubaOperator::capture_stripes`]. Geometry (`params`,
    /// `area`) is taken from the snapshots themselves, so the restored
    /// router reproduces the stripe map the capture ran under; the
    /// entity→owner map is rebuilt from cluster membership. Per-stripe
    /// join caches start cold, which changes work counters but not
    /// results (the cache identity property).
    ///
    /// Note: entities evicted by a TTL between their last update and the
    /// capture are absent from membership and therefore from the rebuilt
    /// owner map, exactly as they are absent from a restored single-store
    /// engine.
    pub fn from_stripes(stripes: &[EngineSnapshot]) -> Result<Self, SnapshotError> {
        let first = stripes.first().ok_or(SnapshotError::ShardMismatch {
            found: 0,
            expected: 1,
        })?;
        let mut op = ShardedScubaOperator::new(first.params, first.area);
        if stripes.len() != op.shards.len() {
            return Err(SnapshotError::ShardMismatch {
                found: stripes.len(),
                expected: op.shards.len(),
            });
        }
        for (idx, snap) in stripes.iter().enumerate() {
            let engine = snap.restore()?;
            for cluster in engine.clusters().values() {
                for member in cluster.members() {
                    op.owner.insert(member.entity, idx as u16);
                }
            }
            // Seed the registry from the stripe's registered queries so a
            // bare snapshot restore is truthful; a durable restore then
            // installs the checkpointed registry (exact registration
            // epochs and lifetime counters) via `set_registry`.
            for (qid, attrs) in engine.queries().iter() {
                op.registry.observe(qid, 0, attrs.spec, Some(idx as u16));
            }
            op.shards[idx].engine = engine;
        }
        Ok(op)
    }

    /// The control-plane view of the active query set.
    pub fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    /// Current control-plane gauges (health lines, event logs).
    pub fn control_gauges(&self) -> ControlGauges {
        self.registry.gauges()
    }

    /// Installs a registry restored from durable state, replacing the
    /// membership-seeded one.
    pub fn set_registry(&mut self, registry: QueryRegistry) {
        self.registry = registry;
    }

    /// Deregisters a query across every layer: drops its ownership, queues
    /// a remove on the owning stripe (applied with the next route drain,
    /// so its cluster shrinks or dissolves and the stripe's cached join
    /// rows for that cluster are purged), and retires it from the
    /// registry. Returns whether any layer knew the query; unknown
    /// deregisters are counted, never silently dropped.
    pub fn deregister_query(&mut self, qid: QueryId) -> bool {
        let entity = EntityRef::Query(qid);
        let owned = self.owner.remove(&entity);
        if let Some(prev) = owned {
            self.routes[prev as usize].push(ShardOp::Remove(entity));
        }
        let in_registry = self.registry.deregister(qid).is_some();
        let known = owned.is_some() || in_registry;
        if !known {
            self.registry.note_unknown();
        }
        known
    }

    /// The stripe owning a position (by its grid column).
    fn shard_of(&self, p: &Point) -> usize {
        self.col_shard[self.spec.cell_of(p).col as usize] as usize
    }

    /// Routes one update: records a handoff on the old owner when the
    /// entity crossed a stripe border, then assigns the new owner.
    /// Returns the owning shard.
    fn route(&mut self, update: &LocationUpdate) -> usize {
        let target = self.shard_of(&update.loc) as u16;
        self.route_updates += 1;
        if let Some(prev) = self.owner.insert(update.entity, target) {
            if prev != target {
                self.route_handoffs += 1;
                self.routes[prev as usize].push(ShardOp::Remove(update.entity));
            }
        }
        // A reporting query is an active query: register it implicitly (or
        // refresh its spec) and keep its owner stripe current, mirroring
        // the single-store operator's implicit registration.
        if let (Some(qid), Some(spec)) = (update.entity.as_query(), update.query_spec()) {
            self.registry.observe(qid, update.time, spec, Some(target));
        }
        self.routes[target as usize].push(ShardOp::Update(*update));
        target as usize
    }

    /// Applies every queued op, in queue order per shard, shards in
    /// parallel. Cross-shard interleaving is irrelevant: the queues touch
    /// disjoint engines.
    fn apply_routes(&mut self) {
        if self.shards.len() == 1 {
            let state = &mut self.shards[0];
            for op in self.routes[0].drain(..) {
                match op {
                    ShardOp::Update(u) => {
                        state.engine.process_update(&u);
                    }
                    ShardOp::Remove(e) => {
                        apply_remove(state, e);
                    }
                }
            }
        } else {
            std::thread::scope(|scope| {
                for (state, ops) in self.shards.iter_mut().zip(self.routes.iter()) {
                    if ops.is_empty() {
                        continue;
                    }
                    scope.spawn(move || {
                        for op in ops {
                            match op {
                                ShardOp::Update(u) => {
                                    state.engine.process_update(u);
                                }
                                ShardOp::Remove(e) => {
                                    apply_remove(state, *e);
                                }
                            }
                        }
                    });
                }
            });
            for queue in &mut self.routes {
                queue.clear();
            }
        }
        for state in &mut self.shards {
            let dead = std::mem::take(&mut state.unknown_removes);
            for _ in 0..dead {
                self.registry.note_unknown();
            }
        }
    }
}

/// Applies one [`ShardOp::Remove`] on its owning stripe: captures the
/// entity's cluster slot, removes the entity from the engine, and purges
/// that slot's cached join rows so a deregistered query's results can
/// never be served from a stale cache entry (and a reused slot starts
/// clean). A remove whose entity the engine no longer knows is counted in
/// [`ShardState::unknown_removes`] instead of being silently dropped.
fn apply_remove(state: &mut ShardState, entity: EntityRef) {
    let slot = state.engine.home().cluster_of(entity);
    let known = state.engine.remove_entity(entity);
    if let Some(slot) = slot {
        state.cache.purge_slot(slot);
    }
    if !known {
        state.unknown_removes += 1;
    }
}

impl ContinuousOperator for ShardedScubaOperator {
    /// Applies this Δ's control ops ahead of the data batch: registers and
    /// updates are routed like ordinary updates (the carried query update
    /// lands on its owner stripe), deregisters retire the query across the
    /// router, owner engine, stripe cache and registry. A register
    /// carrying a non-query update is a malformed control op and is
    /// counted as unknown.
    fn apply_control(&mut self, ops: &[ControlOp], _now: Time) {
        if self.fatal.is_some() {
            return;
        }
        let sw = Stopwatch::start();
        for op in ops {
            match op {
                ControlOp::Register(u) | ControlOp::Update(u) => {
                    if u.entity.as_query().is_some() {
                        self.route(u);
                    } else {
                        self.registry.note_unknown();
                    }
                }
                ControlOp::Deregister(qid) => {
                    self.deregister_query(*qid);
                }
            }
        }
        self.route_wall += sw.elapsed();
        self.apply_routes();
    }

    fn process_update(&mut self, update: &LocationUpdate) {
        let sw = Stopwatch::start();
        self.route(update);
        self.route_wall += sw.elapsed();
        self.apply_routes();
    }

    fn process_batch(&mut self, updates: &[LocationUpdate]) {
        let sw = Stopwatch::start();
        for update in updates {
            self.route(update);
        }
        self.route_wall += sw.elapsed();
        self.apply_routes();
    }

    /// Delegates to [`ShardedScubaOperator::try_evaluate`]; a worker
    /// failure is recorded as a fatal fault (surfaced through
    /// [`ContinuousOperator::fault`], aborting a plain executor run) and
    /// an empty report is returned for the quarantined epoch.
    fn evaluate(&mut self, now: Time) -> EvaluationReport {
        match self.try_evaluate(now) {
            Ok(report) => report,
            Err(failure) => {
                self.fatal = Some(failure.to_string());
                EvaluationReport {
                    now,
                    ..Default::default()
                }
            }
        }
    }

    fn fault(&self) -> Option<String> {
        self.fatal.clone()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.engine.estimated_bytes()).sum()
    }

    fn clusters_live(&self) -> Option<usize> {
        Some(self.shards.iter().map(|s| s.engine.cluster_count()).sum())
    }
}

impl ShardedScubaOperator {
    /// Runs one evaluation epoch across all stripe workers, returning a
    /// typed [`WorkerFailure`] instead of propagating a worker panic. On
    /// failure the whole epoch is quarantined: no stripe's output is
    /// merged (the panicking worker may have died mid-mutation) and the
    /// engines must be restored from durable state before the tick is
    /// retried — see [`crate::durability::run_supervised`].
    pub fn try_evaluate(&mut self, now: Time) -> Result<EvaluationReport, WorkerFailure> {
        self.evaluations += 1;
        let mut phases = PhaseBreakdown::new();
        phases.push(
            StageStats::maintenance(STAGE_SHARD_ROUTE)
                .with_wall(self.route_wall)
                .with_items(self.route_updates, self.route_updates - self.route_handoffs)
                .with_tests(self.route_handoffs),
        );
        self.route_updates = 0;
        self.route_handoffs = 0;
        self.route_wall = Duration::ZERO;

        let k = self.shards.len();
        let params = self.params;
        let barrier = EpochBarrier::new(k);
        // Global maximum effective cluster radius this Δ, as non-negative
        // f64 bits (bit order == value order for non-negative floats).
        let max_reach_bits = AtomicU64::new(0);
        // mailboxes[dest][src]: each sender owns an uncontended slot, each
        // receiver drains its row in stripe order — deterministic without
        // sorting.
        let mailboxes: Vec<Vec<Mutex<Vec<Ghost>>>> = (0..k)
            .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let stripe_lo = &self.stripe_lo;
        let stripe_hi = &self.stripe_hi;
        let injector = self.panics.as_deref();

        // Worker protocol: a panic is caught, poisons the barrier (waking
        // siblings parked at a rendezvous) and surfaces as `Err(Some(msg))`;
        // a sibling that bails on the poisoned barrier surfaces as
        // `Err(None)`. `join()` itself can no longer panic.
        let worker_results: Vec<Result<ShardOutput, Option<String>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .enumerate()
                    .map(|(s, state)| {
                        let barrier = &barrier;
                        let max_reach_bits = &max_reach_bits;
                        let mailboxes = &mailboxes;
                        scope.spawn(move || {
                            match catch_unwind(AssertUnwindSafe(|| {
                                shard_evaluate(
                                    s,
                                    state,
                                    now,
                                    &params,
                                    barrier,
                                    max_reach_bits,
                                    mailboxes,
                                    stripe_lo,
                                    stripe_hi,
                                    injector,
                                )
                            })) {
                                Ok(Ok(output)) => Ok(output),
                                Ok(Err(EpochAborted)) => Err(None),
                                Err(payload) => {
                                    barrier.poison();
                                    Err(Some(panic_message(payload.as_ref())))
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("supervised worker wrapper never panics"))
                    .collect()
            });

        let mut outputs = Vec::with_capacity(k);
        let mut failure: Option<WorkerFailure> = None;
        for (s, result) in worker_results.into_iter().enumerate() {
            match result {
                Ok(output) => outputs.push(output),
                Err(message) => {
                    // Prefer the shard that actually panicked over siblings
                    // that merely bailed on the poisoned epoch.
                    let panicked = message.is_some();
                    let candidate = WorkerFailure {
                        shard: s,
                        now,
                        message: message
                            .unwrap_or_else(|| "epoch aborted by a sibling worker's panic".into()),
                    };
                    match &failure {
                        Some(prev) if panicked && prev.message.starts_with("epoch aborted") => {
                            failure = Some(candidate)
                        }
                        Some(_) => {}
                        None => failure = Some(candidate),
                    }
                }
            }
        }
        if let Some(failure) = failure {
            return Err(failure);
        }

        // Reconcile: post-join maintenance may have TTL-evicted queries
        // from the stripe engines; retire them from the registry (counted
        // as deregistrations) so the active set never outlives the data.
        {
            let shards = &self.shards;
            self.registry.retain(|qid, _| {
                shards
                    .iter()
                    .any(|state| state.engine.queries().get(qid).is_some())
            });
        }

        let sw = Stopwatch::start();
        let mut results: Vec<QueryMatch> = Vec::new();
        let mut comparisons = 0u64;
        let mut prefilter_tests = 0u64;
        let mut memory_bytes = 0usize;
        let mut sent = 0u64;
        let mut received = 0u64;
        for out in outputs {
            results.extend(out.results);
            phases.absorb(&out.phases);
            comparisons += out.comparisons;
            prefilter_tests += out.prefilter_tests;
            memory_bytes += out.memory_bytes;
            sent += out.ghosts_sent;
            received += out.ghosts_received;
        }
        self.ghosts_sent_total += sent;
        self.last_ghosts_sent = sent;
        self.last_ghosts_received = received;
        let before = results.len() as u64;
        crate::radix::sort_dedup(&mut results, &mut self.merge_tmp);
        phases.push(
            StageStats::join(STAGE_SHARD_MERGE)
                .with_wall(sw.elapsed())
                .with_items(before, results.len() as u64),
        );

        Ok(EvaluationReport {
            now,
            results,
            phases,
            memory_bytes,
            comparisons,
            prefilter_tests,
        })
    }
}

/// Renders a caught panic payload for [`WorkerFailure::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's per-Δ pipeline: the single-store evaluation stages plus
/// the ghost exchange, in an order that keeps positions exact — ghosts are
/// built and the cross-join runs strictly *before* post-join maintenance
/// advances anything. Returns `Err(EpochAborted)` when a sibling poisoned
/// the epoch barrier mid-rendezvous.
#[allow(clippy::too_many_arguments)]
fn shard_evaluate(
    s: usize,
    state: &mut ShardState,
    now: Time,
    params: &ScubaParams,
    barrier: &EpochBarrier,
    max_reach_bits: &AtomicU64,
    mailboxes: &[Vec<Mutex<Vec<Ghost>>>],
    stripe_lo: &[f64],
    stripe_hi: &[f64],
    injector: Option<&PanicInjector>,
) -> Result<ShardOutput, EpochAborted> {
    let engine = &mut state.engine;
    let mut phases = PhaseBreakdown::new();
    let clusters_before = engine.cluster_count() as u64;

    let sw = Stopwatch::start();
    if params.tighten_radii {
        engine.pre_join_tighten();
    }
    phases.push(
        StageStats::maintenance(STAGE_PRE_JOIN_TIGHTEN)
            .with_wall(sw.elapsed())
            .with_items(clusters_before, clusters_before),
    );

    let sw = Stopwatch::start();
    engine.sync_index();
    engine.rebalance_index();
    phases.push(
        StageStats::maintenance(STAGE_GRID_REBALANCE)
            .with_wall(sw.elapsed())
            .with_items(clusters_before, clusters_before),
    );

    // Deterministic panic injection, placed after the engine has already
    // been mutated (tighten/rebalance) and before the first rendezvous:
    // surviving the injected panic genuinely requires restoring the
    // stripes, and parked siblings exercise the poison path.
    if let Some(inj) = injector {
        if inj.arm(now, s as u64) {
            panic!("injected worker panic: shard {s}, tick {now}");
        }
    }

    // Exchange, step 1: agree on the halo width. Every true cross-stripe
    // match needs the partner within reach + M_global of this cluster's
    // centroid (DESIGN §4.8), where M_global is the widest effective
    // radius anywhere this Δ.
    let sw_exchange = Stopwatch::start();
    let mut local_max = 0.0f64;
    for (_, cluster) in engine.store().iter() {
        local_max = local_max.max(cluster.radius() + cluster.max_query_radius());
    }
    max_reach_bits.fetch_max(local_max.to_bits(), Ordering::Relaxed);
    barrier.wait()?;
    let m_global = f64::from_bits(max_reach_bits.load(Ordering::Relaxed));

    // Exchange, step 2: ship ghosts. Pairs are evaluated once, on the
    // lower-indexed stripe, so replicas only flow downward.
    let mut ghosts_sent = 0u64;
    for (_, cluster) in engine.store().iter() {
        let reach = cluster.radius() + cluster.max_query_radius();
        let halo = reach + m_global;
        let cx = cluster.centroid().x;
        let mut ghost: Option<Ghost> = None;
        for dest in 0..s {
            let dist = (stripe_lo[dest] - cx).max(cx - stripe_hi[dest]).max(0.0);
            if dist > halo {
                continue;
            }
            let g = ghost.get_or_insert_with(|| build_ghost(cluster, engine.queries()));
            // A mailbox lock poisoned by a panicked sibling is still
            // usable — the epoch is quarantined wholesale anyway.
            mailboxes[dest][s]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(g.clone());
            ghosts_sent += 1;
        }
    }
    barrier.wait()?;
    let mut ghosts: Vec<Ghost> = Vec::new();
    for src in mailboxes[s].iter() {
        ghosts.append(
            &mut src
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }
    let exchange_prep = sw_exchange.elapsed();

    // Local join: the standard staged pipeline over this stripe's store,
    // incremental across epochs through the per-shard cache.
    let ctx = JoinContext {
        store: engine.store(),
        grid: engine.grid(),
        queries: engine.queries(),
        shedding: engine.params().shedding,
        theta_d: engine.params().theta_d,
        member_filter: engine.params().member_filter,
        parallelism: engine.params().parallelism,
        kernel: engine.params().kernel,
    };
    let epochs = params.join_cache.then(|| engine.epochs());
    let mut join = ctx.run_cached(epochs, &mut state.cache, &mut state.scratch);
    phases.extend(std::mem::take(&mut join.stages));

    // Exchange, step 3: owner-side cross-stripe join — local clusters
    // against received ghosts, exact predicate, both member directions.
    let sw_cross = Stopwatch::start();
    let mut counters = CrossCounters::default();
    let mut pairs_joined = 0u64;
    if !ghosts.is_empty() {
        let mut views: FxHashMap<ClusterSlot, Ghost> = FxHashMap::default();
        for (slot, cluster) in engine.store().iter() {
            let local_reach = cluster.radius() + cluster.max_query_radius();
            let centroid = cluster.centroid();
            for ghost in &ghosts {
                counters.prefilter_tests += 1;
                let dx = centroid.x - ghost.centroid.x;
                let dy = centroid.y - ghost.centroid.y;
                let rr = local_reach + ghost.reach;
                if dx * dx + dy * dy > rr * rr {
                    continue;
                }
                pairs_joined += 1;
                let view = views
                    .entry(slot)
                    .or_insert_with(|| build_ghost(cluster, engine.queries()));
                cross_join(
                    view,
                    ghost,
                    params.member_filter,
                    &mut join.results,
                    &mut counters,
                );
            }
        }
    }
    join.comparisons += counters.comparisons;
    join.prefilter_tests += counters.prefilter_tests;
    phases.push(
        StageStats::join(STAGE_SHARD_EXCHANGE)
            .with_wall(exchange_prep + sw_cross.elapsed())
            .with_items(ghosts.len() as u64, pairs_joined)
            .with_tests(counters.comparisons),
    );

    // kNN queries are answered over this stripe's clusters only (module
    // docs); zero-cost when the workload has none.
    let sw = Stopwatch::start();
    let knn = crate::knn::evaluate_continuous(engine);
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

    let sw = Stopwatch::start();
    engine.post_join_maintenance(now);
    phases.push(
        StageStats::maintenance(STAGE_POST_JOIN)
            .with_wall(sw.elapsed())
            .with_items(clusters_before, engine.cluster_count() as u64),
    );

    Ok(ShardOutput {
        results: join.results,
        phases,
        comparisons: join.comparisons,
        prefilter_tests: join.prefilter_tests,
        memory_bytes: engine.estimated_bytes(),
        ghosts_sent,
        ghosts_received: ghosts.len() as u64,
    })
}

/// Replicates one cluster into a [`Ghost`], mirroring join-within's member
/// materialisation exactly: exact members at their drift-compensated
/// reported positions, shed members at the centroid, kNN and unregistered
/// queries skipped.
fn build_ghost(cluster: &MovingCluster, queries: &QueriesTable) -> Ghost {
    let centroid = cluster.centroid();
    let mut ghost = Ghost {
        region: cluster.region(),
        reach: cluster.radius() + cluster.max_query_radius(),
        centroid,
        objs: Vec::new(),
        shed_objs: Vec::new(),
        queries: Vec::new(),
        groups: Vec::new(),
    };
    for member in cluster.members() {
        let pos = cluster.member_position(member);
        match member.entity {
            EntityRef::Object(oid) => match pos {
                Some(p) => ghost.objs.push((oid, p)),
                None => ghost.shed_objs.push(oid),
            },
            EntityRef::Query(qid) => {
                let Some(attrs) = queries.get(qid) else {
                    continue;
                };
                let QuerySpec::Range { .. } = attrs.spec else {
                    continue;
                };
                match pos {
                    Some(p) => ghost.queries.push(GhostQuery {
                        qid,
                        pos: p,
                        region: attrs
                            .spec
                            .region_at(p)
                            .expect("range spec always has a region"),
                        bounding_radius: attrs.spec.bounding_radius(),
                    }),
                    None => {
                        let region = attrs
                            .spec
                            .region_at(centroid)
                            .expect("range spec always has a region");
                        match ghost.groups.iter_mut().find(|g| g.region == region) {
                            Some(g) => g.qids.push(qid),
                            None => ghost.groups.push(GhostGroup {
                                region,
                                qids: vec![qid],
                            }),
                        }
                    }
                }
            }
        }
    }
    ghost
}

/// Joins a surviving cross-stripe cluster pair in both member directions,
/// with the same predicate and sound reach filters as join-within.
fn cross_join(
    a: &Ghost,
    b: &Ghost,
    member_filter: bool,
    out: &mut Vec<QueryMatch>,
    counters: &mut CrossCounters,
) {
    join_direction(a, b, member_filter, out, counters);
    join_direction(b, a, member_filter, out, counters);
}

/// `objects_of`'s objects against `queries_of`'s queries — the scalar
/// join-within member loop ([`crate::join`]) over ghost views. The reach
/// filters are sound (they only skip pairs the exact predicate rejects),
/// so results are independent of `member_filter`.
fn join_direction(
    objects_of: &Ghost,
    queries_of: &Ghost,
    member_filter: bool,
    out: &mut Vec<QueryMatch>,
    counters: &mut CrossCounters,
) {
    let has_objects = !objects_of.objs.is_empty() || !objects_of.shed_objs.is_empty();
    let has_queries = !queries_of.queries.is_empty() || !queries_of.groups.is_empty();
    if !has_objects || !has_queries {
        return;
    }

    // Exact queries that can reach the object cluster at all.
    let mut active: Vec<usize> = Vec::with_capacity(queries_of.queries.len());
    for (qi, q) in queries_of.queries.iter().enumerate() {
        if member_filter {
            counters.prefilter_tests += 1;
            let reach = Circle::new(
                objects_of.region.center,
                objects_of.region.radius + q.bounding_radius,
            );
            if !reach.contains(&q.pos) {
                continue;
            }
        }
        active.push(qi);
    }

    // 1. Exact objects × exact queries.
    if !active.is_empty() {
        let query_reach = Circle::new(queries_of.region.center, queries_of.reach);
        for &(oid, p) in &objects_of.objs {
            if member_filter {
                counters.prefilter_tests += 1;
                if !query_reach.contains(&p) {
                    continue;
                }
            }
            for &qi in &active {
                let q = &queries_of.queries[qi];
                counters.comparisons += 1;
                if q.region.contains(&p) {
                    out.push(QueryMatch::new(q.qid, oid));
                }
            }
        }
    }

    // 2. Shed objects (all at the centroid) × exact queries.
    if !objects_of.shed_objs.is_empty() {
        for &qi in &active {
            let q = &queries_of.queries[qi];
            counters.comparisons += 1;
            if q.region.contains(&objects_of.centroid) {
                for &oid in &objects_of.shed_objs {
                    out.push(QueryMatch::new(q.qid, oid));
                }
            }
        }
    }

    // 3. Shed query groups (regions centred on the query cluster's
    //    centroid).
    for group in &queries_of.groups {
        for &(oid, p) in &objects_of.objs {
            counters.comparisons += 1;
            if group.region.contains(&p) {
                for &qid in &group.qids {
                    out.push(QueryMatch::new(qid, oid));
                }
            }
        }
        if !objects_of.shed_objs.is_empty() {
            counters.comparisons += 1;
            if group.region.contains(&objects_of.centroid) {
                for &qid in &group.qids {
                    for &oid in &objects_of.shed_objs {
                        out.push(QueryMatch::new(qid, oid));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScubaOperator;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId};

    const CN: Point = Point {
        x: 1000.0,
        y: 500.0,
    };

    fn obj(id: u64, x: f64, y: f64) -> LocationUpdate {
        obj_at(id, x, y, 0)
    }

    fn obj_at(id: u64, x: f64, y: f64, t: Time) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            t,
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

    fn area() -> Rect {
        Rect::square(1000.0)
    }

    #[test]
    fn one_shard_matches_single_store_engine() {
        let params = ScubaParams::default();
        let mut single = ScubaOperator::new(params, area());
        let mut sharded = ShardedScubaOperator::new(params.with_shards(1), area());
        assert_eq!(sharded.shard_count(), 1);
        for round in 0..4u64 {
            let batch: Vec<LocationUpdate> = (0..40u64)
                .map(|i| {
                    let x = 50.0 + ((i * 37 + round * 11) % 900) as f64;
                    let y = 50.0 + ((i * 61) % 900) as f64;
                    if i % 2 == 0 {
                        obj(i, x, y)
                    } else {
                        qry(i, x, y, 40.0)
                    }
                })
                .collect();
            single.process_batch(&batch);
            sharded.process_batch(&batch);
            let a = single.evaluate(round * 2 + 2);
            let b = sharded.evaluate(round * 2 + 2);
            assert_eq!(a.results, b.results, "round {round}");
            assert_eq!(a.comparisons, b.comparisons, "round {round}");
        }
    }

    #[test]
    fn boundary_straddling_pair_matches_across_stripes() {
        // 4 stripes over a 1000-unit square: borders at x = 250/500/750.
        // An object just left of x=500 and a query just right of it land on
        // different shards; only the ghost exchange can join them.
        let params = ScubaParams::default().with_shards(4);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.process_update(&obj(1, 495.0, 500.0));
        sharded.process_update(&qry(1, 505.0, 500.0, 40.0));
        assert_eq!(sharded.shard_of(&Point::new(495.0, 500.0)), 1);
        assert_eq!(sharded.shard_of(&Point::new(505.0, 500.0)), 2);
        let report = sharded.evaluate(2);
        assert_eq!(
            report.results,
            vec![QueryMatch::new(QueryId(1), ObjectId(1))]
        );
        assert!(sharded.ghost_refreshes() > 0, "exchange actually ran");
        let row = report.phases.get(STAGE_SHARD_EXCHANGE).expect("stage row");
        assert!(row.items_in > 0, "a ghost was received");
        assert!(row.tests > 0, "cross-join comparisons happened");
    }

    #[test]
    fn migration_hands_entity_to_the_new_owner() {
        let params = ScubaParams::default().with_shards(2);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.process_update(&obj_at(7, 100.0, 500.0, 0));
        sharded.process_update(&obj_at(7, 900.0, 500.0, 1));
        // Exactly one engine may know the entity, and it is the new owner.
        let holders: Vec<usize> = sharded
            .engines()
            .enumerate()
            .filter(|(_, e)| e.cluster_count() > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(holders, vec![1]);
        let report = sharded.evaluate(2);
        let route = report.phases.get(STAGE_SHARD_ROUTE).expect("route row");
        assert_eq!(route.items_in, 2);
        assert_eq!(route.tests, 1, "one stripe migration");
        for engine in sharded.engines() {
            engine.check_invariants();
        }
    }

    #[test]
    fn stripe_capture_restore_preserves_results() {
        let params = ScubaParams::default().with_shards(4);
        let mut original = ShardedScubaOperator::new(params, area());
        for i in 0..60u64 {
            let x = 30.0 + (i * 37 % 940) as f64;
            let y = 30.0 + (i * 61 % 940) as f64;
            let u = if i % 2 == 0 {
                obj(i, x, y)
            } else {
                qry(i, x, y, 50.0)
            };
            original.process_update(&u);
        }
        let stripes = original.capture_stripes();
        assert_eq!(stripes.len(), original.shard_count());
        let mut restored = ShardedScubaOperator::from_stripes(&stripes).expect("restores");
        assert_eq!(restored.shard_count(), original.shard_count());

        // Continue both with the same stream; results must stay identical
        // (the restored side starts with cold caches — counters may
        // differ, answers may not).
        for round in 1..=3u64 {
            let batch: Vec<LocationUpdate> = (0..60u64)
                .map(|i| {
                    let x = 30.0 + ((i * 37 + round * 13) % 940) as f64;
                    let y = 30.0 + ((i * 61 + round * 7) % 940) as f64;
                    obj_at(i * 2, x, y, round)
                })
                .collect();
            original.process_batch(&batch);
            restored.process_batch(&batch);
            let a = original.evaluate(round * 2);
            let b = restored.evaluate(round * 2);
            assert_eq!(a.results, b.results, "round {round}");
        }
        // Capturing the restored operator reproduces the evolved state.
        assert_eq!(original.capture_stripes(), restored.capture_stripes());
    }

    #[test]
    fn from_stripes_rejects_wrong_stripe_count() {
        let params = ScubaParams::default().with_shards(2);
        let op = ShardedScubaOperator::new(params, area());
        let mut stripes = op.capture_stripes();
        stripes.pop();
        assert!(matches!(
            ShardedScubaOperator::from_stripes(&stripes),
            Err(SnapshotError::ShardMismatch {
                found: 1,
                expected: 2
            })
        ));
        assert!(matches!(
            ShardedScubaOperator::from_stripes(&[]),
            Err(SnapshotError::ShardMismatch { .. })
        ));
    }

    #[test]
    fn injected_panic_surfaces_as_typed_failure() {
        use scuba_stream::{PanicInjector, PanicPlan};
        let params = ScubaParams::default().with_shards(4);
        let injector = Arc::new(PanicInjector::new(PanicPlan {
            seed: 3,
            panic_prob: 1.0,
            rearm: false,
        }));
        let mut sharded =
            ShardedScubaOperator::new(params, area()).with_panic_injector(Arc::clone(&injector));
        for i in 0..40u64 {
            let x = 30.0 + (i * 37 % 940) as f64;
            sharded.process_update(&obj(i, x, 500.0));
        }
        let failure = sharded.try_evaluate(2).expect_err("all workers panic");
        assert_eq!(failure.now, 2);
        assert!(failure.message.contains("injected worker panic"));
        assert!(injector.fired() > 0);
        // Transient sites: the retry fires nothing new, and on restored
        // state it would succeed — here the un-restored retry still runs
        // to completion because panics were one-shot.
        assert!(sharded.try_evaluate(2).is_ok());
    }

    #[test]
    fn unsupervised_evaluate_reports_worker_failure_as_fault() {
        use scuba_stream::{PanicInjector, PanicPlan};
        let params = ScubaParams::default().with_shards(2);
        let injector = Arc::new(PanicInjector::new(PanicPlan {
            seed: 7,
            panic_prob: 1.0,
            rearm: true,
        }));
        let mut sharded = ShardedScubaOperator::new(params, area()).with_panic_injector(injector);
        sharded.process_update(&obj(1, 100.0, 500.0));
        assert_eq!(sharded.fault(), None);
        let report = sharded.evaluate(2);
        assert!(
            report.results.is_empty(),
            "quarantined epoch yields nothing"
        );
        let fault = sharded.fault().expect("failure recorded");
        assert!(fault.contains("panicked at t=2"), "got: {fault}");
    }

    #[test]
    fn control_lifecycle_registers_and_deregisters_across_stripes() {
        let params = ScubaParams::default().with_shards(2);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.apply_control(&[ControlOp::Register(qry(9, 204.0, 500.0, 40.0))], 1);
        sharded.process_update(&obj(1, 200.0, 500.0));
        let g = sharded.control_gauges();
        assert_eq!(g.active_queries, 1);
        assert_eq!(g.registered_total, 1);
        let report = sharded.evaluate(2);
        assert_eq!(
            report.results,
            vec![QueryMatch::new(QueryId(9), ObjectId(1))]
        );

        sharded.apply_control(&[ControlOp::Deregister(QueryId(9))], 3);
        let g = sharded.control_gauges();
        assert_eq!(g.active_queries, 0);
        assert_eq!(g.deregistered_total, 1);
        assert_eq!(g.unknown_total, 0, "a known deregister is not unknown");
        let report = sharded.evaluate(4);
        assert!(report.results.is_empty(), "deregistered query answers nothing");
        for engine in sharded.engines() {
            engine.check_invariants();
        }
    }

    #[test]
    fn deregister_follows_a_migrated_query_to_its_new_owner() {
        let params = ScubaParams::default().with_shards(2);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.process_update(&qry(5, 100.0, 500.0, 40.0));
        assert_eq!(
            sharded.registry().get(QueryId(5)).map(|r| r.owner),
            Some(Some(0)),
            "data-plane query update registers implicitly on its stripe"
        );
        sharded.process_update(&qry(5, 900.0, 500.0, 40.0));
        assert_eq!(
            sharded.registry().get(QueryId(5)).map(|r| r.owner),
            Some(Some(1)),
            "owner follows the stripe migration"
        );
        sharded.apply_control(&[ControlOp::Deregister(QueryId(5))], 1);
        assert!(sharded.registry().is_empty());
        assert_eq!(sharded.clusters_live(), Some(0), "last member dissolves");
        assert_eq!(sharded.control_gauges().unknown_total, 0);
        for engine in sharded.engines() {
            engine.check_invariants();
        }
    }

    #[test]
    fn unknown_deregister_is_counted_not_dropped() {
        let params = ScubaParams::default().with_shards(2);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.apply_control(&[ControlOp::Deregister(QueryId(77))], 1);
        let g = sharded.control_gauges();
        assert_eq!(g.unknown_total, 1);
        assert_eq!(g.deregistered_total, 0);
        // A register carrying a non-query update is malformed: counted too.
        sharded.apply_control(&[ControlOp::Register(obj(3, 100.0, 100.0))], 1);
        assert_eq!(sharded.control_gauges().unknown_total, 2);
    }

    #[test]
    fn shard_count_clamps_to_grid_columns() {
        let params = ScubaParams::default().with_grid_cells(4).with_shards(64);
        let sharded = ShardedScubaOperator::new(params, area());
        assert_eq!(sharded.shard_count(), 4);
    }

    #[test]
    fn merged_report_carries_shard_stages() {
        let params = ScubaParams::default().with_shards(2);
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.process_update(&obj(1, 200.0, 500.0));
        sharded.process_update(&qry(2, 204.0, 500.0, 20.0));
        sharded.process_update(&obj(3, 800.0, 500.0));
        let report = sharded.evaluate(2);
        assert_eq!(report.results.len(), 1);
        for stage in [STAGE_SHARD_ROUTE, STAGE_SHARD_EXCHANGE, STAGE_SHARD_MERGE] {
            assert!(report.phases.get(stage).is_some(), "missing {stage}");
        }
        assert!(report.phases.get(crate::join::STAGE_JOIN_WITHIN).is_some());
        assert_eq!(sharded.clusters_live(), Some(2));
        assert!(sharded.memory_bytes() > 0);
        assert_eq!(sharded.name(), "SCUBA[shards=2]");
    }
}
