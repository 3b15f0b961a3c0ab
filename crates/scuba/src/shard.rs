//! Sharded multi-worker executor: stripe-owned `ClusterStore`s with
//! boundary-ghost handoff (ROADMAP item 1; DESIGN §4.8).
//!
//! The coverage area is split into K contiguous **column stripes** of the
//! ClusterGrid, and each stripe is owned by one worker holding a full
//! [`ClusterEngine`]: its own `ClusterStore` and its own region grid.
//! A router classifies every location
//! update by the stripe of its reported position and hands it to the
//! owner; when an entity's new position crosses a stripe border, the
//! router emits a remove on the old owner before the update lands on the
//! new one, so every entity lives on exactly one shard at all times.
//!
//! Per evaluation (every Δ) the workers run the regular three-phase SCUBA
//! pipeline locally, with one extra step between the local join and
//! post-join maintenance: **ghost exchange**. Clusters whose halo
//! (effective radius + the global maximum effective radius) reaches into a
//! lower-indexed stripe are replicated there as read-only ghosts: the
//! cluster and the specs of its query members, which is what join-within
//! materialises. The receiving shard materialises them into its
//! join-within arena and joins its local clusters against them with
//! join-between's predicate and join-within's member loop, so every
//! cross-boundary cluster pair is evaluated exactly once, on the
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
//! a match (see DESIGN §4.8 for the argument).
//!
//! Robustness features that live in the single-store operator (load
//! shedding, validation, deadlines) are refused with
//! [`crate::ParamsError::UnsupportedWithShards`] when `shards > 1`.
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

use scuba_motion::{ControlOp, EntityRef, LocationUpdate, QueryId};
use scuba_spatial::{FxHashMap, GridSpec, Point, Rect, Time};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, PanicInjector, PhaseBreakdown, QueryMatch, StageStats,
    Stopwatch,
};

use crate::clustering::ClusterEngine;
use crate::engine::{pre_join, STAGE_POST_JOIN};
use crate::join::{JoinContext, JoinScratch, Replica};
use crate::params::ScubaParams;
use crate::registry::{ControlGauges, QueryRegistry};
use crate::snapshot::{EngineSnapshot, SnapshotError};

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
/// directed (local, ghost) cluster pairs, either way round, that survived
/// the circle pre-filter, `tests` = exact cross-join comparisons.
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
    scratch: JoinScratch,
    /// Removes whose entity the stripe engine no longer knew (TTL-evicted
    /// between updates, or a deregister racing an eviction). Drained into
    /// the registry's unknown counter after each apply pass so dead
    /// removes are counted, never silently dropped.
    unknown_removes: u64,
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
    /// The ghost replicas shipped / received during the most recent
    /// evaluation.
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

    /// Attaches (or detaches, with `None`) a deterministic worker-panic
    /// injector: each worker asks `injector.arm(now, shard)` once per
    /// evaluation (right before the ghost exchange, after the engine has
    /// already been mutated by tightening — so surviving an injected panic
    /// genuinely requires a restore) and panics when it fires. The
    /// supervised loop re-attaches the shared injector after restoring an
    /// operator from durable state, so re-armed fault sites keep firing
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

    /// The ghost replicas (shipped, received) during the most recent
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
    /// transients (per-stripe join scratch) are not part of the capture.
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
    /// entity→owner map is rebuilt from the stripes' attribute rows, which
    /// also name entities that are not in any cluster at capture time, so
    /// their next migration still removes them from the old stripe.
    pub fn from_stripes(stripes: &[EngineSnapshot]) -> Result<Self, SnapshotError> {
        let first = stripes.first().ok_or(SnapshotError::ShardMismatch {
            found: 0,
            expected: 1,
        })?;
        // A damaged checkpoint may hold params `new` would panic on.
        first
            .params
            .validate()
            .map_err(|e| SnapshotError::Inconsistent(e.to_string()))?;
        let mut op = ShardedScubaOperator::new(first.params, first.area);
        if stripes.len() != op.shards.len() {
            return Err(SnapshotError::ShardMismatch {
                found: stripes.len(),
                expected: op.shards.len(),
            });
        }
        for (idx, snap) in stripes.iter().enumerate() {
            let engine = snap.restore()?;
            // A stripe holds an attribute row for every entity routed to
            // it and not since migrated away, clustered or not, so the
            // rows name the owners.
            for (oid, _) in engine.objects().iter() {
                op.owner.insert(EntityRef::Object(oid), idx as u16);
            }
            for (qid, _) in engine.queries().iter() {
                op.owner.insert(EntityRef::Query(qid), idx as u16);
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
    /// so its cluster shrinks or dissolves), and retires it from the
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

/// Applies one [`ShardOp::Remove`] on its owning stripe. A remove whose
/// entity the engine no longer knows is counted in
/// [`ShardState::unknown_removes`] instead of being silently dropped.
fn apply_remove(state: &mut ShardState, entity: EntityRef) {
    if !state.engine.remove_entity(entity) {
        state.unknown_removes += 1;
    }
}

impl ContinuousOperator for ShardedScubaOperator {
    /// Applies this Δ's control ops ahead of the data batch: registers and
    /// updates are routed like ordinary updates (the carried query update
    /// lands on its owner stripe), deregisters retire the query across the
    /// router, owner engine and registry. A register
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
        let barrier = EpochBarrier::new(k);
        // Global maximum effective cluster radius this Δ, as non-negative
        // f64 bits (bit order == value order for non-negative floats).
        let max_reach_bits = AtomicU64::new(0);
        // mailboxes[dest][src]: each sender owns an uncontended slot, each
        // receiver drains its row in stripe order — deterministic without
        // sorting.
        let mailboxes: Vec<Vec<Mutex<Vec<Replica>>>> = (0..k)
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
    barrier: &EpochBarrier,
    max_reach_bits: &AtomicU64,
    mailboxes: &[Vec<Mutex<Vec<Replica>>>],
    stripe_lo: &[f64],
    stripe_hi: &[f64],
    injector: Option<&PanicInjector>,
) -> Result<ShardOutput, EpochAborted> {
    let engine = &mut state.engine;
    let mut phases = PhaseBreakdown::new();
    let clusters_before = pre_join(engine, &mut phases);

    // Deterministic panic injection, placed after the engine has already
    // been mutated (tighten, grid build) and before the first rendezvous:
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
        let mut ghost: Option<Replica> = None;
        for dest in 0..s {
            let dist = (stripe_lo[dest] - cx).max(cx - stripe_hi[dest]).max(0.0);
            if dist > halo {
                continue;
            }
            let g = ghost.get_or_insert_with(|| Replica::of(cluster, engine.queries()));
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
    let mut ghosts: Vec<Replica> = Vec::new();
    for src in mailboxes[s].iter() {
        ghosts.append(
            &mut src
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }
    let exchange_prep = sw_exchange.elapsed();

    // Local join: the standard staged pipeline over this stripe's store.
    let ctx = JoinContext {
        store: engine.store(),
        grid: engine.grid(),
        queries: engine.queries(),
    };
    let mut join = ctx.run(&mut state.scratch);
    phases.extend(std::mem::take(&mut join.stages));

    // Exchange, step 3: owner-side cross-stripe join — local clusters
    // against received ghosts, through the same join-within.
    let sw_cross = Stopwatch::start();
    let within_before = join.comparisons;
    let pairs_joined = ctx.join_ghosts(&ghosts, &mut state.scratch, &mut join);
    phases.push(
        StageStats::join(STAGE_SHARD_EXCHANGE)
            .with_wall(exchange_prep + sw_cross.elapsed())
            .with_items(ghosts.len() as u64, pairs_joined)
            .with_tests(join.comparisons - within_before),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScubaOperator;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};

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

        // Continue both with the same stream; results must stay identical.
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
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.set_panic_injector(Some(Arc::clone(&injector)));
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
        let mut sharded = ShardedScubaOperator::new(params, area());
        sharded.set_panic_injector(Some(injector));
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
        assert!(
            report.results.is_empty(),
            "deregistered query answers nothing"
        );
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
