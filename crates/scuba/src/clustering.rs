//! Incremental moving-cluster formation (paper §3.2).
//!
//! SCUBA adapts a Leader–Follower style incremental clusterer: each arriving
//! location update makes a local, one-at-a-time decision —
//!
//! 1. probe for candidate clusters near the update's position;
//! 2. no candidates ⇒ found a new single-member cluster (radius 0);
//! 3. otherwise check each candidate for: same destination connection node,
//!    centroid within Θ_D, speed within Θ_S of the cluster average;
//! 4. among the candidates passing all three, the one with the nearest
//!    centroid absorbs the entity (ties broken by [`ClusterId`]);
//! 5. no candidate passes ⇒ found a new single-member cluster.
//!
//! Step 4 is canonical on purpose: the choice depends only on the clusters
//! that exist and their durable ids, never on the order in which an index
//! happens to list them. That is what makes engine state a function of the
//! update history alone — a resumed engine, whose slots were reassigned by
//! [`ClusterEngine::restore`], keeps clustering exactly like the live one.
//!
//! On top of the paper's five steps this module handles the membership
//! churn the paper describes in prose: an entity whose new update no longer
//! fits its current cluster leaves it (dissolving the cluster if it became
//! empty) and is re-clustered from step 1; an entity that still fits simply
//! refreshes its relative position.
//!
//! # Two indexes, two readers
//!
//! The paper's ClusterGrid does two jobs; here they are two structures:
//!
//! * the step-1 probe needs *centroids* ("is there a cluster whose centroid
//!   lies within Θ_D?"). The engine-private `CentroidIndex` files every
//!   live cluster under the one cell holding its centroid and is kept
//!   current per update — a found, an absorb, a relocation or a dissolve
//!   moves at most one entry;
//! * the join needs *regions* ("which clusters' effective regions share a
//!   cell?"). That is the [`SpatialIndex`] behind [`ClusterEngine::grid`].
//!   Nothing reads it during ingest, so ingest only marks the slots whose
//!   region changed and [`ClusterEngine::sync_index`] re-registers them
//!   once per Δ, right before the joining phase. (kNN scans the store.)
//!
//! Cluster storage is the generational [`ClusterStore`]: every hot path
//! addresses clusters by dense [`ClusterSlot`] handles (both indexes, the
//! entity directory, the join kernel), while [`ClusterId`] remains the
//! durable public identity. Maintenance loops iterate in slot order; each
//! cluster's maintenance is independent of the others, so the order does
//! not show in the state.

use scuba_motion::{EntityAttrs, EntityRef, LocationUpdate};
use scuba_spatial::{Circle, GridSpec, Point, Rect, Time};

use crate::cluster::{ClusterId, MovingCluster};
use crate::index::{AnyIndex, SpatialIndex};
use crate::params::{ProbeScope, ScubaParams};
use crate::store::{ClusterSlot, ClusterStore};
use crate::tables::{ClusterHome, ObjectsTable, QueriesTable};

// Re-exported here for backwards compatibility: the tracker used to live in
// this module before it became a dense per-slot table in [`crate::store`].
pub use crate::store::EpochTracker;

/// "Not held" in [`CentroidIndex::cell_of`].
const NIL: u32 = u32::MAX;

/// The step-1 probe structure: every live cluster sits in exactly one cell,
/// the one containing its centroid (border-clamped like every
/// [`GridSpec`] lookup). Cell lists are unordered: the caller picks the
/// nearest passing centroid, so list order cannot influence clustering.
#[derive(Debug)]
struct CentroidIndex {
    spec: GridSpec,
    cells: Vec<Vec<ClusterSlot>>,
    /// Linear cell index per slot, [`NIL`] for slots not held.
    cell_of: Vec<u32>,
}

impl CentroidIndex {
    fn new(spec: GridSpec) -> Self {
        CentroidIndex {
            spec,
            cells: vec![Vec::new(); spec.cell_count()],
            cell_of: Vec::new(),
        }
    }

    /// Files `slot` under the cell of `centroid`, moving it if it was held
    /// elsewhere.
    fn place(&mut self, slot: ClusterSlot, centroid: &Point) {
        let cell = self.spec.linear(self.spec.cell_of(centroid)) as u32;
        if slot.index() >= self.cell_of.len() {
            self.cell_of.resize(slot.index() + 1, NIL);
        }
        if self.cell_of[slot.index()] == cell {
            return;
        }
        self.remove(slot);
        self.cells[cell as usize].push(slot);
        self.cell_of[slot.index()] = cell;
    }

    /// Drops `slot` from its cell (a no-op when it is not held).
    fn remove(&mut self, slot: ClusterSlot) {
        let Some(&cell) = self.cell_of.get(slot.index()) else {
            return;
        };
        if cell == NIL {
            return;
        }
        let list = &mut self.cells[cell as usize];
        let pos = list.iter().position(|&s| s == slot);
        list.swap_remove(pos.expect("a held slot is listed in its cell"));
        self.cell_of[slot.index()] = NIL;
    }

    /// The slots filed under the cell with linear index `cell`.
    fn cell(&self, cell: usize) -> &[ClusterSlot] {
        &self.cells[cell]
    }

    /// The cells (by linear index) that can hold a centroid within
    /// `theta_d` of `loc`: every cell the Θ_D bounding box touches (at most
    /// 3×3 when cells are at least Θ_D wide). Border clamping is monotone
    /// per axis, so a centroid within Θ_D of `loc` — inside the area or
    /// not — always falls in that cell range. Under
    /// [`ProbeScope::OwnCell`], only `loc`'s own cell.
    fn probe_cells(
        &self,
        scope: ProbeScope,
        loc: Point,
        theta_d: f64,
    ) -> impl Iterator<Item = usize> + '_ {
        let reach = match scope {
            ProbeScope::ThetaDisk => theta_d,
            ProbeScope::OwnCell => 0.0,
        };
        let bbox = Circle::new(loc, reach).bounding_rect();
        self.spec
            .cells_overlapping_rect(&bbox)
            .map(move |idx| self.spec.linear(idx))
    }

    fn estimated_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Vec<ClusterSlot>>()
            + (self.cells.iter().map(Vec::capacity).sum::<usize>() + self.cell_of.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// Counters describing clustering activity, for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusteringStats {
    /// Clusters founded (steps 2 and 5).
    pub clusters_formed: u64,
    /// Updates absorbed into an existing cluster (step 4).
    pub absorptions: u64,
    /// In-place refreshes of an existing membership.
    pub refreshes: u64,
    /// Memberships dropped because the entity no longer fit.
    pub evictions: u64,
    /// Clusters dissolved (emptied or expired).
    pub dissolutions: u64,
    /// Member positions discarded by load shedding.
    pub positions_shed: u64,
}

/// The clustering state machine: store + entity directory + the two
/// indexes + attribute tables.
#[derive(Debug)]
pub struct ClusterEngine {
    params: ScubaParams,
    /// Region index (join pair discovery); current as of the last
    /// [`ClusterEngine::sync_index`].
    grid: AnyIndex,
    /// Centroid index (step-1 probe); always current.
    centroids: CentroidIndex,
    store: ClusterStore,
    home: ClusterHome,
    objects: ObjectsTable,
    queries: QueriesTable,
    next_cid: u64,
    stats: ClusteringStats,
    updates_processed: u64,
    /// Per-slot flag: the slot's registration in `grid` is out of date
    /// (region changed, cluster dissolved, or slot re-founded) and is
    /// redone by the next [`ClusterEngine::sync_index`].
    dirty: Vec<bool>,
    /// Number of flags set in `dirty`.
    dirty_count: usize,
}

impl ClusterEngine {
    /// Creates an engine clustering over `area` with the given parameters.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid SCUBA params: {e}"));
        let spec = GridSpec::new(area, params.grid_cells);
        ClusterEngine {
            params,
            grid: AnyIndex::new(
                params.index,
                spec,
                params.split_threshold,
                params.merge_threshold,
            ),
            centroids: CentroidIndex::new(spec),
            store: ClusterStore::new(),
            home: ClusterHome::new(),
            objects: ObjectsTable::new(),
            queries: QueriesTable::new(),
            next_cid: 0,
            stats: ClusteringStats::default(),
            updates_processed: 0,
            dirty: Vec::new(),
            dirty_count: 0,
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// The engine parameters.
    pub fn params(&self) -> &ScubaParams {
        &self.params
    }

    /// The region index playing the ClusterGrid role, behind the
    /// [`SpatialIndex`] trait, so the uniform and adaptive implementations
    /// are interchangeable for its readers (join pair-discovery,
    /// diagnostics).
    ///
    /// **Current as of the last [`ClusterEngine::sync_index`]**: ingest and
    /// maintenance only mark the slots whose region changed. Readers that
    /// are not downstream of [`crate::engine::ScubaOperator`]'s evaluate
    /// sequence call `sync_index()` first; [`ClusterEngine::index_is_current`]
    /// tells whether anything is pending.
    pub fn grid(&self) -> &dyn SpatialIndex {
        self.grid.as_dyn()
    }

    /// Whether [`ClusterEngine::grid`] reflects every cluster's current
    /// effective region (no re-registration is pending).
    pub fn index_is_current(&self) -> bool {
        self.dirty_count == 0
    }

    /// The concrete index dispatcher (bench/diagnostic introspection —
    /// e.g. how many cells the adaptive grid currently refines).
    pub fn index(&self) -> &AnyIndex {
        &self.grid
    }

    /// Brings the region index up to date: every slot marked since the
    /// previous sync is re-registered with its cluster's current effective
    /// region, or unregistered when the slot is vacant (a slot dissolved and
    /// re-founded in between is simply re-registered). Slots are visited in
    /// ascending order. [`crate::engine::ScubaOperator`] calls this once per
    /// Δ, after the optional radius tightening and before
    /// [`ClusterEngine::rebalance_index`] and the joining phase.
    pub fn sync_index(&mut self) {
        if self.dirty_count == 0 {
            return;
        }
        for (i, flag) in self.dirty.iter_mut().enumerate() {
            if !std::mem::take(flag) {
                continue;
            }
            let slot = ClusterSlot(i as u32);
            match self.store.get(slot) {
                Some(cluster) => {
                    self.grid.insert(slot, &cluster.effective_region());
                }
                None => {
                    self.grid.remove(slot);
                }
            }
        }
        self.dirty_count = 0;
    }

    /// Notes that `slot`'s registration in the region index is out of date.
    fn mark_dirty(&mut self, slot: ClusterSlot) {
        if slot.index() >= self.dirty.len() {
            self.dirty.resize(slot.index() + 1, false);
        }
        if !std::mem::replace(&mut self.dirty[slot.index()], true) {
            self.dirty_count += 1;
        }
    }

    /// Runs one incremental re-balance pass of the index (a no-op for the
    /// uniform grid). [`crate::engine::ScubaOperator`] calls this once per
    /// Δ, right after [`ClusterEngine::sync_index`] and before the joining
    /// phase, so refinement decisions depend only on the registered regions
    /// at a fixed point of the pipeline — never on mid-tick transients —
    /// which keeps the adaptive grid deterministic.
    pub fn rebalance_index(&mut self) {
        self.grid.rebalance();
    }

    /// The cluster store (all live clusters). Alias of
    /// [`ClusterEngine::store`], kept for the many call sites that read
    /// "the engine's clusters".
    pub fn clusters(&self) -> &ClusterStore {
        &self.store
    }

    /// The generational cluster store.
    pub fn store(&self) -> &ClusterStore {
        &self.store
    }

    /// One cluster by durable id (cold path: hashes).
    pub fn cluster(&self, cid: ClusterId) -> Option<&MovingCluster> {
        self.store.get_by_id(cid)
    }

    /// One cluster by slot handle (hot path: indexed load).
    pub fn cluster_at(&self, slot: ClusterSlot) -> Option<&MovingCluster> {
        self.store.get(slot)
    }

    /// The slot currently holding cluster `cid`.
    pub fn slot_of(&self, cid: ClusterId) -> Option<ClusterSlot> {
        self.store.slot_of(cid)
    }

    /// The entity directory: entity → (cluster slot, member position).
    pub fn home(&self) -> &ClusterHome {
        &self.home
    }

    /// The objects table.
    pub fn objects(&self) -> &ObjectsTable {
        &self.objects
    }

    /// The queries table.
    pub fn queries(&self) -> &QueriesTable {
        &self.queries
    }

    /// Activity counters.
    pub fn stats(&self) -> ClusteringStats {
        self.stats
    }

    /// Number of updates processed so far.
    pub fn updates_processed(&self) -> u64 {
        self.updates_processed
    }

    /// The per-slot mutation clock (incremental-join dirty tracking).
    pub fn epochs(&self) -> &EpochTracker {
        self.store.epochs()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.store.len()
    }

    /// The coverage area the grid was built over.
    pub fn area(&self) -> Rect {
        self.grid.spec().area()
    }

    /// The next cluster id to be assigned (snapshot support).
    pub fn next_cluster_id(&self) -> u64 {
        self.next_cid
    }

    /// Restores an engine from previously captured state: parameters,
    /// area, cluster set (with members), attribute tables and the id
    /// counter. The store (with fresh slots and generations), both indexes
    /// and the entity directory are rebuilt; the region index comes back
    /// current. Used by [`crate::snapshot`].
    pub fn restore(
        params: ScubaParams,
        area: Rect,
        clusters: Vec<MovingCluster>,
        objects: ObjectsTable,
        queries: QueriesTable,
        next_cid: u64,
        updates_processed: u64,
    ) -> Result<Self, String> {
        params.validate()?;
        let mut engine = ClusterEngine::new(params, area);
        engine.objects = objects;
        engine.queries = queries;
        engine.next_cid = next_cid;
        engine.updates_processed = updates_processed;
        for cluster in clusters {
            if cluster.cid.0 >= next_cid {
                return Err(format!(
                    "cluster id {} not below the id counter {next_cid}",
                    cluster.cid.0
                ));
            }
            if engine.store.slot_of(cluster.cid).is_some() {
                return Err("duplicate cluster id in snapshot".into());
            }
            let slot = engine.store.insert(cluster);
            let cluster = engine.store.get(slot).expect("just inserted");
            engine.grid.insert(slot, &cluster.effective_region());
            engine.centroids.place(slot, &cluster.centroid());
            for (idx, member) in cluster.members().iter().enumerate() {
                if engine
                    .home
                    .assign(member.entity, slot, idx as u32)
                    .is_some()
                {
                    return Err(format!("entity {} appears in two clusters", member.entity));
                }
            }
        }
        Ok(engine)
    }

    // ---- the five steps ----------------------------------------------------

    /// Processes one location update (the cluster pre-join maintenance
    /// phase of Algorithm 1, step 6).
    pub fn process_update(&mut self, update: &LocationUpdate) {
        self.updates_processed += 1;
        self.upsert_attrs(update);
        let ScubaParams {
            theta_d,
            theta_s,
            cnloc_tolerance,
            probe_scope,
            ..
        } = self.params;
        let fits = |c: &MovingCluster| c.can_absorb(update, theta_d, theta_s, cnloc_tolerance);

        // An entity already in a cluster either refreshes in place or
        // leaves before re-clustering.
        if let Some((slot, idx)) = self.home.entry_of(update.entity) {
            let cluster = self
                .store
                .get(slot)
                .expect("directory points at a live slot");
            debug_assert_eq!(
                cluster.members()[idx as usize].entity,
                update.entity,
                "directory points at another member"
            );
            if fits(cluster) {
                self.refresh_member(update, slot, idx as usize);
                return;
            }
            self.leave(update.entity);
            self.stats.evictions += 1;
        }

        // Steps 1, 3, 4: probe the centroid index around the update and let
        // the nearest passing centroid absorb it, ties by cluster id.
        // Probing the Θ_D box (not just the update's own cell) keeps
        // clustering behaviour independent of the grid granularity — with
        // fine grids a cell is much smaller than Θ_D and an own-cell probe
        // would miss most joinable clusters (cf. Fig. 9a, where SCUBA's
        // cost barely changes across grid sizes).
        let mut best: Option<((f64, ClusterId), ClusterSlot)> = None;
        for cell in self.centroids.probe_cells(probe_scope, update.loc, theta_d) {
            for &slot in self.centroids.cell(cell) {
                let cluster = self
                    .store
                    .get(slot)
                    .expect("the centroid index holds live slots only");
                if !fits(cluster) {
                    continue;
                }
                let key = (update.loc.distance_sq(&cluster.centroid()), cluster.cid);
                let nearer = match best {
                    Some((nearest, _)) => key < nearest,
                    None => true,
                };
                if nearer {
                    best = Some((key, slot));
                }
            }
        }

        match best {
            Some((_, slot)) => self.absorb_into(update, slot),
            // Steps 2 / 5: found a new single-member cluster.
            None => self.found_cluster(update),
        }
    }

    /// Keeps the attribute tables current for one update.
    fn upsert_attrs(&mut self, update: &LocationUpdate) {
        match update.attrs {
            EntityAttrs::Object(attrs) => {
                if let Some(id) = update.entity.as_object() {
                    self.objects.upsert(id, attrs);
                }
            }
            EntityAttrs::Query(attrs) => {
                if let Some(id) = update.entity.as_query() {
                    self.queries.upsert(id, attrs);
                }
            }
        }
    }

    /// Refreshes `update.entity` — member number `idx` of its (still
    /// fitting) home cluster at `slot` — in place.
    fn refresh_member(&mut self, update: &LocationUpdate, slot: ClusterSlot, idx: usize) {
        let params = &self.params;
        let (shed, region_changed) = self.store.update(slot, |cluster| {
            let shed = Self::shed_decision(params, cluster, update);
            let before = cluster.effective_region();
            cluster.update_member_at(idx, update, shed);
            (shed, cluster.effective_region() != before)
        });
        if shed {
            self.stats.positions_shed += 1;
        }
        self.stats.refreshes += 1;
        self.store.touch(slot);
        // A refresh never moves the centroid, but a grown reach extends the
        // cell set the region covers.
        if region_changed {
            self.mark_dirty(slot);
        }
    }

    /// Absorbs `update.entity` into the cluster at `slot` (steps 3–4 of the
    /// Leader–Follower walk, after the probe chose the candidate).
    fn absorb_into(&mut self, update: &LocationUpdate, slot: ClusterSlot) {
        let params = &self.params;
        let (shed, centroid, idx) = self.store.update(slot, |cluster| {
            let shed = Self::shed_decision(params, cluster, update);
            cluster.absorb(update, shed);
            (shed, cluster.centroid(), cluster.len() - 1)
        });
        if shed {
            self.stats.positions_shed += 1;
        }
        self.centroids.place(slot, &centroid);
        self.mark_dirty(slot);
        self.home.assign(update.entity, slot, idx as u32);
        self.stats.absorptions += 1;
        self.store.touch(slot);
    }

    /// Whether the update's position should be shed under the configured
    /// policy, judged by its distance to the candidate cluster's centroid.
    fn shed_decision(
        params: &ScubaParams,
        cluster: &MovingCluster,
        update: &LocationUpdate,
    ) -> bool {
        if !params.shedding.is_active() {
            return false;
        }
        let r = update.loc.distance(&cluster.centroid());
        params.shedding.sheds_at(r, params.theta_d)
    }

    /// Takes `entity` out of its cluster (if it has one): drops its
    /// directory entry, re-points the member the swap-remove moved into its
    /// place, and dissolves the cluster if it emptied. Returns whether the
    /// entity was clustered.
    fn leave(&mut self, entity: EntityRef) -> bool {
        let Some((slot, idx)) = self.home.unassign(entity) else {
            return false;
        };
        let (emptied, moved) = self.store.update(slot, |cluster| {
            let (_, moved) = cluster.remove_member_at(idx as usize);
            (cluster.is_empty(), moved)
        });
        if let Some(moved) = moved {
            self.home.set_index(moved, idx);
        }
        self.store.touch(slot);
        if emptied {
            self.dissolve_slot(slot);
        }
        true
    }

    fn found_cluster(&mut self, update: &LocationUpdate) {
        let cid = ClusterId(self.next_cid);
        self.next_cid += 1;
        // A founder sits exactly at the centroid (r = 0), so any active
        // nucleus sheds it.
        let shed = self.params.shedding.is_active()
            && self.params.shedding.sheds_at(0.0, self.params.theta_d);
        let cluster = MovingCluster::found(cid, update, shed);
        if shed {
            self.stats.positions_shed += 1;
        }
        let slot = self.store.insert(cluster);
        self.centroids.place(slot, &update.loc);
        self.mark_dirty(slot);
        self.home.assign(update.entity, slot, 0);
        self.stats.clusters_formed += 1;
    }

    /// Dissolves a cluster by id: members lose their membership and will
    /// re-cluster with their next updates.
    pub fn dissolve(&mut self, cid: ClusterId) {
        if let Some(slot) = self.store.slot_of(cid) {
            self.dissolve_slot(slot);
        }
    }

    /// Dissolves the cluster at `slot`, freeing the slot for reuse.
    fn dissolve_slot(&mut self, slot: ClusterSlot) {
        let cluster = self.store.remove(slot);
        for member in cluster.members() {
            self.home.unassign(member.entity);
        }
        self.centroids.remove(slot);
        self.mark_dirty(slot);
        self.stats.dissolutions += 1;
    }

    /// Removes an entity entirely: its cluster membership *and* its
    /// attribute-table registration. This is how a continuous query is
    /// cancelled or a retired object deregistered. Returns `true` when the
    /// entity was known in any structure.
    pub fn remove_entity(&mut self, entity: EntityRef) -> bool {
        let registered = match entity {
            EntityRef::Object(id) => self.objects.remove(id).is_some(),
            EntityRef::Query(id) => self.queries.remove(id).is_some(),
        };
        let clustered = self.leave(entity);
        registered || clustered
    }

    /// Evicts members that have not reported for more than `ttl` time units
    /// (measured against `now`), dissolving clusters that empty out.
    /// Returns how many memberships were dropped. Attribute-table entries
    /// are removed too — a silent entity is gone, not merely mispositioned.
    pub fn evict_stale(&mut self, now: Time, ttl: u64) -> usize {
        let cutoff = now.saturating_sub(ttl);
        let mut stale: Vec<EntityRef> = Vec::new();
        for cluster in self.store.values() {
            for member in cluster.members() {
                if member.last_seen < cutoff {
                    stale.push(member.entity);
                }
            }
        }
        for entity in &stale {
            self.remove_entity(*entity);
        }
        stale.len()
    }

    /// Switches the load-shedding mode at runtime (used by the adaptive
    /// memory-budget controller). Takes effect for subsequent updates and
    /// [`ClusterEngine::shed_now`] calls.
    pub fn set_shedding(&mut self, mode: crate::shedding::SheddingMode) {
        self.params.shedding = mode;
    }

    /// Immediately sheds the positions of all members inside the active
    /// nucleus, across every cluster (in slot order), returning how many
    /// positions were discarded. A no-op when shedding is inactive.
    pub fn shed_now(&mut self) -> u64 {
        let Some(nucleus) = self.params.shedding.nucleus_radius(self.params.theta_d) else {
            return 0;
        };
        let mut shed = 0u64;
        for i in 0..self.store.capacity() {
            let slot = ClusterSlot(i as u32);
            if !self.store.contains(slot) {
                continue;
            }
            let dropped = self.store.update(slot, |c| c.shed_nucleus(nucleus)) as u64;
            if dropped > 0 {
                self.store.touch(slot);
            }
            shed += dropped;
        }
        self.stats.positions_shed += shed;
        shed
    }

    /// Pre-join tightening: restores exact cluster radii before the joining
    /// phase, undoing the conservative slack the per-update absorption
    /// bound accumulated over the interval. Part of the cluster pre-join
    /// maintenance phase (Fig. 6); the shrunken regions reach the region
    /// index with the [`ClusterEngine::sync_index`] that follows.
    pub fn pre_join_tighten(&mut self) {
        let shed_floor = self
            .params
            .shedding
            .nucleus_radius(self.params.theta_d)
            .unwrap_or(0.0)
            .min(self.params.theta_d);
        for i in 0..self.store.capacity() {
            let slot = ClusterSlot(i as u32);
            if !self.store.contains(slot) {
                continue;
            }
            let shrank = self.store.update(slot, |cluster| {
                let before = cluster.radius();
                cluster.tighten(shed_floor);
                cluster.radius() < before
            });
            if shrank {
                self.mark_dirty(slot);
                self.store.touch(slot);
            }
        }
    }

    // ---- post-join maintenance (Algorithm 1 step 23) ------------------------

    /// Post-join cluster maintenance: dissolve clusters that would pass
    /// their destination node during the next interval and advance the rest
    /// along their velocity vectors. The centroid index follows at once;
    /// the region index at the next [`ClusterEngine::sync_index`].
    ///
    /// `now` is the evaluation time; the relocation spans the engine's Δ.
    pub fn post_join_maintenance(&mut self, now: Time) -> ClusteringStats {
        if let Some(ttl) = self.params.entity_ttl {
            self.evict_stale(now, ttl);
        }
        let dt = self.params.delta as f64;
        for i in 0..self.store.capacity() {
            let slot = ClusterSlot(i as u32);
            if !self.store.contains(slot) {
                continue;
            }
            // `None`: dissolve; `Some(moved)`: survived, centroid moved or not.
            let fate = self.store.update(slot, |cluster| {
                if cluster.is_empty() || cluster.passes_destination_within(dt) {
                    None
                } else {
                    Some(cluster.advance(dt).then(|| cluster.centroid()))
                }
            });
            match fate {
                None => {
                    self.dissolve_slot(slot);
                    // Unlike a dissolve during ingest, this one is not
                    // followed by a sync before the evaluation reports its
                    // footprint: drop the registration now (the next sync
                    // would do exactly this) so that `estimated_bytes`
                    // counts live clusters only.
                    self.grid.remove(slot);
                }
                // Only clusters whose centroid actually moved dirty the
                // epoch tracker — stationary clusters stay cache-clean.
                Some(Some(centroid)) => {
                    self.centroids.place(slot, &centroid);
                    self.mark_dirty(slot);
                    self.store.touch(slot);
                }
                Some(None) => {}
            }
        }
        self.stats
    }

    /// Estimated bytes of all in-memory state (the Fig. 9b measure).
    pub fn estimated_bytes(&self) -> usize {
        self.store.estimated_bytes()
            + self.grid.estimated_bytes()
            + self.centroids.estimated_bytes()
            + self.dirty.capacity()
            + self.home.estimated_bytes()
            + self.objects.estimated_bytes()
            + self.queries.estimated_bytes()
    }

    /// Debug invariant check used by tests: the store, the entity
    /// directory and both indexes agree. The region index is compared only
    /// when it is current ([`ClusterEngine::index_is_current`]); between
    /// syncs it is allowed to lag.
    pub fn check_invariants(&self) {
        self.store.check_coherent();
        for (slot, cluster) in self.store.iter() {
            assert!(
                !cluster.is_empty(),
                "live cluster {:?} is empty",
                cluster.cid
            );
            assert_eq!(
                cluster.object_count() + cluster.query_count(),
                cluster.len(),
                "member kind counts disagree"
            );
            for (idx, member) in cluster.members().iter().enumerate() {
                assert_eq!(
                    self.home.entry_of(member.entity),
                    Some((slot, idx as u32)),
                    "directory disagrees for {}",
                    member.entity
                );
                if let Some(pos) = cluster.member_position(member) {
                    assert!(
                        pos.distance(&cluster.centroid()) <= cluster.radius() + 1e-6,
                        "member {} at {:?} outside radius {} of {:?}",
                        member.entity,
                        pos,
                        cluster.radius(),
                        cluster.centroid()
                    );
                }
            }
        }
        let member_total: usize = self.store.values().map(MovingCluster::len).sum();
        assert_eq!(member_total, self.home.len(), "directory size mismatch");

        // The centroid index holds every live slot in exactly the cell of
        // its centroid, and nothing else — a misplaced or stale entry would
        // make the step-1 probe miss a joinable cluster or hit a vacant slot.
        let spec = self.centroids.spec;
        let placed: usize = (0..spec.cell_count())
            .map(|cell| self.centroids.cell(cell).len())
            .sum();
        assert_eq!(placed, self.store.len(), "centroid index size mismatch");
        for (slot, cluster) in self.store.iter() {
            let cell = spec.linear(spec.cell_of(&cluster.centroid()));
            assert_eq!(
                self.centroids.cell_of.get(slot.index()),
                Some(&(cell as u32)),
                "centroid index misplaces {:?}",
                cluster.cid
            );
            assert!(
                self.centroids.cell(cell).contains(&slot),
                "centroid cell {cell} does not list {:?}",
                cluster.cid
            );
        }

        if !self.index_is_current() {
            return;
        }
        // Once synced, the region index registers every live slot under
        // exactly the cells its current effective region overlaps, and no
        // vacant slot anywhere — a stale registration would make the
        // joining phase miss or mis-route clusters.
        assert_eq!(
            self.grid.cluster_count(),
            self.store.len(),
            "region index registers a vacant slot"
        );
        for (slot, cluster) in self.store.iter() {
            let region = cluster.effective_region();
            let expected: Vec<u32> = self
                .grid
                .spec()
                .cells_overlapping_circle(&region)
                .map(|idx| self.grid.spec().linear(idx) as u32)
                .collect();
            assert_eq!(
                self.grid.cells_of(slot),
                Some(expected.as_slice()),
                "grid registration stale for {:?}",
                cluster.cid
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shedding::SheddingMode;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
    use scuba_spatial::Point;

    const CN_EAST: Point = Point {
        x: 1000.0,
        y: 500.0,
    };
    const CN_WEST: Point = Point { x: 0.0, y: 500.0 };

    fn engine() -> ClusterEngine {
        ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0))
    }

    fn obj(id: u64, x: f64, y: f64, speed: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            speed,
            cn,
            ObjectAttrs::default(),
        )
    }

    fn qry(id: u64, x: f64, y: f64, speed: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            speed,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(20.0),
            },
        )
    }

    #[test]
    fn first_update_founds_cluster() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        assert_eq!(e.stats().clusters_formed, 1);
        assert_eq!(e.home().len(), 1);
        e.check_invariants();
    }

    #[test]
    fn similar_updates_share_a_cluster() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 520.0, 510.0, 32.0, CN_EAST));
        e.process_update(&qry(1, 510.0, 495.0, 28.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        assert_eq!(e.stats().absorptions, 2);
        let cluster = e.clusters().values().next().unwrap();
        assert_eq!(cluster.len(), 3);
        assert!(cluster.is_mixed());
        e.check_invariants();
    }

    #[test]
    fn different_direction_forms_new_cluster() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_WEST));
        assert_eq!(e.cluster_count(), 2);
        e.check_invariants();
    }

    #[test]
    fn speed_threshold_respected() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 45.0, CN_EAST)); // Θ_S = 10
        assert_eq!(e.cluster_count(), 2);
    }

    #[test]
    fn distance_threshold_respected() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        // 150 > Θ_D = 100 away, same cell? 100x100 grid over 1000 side →
        // cell size 10; different cells anyway, but also beyond Θ_D.
        e.process_update(&obj(2, 650.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.cluster_count(), 2);
    }

    #[test]
    fn probe_spans_theta_d_across_cells() {
        // Cell size here is 10 (100×100 cells over a 1000 area) — far
        // smaller than Θ_D = 100. Entities 50 apart sit in different cells
        // but must still cluster together: the step-1 probe covers the Θ_D
        // disk, not just the update's own cell.
        let mut e = engine();
        e.process_update(&obj(1, 105.0, 105.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 155.0, 105.0, 30.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        e.check_invariants();
    }

    #[test]
    fn refresh_keeps_membership() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(1, 510.0, 500.0, 31.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        assert_eq!(e.stats().refreshes, 1);
        assert_eq!(e.stats().evictions, 0);
        let c = e.clusters().values().next().unwrap();
        assert_eq!(c.len(), 1);
        assert!((c.ave_speed() - 31.0).abs() < 1e-9);
        e.check_invariants();
    }

    #[test]
    fn direction_change_evicts_and_reclusters() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        // Object 1 turns around at a connection node.
        e.process_update(&obj(1, 510.0, 500.0, 30.0, CN_WEST));
        assert_eq!(e.stats().evictions, 1);
        assert_eq!(e.cluster_count(), 2);
        e.check_invariants();
    }

    #[test]
    fn eviction_of_last_member_dissolves_cluster() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_WEST));
        assert_eq!(e.cluster_count(), 1, "old dissolved, new formed");
        assert_eq!(e.stats().dissolutions, 1);
        e.check_invariants();
    }

    #[test]
    fn dissolved_slot_is_reused_by_the_next_founding() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        let slot = e.store().slots().next().unwrap();
        let gen_before = e.store().generation(slot);
        // Direction flip dissolves the singleton and founds a replacement.
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_WEST));
        let slot_after = e.store().slots().next().unwrap();
        assert_eq!(slot, slot_after, "vacated slot is reused");
        assert_eq!(e.store().generation(slot), gen_before + 1);
        assert_eq!(e.store().capacity(), 1, "slab did not grow under churn");
        e.check_invariants();
    }

    #[test]
    fn attribute_tables_populated() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(9, 400.0, 400.0, 20.0, CN_WEST));
        assert_eq!(e.objects().len(), 1);
        assert_eq!(e.queries().len(), 1);
        assert!(e.queries().get(QueryId(9)).is_some());
    }

    #[test]
    fn post_join_relocates_clusters() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        let before = e.clusters().values().next().unwrap().centroid();
        e.post_join_maintenance(2);
        let after = e.clusters().values().next().unwrap().centroid();
        // Δ = 2 at speed 30 → 60 units toward CN_EAST.
        assert!((before.distance(&after) - 60.0).abs() < 1e-9);
        assert!(after.x > before.x);
        e.check_invariants();
    }

    #[test]
    fn post_join_dissolves_clusters_reaching_destination() {
        let mut e = engine();
        // 40 units from destination at speed 30, Δ = 2 → passes it.
        e.process_update(&obj(1, 960.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.cluster_count(), 1);
        e.sync_index();
        assert_eq!(e.grid().cluster_count(), 1);
        e.post_join_maintenance(2);
        assert_eq!(e.cluster_count(), 0);
        assert_eq!(e.home().len(), 0);
        // No sync follows inside the evaluation, yet the footprint it
        // reports must not count the dissolved cluster's registration.
        assert_eq!(e.grid().cluster_count(), 0);
        // The object re-clusters with its next update (fresh destination).
        e.process_update(&obj(1, 1000.0, 500.0, 30.0, CN_WEST));
        assert_eq!(e.cluster_count(), 1);
        e.check_invariants();
    }

    #[test]
    fn grid_follows_relocation() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.post_join_maintenance(2);
        assert!(
            !e.index_is_current(),
            "relocation leaves the region index pending"
        );
        e.sync_index();
        assert!(e.index_is_current());
        let (slot, c) = e.store().iter().next().unwrap();
        let centroid = c.centroid();
        assert!(
            e.grid().clusters_near(&centroid).contains(&slot),
            "grid not updated after relocation"
        );
        e.check_invariants();
    }

    #[test]
    fn full_shedding_discards_all_positions() {
        let mut e = ClusterEngine::new(
            ScubaParams::default().with_shedding(SheddingMode::Full),
            Rect::square(1000.0),
        );
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        let c = e.clusters().values().next().unwrap();
        assert!(c.members().iter().all(|m| m.is_shed()));
        assert_eq!(e.stats().positions_shed, 2);
    }

    #[test]
    fn partial_shedding_keeps_outer_positions() {
        let mut e = ClusterEngine::new(
            ScubaParams::default().with_shedding(SheddingMode::Partial { eta: 0.3 }),
            Rect::square(1000.0),
        );
        // Founder (at centroid, r = 0 → shed).
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        // Far member (r = 80 > 0.3·100 → kept).
        e.process_update(&obj(2, 580.0, 500.0, 30.0, CN_EAST));
        let c = e.clusters().values().next().unwrap();
        let shed: Vec<bool> = c.members().iter().map(|m| m.is_shed()).collect();
        assert_eq!(shed.iter().filter(|&&s| s).count(), 1);
        assert_eq!(e.stats().positions_shed, 1);
    }

    #[test]
    fn shedding_reduces_memory_estimate() {
        let mut kept = engine();
        let mut shed = ClusterEngine::new(
            ScubaParams::default().with_shedding(SheddingMode::Full),
            Rect::square(1000.0),
        );
        for i in 0..100 {
            let u = obj(i, 500.0 + (i % 10) as f64, 500.0, 30.0, CN_EAST);
            kept.process_update(&u);
            shed.process_update(&u);
        }
        assert!(shed.estimated_bytes() < kept.estimated_bytes());
    }

    #[test]
    fn many_updates_keep_invariants() {
        let mut e = engine();
        for round in 0..5u64 {
            for i in 0..200u64 {
                let x = 10.0 + (i % 20) as f64 * 45.0 + round as f64 * 10.0;
                let y = 10.0 + (i / 20) as f64 * 90.0;
                let cn = if i % 3 == 0 { CN_EAST } else { CN_WEST };
                let speed = 20.0 + (i % 4) as f64 * 7.0;
                if i % 2 == 0 {
                    e.process_update(&obj(i, x, y, speed, cn));
                } else {
                    e.process_update(&qry(i, x, y, speed, cn));
                }
            }
            e.check_invariants();
            e.sync_index();
            e.check_invariants();
            e.post_join_maintenance(round * 2);
            e.check_invariants();
        }
        assert!(e.cluster_count() > 0);
        assert_eq!(e.updates_processed(), 1000);
    }

    #[test]
    #[should_panic(expected = "invalid SCUBA params")]
    fn invalid_params_panic() {
        let _ = ClusterEngine::new(
            ScubaParams::default().with_thresholds(-1.0, 1.0),
            Rect::square(10.0),
        );
    }

    #[test]
    fn remove_entity_cancels_query() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(9, 505.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.queries().len(), 1);
        assert!(e.remove_entity(QueryId(9).into()));
        assert_eq!(e.queries().len(), 0);
        assert_eq!(e.home().len(), 1, "object membership untouched");
        let c = e.clusters().values().next().unwrap();
        assert_eq!(c.len(), 1);
        assert!(!c.is_mixed());
        e.check_invariants();
        // Removing again reports unknown.
        assert!(!e.remove_entity(QueryId(9).into()));
    }

    #[test]
    fn remove_entity_dissolves_singleton_cluster() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        assert!(e.remove_entity(ObjectId(1).into()));
        assert_eq!(e.cluster_count(), 0);
        assert!(e.home().is_empty());
        e.check_invariants();
    }

    #[test]
    fn evict_stale_drops_silent_members() {
        let mut e = engine();
        // Entity 1 reports at t=0, entity 2 keeps reporting.
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        let mut late = obj(2, 506.0, 500.0, 30.0, CN_EAST);
        late.time = 10;
        e.process_update(&late);
        let evicted = e.evict_stale(10, 5);
        assert_eq!(evicted, 1);
        assert_eq!(e.home().len(), 1);
        assert_eq!(e.objects().len(), 1, "stale attrs removed too");
        e.check_invariants();
    }

    #[test]
    fn ttl_applied_during_post_join() {
        let params = ScubaParams {
            entity_ttl: Some(4),
            ..ScubaParams::default()
        };
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST)); // t=0
        let mut fresh = obj(2, 505.0, 500.0, 30.0, CN_EAST);
        fresh.time = 9;
        e.process_update(&fresh);
        e.post_join_maintenance(10);
        assert_eq!(e.home().len(), 1, "silent entity evicted at t=10, ttl=4");
        e.check_invariants();
    }

    /// Regression: a refresh that grows the effective region must
    /// re-register the cluster in every newly covered grid cell (at the
    /// next sync), so the join walks it from those cells too.
    #[test]
    fn refresh_growing_region_reregisters_grid_cells() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        let slot = e.store().slots().next().unwrap();
        e.sync_index();
        assert!(e.index_is_current());
        let cells_at_founding = e.grid().cells_of(slot).unwrap().len();

        // The founder reports again from 80 units away: still within Θ_D
        // of the (unmoved) centroid, so this is the refresh fast path, but
        // the radius jumps 0 → 80 and the region swallows dozens of cells.
        let mut far = obj(1, 580.0, 500.0, 30.0, CN_EAST);
        far.time = 1;
        e.process_update(&far);
        assert_eq!(e.stats().refreshes, 1, "took the refresh fast path");
        assert!(!e.index_is_current(), "the grown region is pending");
        e.sync_index();
        assert!(e.index_is_current());

        let cells_after = e.grid().cells_of(slot).unwrap();
        assert!(
            cells_after.len() > cells_at_founding,
            "grown region must cover more cells"
        );
        // The grid must list the cluster in the newly covered area.
        let spec = e.grid().spec();
        let far_cell = spec.linear(spec.cell_of(&Point::new(575.0, 500.0))) as u32;
        assert!(
            e.grid().cell_linear(far_cell).contains(&slot),
            "cluster not registered in a cell its region now covers"
        );
        e.check_invariants();
    }

    /// Same hole from the query side: a member query widening its range
    /// grows `max_query_radius`, which also grows the effective region.
    #[test]
    fn refresh_growing_query_radius_reregisters_grid_cells() {
        let mut e = engine();
        e.process_update(&qry(1, 500.0, 500.0, 30.0, CN_EAST));
        let slot = e.store().slots().next().unwrap();
        e.sync_index();
        assert!(e.index_is_current());
        let cells_at_founding = e.grid().cells_of(slot).unwrap().len();

        // Same position, much wider range: radius stays 0 but
        // max_query_radius (and with it the region) grows.
        let mut wide = LocationUpdate::query(
            QueryId(1),
            Point::new(500.0, 500.0),
            1,
            30.0,
            CN_EAST,
            QueryAttrs {
                spec: QuerySpec::square_range(120.0),
            },
        );
        wide.time = 1;
        e.process_update(&wide);
        assert_eq!(e.stats().refreshes, 1, "took the refresh fast path");
        e.sync_index();
        assert!(e.index_is_current());

        assert!(
            e.grid().cells_of(slot).unwrap().len() > cells_at_founding,
            "wider query range must cover more cells"
        );
        e.check_invariants();
    }

    /// Step 4 is canonical: of two clusters that both pass, the nearer
    /// centroid absorbs — whichever was founded (and listed) first.
    #[test]
    fn nearest_passing_centroid_absorbs() {
        for near_first in [true, false] {
            let mut e = engine();
            let (near, far) = (
                obj(1, 540.0, 500.0, 30.0, CN_EAST),
                obj(2, 400.0, 500.0, 30.0, CN_EAST),
            );
            if near_first {
                e.process_update(&near);
                e.process_update(&far);
            } else {
                e.process_update(&far);
                e.process_update(&near);
            }
            assert_eq!(e.cluster_count(), 2, "140 apart: two clusters");
            // 40 from one centroid, 100 from the other: both within Θ_D.
            e.process_update(&obj(3, 500.0, 500.0, 30.0, CN_EAST));
            let home = |id| e.home().cluster_of(ObjectId(id).into());
            assert_eq!(home(3), home(1), "joined the nearer cluster");
            assert_ne!(home(3), home(2));
            e.check_invariants();
        }
    }

    /// Equidistant candidates: the smaller durable cluster id wins, not the
    /// smaller slot — here the older id sits in the *higher* slot.
    #[test]
    fn equidistant_candidates_tie_break_by_cluster_id() {
        let mut e = engine();
        e.process_update(&obj(1, 900.0, 100.0, 30.0, CN_WEST)); // cid 0, slot 0
        e.process_update(&obj(2, 440.0, 500.0, 30.0, CN_EAST)); // cid 1, slot 1
                                                                // Entity 1 turns around: cluster 0 dissolves and slot 0 is
                                                                // re-founded as cid 2, 120 (> Θ_D) east of cluster 1.
        e.process_update(&obj(1, 560.0, 500.0, 30.0, CN_EAST));
        let older = e.home().cluster_of(ObjectId(2).into()).unwrap();
        let newer = e.home().cluster_of(ObjectId(1).into()).unwrap();
        assert!(newer < older, "the younger cluster reuses the lower slot");
        assert!(e.cluster_at(older).unwrap().cid < e.cluster_at(newer).unwrap().cid);
        // Exactly 60 from both centroids.
        e.process_update(&obj(3, 500.0, 500.0, 30.0, CN_EAST));
        assert_eq!(e.home().cluster_of(ObjectId(3).into()), Some(older));
        e.check_invariants();
    }

    /// Evicting a middle member swap-removes it; the directory must follow
    /// the member that moved into its place, or that member's next refresh
    /// would land on the wrong record.
    #[test]
    fn directory_follows_swap_remove() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(3, 510.0, 500.0, 32.0, CN_EAST));
        let slot = e.home().cluster_of(ObjectId(3).into()).unwrap();
        assert_eq!(e.home().entry_of(ObjectId(3).into()), Some((slot, 2)));
        // The middle member turns around and leaves.
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_WEST));
        assert_eq!(e.stats().evictions, 1);
        assert_eq!(e.home().entry_of(ObjectId(3).into()), Some((slot, 1)));
        e.check_invariants();
        // Refreshing the moved member updates *its* record.
        let mut again = obj(3, 512.0, 500.0, 36.0, CN_EAST);
        again.time = 1;
        e.process_update(&again);
        assert_eq!(e.stats().refreshes, 1);
        let cluster = e.cluster_at(slot).unwrap();
        let member = cluster.member(ObjectId(3).into()).unwrap();
        assert_eq!((member.speed, member.last_seen), (36.0, 1));
        assert_eq!(cluster.member(ObjectId(1).into()).unwrap().speed, 30.0);
        e.check_invariants();
    }

    /// A slot dissolved and re-founded between two syncs is simply
    /// re-registered with its new occupant's region.
    #[test]
    fn slot_reused_before_a_sync_is_reregistered() {
        let mut e = engine();
        e.process_update(&obj(1, 100.0, 100.0, 30.0, CN_EAST));
        e.sync_index();
        let slot = e.store().slots().next().unwrap();
        let old_cells = e.grid().cells_of(slot).unwrap().to_vec();
        // Dissolve + re-found in the same slot, far away, with no sync in
        // between; a second cluster dissolves for good.
        e.process_update(&obj(2, 300.0, 300.0, 30.0, CN_EAST));
        e.process_update(&obj(1, 800.0, 800.0, 30.0, CN_WEST));
        assert!(e.remove_entity(ObjectId(2).into()));
        assert_eq!(e.store().slots().collect::<Vec<_>>(), vec![slot]);
        assert!(!e.index_is_current());
        assert_eq!(
            e.grid().cells_of(slot),
            Some(old_cells.as_slice()),
            "lazy until the sync"
        );
        e.sync_index();
        assert!(e.index_is_current());
        assert_ne!(e.grid().cells_of(slot), Some(old_cells.as_slice()));
        assert_eq!(
            e.grid().cluster_count(),
            1,
            "the vacant slot is unregistered"
        );
        e.check_invariants();
    }

    #[test]
    fn centroid_index_places_moves_and_probes() {
        let spec = GridSpec::new(Rect::square(100.0), 10);
        let mut idx = CentroidIndex::new(spec);
        let cell = |x, y| spec.linear(spec.cell_of(&Point::new(x, y)));
        let held = |idx: &CentroidIndex, cell| {
            let mut slots: Vec<u32> = idx.cell(cell).iter().map(|s| s.0).collect();
            slots.sort_unstable();
            slots
        };
        for i in 0..4 {
            idx.place(ClusterSlot(i), &Point::new(55.0, 55.0));
        }
        assert_eq!(held(&idx, cell(55.0, 55.0)), [0, 1, 2, 3]);
        // Remove from the middle, the front and the back of the list.
        idx.remove(ClusterSlot(1));
        idx.place(ClusterSlot(3), &Point::new(5.0, 5.0));
        idx.remove(ClusterSlot(0));
        idx.remove(ClusterSlot(9)); // never placed: a no-op
        assert_eq!(held(&idx, cell(55.0, 55.0)), [2]);
        assert_eq!(held(&idx, cell(5.0, 5.0)), [3]);
        // Re-placing within the same cell changes nothing.
        idx.place(ClusterSlot(2), &Point::new(59.0, 51.0));
        assert_eq!(held(&idx, cell(55.0, 55.0)), [2]);

        // The Θ_D box reaches the neighbouring cell; the own-cell probe
        // does not. An out-of-area centroid is filed under the border cell.
        idx.place(ClusterSlot(5), &Point::new(-20.0, 48.0));
        let probe = |scope, x, y| {
            let mut slots: Vec<u32> = idx
                .probe_cells(scope, Point::new(x, y), 8.0)
                .flat_map(|cell| idx.cell(cell))
                .map(|s| s.0)
                .collect();
            slots.sort_unstable();
            slots
        };
        assert_eq!(probe(ProbeScope::ThetaDisk, 45.0, 55.0), [2]);
        assert_eq!(probe(ProbeScope::OwnCell, 45.0, 55.0), [0u32; 0]);
        assert_eq!(probe(ProbeScope::OwnCell, 52.0, 52.0), [2]);
        assert_eq!(probe(ProbeScope::ThetaDisk, -15.0, 45.0), [5]);
    }
}
