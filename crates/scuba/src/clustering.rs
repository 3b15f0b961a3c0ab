//! Incremental moving-cluster formation (paper §3.2).
//!
//! SCUBA adapts a Leader–Follower style incremental clusterer: each arriving
//! location update makes a local, one-at-a-time decision —
//!
//! 1. probe the ClusterGrid at the update's position for candidate clusters;
//! 2. no candidates ⇒ found a new single-member cluster (radius 0);
//! 3. otherwise check each candidate for: same destination connection node,
//!    centroid within Θ_D, speed within Θ_S of the cluster average;
//! 4. the first candidate passing all three absorbs the entity;
//! 5. no candidate passes ⇒ found a new single-member cluster.
//!
//! On top of the paper's five steps this module handles the membership
//! churn the paper describes in prose: an entity whose new update no longer
//! fits its current cluster leaves it (dissolving the cluster if it became
//! empty) and is re-clustered from step 1; an entity that still fits simply
//! refreshes its relative position.
//!
//! Cluster storage is the generational [`ClusterStore`]: every hot path
//! addresses clusters by dense [`ClusterSlot`] handles (the grid, the home
//! map, the join kernel), while [`ClusterId`] remains the durable public
//! identity. All maintenance loops iterate in slot order, which is
//! deterministic for a given update history.

use scuba_motion::{EntityAttrs, LocationUpdate};
use scuba_spatial::{Circle, GridSpec, Rect, Time};

use crate::cluster::{ClusterId, MovingCluster};
use crate::index::{AnyIndex, SpatialIndex};
use crate::params::ScubaParams;
use crate::store::{ClusterSlot, ClusterStore};
use crate::tables::{ClusterHome, ObjectsTable, QueriesTable};

// Re-exported here for backwards compatibility: the tracker used to live in
// this module before it became a dense per-slot table in [`crate::store`].
pub use crate::store::EpochTracker;

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

/// The clustering state machine: store + home + grid + tables.
#[derive(Debug)]
pub struct ClusterEngine {
    params: ScubaParams,
    grid: AnyIndex,
    store: ClusterStore,
    home: ClusterHome,
    objects: ObjectsTable,
    queries: QueriesTable,
    next_cid: u64,
    stats: ClusteringStats,
    updates_processed: u64,
    /// Reusable buffer for grid probes (hot path, once per update).
    probe_scratch: Vec<ClusterSlot>,
}

impl ClusterEngine {
    /// Creates an engine clustering over `area` with the given parameters.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid SCUBA params: {e}"));
        ClusterEngine {
            params,
            grid: AnyIndex::new(
                params.index,
                GridSpec::new(area, params.grid_cells),
                params.split_threshold,
                params.merge_threshold,
            ),
            store: ClusterStore::new(),
            home: ClusterHome::new(),
            objects: ObjectsTable::new(),
            queries: QueriesTable::new(),
            next_cid: 0,
            stats: ClusteringStats::default(),
            updates_processed: 0,
            probe_scratch: Vec::new(),
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// The engine parameters.
    pub fn params(&self) -> &ScubaParams {
        &self.params
    }

    /// The spatial index playing the ClusterGrid role, behind the
    /// [`SpatialIndex`] trait. All consumers — step-1 probes, join
    /// pair-discovery, kNN, benches — go through this surface, so the
    /// uniform and adaptive implementations are interchangeable.
    pub fn grid(&self) -> &dyn SpatialIndex {
        self.grid.as_dyn()
    }

    /// The concrete index dispatcher (bench/diagnostic introspection —
    /// e.g. how many cells the adaptive grid currently refines).
    pub fn index(&self) -> &AnyIndex {
        &self.grid
    }

    /// Runs one incremental re-balance pass of the index (a no-op for the
    /// uniform grid). [`crate::engine::ScubaOperator`] calls this once per
    /// Δ, before the joining phase, so refinement decisions depend only on
    /// the registered regions at a fixed point of the pipeline — never on
    /// mid-tick transients — which keeps the adaptive grid deterministic.
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

    /// The entity → cluster-slot map.
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
    /// counter. The store (with fresh slots and generations), grid and home
    /// map are rebuilt. Used by [`crate::snapshot`].
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
            let region = cluster.effective_region();
            let members: Vec<scuba_motion::EntityRef> =
                cluster.members().iter().map(|m| m.entity).collect();
            let slot = engine.store.insert(cluster);
            engine.grid.insert(slot, &region);
            for entity in members {
                if engine.home.assign(entity, slot).is_some() {
                    return Err(format!("entity {entity} appears in two clusters"));
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

        // An entity already in a cluster either refreshes in place or
        // leaves before re-clustering.
        if let Some(slot) = self.home.cluster_of(update.entity) {
            debug_assert!(
                self.store
                    .get(slot)
                    .is_some_and(|c| c.contains(update.entity)),
                "home points at a slot not holding the entity"
            );
            let still_fits = self.store.get(slot).is_some_and(|c| {
                c.can_absorb(
                    update,
                    self.params.theta_d,
                    self.params.theta_s,
                    self.params.cnloc_tolerance,
                )
            });
            if still_fits {
                self.refresh_member(update, slot);
                return;
            }
            self.evict(update, slot);
        }

        // Step 1: probe the grid for candidates near the update. Probing
        // the Θ_D disk (not just the update's own cell) keeps clustering
        // behaviour independent of the grid granularity — with fine grids a
        // cell is much smaller than Θ_D and an own-cell probe would miss
        // most joinable clusters (cf. Fig. 9a, where SCUBA's cost barely
        // changes across grid sizes).
        let mut candidates = std::mem::take(&mut self.probe_scratch);
        match self.params.probe_scope {
            crate::params::ProbeScope::ThetaDisk => {
                let probe = scuba_spatial::Circle::new(update.loc, self.params.theta_d);
                self.grid.clusters_within_into(&probe, &mut candidates);
            }
            crate::params::ProbeScope::OwnCell => {
                candidates.clear();
                candidates.extend_from_slice(self.grid.clusters_near(&update.loc));
            }
        }
        // Steps 3–4: the first candidate satisfying all conditions absorbs.
        let chosen = candidates.iter().copied().find(|slot| {
            self.store.get(*slot).is_some_and(|c| {
                c.can_absorb(
                    update,
                    self.params.theta_d,
                    self.params.theta_s,
                    self.params.cnloc_tolerance,
                )
            })
        });

        self.probe_scratch = candidates;

        match chosen {
            Some(slot) => self.absorb_into(update, slot),
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

    /// Refreshes `update.entity` in place inside its (still fitting) home
    /// cluster at `slot`.
    fn refresh_member(&mut self, update: &LocationUpdate, slot: ClusterSlot) {
        let params = &self.params;
        let (shed, region_before, region) = self.store.update(slot, |cluster| {
            let shed = Self::shed_decision(params, cluster, update);
            let before = cluster.effective_region();
            cluster.update_member(update, shed);
            (shed, before, cluster.effective_region())
        });
        if shed {
            self.stats.positions_shed += 1;
        }
        self.stats.refreshes += 1;
        self.store.touch(slot);
        // Re-register whenever the effective region changed at all — a
        // grown reach extends the covered cell set, and a moved centroid
        // would relocate it outright. (`ClusterGrid::insert` already
        // no-ops when the cell set is unchanged, so the common
        // refresh-in-place stays cheap.)
        if region != region_before {
            self.grid.insert(slot, &region);
        }
    }

    /// Absorbs `update.entity` into the cluster at `slot` (steps 3–4 of the
    /// Leader–Follower walk, after the probe chose the candidate).
    fn absorb_into(&mut self, update: &LocationUpdate, slot: ClusterSlot) {
        let params = &self.params;
        let (shed, region) = self.store.update(slot, |cluster| {
            let shed = Self::shed_decision(params, cluster, update);
            cluster.absorb(update, shed);
            (shed, cluster.effective_region())
        });
        if shed {
            self.stats.positions_shed += 1;
        }
        self.grid.insert(slot, &region);
        self.home.assign(update.entity, slot);
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

    fn evict(&mut self, update: &LocationUpdate, slot: ClusterSlot) {
        self.home.unassign(update.entity);
        let emptied = if self.store.contains(slot) {
            let emptied = self.store.update(slot, |cluster| {
                cluster.remove_member(update.entity);
                cluster.is_empty()
            });
            self.store.touch(slot);
            emptied
        } else {
            false
        };
        self.stats.evictions += 1;
        if emptied {
            self.dissolve_slot(slot);
        }
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
        let region = cluster.effective_region();
        let slot = self.store.insert(cluster);
        self.grid.insert(slot, &region);
        self.home.assign(update.entity, slot);
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
        self.grid.remove(slot);
        self.stats.dissolutions += 1;
    }

    /// Removes an entity entirely: its cluster membership *and* its
    /// attribute-table registration. This is how a continuous query is
    /// cancelled or a retired object deregistered. Returns `true` when the
    /// entity was known in any structure.
    pub fn remove_entity(&mut self, entity: scuba_motion::EntityRef) -> bool {
        let mut known = match entity {
            scuba_motion::EntityRef::Object(id) => self.objects.remove(id).is_some(),
            scuba_motion::EntityRef::Query(id) => self.queries.remove(id).is_some(),
        };
        if let Some(slot) = self.home.unassign(entity) {
            known = true;
            let emptied = if self.store.contains(slot) {
                let emptied = self.store.update(slot, |cluster| {
                    cluster.remove_member(entity);
                    cluster.is_empty()
                });
                self.store.touch(slot);
                emptied
            } else {
                false
            };
            if emptied {
                self.dissolve_slot(slot);
            }
        }
        known
    }

    /// Evicts members that have not reported for more than `ttl` time units
    /// (measured against `now`), dissolving clusters that empty out.
    /// Returns how many memberships were dropped. Attribute-table entries
    /// are removed too — a silent entity is gone, not merely mispositioned.
    pub fn evict_stale(&mut self, now: Time, ttl: u64) -> usize {
        let cutoff = now.saturating_sub(ttl);
        let mut stale: Vec<scuba_motion::EntityRef> = Vec::new();
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

    /// Pre-join tightening: restores exact cluster radii (and grid
    /// registrations) before the joining phase, undoing the conservative
    /// slack the per-update absorption bound accumulated over the interval.
    /// Part of the cluster pre-join maintenance phase (Fig. 6).
    pub fn pre_join_tighten(&mut self) {
        let shed_floor = self
            .params
            .shedding
            .nucleus_radius(self.params.theta_d)
            .unwrap_or(0.0)
            .min(self.params.theta_d);
        let mut reregister: Vec<(ClusterSlot, Circle)> = Vec::new();
        for i in 0..self.store.capacity() {
            let slot = ClusterSlot(i as u32);
            if !self.store.contains(slot) {
                continue;
            }
            let tightened = self.store.update(slot, |cluster| {
                let before = cluster.radius();
                cluster.tighten(shed_floor);
                (cluster.radius() < before).then(|| cluster.effective_region())
            });
            if let Some(region) = tightened {
                reregister.push((slot, region));
            }
        }
        for (slot, region) in reregister {
            self.grid.insert(slot, &region);
            self.store.touch(slot);
        }
    }

    // ---- post-join maintenance (Algorithm 1 step 23) ------------------------

    /// Post-join cluster maintenance: dissolve clusters that would pass
    /// their destination node during the next interval, advance the rest
    /// along their velocity vectors and re-register them in the grid.
    ///
    /// `now` is the evaluation time; the relocation spans the engine's Δ.
    pub fn post_join_maintenance(&mut self, now: Time) -> ClusteringStats {
        if let Some(ttl) = self.params.entity_ttl {
            self.evict_stale(now, ttl);
        }
        let dt = self.params.delta as f64;
        enum Fate {
            Dissolve,
            Moved(Circle),
            Still,
        }
        let mut to_dissolve: Vec<ClusterSlot> = Vec::new();
        let mut relocated: Vec<(ClusterSlot, Circle)> = Vec::new();
        for i in 0..self.store.capacity() {
            let slot = ClusterSlot(i as u32);
            if !self.store.contains(slot) {
                continue;
            }
            let fate = self.store.update(slot, |cluster| {
                if cluster.is_empty() || cluster.passes_destination_within(dt) {
                    Fate::Dissolve
                } else if cluster.advance(dt) {
                    Fate::Moved(cluster.effective_region())
                } else {
                    Fate::Still
                }
            });
            match fate {
                Fate::Dissolve => to_dissolve.push(slot),
                // Only clusters whose centroid actually moved dirty the
                // epoch tracker — stationary clusters stay cache-clean.
                Fate::Moved(region) => relocated.push((slot, region)),
                Fate::Still => {}
            }
        }
        for slot in to_dissolve {
            self.dissolve_slot(slot);
        }
        for (slot, region) in relocated {
            self.grid.insert(slot, &region);
            self.store.touch(slot);
        }
        self.stats
    }

    /// Estimated bytes of all in-memory state (the Fig. 9b measure).
    pub fn estimated_bytes(&self) -> usize {
        self.store.estimated_bytes()
            + self.grid.estimated_bytes()
            + self.home.estimated_bytes()
            + self.objects.estimated_bytes()
            + self.queries.estimated_bytes()
    }

    /// Debug invariant check used by tests: home, store and grid agree.
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
            for member in cluster.members() {
                assert_eq!(
                    self.home.cluster_of(member.entity),
                    Some(slot),
                    "home disagrees for {}",
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
        assert_eq!(member_total, self.home.len(), "home size mismatch");
        // The grid must reflect every cluster's *current* effective region
        // — a stale registration would make the step-1 probe (and the
        // joining phase) miss or mis-route clusters.
        for (slot, cluster) in self.store.iter() {
            let expected: Vec<u32> = self
                .grid
                .spec()
                .cells_overlapping_circle(&cluster.effective_region())
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
        e.post_join_maintenance(2);
        assert_eq!(e.cluster_count(), 0);
        assert_eq!(e.home().len(), 0);
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
        let (slot, c) = e.store().iter().next().unwrap();
        let centroid = c.centroid();
        assert!(
            e.grid().clusters_near(&centroid).contains(&slot),
            "grid not updated after relocation"
        );
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
    /// re-register the cluster in every newly covered grid cell, so later
    /// probes from those cells can still find it.
    #[test]
    fn refresh_growing_region_reregisters_grid_cells() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        let slot = e.store().slots().next().unwrap();
        let cells_at_founding = e.grid().cells_of(slot).unwrap().len();

        // The founder reports again from 80 units away: still within Θ_D
        // of the (unmoved) centroid, so this is the refresh fast path, but
        // the radius jumps 0 → 80 and the region swallows dozens of cells.
        let mut far = obj(1, 580.0, 500.0, 30.0, CN_EAST);
        far.time = 1;
        e.process_update(&far);
        assert_eq!(e.stats().refreshes, 1, "took the refresh fast path");

        let cells_after = e.grid().cells_of(slot).unwrap();
        assert!(
            cells_after.len() > cells_at_founding,
            "grown region must cover more cells"
        );
        // The grid must answer probes from the newly covered area.
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

        assert!(
            e.grid().cells_of(slot).unwrap().len() > cells_at_founding,
            "wider query range must cover more cells"
        );
        e.check_invariants();
    }
}
