//! The generational cluster store: a dense slab of [`MovingCluster`]s with
//! parallel structure-of-arrays hot columns.
//!
//! Every layer that walks clusters per Δ — the join-between circle
//! pre-filter, the join cache, load shedding, maintenance — used to chase a
//! `FxHashMap<ClusterId, MovingCluster>` entry per touch. The store replaces
//! that with:
//!
//! * a **slab** (`Vec<Option<MovingCluster>>`) addressed by dense
//!   [`ClusterSlot`] handles, with a LIFO free list so dissolved slots are
//!   reused and the slab stays compact under churn;
//! * **generation counters** per slot, bumped on every reuse, so stale
//!   handles are detectable (debug assertions; the epoch clock below makes
//!   reuse safe for the cache even without checking generations);
//! * **SoA hot columns** (centroid x/y, radius, effective radius, object
//!   and query counts) kept in sync on every mutation, so the join-between
//!   pre-filter is a linear sweep over contiguous `f64` columns;
//! * the dense [`EpochTracker`] — one `u64` mutation mark per slot under a
//!   global monotonic clock.
//!
//! [`ClusterId`] remains the public, on-disk identity: snapshots, JSON, and
//! reports are keyed and ordered by id, never by slot. Slots are an
//! in-memory addressing scheme that a restart is free to reassign — which is
//! exactly why [`crate::snapshot`] stores ids and rebuilds slots on restore.
//!
//! ## Why slot reuse cannot corrupt the join cache
//!
//! The cache keys entries by slot pair and validates them against the
//! epoch clock. Both dissolving a cluster (`forget` → `u64::MAX`) and
//! inserting into a reused slot (`touch` → a fresh clock value strictly
//! greater than any `computed_at` recorded earlier) make
//! [`EpochTracker::clean_since`] return `false` for every stale entry, so a
//! reused slot always recomputes its pairs. Generations are therefore a
//! debugging aid, not a correctness requirement.

use scuba_spatial::FxHashMap;

use crate::cluster::{ClusterId, MovingCluster};

/// A dense handle addressing a live cluster inside the [`ClusterStore`]'s
/// slab. Slots are reused after dissolution; they are process-local and
/// never serialised ([`ClusterId`] is the durable identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterSlot(pub u32);

impl ClusterSlot {
    /// The slot's raw slab index.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-cluster mutation clock, dense over store slots.
///
/// `touch` stamps a slot with a fresh value of a global monotonically
/// increasing clock; `clean_since(slot, epoch)` answers "has this slot
/// mutated since `epoch`?" in one indexed load. Forgotten (dissolved)
/// slots carry `u64::MAX`, which is never `<=` any observed epoch, so they
/// always read as dirty.
#[derive(Debug, Clone, Default)]
pub struct EpochTracker {
    clock: u64,
    marks: Vec<u64>,
}

/// Mark for a slot that has never been touched or has been forgotten:
/// always dirty.
const NEVER: u64 = u64::MAX;

impl EpochTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        EpochTracker::default()
    }

    /// The current clock value: strictly increases with every mutation
    /// anywhere in the store.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Records a mutation of `slot` at a fresh clock value.
    pub fn touch(&mut self, slot: ClusterSlot) {
        self.clock += 1;
        let i = slot.index();
        if i >= self.marks.len() {
            self.marks.resize(i + 1, NEVER);
        }
        self.marks[i] = self.clock;
    }

    /// Forgets `slot` (cluster dissolved): it reads as dirty forever after,
    /// until a new cluster occupies the slot and touches it.
    pub fn forget(&mut self, slot: ClusterSlot) {
        if let Some(m) = self.marks.get_mut(slot.index()) {
            *m = NEVER;
        }
    }

    /// The clock value of `slot`'s last mutation, or `u64::MAX` when the
    /// slot was never touched (or was forgotten).
    #[inline]
    pub fn mark(&self, slot: ClusterSlot) -> u64 {
        self.marks.get(slot.index()).copied().unwrap_or(NEVER)
    }

    /// Whether `slot` has *not* mutated since `epoch` (a previously
    /// observed clock value).
    #[inline]
    pub fn clean_since(&self, slot: ClusterSlot, epoch: u64) -> bool {
        self.mark(slot) <= epoch
    }

    /// Bytes of heap held by the tracker.
    pub fn estimated_bytes(&self) -> usize {
        self.marks.capacity() * std::mem::size_of::<u64>()
    }
}

/// Borrowed views of the store's SoA hot columns, indexed by slot. Vacant
/// slots hold zeros; callers only index them through live slot handles.
#[derive(Debug, Clone, Copy)]
pub struct StoreColumns<'a> {
    /// Centroid x per slot.
    pub cx: &'a [f64],
    /// Centroid y per slot.
    pub cy: &'a [f64],
    /// Covering radius per slot ([`MovingCluster::region`]).
    pub radius: &'a [f64],
    /// Effective radius per slot — radius + widest member-query reach
    /// ([`MovingCluster::effective_region`]).
    pub eff_radius: &'a [f64],
    /// Object members per slot.
    pub object_count: &'a [u32],
    /// Query members per slot.
    pub query_count: &'a [u32],
}

impl StoreColumns<'_> {
    /// Slots every column covers (the store's [`ClusterStore::capacity`]).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.cx.len()
    }

    /// Whether the columns cover no slots.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.cx.is_empty()
    }

    /// Pre-filter geometry of slot index `i`:
    /// `(cx, cy, radius, eff_radius)`. Bounds-checked.
    #[inline(always)]
    pub fn circle_at(&self, i: usize) -> (f64, f64, f64, f64) {
        (self.cx[i], self.cy[i], self.radius[i], self.eff_radius[i])
    }

    /// Member-kind counts of slot index `i`:
    /// `(object_count, query_count)`. Bounds-checked.
    #[inline(always)]
    pub fn counts_at(&self, i: usize) -> (u32, u32) {
        (self.object_count[i], self.query_count[i])
    }

    /// [`StoreColumns::circle_at`] without bounds checks, for the join
    /// kernel's gather loop (four loads per candidate pair; the checks are
    /// measurable there). Guarded by a `debug_assert` in debug builds.
    ///
    /// # Safety
    ///
    /// `i` must be less than [`StoreColumns::len`]. Slot indexes obtained
    /// from live [`ClusterSlot`] handles of the store these columns were
    /// borrowed from always satisfy this.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub unsafe fn circle_at_unchecked(&self, i: usize) -> (f64, f64, f64, f64) {
        debug_assert!(i < self.len(), "slot index {i} out of column bounds");
        // SAFETY: i < len() is the caller's contract, debug-asserted above;
        // all four columns are the same length.
        unsafe {
            (
                *self.cx.get_unchecked(i),
                *self.cy.get_unchecked(i),
                *self.radius.get_unchecked(i),
                *self.eff_radius.get_unchecked(i),
            )
        }
    }

    /// [`StoreColumns::counts_at`] without bounds checks.
    ///
    /// # Safety
    ///
    /// `i` must be less than [`StoreColumns::len`] (debug-asserted).
    #[inline(always)]
    #[allow(unsafe_code)]
    pub unsafe fn counts_at_unchecked(&self, i: usize) -> (u32, u32) {
        debug_assert!(i < self.len(), "slot index {i} out of column bounds");
        // SAFETY: i < len() is the caller's contract, debug-asserted above.
        unsafe {
            (
                *self.object_count.get_unchecked(i),
                *self.query_count.get_unchecked(i),
            )
        }
    }
}

/// The generational slab of live clusters plus SoA hot columns and the
/// dense epoch clock. See the module docs for the design.
#[derive(Debug, Clone, Default)]
pub struct ClusterStore {
    slots: Vec<Option<MovingCluster>>,
    generations: Vec<u32>,
    /// Vacant slot indexes, LIFO so churn reuses hot memory.
    free: Vec<u32>,
    /// Cold-path id → slot lookup (snapshots, diagnostics, kNN home
    /// resolution). Never consulted inside the per-tick join loops.
    by_id: FxHashMap<ClusterId, u32>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    radius: Vec<f64>,
    eff_radius: Vec<f64>,
    object_count: Vec<u32>,
    query_count: Vec<u32>,
    epochs: EpochTracker,
    live: usize,
}

impl ClusterStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ClusterStore::default()
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no clusters are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots the slab spans (live + vacant). Dense tables sized
    /// off this bound cover every handle the store can currently produce.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The generation of `slot`: bumped each time the slot is reused.
    pub fn generation(&self, slot: ClusterSlot) -> u32 {
        self.generations.get(slot.index()).copied().unwrap_or(0)
    }

    /// The dense mutation clock.
    pub fn epochs(&self) -> &EpochTracker {
        &self.epochs
    }

    /// Records a mutation of `slot` on the epoch clock (callers that
    /// mutate through [`ClusterStore::update`] still decide themselves
    /// whether the mutation is cache-relevant).
    pub fn touch(&mut self, slot: ClusterSlot) {
        debug_assert!(self.contains(slot), "touch of vacant slot {slot:?}");
        self.epochs.touch(slot);
    }

    /// Inserts a cluster, returning its slot. Reuses a vacant slot when one
    /// exists (bumping its generation); the insertion counts as a mutation
    /// on the epoch clock. The cluster's id must not already be present.
    pub fn insert(&mut self, cluster: MovingCluster) -> ClusterSlot {
        let i = match self.free.pop() {
            Some(i) => {
                let i = i as usize;
                debug_assert!(self.slots[i].is_none(), "free list pointed at a live slot");
                self.generations[i] = self.generations[i].wrapping_add(1);
                i
            }
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.cx.push(0.0);
                self.cy.push(0.0);
                self.radius.push(0.0);
                self.eff_radius.push(0.0);
                self.object_count.push(0);
                self.query_count.push(0);
                self.slots.len() - 1
            }
        };
        let prev = self.by_id.insert(cluster.cid, i as u32);
        debug_assert!(prev.is_none(), "duplicate cluster id {:?}", cluster.cid);
        self.slots[i] = Some(cluster);
        self.live += 1;
        let slot = ClusterSlot(i as u32);
        self.sync_columns(slot);
        self.epochs.touch(slot);
        slot
    }

    /// Removes the cluster at `slot`, freeing the slot for reuse and
    /// forgetting its epoch mark.
    pub fn remove(&mut self, slot: ClusterSlot) -> MovingCluster {
        let i = slot.index();
        let cluster = self.slots[i].take().expect("remove of vacant slot");
        self.by_id.remove(&cluster.cid);
        self.cx[i] = 0.0;
        self.cy[i] = 0.0;
        self.radius[i] = 0.0;
        self.eff_radius[i] = 0.0;
        self.object_count[i] = 0;
        self.query_count[i] = 0;
        self.free.push(slot.0);
        self.epochs.forget(slot);
        self.live -= 1;
        cluster
    }

    /// Whether `slot` currently holds a cluster.
    pub fn contains(&self, slot: ClusterSlot) -> bool {
        self.slots.get(slot.index()).is_some_and(|s| s.is_some())
    }

    /// The cluster at `slot`, if the slot is live.
    pub fn get(&self, slot: ClusterSlot) -> Option<&MovingCluster> {
        self.slots.get(slot.index()).and_then(|s| s.as_ref())
    }

    /// Mutates the cluster at `slot` through a closure and re-syncs the
    /// slot's SoA columns afterwards. This is the only mutation path — it
    /// cannot leave columns stale.
    pub fn update<R>(&mut self, slot: ClusterSlot, f: impl FnOnce(&mut MovingCluster) -> R) -> R {
        let cluster = self.slots[slot.index()]
            .as_mut()
            .expect("update of vacant slot");
        let r = f(cluster);
        self.sync_columns(slot);
        r
    }

    /// The slot currently holding cluster `id` (cold path: hashes).
    pub fn slot_of(&self, id: ClusterId) -> Option<ClusterSlot> {
        self.by_id.get(&id).map(|&i| ClusterSlot(i))
    }

    /// The cluster with identity `id` (cold path: hashes).
    pub fn get_by_id(&self, id: ClusterId) -> Option<&MovingCluster> {
        self.slot_of(id).and_then(|slot| self.get(slot))
    }

    /// Live `(slot, cluster)` pairs in slot order. Slot order is
    /// deterministic for a given mutation history but *not* id order;
    /// anything user-visible must sort by [`ClusterId`] (snapshots do).
    pub fn iter(&self) -> impl Iterator<Item = (ClusterSlot, &MovingCluster)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| (ClusterSlot(i as u32), c)))
    }

    /// Live clusters in slot order.
    pub fn values(&self) -> impl Iterator<Item = &MovingCluster> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Live cluster ids in slot order.
    pub fn keys(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.values().map(|c| c.cid)
    }

    /// Live slots in slot order.
    pub fn slots(&self) -> impl Iterator<Item = ClusterSlot> + '_ {
        self.iter().map(|(slot, _)| slot)
    }

    /// Borrowed SoA hot columns, all `capacity()` long.
    #[inline]
    pub fn columns(&self) -> StoreColumns<'_> {
        StoreColumns {
            cx: &self.cx,
            cy: &self.cy,
            radius: &self.radius,
            eff_radius: &self.eff_radius,
            object_count: &self.object_count,
            query_count: &self.query_count,
        }
    }

    /// Bytes of heap held by the slab, columns and id map (clusters
    /// included).
    pub fn estimated_bytes(&self) -> usize {
        let clusters: usize = self.values().map(MovingCluster::estimated_bytes).sum();
        let slab = self.slots.capacity() * std::mem::size_of::<Option<MovingCluster>>();
        let f64_cols = 4 * self.cx.capacity() * std::mem::size_of::<f64>();
        let u32_cols = 2 * self.object_count.capacity() * std::mem::size_of::<u32>()
            + self.generations.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u32>();
        let by_id = self.by_id.capacity() * (std::mem::size_of::<ClusterId>() + 12);
        clusters + slab + f64_cols + u32_cols + by_id + self.epochs.estimated_bytes()
    }

    /// Re-derives the SoA entries for `slot` from its cluster.
    fn sync_columns(&mut self, slot: ClusterSlot) {
        let i = slot.index();
        let c = self.slots[i].as_ref().expect("sync of vacant slot");
        let centroid = c.centroid();
        self.cx[i] = centroid.x;
        self.cy[i] = centroid.y;
        self.radius[i] = c.radius();
        self.eff_radius[i] = c.radius() + c.max_query_radius();
        self.object_count[i] = c.object_count() as u32;
        self.query_count[i] = c.query_count() as u32;
    }

    /// Exhaustive internal-coherence check (tests and
    /// [`crate::clustering::ClusterEngine::check_invariants`]): the id map
    /// is a bijection onto live slots, the free list covers exactly the
    /// vacant slots, and every column matches a fresh derivation.
    pub fn check_coherent(&self) {
        assert_eq!(
            self.live,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "live count drifted"
        );
        assert_eq!(self.by_id.len(), self.live, "id map size drifted");
        let mut free_seen = vec![false; self.slots.len()];
        for &i in &self.free {
            assert!(
                self.slots[i as usize].is_none(),
                "free list points at live slot {i}"
            );
            assert!(!free_seen[i as usize], "slot {i} on the free list twice");
            free_seen[i as usize] = true;
        }
        assert_eq!(
            self.free.len(),
            self.slots.len() - self.live,
            "free list does not cover all vacant slots"
        );
        for (slot, c) in self.iter() {
            assert_eq!(
                self.slot_of(c.cid),
                Some(slot),
                "id map disagrees for {:?}",
                c.cid
            );
            let i = slot.index();
            let centroid = c.centroid();
            assert_eq!(self.cx[i].to_bits(), centroid.x.to_bits());
            assert_eq!(self.cy[i].to_bits(), centroid.y.to_bits());
            assert_eq!(self.radius[i].to_bits(), c.radius().to_bits());
            assert_eq!(
                self.eff_radius[i].to_bits(),
                (c.radius() + c.max_query_radius()).to_bits()
            );
            assert_eq!(self.object_count[i], c.object_count() as u32);
            assert_eq!(self.query_count[i], c.query_count() as u32);
            assert_ne!(
                self.epochs.mark(slot),
                NEVER,
                "live slot {slot:?} has no epoch mark"
            );
        }
    }
}

/// Content equality by cluster identity: two stores are equal when they
/// hold the same clusters under the same ids, regardless of slot layout or
/// free-list history. (A restored store compares equal to the original even
/// though its slots were reassigned.)
impl PartialEq for ClusterStore {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.values().all(|c| other.get_by_id(c.cid) == Some(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId};
    use scuba_spatial::Point;

    fn cluster(id: u64, x: f64) -> MovingCluster {
        let update = LocationUpdate::object(
            ObjectId(id),
            Point::new(x, 50.0),
            0,
            10.0,
            Point::new(1000.0, 50.0),
            ObjectAttrs::default(),
        );
        MovingCluster::found(ClusterId(id), &update, false)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        let b = s.insert(cluster(2, 20.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).unwrap().cid, ClusterId(1));
        assert_eq!(s.get_by_id(ClusterId(2)).unwrap().cid, ClusterId(2));
        assert_eq!(s.slot_of(ClusterId(1)), Some(a));
        let gone = s.remove(a);
        assert_eq!(gone.cid, ClusterId(1));
        assert_eq!(s.len(), 1);
        assert!(s.get(a).is_none());
        assert!(s.slot_of(ClusterId(1)).is_none());
        assert_eq!(s.get(b).unwrap().cid, ClusterId(2));
        s.check_coherent();
    }

    #[test]
    fn slots_are_reused_with_bumped_generations() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        let g0 = s.generation(a);
        s.remove(a);
        let b = s.insert(cluster(2, 20.0));
        assert_eq!(a, b, "vacant slot is reused");
        assert_eq!(s.generation(b), g0 + 1, "reuse bumps the generation");
        assert_eq!(s.capacity(), 1, "slab did not grow");
        s.check_coherent();
    }

    #[test]
    fn reused_slot_reads_dirty_on_the_epoch_clock() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        let observed = s.epochs().clock();
        assert!(s.epochs().clean_since(a, observed));
        s.remove(a);
        assert!(
            !s.epochs().clean_since(a, observed),
            "forgotten slot reads dirty"
        );
        let b = s.insert(cluster(2, 20.0));
        assert_eq!(a, b);
        assert!(
            !s.epochs().clean_since(b, observed),
            "reused slot was touched past the observed epoch"
        );
    }

    #[test]
    fn columns_track_mutations() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        let cols = s.columns();
        assert_eq!(cols.cx[a.index()], 10.0);
        assert_eq!(cols.object_count[a.index()], 1);
        // Absorb a second member through update(): columns re-sync.
        let u = LocationUpdate::object(
            ObjectId(9),
            Point::new(14.0, 50.0),
            1,
            10.0,
            Point::new(1000.0, 50.0),
            ObjectAttrs::default(),
        );
        s.update(a, |c| c.absorb(&u, false));
        let cols = s.columns();
        assert_eq!(cols.cx[a.index()], 12.0, "centroid moved");
        assert_eq!(cols.object_count[a.index()], 2);
        assert!(cols.radius[a.index()] > 0.0);
        s.check_coherent();
    }

    /// The unchecked column getters must agree with the safe getters on
    /// every in-bounds index, live or vacant (the kernel only feeds them
    /// live slots, but the contract is the whole column).
    #[test]
    #[allow(unsafe_code)]
    fn unchecked_getters_agree_with_safe_getters() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        s.insert(cluster(2, 20.0));
        let c = s.insert(cluster(3, 30.0));
        s.remove(a); // leave a vacant (zeroed) slot in the middle
        s.update(c, |cl| {
            let u = LocationUpdate::object(
                ObjectId(9),
                Point::new(34.0, 50.0),
                1,
                10.0,
                Point::new(1000.0, 50.0),
                ObjectAttrs::default(),
            );
            cl.absorb(&u, false);
        });
        let cols = s.columns();
        assert_eq!(cols.len(), s.capacity());
        for i in 0..cols.len() {
            // SAFETY: i < cols.len() by the loop bound.
            let (ux, uy, ur, ue) = unsafe { cols.circle_at_unchecked(i) };
            let (sx, sy, sr, se) = cols.circle_at(i);
            assert_eq!(
                (ux.to_bits(), uy.to_bits(), ur.to_bits(), ue.to_bits()),
                (sx.to_bits(), sy.to_bits(), sr.to_bits(), se.to_bits()),
                "circle_at mismatch at slot {i}"
            );
            // SAFETY: as above.
            let uc = unsafe { cols.counts_at_unchecked(i) };
            assert_eq!(uc, cols.counts_at(i), "counts_at mismatch at slot {i}");
        }
    }

    #[test]
    fn equality_ignores_slot_layout() {
        let mut a = ClusterStore::new();
        a.insert(cluster(1, 10.0));
        let s2 = a.insert(cluster(2, 20.0));
        a.remove(s2);
        a.insert(cluster(3, 30.0)); // reuses slot 1

        let mut b = ClusterStore::new();
        b.insert(cluster(3, 30.0));
        b.insert(cluster(1, 10.0));
        assert_eq!(a, b, "same content, different layout");
        b.insert(cluster(2, 20.0));
        assert_ne!(a, b);
    }

    #[test]
    fn iteration_is_slot_ordered_and_live_only() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(5, 10.0));
        s.insert(cluster(6, 20.0));
        s.insert(cluster(7, 30.0));
        s.remove(a);
        let ids: Vec<ClusterId> = s.keys().collect();
        assert_eq!(ids, vec![ClusterId(6), ClusterId(7)]);
        let slots: Vec<ClusterSlot> = s.slots().collect();
        assert_eq!(slots, vec![ClusterSlot(1), ClusterSlot(2)]);
    }
}
