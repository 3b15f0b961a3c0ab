//! The cluster store: a dense slab of [`MovingCluster`]s — the one copy of
//! cluster state (the paper's ClusterStorage, §4.1).
//!
//! The slab (`Vec<Option<MovingCluster>>`) is addressed by dense
//! [`ClusterSlot`] handles, with a LIFO free list so dissolved slots are
//! reused and the slab stays compact under churn. Every layer that walks
//! clusters per Δ — the region grid build, the join-between pre-filter,
//! load shedding, maintenance — reads the clusters through their slots;
//! there is no second, column-wise copy to keep in sync.
//!
//! [`crate::ClusterId`] remains the public, on-disk identity: snapshots and
//! reports are ordered by id, never by slot. Slots are an in-memory
//! addressing scheme that a restart is free to reassign — which is exactly
//! why [`crate::snapshot`] stores clusters in id order and rebuilds slots
//! on restore. Nothing that outlives a Δ is keyed by slot, so a reused slot
//! carries no trace of its previous occupant, and nothing looks a cluster
//! up by id, so the store keeps no id index.

use crate::cluster::MovingCluster;

/// A dense handle addressing a live cluster inside the [`ClusterStore`]'s
/// slab. Slots are reused after dissolution; they are process-local and
/// never serialised ([`crate::ClusterId`] is the durable identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterSlot(pub u32);

impl ClusterSlot {
    /// The slot's raw slab index.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The slab of live clusters. See the module docs for the design.
#[derive(Debug, Clone, Default)]
pub struct ClusterStore {
    slots: Vec<Option<MovingCluster>>,
    /// Vacant slot indexes, LIFO so churn reuses hot memory.
    free: Vec<u32>,
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

    /// Inserts a cluster, returning its slot. Reuses the most recently
    /// vacated slot when one exists. The caller keeps cluster ids unique.
    pub fn insert(&mut self, cluster: MovingCluster) -> ClusterSlot {
        let i = match self.free.pop() {
            Some(i) => {
                let i = i as usize;
                debug_assert!(self.slots[i].is_none(), "free list pointed at a live slot");
                i
            }
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[i] = Some(cluster);
        self.live += 1;
        ClusterSlot(i as u32)
    }

    /// Removes the cluster at `slot`, freeing the slot for reuse.
    pub fn remove(&mut self, slot: ClusterSlot) -> MovingCluster {
        let cluster = self.slots[slot.index()]
            .take()
            .expect("remove of vacant slot");
        self.free.push(slot.0);
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

    /// The cluster at `slot`, mutably, if the slot is live.
    pub fn get_mut(&mut self, slot: ClusterSlot) -> Option<&mut MovingCluster> {
        self.slots.get_mut(slot.index()).and_then(|s| s.as_mut())
    }

    /// Live `(slot, cluster)` pairs in slot order. Slot order is
    /// deterministic for a given mutation history but *not* id order;
    /// anything user-visible must sort by [`crate::ClusterId`] (snapshots
    /// do).
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

    /// Live slots in slot order.
    pub fn slots(&self) -> impl Iterator<Item = ClusterSlot> + '_ {
        self.iter().map(|(slot, _)| slot)
    }

    /// Live clusters sorted by id: the store's content, independent of
    /// slot layout.
    fn id_sorted(&self) -> Vec<&MovingCluster> {
        let mut clusters: Vec<&MovingCluster> = self.values().collect();
        clusters.sort_unstable_by_key(|c| c.cid);
        clusters
    }

    /// Bytes of heap held by the slab and its free list (clusters
    /// included).
    pub fn estimated_bytes(&self) -> usize {
        let clusters: usize = self.values().map(MovingCluster::estimated_bytes).sum();
        let slab = self.slots.capacity() * std::mem::size_of::<Option<MovingCluster>>();
        clusters + slab + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Exhaustive internal-coherence check (tests and
    /// [`crate::clustering::ClusterEngine::check_invariants`]): the live
    /// count matches the occupied slots and the free list covers exactly
    /// the vacant slots.
    pub fn check_coherent(&self) {
        assert_eq!(
            self.live,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "live count drifted"
        );
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
    }
}

/// Content equality by cluster identity: two stores are equal when they
/// hold the same clusters under the same ids, regardless of slot layout or
/// free-list history. (A restored store compares equal to the original even
/// though its slots were reassigned.)
impl PartialEq for ClusterStore {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.id_sorted() == other.id_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
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
        assert_eq!(s.get(b).unwrap().cid, ClusterId(2));
        let gone = s.remove(a);
        assert_eq!(gone.cid, ClusterId(1));
        assert_eq!(s.len(), 1);
        assert!(s.get(a).is_none());
        assert!(!s.contains(a));
        assert_eq!(s.get(b).unwrap().cid, ClusterId(2));
        s.check_coherent();
    }

    #[test]
    fn vacant_slots_are_reused_last_in_first_out() {
        let mut s = ClusterStore::new();
        let a = s.insert(cluster(1, 10.0));
        let b = s.insert(cluster(2, 20.0));
        s.remove(a);
        s.remove(b);
        assert_eq!(s.insert(cluster(3, 30.0)), b, "last vacated, first reused");
        assert_eq!(s.insert(cluster(4, 40.0)), a);
        assert_eq!(s.capacity(), 2, "slab did not grow");
        s.check_coherent();
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
        let ids: Vec<ClusterId> = s.values().map(|c| c.cid).collect();
        assert_eq!(ids, vec![ClusterId(6), ClusterId(7)]);
        let slots: Vec<ClusterSlot> = s.slots().collect();
        assert_eq!(slots, vec![ClusterSlot(1), ClusterSlot(2)]);
    }
}
