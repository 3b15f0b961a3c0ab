//! SCUBA's entity tables (paper §4.1).
//!
//! * **ObjectsTable** — `(o.oid, o.attrs)` for every known object;
//! * **QueriesTable** — `(q.qid, q.attrs)` for every known query (the
//!   attribute that matters to the join is the range extent);
//! * **ClusterHome** — "a hash table that keeps track of the current
//!   relationships between objects, queries and their corresponding
//!   clusters. A moving object/query can belong to only one cluster at a
//!   time". It is the engine's one entity directory: each entity maps to
//!   the dense [`ClusterSlot`] of its cluster *and* its position in that
//!   cluster's member list, so an update reaches its member record with a
//!   single hash probe and two indexed loads.

use scuba_motion::{EntityRef, ObjectAttrs, ObjectId, QueryAttrs, QueryId};
use scuba_spatial::FxHashMap;

use crate::store::ClusterSlot;

/// Registry of object attributes.
#[derive(Debug, Clone, Default)]
pub struct ObjectsTable {
    attrs: FxHashMap<ObjectId, ObjectAttrs>,
}

impl ObjectsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes an object's attributes.
    pub fn upsert(&mut self, id: ObjectId, attrs: ObjectAttrs) {
        self.attrs.insert(id, attrs);
    }

    /// Looks up an object's attributes.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectAttrs> {
        self.attrs.get(&id)
    }

    /// Removes an object's registration, returning its attributes.
    pub fn remove(&mut self, id: ObjectId) -> Option<ObjectAttrs> {
        self.attrs.remove(&id)
    }

    /// Iterates over all registered objects.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectAttrs)> + '_ {
        self.attrs.iter().map(|(id, attrs)| (*id, attrs))
    }

    /// Number of known objects.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Estimated heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.attrs.capacity()
            * (std::mem::size_of::<ObjectId>() + std::mem::size_of::<ObjectAttrs>() + 8)
    }
}

/// Registry of query attributes.
#[derive(Debug, Clone, Default)]
pub struct QueriesTable {
    attrs: FxHashMap<QueryId, QueryAttrs>,
}

impl QueriesTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes a query's attributes.
    pub fn upsert(&mut self, id: QueryId, attrs: QueryAttrs) {
        self.attrs.insert(id, attrs);
    }

    /// Looks up a query's attributes.
    pub fn get(&self, id: QueryId) -> Option<&QueryAttrs> {
        self.attrs.get(&id)
    }

    /// Iterates over all registered queries.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &QueryAttrs)> + '_ {
        self.attrs.iter().map(|(id, attrs)| (*id, attrs))
    }

    /// Removes a query's registration (query cancellation), returning its
    /// attributes.
    pub fn remove(&mut self, id: QueryId) -> Option<QueryAttrs> {
        self.attrs.remove(&id)
    }

    /// Number of known queries.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Estimated heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.attrs.capacity()
            * (std::mem::size_of::<QueryId>() + std::mem::size_of::<QueryAttrs>() + 8)
    }
}

/// Entity → (cluster slot, member position) directory.
#[derive(Debug, Clone, Default)]
pub struct ClusterHome {
    home: FxHashMap<EntityRef, (ClusterSlot, u32)>,
}

impl ClusterHome {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `entity` is now member number `idx` of the cluster at
    /// `slot`, returning its previous slot if it had one.
    pub fn assign(
        &mut self,
        entity: EntityRef,
        slot: ClusterSlot,
        idx: u32,
    ) -> Option<ClusterSlot> {
        self.home.insert(entity, (slot, idx)).map(|(prev, _)| prev)
    }

    /// The slot of the cluster `entity` currently belongs to.
    pub fn cluster_of(&self, entity: EntityRef) -> Option<ClusterSlot> {
        self.entry_of(entity).map(|(slot, _)| slot)
    }

    /// The slot of `entity`'s cluster and its position in that cluster's
    /// member list.
    pub fn entry_of(&self, entity: EntityRef) -> Option<(ClusterSlot, u32)> {
        self.home.get(&entity).copied()
    }

    /// Re-points `entity` at member position `idx` of its (unchanged)
    /// cluster — a swap-remove moved it.
    pub fn set_index(&mut self, entity: EntityRef, idx: u32) {
        if let Some(entry) = self.home.get_mut(&entity) {
            entry.1 = idx;
        }
    }

    /// Removes the entity's membership, returning it.
    pub fn unassign(&mut self, entity: EntityRef) -> Option<(ClusterSlot, u32)> {
        self.home.remove(&entity)
    }

    /// Number of assigned entities.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// Whether nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// Estimated heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.home.capacity()
            * (std::mem::size_of::<EntityRef>() + std::mem::size_of::<(ClusterSlot, u32)>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectClass, QuerySpec};

    #[test]
    fn objects_table_upsert_and_get() {
        let mut t = ObjectsTable::new();
        assert!(t.is_empty());
        t.upsert(
            ObjectId(1),
            ObjectAttrs {
                class: ObjectClass::Bus,
            },
        );
        t.upsert(
            ObjectId(1),
            ObjectAttrs {
                class: ObjectClass::Car,
            },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(1)).unwrap().class, ObjectClass::Car);
        assert!(t.get(ObjectId(2)).is_none());
    }

    #[test]
    fn queries_table_upsert_and_get() {
        let mut t = QueriesTable::new();
        t.upsert(
            QueryId(9),
            QueryAttrs {
                spec: QuerySpec::square_range(25.0),
            },
        );
        assert_eq!(t.len(), 1);
        match t.get(QueryId(9)).unwrap().spec {
            QuerySpec::Range { width, height } => {
                assert_eq!(width, 25.0);
                assert_eq!(height, 25.0);
            }
            _ => panic!("expected range"),
        }
    }

    #[test]
    fn cluster_home_single_membership() {
        let mut h = ClusterHome::new();
        let o: EntityRef = ObjectId(5).into();
        assert_eq!(h.assign(o, ClusterSlot(1), 0), None);
        assert_eq!(h.cluster_of(o), Some(ClusterSlot(1)));
        // Re-assignment returns the previous slot (the entity moved).
        assert_eq!(h.assign(o, ClusterSlot(2), 3), Some(ClusterSlot(1)));
        assert_eq!(h.entry_of(o), Some((ClusterSlot(2), 3)));
        // A swap-remove in the cluster re-points the position only.
        h.set_index(o, 1);
        assert_eq!(h.entry_of(o), Some((ClusterSlot(2), 1)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.unassign(o), Some((ClusterSlot(2), 1)));
        assert_eq!(h.cluster_of(o), None);
        assert!(h.is_empty());
    }

    #[test]
    fn object_and_query_ids_do_not_collide_in_home() {
        let mut h = ClusterHome::new();
        h.assign(ObjectId(1).into(), ClusterSlot(1), 0);
        h.assign(QueryId(1).into(), ClusterSlot(2), 0);
        assert_eq!(h.len(), 2);
        assert_eq!(h.cluster_of(ObjectId(1).into()), Some(ClusterSlot(1)));
        assert_eq!(h.cluster_of(QueryId(1).into()), Some(ClusterSlot(2)));
    }

    #[test]
    fn estimated_bytes_nonzero_when_filled() {
        let mut h = ClusterHome::new();
        for i in 0..100 {
            h.assign(ObjectId(i).into(), ClusterSlot(i as u32), 0);
        }
        assert!(h.estimated_bytes() > 0);
        let mut t = ObjectsTable::new();
        t.upsert(ObjectId(1), ObjectAttrs::default());
        assert!(t.estimated_bytes() > 0);
        let mut q = QueriesTable::new();
        q.upsert(
            QueryId(1),
            QueryAttrs {
                spec: QuerySpec::square_range(1.0),
            },
        );
        assert!(q.estimated_bytes() > 0);
    }
}
