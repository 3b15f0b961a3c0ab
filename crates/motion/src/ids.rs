//! Identifiers for moving objects and moving queries.

/// Identifier of a moving object (`o.oid` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// Identifier of a continuous moving query (`q.qid` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// A reference to either kind of moving entity.
///
/// SCUBA clusters objects and queries together ("we group both moving
/// objects and moving queries into moving clusters", §3.1) but must keep
/// the kinds apart inside a cluster because joins only pair objects with
/// queries, never object/object or query/query (Algorithm 1, steps 14/18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityRef {
    /// A moving object.
    Object(ObjectId),
    /// A moving query.
    Query(QueryId),
}

impl EntityRef {
    /// Whether this references an object.
    #[inline]
    pub fn is_object(&self) -> bool {
        matches!(self, EntityRef::Object(_))
    }

    /// The raw numeric id, losing the kind.
    #[inline]
    pub fn raw(&self) -> u64 {
        match self {
            EntityRef::Object(ObjectId(id)) => *id,
            EntityRef::Query(QueryId(id)) => *id,
        }
    }

    /// The query id, if this is a query reference.
    #[inline]
    pub fn as_query(&self) -> Option<QueryId> {
        match self {
            EntityRef::Query(id) => Some(*id),
            EntityRef::Object(_) => None,
        }
    }
}

impl From<ObjectId> for EntityRef {
    fn from(id: ObjectId) -> Self {
        EntityRef::Object(id)
    }
}

impl From<QueryId> for EntityRef {
    fn from(id: QueryId) -> Self {
        EntityRef::Query(id)
    }
}

impl std::fmt::Display for EntityRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntityRef::Object(ObjectId(id)) => write!(f, "O{id}"),
            EntityRef::Query(QueryId(id)) => write!(f, "Q{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let o: EntityRef = ObjectId(3).into();
        let q: EntityRef = QueryId(3).into();
        assert!(o.is_object());
        assert!(!q.is_object());
    }

    #[test]
    fn same_raw_different_kind_are_distinct() {
        let o: EntityRef = ObjectId(7).into();
        let q: EntityRef = QueryId(7).into();
        assert_ne!(o, q);
        assert_eq!(o.raw(), q.raw());
    }

    #[test]
    fn narrowing_accessors() {
        let o: EntityRef = ObjectId(1).into();
        assert_eq!(o.as_query(), None);
        let q: EntityRef = QueryId(2).into();
        assert_eq!(q.as_query(), Some(QueryId(2)));
    }

    #[test]
    fn display_format() {
        assert_eq!(EntityRef::from(ObjectId(12)).to_string(), "O12");
        assert_eq!(EntityRef::from(QueryId(4)).to_string(), "Q4");
    }

    #[test]
    fn usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(EntityRef::from(ObjectId(1)), "a");
        m.insert(EntityRef::from(QueryId(1)), "b");
        assert_eq!(m.len(), 2);
    }
}
