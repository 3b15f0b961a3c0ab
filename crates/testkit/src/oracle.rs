//! The deliberately naive reference: O(objects × queries), no grid, no
//! clusters — the paper's §6 exactness contract stated as code.
//!
//! The oracle tracks each entity's last *accepted* report and answers a
//! range query by testing every object against the query's rectangle at
//! the query's last reported position. It is fed exactly what the operator
//! ingests: the tick's control ops, then the tick's updates that survived
//! validation.

use scuba_motion::{ControlOp, EntityRef, LocationUpdate, ObjectId, QueryId};
use scuba_stream::QueryMatch;

/// Last accepted report of every live entity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Oracle {
    objects: Vec<Option<LocationUpdate>>,
    queries: Vec<Option<LocationUpdate>>,
}

fn slot<T>(table: &mut Vec<Option<T>>, index: u64) -> &mut Option<T> {
    let index = usize::try_from(index).expect("entity ids index dense tables");
    if table.len() <= index {
        table.resize_with(index + 1, || None);
    }
    &mut table[index]
}

impl Oracle {
    /// An oracle that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    fn report(&mut self, update: &LocationUpdate) {
        match update.entity {
            EntityRef::Object(ObjectId(id)) => *slot(&mut self.objects, id) = Some(*update),
            EntityRef::Query(QueryId(id)) => {
                if update.query_spec().is_some() {
                    *slot(&mut self.queries, id) = Some(*update);
                }
            }
        }
    }

    /// Applies one tick in the operator's order: controls, then data.
    pub fn observe(&mut self, controls: &[ControlOp], updates: &[LocationUpdate]) {
        for op in controls {
            match op {
                ControlOp::Register(u) | ControlOp::Update(u) => {
                    if u.entity.as_query().is_some() {
                        self.report(u);
                    }
                }
                ControlOp::Deregister(QueryId(id)) => *slot(&mut self.queries, *id) = None,
            }
        }
        for update in updates {
            self.report(update);
        }
    }

    /// The last accepted report of every live object and active query,
    /// objects first, each kind in id order.
    pub fn reports(&self) -> impl Iterator<Item = &LocationUpdate> {
        self.objects.iter().chain(&self.queries).flatten()
    }

    /// The exact answer, sorted by `(query, object)`.
    pub fn evaluate(&self) -> Vec<QueryMatch> {
        let mut out = Vec::new();
        for (q, query) in self.queries.iter().enumerate() {
            let Some(region) = query.and_then(|u| u.query_spec()?.region_at(u.loc)) else {
                continue;
            };
            for (o, object) in self.objects.iter().enumerate() {
                if object.is_some_and(|u| region.contains(&u.loc)) {
                    out.push(QueryMatch::new(QueryId(q as u64), ObjectId(o as u64)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{QueryAttrs, QuerySpec};
    use scuba_spatial::Point;

    #[test]
    fn follows_the_control_plane() {
        let spot = Point::new(5.0, 5.0);
        let heading = Point::new(9.0, 9.0);
        let object = LocationUpdate::object(ObjectId(0), spot, 1, 1.0, heading, Default::default());
        let query = LocationUpdate::query(
            QueryId(0),
            spot,
            1,
            1.0,
            heading,
            QueryAttrs {
                spec: QuerySpec::square_range(4.0),
            },
        );
        let pair = QueryMatch::new(QueryId(0), ObjectId(0));
        let mut oracle = Oracle::new();
        oracle.observe(&[], &[object]);
        assert!(oracle.evaluate().is_empty());
        oracle.observe(&[ControlOp::Register(query)], &[]);
        assert_eq!(oracle.evaluate(), vec![pair]);
        assert_eq!(oracle.reports().count(), 2);
        oracle.observe(&[ControlOp::Deregister(QueryId(0))], &[]);
        assert!(oracle.evaluate().is_empty());
        assert_eq!(oracle.reports().count(), 1);
    }
}
