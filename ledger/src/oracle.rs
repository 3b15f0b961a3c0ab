//! The deliberately naive reference: O(objects × queries), no grid, no
//! clusters — the paper's §6 exactness contract stated as code.
//!
//! The oracle tracks each entity's last *accepted* report and answers a
//! range query by testing every object against the query's rectangle at
//! the query's last reported position. It is fed exactly what the operator
//! is fed (control ops, then the tick's surviving updates) and evaluated
//! outside the timed region.

use scuba_motion::{ControlOp, EntityRef, LocationUpdate, ObjectId, QueryId, QuerySpec};
use scuba_spatial::Point;
use scuba_stream::QueryMatch;

/// Last reported positions of every live entity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Oracle {
    objects: Vec<Option<Point>>,
    queries: Vec<Option<(Point, QuerySpec)>>,
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
            EntityRef::Object(ObjectId(id)) => *slot(&mut self.objects, id) = Some(update.loc),
            EntityRef::Query(QueryId(id)) => {
                if let Some(spec) = update.query_spec() {
                    *slot(&mut self.queries, id) = Some((update.loc, spec));
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

    /// Objects plus active queries.
    pub fn live_entities(&self) -> usize {
        self.objects.iter().flatten().count() + self.queries.iter().flatten().count()
    }

    /// The exact answer, sorted by `(query, object)`.
    pub fn evaluate(&self) -> Vec<QueryMatch> {
        let mut out = Vec::new();
        for (q, query) in self.queries.iter().enumerate() {
            let Some(region) = query.and_then(|(pos, spec)| spec.region_at(pos)) else {
                continue;
            };
            for (o, object) in self.objects.iter().enumerate() {
                if object.is_some_and(|pos| region.contains(&pos)) {
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
    use scuba::RegularGridOperator;
    use scuba_stream::ContinuousOperator;

    use crate::workload::{self, TickSource};

    /// Pins the oracle against the repo's grid baseline on a small
    /// stream. (Churn-free: the baseline ignores the control plane.)
    #[test]
    fn agrees_with_regular_grid_operator() {
        let spec = workload::by_name("hotspot_join").unwrap();
        let (network, area) = workload::build_city();
        let mut source = TickSource::new(&spec, network, 11, 0.05);
        let mut grid = RegularGridOperator::new(50, area);
        let mut oracle = Oracle::new();
        let mut compared = 0;
        for now in 1..=24u64 {
            let tick = source.generate();
            grid.process_batch(&tick.updates);
            oracle.observe(&tick.controls, &tick.updates);
            if now % 2 == 0 {
                let mut expected = grid.evaluate(now).results;
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(oracle.evaluate(), expected, "t={now}");
                compared += expected.len();
            }
        }
        assert!(compared > 0, "the stream produced matches to compare");
    }

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
            scuba_motion::QueryAttrs {
                spec: QuerySpec::square_range(4.0),
            },
        );
        let pair = QueryMatch::new(QueryId(0), ObjectId(0));
        let mut oracle = Oracle::new();
        oracle.observe(&[], &[object]);
        assert!(oracle.evaluate().is_empty());
        oracle.observe(&[ControlOp::Register(query)], &[]);
        assert_eq!(oracle.evaluate(), vec![pair]);
        assert_eq!(oracle.live_entities(), 2);
        oracle.observe(&[ControlOp::Deregister(QueryId(0))], &[]);
        assert!(oracle.evaluate().is_empty());
        assert_eq!(oracle.live_entities(), 1);
    }
}
